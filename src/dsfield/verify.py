"""Bilinear-operator engine and the numerical verification suites.

Three independent suites certify a solution spec:

* the bilinear constraint 2 D_z D_e f.f - g g* = 0, an algebraic identity
  of the separable form, evaluated in compensated (double-double) float
  arithmetic so a true zero is measurable at the 1e-15 level even where
  the subtracted products are ~1e10 times larger than the result;
* the governing equations in the rotated frame: the envelope equation,
  as line 1 of the bilinear form and as the u-form with the forcing field,
  both from one evaluation of f's order-2 jet in (zeta, eta, t) on the
  window grid; and the forcing-field constraint by finite differences of
  the jet-computed fields (with a convergence mode), from each profile
  once per stencil line and U and phi broadcast onto the stencil;
* the window scan, :func:`~dsfield.ansatz.check_admissibility`: zeros of
  f from f's value alone, the sign condition, and profile poles from
  sweeps of profile values alone.

Every check reads the :class:`~dsfield.auxiliary.Ingredients` bundle of
its window grid, which builds its own formulas from the spec: the
profile, amplitude and gradient jets, the phases and the backgrounds are
each evaluated once there, whichever checks read them; ``pde2`` reads
only the bundle's spec, grid and time.  The Hirota operator expands jets
in (x, t) of any order.

Both envelope-equation checks are gated on the bundle's consistency
report, which is also the report of the consistency check: when the
separation is not certified they are marked not applicable instead of
emitting a large residual that means nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ansatz import (
    AdmissibilityReport,
    CoordinatePoint,
    SolutionSpec,
    batches,
    check_admissibility,
    eval_f,
    eval_intensity,
    eval_phi,
    profile_jets3,
    window_grid,
)
from .auxiliary import Ingredients
from .calculus import Stencil, observed_order

__all__ = [
    "ResidualReport",
    "hirota_d",
    "hirota_cross",
    "bilinear_residuals",
    "envelope_residuals",
    "pde_residuals",
    "pde_phi_convergence",
    "singularity_scan",
    "CONSISTENCY_GATE",
]

# default threshold on the separation consistency variation; the envelope
# checks run only at or below it
CONSISTENCY_GATE = 1e-8

# default stencil of the forcing-field check: second order, step 1e-2
PDE2_STENCIL = Stencil(2, 2, 1e-2)


@dataclass(frozen=True)
class ResidualReport:
    check_name: str
    max_abs: float
    mean_abs: float
    worst_point: CoordinatePoint
    samples: int
    flags: dict = field(default_factory=dict)
    applicable: bool = True
    notes: str = ""
    extras: dict = field(default_factory=dict)


def _report(name, resid_abs, X, Y, t, valid, flags=None, extras=None,
            notes="") -> ResidualReport:
    vals = np.where(valid, resid_abs, np.nan)
    finite = np.isfinite(vals)
    n = int(np.count_nonzero(finite))
    flags = dict(flags or {})
    flags.setdefault("dropped", int(valid.size - n))
    if n == 0:
        return ResidualReport(name, math.nan, math.nan,
                              CoordinatePoint(math.nan, math.nan, t),
                              0, flags, notes=notes or "no valid samples",
                              extras=dict(extras or {}))
    flat = vals[finite]
    mx = float(np.max(flat))
    mean = float(math.fsum(flat.tolist()) / n)
    # argmax over the masked field
    masked = np.where(finite, vals, -np.inf)
    idx = np.unravel_index(np.argmax(masked), masked.shape)
    worst = CoordinatePoint(float(X[idx]), float(Y[idx]), float(t))
    return ResidualReport(name, mx, mean, worst, n, flags, notes=notes,
                          extras=dict(extras or {}))


# ---------------------------------------------------------------------------
# Hirota bilinear operator


def hirota_d(a: Callable, b: Callable, m: int, n: int, pt):
    """D_x^m D_t^n a.b at pt, expanded from jets in (x, t).

    ``a`` and ``b`` map a point (x, t) to a :class:`~dsfield.calculus.Jet`.
    Requesting m + n above the jets' order raises; there is no
    finite-difference fallback.
    """
    if m < 0 or n < 0:
        raise ValueError("operator orders must be nonnegative")
    ja, jb = a(pt), b(pt)
    order = min(ja.order, jb.order)
    if m + n > order:
        raise ValueError(f"operator order m + n exceeds jet order {order}")
    total = 0.0
    for k in range(m + 1):
        for l in range(n + 1):
            sign = -1.0 if (m - k + n - l) % 2 else 1.0
            coeff = math.comb(m, k) * math.comb(n, l)
            total = total + sign * coeff * ja[k, l] * jb[m - k, n - l]
    return total


def hirota_cross(tau) -> float:
    """D_z D_e f.f from f's jet in (zeta, eta, t): 2 (f f_ze - f_z f_e)."""
    return 2.0 * (tau.value * tau[1, 1, 0] - tau[1, 0, 0] * tau[0, 1, 0])


# ---------------------------------------------------------------------------
# double-double helpers (Dekker/Knuth), vectorized over numpy arrays


_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    return s, err


def _fast_two_sum(a, b):
    s = a + b
    err = b - (s - a)
    return s, err


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    e = e + x[1] + y[1]
    return _fast_two_sum(s, e)


def _dd_neg(x):
    return -x[0], -x[1]


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    e = e + x[0] * y[1] + x[1] * y[0]
    return _fast_two_sum(p, e)


def _bilinear_cross_dd(a0, a1, a2, a3, p, q, pz, qe):
    """4 (f f_ze - f_z f_e) in double-double, from profile samples."""
    pq = _two_prod(p, q)
    f = _dd_add(_dd_add((a0, 0.0), _two_prod(a1, p)),
                _dd_add(_two_prod(a2, q), _dd_mul((a3, 0.0), pq)))
    A = _dd_add((a1, 0.0), _two_prod(a3, q))
    B = _dd_add((a2, 0.0), _two_prod(a3, p))
    fz = _dd_mul(A, (pz, 0.0))
    fe = _dd_mul(B, (qe, 0.0))
    fze = _dd_mul((a3, 0.0), _two_prod(pz, qe))
    cross = _dd_add(_dd_mul(f, fze), _dd_neg(_dd_mul(fz, fe)))
    return _dd_mul(cross, (4.0, 0.0))


# ---------------------------------------------------------------------------
# envelope equation


def _envelope_terms(ing: Ingredients):
    """Envelope g = p1 q1 exp(i(r+s)) and its derivatives
    (g, g_z, g_zz, g_e, g_ee, g_t)."""
    p1, q1, rz, se = ing.p1, ing.q1, ing.rz, ing.se
    (r, r_t), (s, s_t) = ing.r, ing.s
    E = np.exp(1j * (r + s))
    P = p1.value * q1.value
    g = P * E
    g_z = (p1[1, 0] + 1j * rz.value * p1.value) * q1.value * E
    g_zz = (p1[2, 0] + 2j * rz.value * p1[1, 0]
            + (1j * rz[1, 0] - rz.value ** 2) * p1.value) * q1.value * E
    g_e = p1.value * (q1[1, 0] + 1j * se.value * q1.value) * E
    g_ee = p1.value * (q1[2, 0] + 2j * se.value * q1[1, 0]
                       + (1j * se[1, 0] - se.value ** 2) * q1.value) * E
    g_t = (p1[0, 1] * q1.value + p1.value * q1[0, 1] + 1j * P * (r_t + s_t)) * E
    return g, g_z, g_zz, g_e, g_ee, g_t


def _envelope_fields(ing: Ingredients, tau):
    """|residual| of line 1 of the bilinear form, its terms scaled by 1/f^3,
    and of the envelope equation for u = g/f with the forcing field phi."""
    spec, t, p0, q0 = ing.spec, ing.t, ing.p0, ing.q0
    g, g_z, g_zz, g_e, g_ee, g_t = _envelope_terms(ing)
    f, f_z, f_e, f_t, f_zz, f_ze, _, f_ee, _, _ = tau.entries
    beta = spec.funcs.beta(t)
    gamma = spec.funcs.gamma(t)
    f2 = f * f
    u = g / f
    t1 = 1j * (g_t * f - g * f_t) / f2
    d2z = (g_zz * f - 2.0 * g_z * f_z + g * f_zz) / f2
    d2e = (g_ee * f - 2.0 * g_e * f_e + g * f_ee) / f2
    t2 = 0.5 * beta * (d2z + d2e)
    t3 = -0.5 * beta * (np.abs(g) ** 2) * g / (f2 * f)
    t4 = beta * u * hirota_cross(tau) / f2
    t5 = beta * (p0 + q0) * u
    t6 = -1j * gamma * u
    # u_zz + u_ee, with u_zz = d2z - u D_z^2 f.f / f^2
    lap = ((d2z - u * 2.0 * (f * f_zz - f_z ** 2) / f2)
           + (d2e - u * 2.0 * (f * f_ee - f_e ** 2) / f2))
    phi = eval_phi(spec, ing.grid.zeta, ing.grid.eta, t, p0, q0, tau=tau)
    pde1 = t1 + beta * (0.5 * lap - 0.5 * np.abs(u) ** 2 * u + u * phi) + t6
    return np.abs(t1 + t2 + t3 + t4 + t5 + t6), np.abs(pde1)


def envelope_residuals(ing: Ingredients, tol: float = CONSISTENCY_GATE):
    """The envelope equation twice over from one evaluation on the bundle's
    grid.

    Returns (bilinear1, pde1): line 1 of the bilinear form with its terms
    at envelope scale (the raw form scales like |f|^3, which would make
    absolute numbers meaningless) and the u-form with the forcing field
    phi.  When the bundle's consistency report does not certify the
    separation to ``tol`` both come back not applicable, instead of a large
    residual that means nothing.
    """
    grid, t, crep = ing.grid, ing.t, ing.consistency
    extras = {"consistency_variation": crep.max_variation}
    why = ("not applicable: consistency undefined for a3 = 0" if not crep.applicable
           else "" if crep.max_variation <= tol
           else "not applicable: undefined consistency (variation nan)"
           if math.isnan(crep.max_variation)
           else (f"not applicable: inconsistent separation "
                 f"(variation {crep.max_variation:.3e} > gate {tol:.1e})"))
    if why:
        return tuple(ResidualReport(name, math.nan, math.nan,
                                    CoordinatePoint(math.nan, math.nan, t), 0,
                                    applicable=False, notes=why, extras=extras)
                     for name in ("bilinear1", "pde1"))
    tau = eval_f(ing.spec, grid.zeta, grid.eta, t, ing.pj, ing.qj)
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        line1, pde1 = _envelope_fields(ing, tau)
    return (_report("bilinear1", line1, grid.X, grid.Y, t, grid.keep & np.isfinite(line1),
                    extras={"normalization": "terms scaled by 1/f^3", **extras}),
            _report("pde1", pde1, grid.X, grid.Y, t, grid.keep & np.isfinite(pde1),
                    extras=extras))


# ---------------------------------------------------------------------------
# bilinear residuals


def _bilinear2_field(ing: Ingredients):
    """Residual of 2 D_z D_e f.f = g g* relative to |g g*|.

    g g* comes from the bundle's amplitude factors, falling back to the
    exact product 4 det p_z q_e where they are non-finite; the second value
    marks those fallbacks.
    """
    a, pj, qj = ing.spec.coeffs, ing.pj, ing.qj
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        hi, lo = _bilinear_cross_dd(a.a0, a.a1, a.a2, a.a3,
                                    pj.value, qj.value, pj[1, 0], qj[1, 0])
        gg = (ing.p1.value * ing.q1.value) ** 2
        amp_bad = ~np.isfinite(gg)
        gg = np.where(amp_bad, 4.0 * a.det * pj[1, 0] * qj[1, 0], gg)
        resid = np.abs((hi - gg) + lo)
        scale = np.abs(gg)
        return resid / np.where(scale > 0.0, scale, 1.0), amp_bad


def bilinear_residuals(ing: Ingredients) -> ResidualReport:
    """Residual of the bilinear constraint 2 D_z D_e f.f = g g* on the
    bundle's grid, relative to |g g*| (line 2 of the bilinear form;
    :func:`envelope_residuals` reports line 1)."""
    grid = ing.grid
    rel, amp_bad = _bilinear2_field(ing)
    return _report("bilinear2", rel, grid.X, grid.Y, ing.t, grid.keep & np.isfinite(rel),
                   flags={"amplitude_branch": int(np.count_nonzero(amp_bad & grid.keep))},
                   extras={"normalization": "relative to |g g*|"})


# ---------------------------------------------------------------------------
# forcing-field constraint


def pde_residuals(ing: Ingredients, stencil: Stencil = PDE2_STENCIL) -> ResidualReport:
    """Residual of the forcing-field constraint (line 2 of the rotated-frame
    equations, fourth order in log f) on the bundle's grid, by central
    differences of the jet-computed intensity and forcing fields using
    ``stencil``."""
    grid = ing.grid
    resid, stencil_ok = _pde2_field(ing.spec, grid.zeta, grid.eta, ing.t, stencil)
    return _report("pde2", resid, grid.X, grid.Y, ing.t,
                   grid.keep & stencil_ok & np.isfinite(resid),
                   flags={"stencil_dropped":
                          int(np.count_nonzero(grid.keep & ~stencil_ok))},
                   extras={"h": stencil.h, "accuracy": stencil.accuracy})


def _pde2_field(spec, zeta, eta, t, stencil: Stencil):
    """Forcing-field constraint residual |4 phi_ze - U_zz - U_ee - 2 U_ze|.

    Central differences with ``stencil``; the second value marks the points
    whose stencil samples of U and phi are all finite.  A point's k x k
    stencil samples lie on k shifted zeta and k shifted eta lines, so per
    batch of rows p is evaluated once on its lines, (k, 1, rows, nx), q on
    its own, (1, k, rows, nx), both to order 2, and U and phi come out on
    the stencil by broadcasting.  The stencils then run over all rows at
    once: their matrix product rounds an operand's last entries its own
    way, so stencils per batch would move bits at the seams.
    """
    h = stencil.h
    w2 = Stencil(2, stencil.accuracy, h).weights
    w1 = Stencil(1, stencil.accuracy, h).weights
    half = (len(w1) - 1) // 2
    d = np.arange(-half, half + 1) * h

    U = np.empty((len(d), len(d)) + zeta.shape)
    PHI = np.empty_like(U)
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        for rows in batches(zeta.shape[0], U[:, :, 0].size):
            z = zeta[rows] + d[:, None, None, None]
            e = (eta[rows] + d[:, None, None])[None]
            pj, qj = profile_jets3(spec, z, e, t, 2)
            # zero backgrounds: the cross derivative annihilates separated
            # backgrounds, so the check is exact without them and stays
            # defined at degenerate times
            PHI[:, :, rows] = eval_phi(spec, z, e, t, 0.0, 0.0,
                                       tau=eval_f(spec, z, e, t, pj, qj))
            U[:, :, rows] = eval_intensity(spec, z, e, t, pj, qj)

        u_zz = np.tensordot(w2, U[:, half], axes=(0, 0)) / h**2
        u_ee = np.tensordot(w2, U[half, :], axes=(0, 0)) / h**2
        u_ze = np.einsum("i,j,ij...->...", w1, w1, U) / h**2
        phi_ze = np.einsum("i,j,ij...->...", w1, w1, PHI) / h**2
        resid = np.abs(4.0 * phi_ze - u_zz - u_ee - 2.0 * u_ze)
    stencil_ok = np.isfinite(U).all(axis=(0, 1)) & np.isfinite(PHI).all(axis=(0, 1))
    return resid, stencil_ok


def pde_phi_convergence(ing: Ingredients, stencil: Stencil = PDE2_STENCIL):
    """Rerun the forcing-field check at h and h/2; report the observed order."""
    coarse = pde_residuals(ing, stencil)
    finer = Stencil(stencil.order, stencil.accuracy, stencil.h / 2)
    fine = pde_residuals(ing, finer)
    order = observed_order(coarse.mean_abs, fine.mean_abs)
    return coarse, fine, order


# ---------------------------------------------------------------------------
# residual fields for rendering


def residual_field(ing: Ingredients, which: str) -> np.ndarray:
    """Pointwise residual values on the bundle's grid (not reduced to a
    report) for rendering.

    NaN marks the samples the matching report drops.
    """
    grid = ing.grid
    keep = grid.keep
    if which == "bilinear2":
        resid, _ = _bilinear2_field(ing)
    elif which == "pde2":
        resid, stencil_ok = _pde2_field(ing.spec, grid.zeta, grid.eta, ing.t, PDE2_STENCIL)
        keep = keep & stencil_ok
    else:
        raise ValueError(f"unknown residual field {which!r}")
    return np.where(keep & np.isfinite(resid), resid, np.nan)


# ---------------------------------------------------------------------------
# singularity scan


# kept while perfbench/tracer.py wraps this name
def singularity_scan(spec: SolutionSpec, window, t: float, samples=128,
                     valid_mask=None) -> AdmissibilityReport:
    """:func:`~dsfield.ansatz.check_admissibility` on a fresh window grid,
    from the profiles' box (1, 0) jets there."""
    grid = window_grid(window, samples, valid_mask)
    return check_admissibility(spec, grid, t,
                               *profile_jets3(spec, grid.zeta, grid.eta, t, (1, 0)))
