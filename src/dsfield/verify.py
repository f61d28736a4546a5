"""Bilinear-operator engine and the numerical verification suites.

Three independent suites certify a solution spec:

* the bilinear constraint 2 D_z D_e f.f - g g* = 0, an algebraic identity
  of the separable form, evaluated in compensated (double-double) float
  arithmetic so a true zero is measurable at the 1e-15 level even where
  the subtracted products are ~1e10 times larger than the result;
* the governing equations in the rotated frame: the envelope equation from
  exact jets and integrated phases, and the forcing-field constraint by
  finite differences of the jet-computed fields (with a convergence mode);
* window scans for denominator zeros, profile poles and the sign condition.

Envelope-equation checks are gated on the consistency report: when the
separation is not certified the report is marked not applicable instead of
emitting a large residual that means nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .ansatz import (
    CoordinatePoint,
    SolutionSpec,
    denominator_scan,
    eval_f,
    eval_intensity,
    eval_phi,
    profile_jets3,
    window_grid,
)
from .auxiliary import Auxiliaries, consistency_c1_c2, derive
from .calculus import Jet, Stencil, observed_order

__all__ = [
    "ResidualReport",
    "hirota_d",
    "hirota_cross",
    "bilinear_residuals",
    "pde_residuals",
    "pde_phi_convergence",
    "pole_sweep",
    "singularity_scan",
    "ScanReport",
    "CONSISTENCY_GATE",
]

# envelope-equation checks run only when the separation consistency
# variation is below this gate
CONSISTENCY_GATE = 1e-8


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
    """D_x^m D_t^n a.b at pt, expanded from order-2 jets.

    ``a`` and ``b`` map a point (x, t) to a :class:`Jet`.  Requesting
    m + n > 2 raises; there is no finite-difference fallback.
    """
    if m < 0 or n < 0:
        raise ValueError("operator orders must be nonnegative")
    if m + n > 2:
        raise ValueError("operator order m + n exceeds jet order 2")
    ja, jb = a(pt), b(pt)
    total = 0.0
    for k in range(m + 1):
        for l in range(n + 1):
            sign = -1.0 if (m - k + n - l) % 2 else 1.0
            coeff = math.comb(m, k) * math.comb(n, l)
            total = total + sign * coeff * ja.partial(k, l) * jb.partial(m - k, n - l)
    return total


def hirota_cross(tau) -> float:
    """D_z D_e f.f from a tau-function derivative bundle: 2 (f f_ze - f_z f_e)."""
    return 2.0 * (tau.f * tau.f_ze - tau.f_z * tau.f_e)


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
    zero = np.zeros_like(p)
    pq = _two_prod(p, q)
    f = _dd_add(_dd_add((np.full_like(p, a0), zero), _two_prod(a1, p)),
                _dd_add(_two_prod(a2, q), _dd_mul((np.full_like(p, a3), zero), pq)))
    A = _dd_add((np.full_like(p, a1), zero), _two_prod(a3, q))
    B = _dd_add((np.full_like(p, a2), zero), _two_prod(a3, p))
    fz = _dd_mul(A, (pz, zero))
    fe = _dd_mul(B, (qe, zero))
    fze = _dd_mul((np.full_like(p, a3), zero), _two_prod(pz, qe))
    cross = _dd_add(_dd_mul(f, fze), _dd_neg(_dd_mul(fz, fe)))
    hi, lo = _dd_mul(cross, (np.full_like(p, 4.0), zero))
    return hi, lo


# ---------------------------------------------------------------------------
# consistency gate


def _consistency_gate(spec, aux, zeta, eta, t, gate):
    """Evaluate the separation-consistency gate over the window's ranges."""
    zp = np.linspace(float(np.min(zeta)), float(np.max(zeta)), 33)
    ep = np.linspace(float(np.min(eta)), float(np.max(eta)), 33)
    rep = consistency_c1_c2(spec, aux, zp, ep, t)
    if not rep.applicable:
        return False, "not applicable: consistency undefined for a3 = 0", rep
    if not np.isfinite(rep.max_variation) or rep.max_variation > gate:
        return False, (f"not applicable: inconsistent separation "
                       f"(variation {rep.max_variation:.3e} > gate {gate:.1e})"), rep
    return True, "", rep


# ---------------------------------------------------------------------------
# envelope equation


def _envelope_terms(spec, aux, zeta, eta, t):
    """Envelope g = p1 q1 exp(i(r+s)) and its derivatives.

    Returns ((g, g_z, g_zz, g_e, g_ee, g_t), r_t, s_t).
    """
    p1 = aux.p1_jet(zeta, t)
    q1 = aux.q1_jet(eta, t)
    rz = aux.r_zeta_jet(zeta, t)
    se = aux.s_eta_jet(eta, t)
    r, r_t = aux.phase_r(zeta, t)
    s, s_t = aux.phase_s(eta, t)
    E = np.exp(1j * (r + s))
    P = p1.value * q1.value
    g = P * E
    g_z = (p1.d1 + 1j * rz.value * p1.value) * q1.value * E
    g_zz = (p1.d11 + 2j * rz.value * p1.d1
            + (1j * rz.d1 - rz.value ** 2) * p1.value) * q1.value * E
    g_e = p1.value * (q1.d1 + 1j * se.value * q1.value) * E
    g_ee = p1.value * (q1.d11 + 2j * se.value * q1.d1
                       + (1j * se.d1 - se.value ** 2) * q1.value) * E
    g_t = (p1.dt * q1.value + p1.value * q1.dt + 1j * P * (r_t + s_t)) * E
    return (g, g_z, g_zz, g_e, g_ee, g_t), r_t, s_t


def _envelope_report(name, residual, spec, aux, X, Y, zeta, eta, t, keep,
                     gate, extras=None, pj=None, qj=None) -> ResidualReport:
    """Gate on consistency, then report |residual| of the envelope equation.

    ``residual(spec, zeta, eta, t, tau, g_terms, p0, q0)`` gets f's jets,
    the envelope terms of :func:`_envelope_terms` and the backgrounds.
    """
    if aux is None:
        aux = derive(spec)
    ok, why, crep = _consistency_gate(spec, aux, zeta, eta, t, gate)
    variation = {"consistency_variation": crep.max_variation}
    if not ok:
        return ResidualReport(name, math.nan, math.nan,
                              CoordinatePoint(math.nan, math.nan, t), 0,
                              applicable=False, notes=why, extras=variation)
    if pj is None:
        pj, qj = profile_jets3(spec, zeta, eta, t)
    tau = eval_f(spec, zeta, eta, t, pj, qj)
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        terms, r_t, s_t = _envelope_terms(spec, aux, zeta, eta, t)
        p0 = aux.p0(zeta, t, r_t=r_t)
        q0 = aux.q0(eta, t, s_t=s_t)
        resid = residual(spec, zeta, eta, t, tau, terms, p0, q0)
        valid = keep & np.isfinite(resid)
    return _report(name, resid, X, Y, t, valid, extras={**(extras or {}), **variation})


def _bilinear1_residual(spec, zeta, eta, t, tau, terms, p0, q0):
    """Line 1 of the bilinear form, its terms scaled by 1/f^3."""
    g, g_z, g_zz, g_e, g_ee, g_t = terms
    f = tau.f
    beta = spec.funcs.beta(t)
    gamma = spec.funcs.gamma(t)
    f2 = f * f
    u = g / f
    t1 = 1j * (g_t * f - g * tau.f_t) / f2
    d2z = (g_zz * f - 2.0 * g_z * tau.f_z + g * tau.f_zz) / f2
    d2e = (g_ee * f - 2.0 * g_e * tau.f_e + g * tau.f_ee) / f2
    t2 = 0.5 * beta * (d2z + d2e)
    t3 = -0.5 * beta * (np.abs(g) ** 2) * g / (f2 * f)
    cross = 2.0 * (f * tau.f_ze - tau.f_z * tau.f_e)
    t4 = beta * u * cross / f2
    t5 = beta * (p0 + q0) * u
    t6 = -1j * gamma * u
    return np.abs(t1 + t2 + t3 + t4 + t5 + t6)


def _pde1_residual(spec, zeta, eta, t, tau, terms, p0, q0):
    """The envelope equation for u = g/f with the forcing field phi."""
    g, g_z, g_zz, g_e, g_ee, g_t = terms
    beta = spec.funcs.beta(t)
    gamma = spec.funcs.gamma(t)
    f = tau.f
    f2 = f * f
    u = g / f
    u_t = (g_t * f - g * tau.f_t) / f2
    dff_z = 2.0 * (f * tau.f_zz - tau.f_z ** 2)
    dff_e = 2.0 * (f * tau.f_ee - tau.f_e ** 2)
    u_zz = (g_zz * f - 2.0 * g_z * tau.f_z + g * tau.f_zz) / f2 - u * dff_z / f2
    u_ee = (g_ee * f - 2.0 * g_e * tau.f_e + g * tau.f_ee) / f2 - u * dff_e / f2
    phi = eval_phi(spec, zeta, eta, t, p0, q0, tau=tau)
    return np.abs(
        1j * u_t
        + beta * (0.5 * (u_zz + u_ee)
                  - 0.5 * np.abs(u) ** 2 * u
                  + u * phi)
        - 1j * gamma * u
    )


# ---------------------------------------------------------------------------
# bilinear residuals


def _bilinear2_field(spec, aux, zeta, eta, t, pj, qj):
    """Residual of 2 D_z D_e f.f = g g* relative to |g g*|.

    With ``aux``, g g* comes from the amplitude factors, falling back to the
    exact product 4 det p_z q_e where they are non-finite; the second value
    marks those fallbacks (None without ``aux``).
    """
    a = spec.coeffs
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        hi, lo = _bilinear_cross_dd(a.a0, a.a1, a.a2, a.a3,
                                    pj.value, qj.value, pj.d1, qj.d1)
        gg = 4.0 * a.det * pj.d1 * qj.d1
        amp_bad = None
        if aux is not None:
            gg_amp = (aux.p1_jet(zeta, t).value * aux.q1_jet(eta, t).value) ** 2
            amp_bad = ~np.isfinite(gg_amp)
            gg = np.where(amp_bad, gg, gg_amp)
        resid = np.abs((hi - gg) + lo)
        scale = np.abs(gg)
        return resid / np.where(scale > 0.0, scale, 1.0), amp_bad


def bilinear_residuals(spec: SolutionSpec, aux: Optional[Auxiliaries],
                       window, t: float, samples=64,
                       valid_mask=None, gate: float = CONSISTENCY_GATE,
                       check_line1: bool = True):
    """Residuals of the two bilinear relations on a window.

    Returns (line2 report, line1 report).  Line 2 is the constraint
    2 D_z D_e f.f = g g*; its residual is reported relative to |g g*|.
    Line 1 terms are evaluated at envelope scale (the raw bilinear form
    scales like |f|^3, which would make absolute numbers meaningless).
    """
    grid = window_grid(window, samples, valid_mask)
    pj, qj = profile_jets3(spec, grid.zeta, grid.eta, t)
    rel, amp_bad = _bilinear2_field(spec, aux, grid.zeta, grid.eta, t, pj, qj)
    flags = {}
    if amp_bad is not None:
        flags["amplitude_branch"] = int(np.count_nonzero(amp_bad & grid.keep))
    line2 = _report("bilinear2", rel, grid.X, grid.Y, t, grid.keep & np.isfinite(rel),
                    flags=flags, extras={"normalization": "relative to |g g*|"})
    if not check_line1:
        return line2, None
    line1 = _envelope_report("bilinear1", _bilinear1_residual, spec, aux,
                             grid.X, grid.Y, grid.zeta, grid.eta, t, grid.keep, gate,
                             {"normalization": "terms scaled by 1/f^3"}, pj, qj)
    return line2, line1


# ---------------------------------------------------------------------------
# governing-equation residuals


def pde_residuals(spec: SolutionSpec, aux: Optional[Auxiliaries], window,
                  t: float, samples=32, stencil: Optional[Stencil] = None,
                  valid_mask=None, gate: float = CONSISTENCY_GATE,
                  checks=("line1", "line2")):
    """Residuals of the rotated-frame governing equations.

    Line 1 (envelope equation) is evaluated from exact jets and integrated
    phases; line 2 (forcing-field constraint, fourth order in log f) by
    central differences of the jet-computed intensity and forcing fields
    using ``stencil``.  Returns (line1 report, line2 report); entries not
    requested come back None.
    """
    stencil = stencil or Stencil(2, 2, 1e-2)
    grid = window_grid(window, samples, valid_mask)
    line1 = line2 = None
    if "line1" in checks:
        line1 = _envelope_report("pde1", _pde1_residual, spec, aux, grid.X,
                                 grid.Y, grid.zeta, grid.eta, t, grid.keep, gate)
    if "line2" in checks:
        resid, stencil_ok = _pde2_field(spec, grid.zeta, grid.eta, t, stencil)
        line2 = _report("pde2", resid, grid.X, grid.Y, t,
                        grid.keep & stencil_ok & np.isfinite(resid),
                        flags={"stencil_dropped":
                               int(np.count_nonzero(grid.keep & ~stencil_ok))},
                        extras={"h": stencil.h, "accuracy": stencil.accuracy})
    return line1, line2


def _pde2_field(spec, zeta, eta, t, stencil: Stencil):
    """Forcing-field constraint residual |4 phi_ze - U_zz - U_ee - 2 U_ze|.

    Central differences with ``stencil``; the second value marks the points
    whose stencil samples of U and phi are all finite.
    """
    h = stencil.h
    w2 = Stencil(2, stencil.accuracy, h).weights
    w1 = Stencil(1, stencil.accuracy, h).weights
    half = (len(w1) - 1) // 2
    offs = np.arange(-half, half + 1)

    U = np.empty((len(offs), len(offs)) + zeta.shape)
    PHI = np.empty_like(U)
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        for i, oi in enumerate(offs):
            for j, oj in enumerate(offs):
                z, e = zeta + oi * h, eta + oj * h
                pj, qj = profile_jets3(spec, z, e, t)
                # zero backgrounds: the cross derivative annihilates separated
                # backgrounds, so the check is exact without them and stays
                # defined at degenerate times
                PHI[i, j] = eval_phi(spec, z, e, t, 0.0, 0.0,
                                     tau=eval_f(spec, z, e, t, pj, qj))
                U[i, j] = eval_intensity(spec, z, e, t, pj, qj).values

        u_zz = np.tensordot(w2, U[:, half], axes=(0, 0)) / h**2
        u_ee = np.tensordot(w2, U[half, :], axes=(0, 0)) / h**2
        u_ze = np.einsum("i,j,ij...->...", w1, w1, U) / h**2
        phi_ze = np.einsum("i,j,ij...->...", w1, w1, PHI) / h**2
        resid = np.abs(4.0 * phi_ze - u_zz - u_ee - 2.0 * u_ze)
    stencil_ok = np.isfinite(U).all(axis=(0, 1)) & np.isfinite(PHI).all(axis=(0, 1))
    return resid, stencil_ok


def pde_phi_convergence(spec: SolutionSpec, window, t: float, samples=24,
                        stencil: Optional[Stencil] = None, valid_mask=None):
    """Rerun the forcing-field check at h and h/2; report the observed order."""
    stencil = stencil or Stencil(2, 2, 1e-2)
    _, coarse = pde_residuals(spec, None, window, t, samples, stencil,
                              valid_mask, checks=("line2",))
    finer = Stencil(stencil.order, stencil.accuracy, stencil.h / 2)
    _, fine = pde_residuals(spec, None, window, t, samples, finer,
                            valid_mask, checks=("line2",))
    order = observed_order(coarse.mean_abs, fine.mean_abs)
    return coarse, fine, order


# ---------------------------------------------------------------------------
# residual fields for rendering


def residual_field(spec: SolutionSpec, aux, which: str, window, t: float,
                   nx: int, ny: int, valid_mask=None) -> np.ndarray:
    """Pointwise residual values (not reduced to a report) for rendering.

    NaN marks the samples the matching report drops.
    """
    grid = window_grid(window, (nx, ny), valid_mask)
    keep = grid.keep
    if which == "bilinear2":
        pj, qj = profile_jets3(spec, grid.zeta, grid.eta, t)
        resid, _ = _bilinear2_field(spec, aux, grid.zeta, grid.eta, t, pj, qj)
    elif which == "pde2":
        resid, stencil_ok = _pde2_field(spec, grid.zeta, grid.eta, t,
                                        Stencil(2, 2, 1e-2))
        keep = keep & stencil_ok
    else:
        raise ValueError(f"unknown residual field {which!r}")
    return np.where(keep & np.isfinite(resid), resid, np.nan)


# ---------------------------------------------------------------------------
# singularity scan


@dataclass(frozen=True)
class ScanReport:
    min_abs_f: float
    min_f_point: tuple
    sign_change_cells: int
    sign_change_examples: tuple
    nonfinite_points: int
    masked_points: int
    samples: int
    pole_intervals_zeta: tuple = ()
    pole_intervals_eta: tuple = ()


# magnitude treated as a pole signature in the 1-D profile sweep; legitimate
# exponential-sum growth on sane windows stays far below this
_POLE_MAGNITUDE = 1e150


def pole_sweep(profile, coords, t: float, n: int = 65537):
    """Fine 1-D sweep for profile poles over the range of ``coords``; returns
    suspect intervals."""
    x = np.linspace(float(np.min(coords)), float(np.max(coords)), n)
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        j = profile.jet3(x, t)
        v = np.asarray(j.value, dtype=float)
        suspect = ~np.isfinite(v) | (np.abs(v) > _POLE_MAGNITUDE)
    if not suspect.any():
        return ()
    idx = np.nonzero(suspect)[0]
    gaps = np.nonzero(np.diff(idx) > 1)[0]
    starts = np.concatenate(([0], gaps + 1))
    ends = np.concatenate((gaps, [len(idx) - 1]))
    return tuple((float(x[idx[s]]), float(x[idx[e]])) for s, e in zip(starts, ends))


def singularity_scan(spec: SolutionSpec, window, t: float, samples=128,
                     valid_mask=None) -> ScanReport:
    """Locate denominator zero crossings and profile poles on a window.

    Poles are searched with a fine one-dimensional sweep along each rotated
    coordinate (they are one-variable features of the profiles), in addition
    to the two-dimensional denominator scan.
    """
    grid = window_grid(window, samples, valid_mask)
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        f = eval_f(spec, grid.zeta, grid.eta, t).f
    finite, min_abs_f, min_point, flips_x, flips_y = denominator_scan(
        f, grid.keep, grid.X, grid.Y, t)
    # up to five x-flip cells, or y-flip cells when there are no x-flips
    ys, xs = np.nonzero(flips_x if flips_x.any() else flips_y)
    examples = tuple((float(grid.X[yy, xx]), float(grid.Y[yy, xx]))
                     for yy, xx in zip(ys[:5], xs[:5]))
    return ScanReport(
        min_abs_f=min_abs_f,
        min_f_point=min_point,
        sign_change_cells=int(np.count_nonzero(flips_x) + np.count_nonzero(flips_y)),
        sign_change_examples=examples,
        nonfinite_points=int(np.count_nonzero(grid.keep & ~finite)),
        masked_points=int(np.count_nonzero(~grid.keep)),
        samples=int(grid.zeta.size),
        pole_intervals_zeta=pole_sweep(spec.p, grid.zeta, t),
        pole_intervals_eta=pole_sweep(spec.q, grid.eta, t),
    )
