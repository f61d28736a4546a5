"""The numerical verification suites.

Three independent suites certify a solution spec:

* the bilinear constraint 2 D_z D_e f.f - g g* = 0: for the separable f
  the left side is identically 4 det p_z q_e, so the check compares that
  closed form with g g* from the amplitude factors, to a few roundings of
  |g g*|;
* the governing equations in the rotated frame: the envelope equation,
  as line 1 of the bilinear form and as the u-form with the forcing field,
  both from one evaluation per block of grid rows of the order-2 jets in
  (zeta, eta, t) of f and of the envelope g, the product of the bundle's
  line carriers; and the forcing-field constraint by finite differences of
  the jet-computed fields (with a convergence mode), from each profile
  once per stencil line and U and phi broadcast onto the stencil, the
  stencils summed in a fixed order per block of grid rows;
* the window scan, :func:`~dsfield.ansatz.check_admissibility`: zeros of
  f from f's value alone, the sign condition, and profile poles from
  sweeps of profile values alone.

Every check reads the :class:`~dsfield.auxiliary.Ingredients` bundle of
its window grid (``pde2`` only its spec, grid and time), each line entry
evaluated once per line; it fills its residual grid from row windows by
:func:`~dsfield.ansatz.fill_rows`, as the renders do, and reduces its finite
samples inside the grid's ``keep`` by ``masked_stats``: a residual is non-finite
exactly where it checks nothing.  The one bilinear operator here is
:func:`hirota_cross`, D_z D_e f.f from f's jet, which the envelope pass reads.

No check gates another: the envelope-equation checks run on every spec
with a3 != 0, whatever the consistency report says, so a non-solution
fails them.  At a3 = 0 they are marked not applicable, because their
residuals near the zeros of f have no rounding floor to be judged by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import (
    AdmissibilityReport,
    CoordinatePoint,
    SolutionSpec,
    check_admissibility,
    eval_f,
    eval_intensity,
    eval_phi,
    fill_rows,
    masked_stats,
    profile_jets3,
    rotate,
    window_grid,
)
from .auxiliary import Ingredients
from .calculus import Stencil, observed_order

__all__ = [
    "ResidualReport",
    "hirota_cross",
    "bilinear_residuals",
    "envelope_residuals",
    "pde_residuals",
    "pde_phi_convergence",
    "singularity_scan",
]

# default stencil of the forcing-field check: second order, step 1e-2
PDE2_STENCIL = Stencil(2, 2, 1e-2)


@dataclass(frozen=True)
class ResidualReport:
    """A residual field reduced to its maximum, mean and worst point over its finite
    ``samples`` inside ``keep``, the ``dropped`` ones inside but not finite and the
    ``masked`` ones outside; ``notes`` say why it is not applicable or cannot pass."""

    check_name: str
    max_abs: float
    mean_abs: float
    worst_point: CoordinatePoint
    samples: int
    masked: int = 0
    dropped: int = 0
    applicable: bool = True
    notes: str = ""


def _report(name, resid_abs, grid, t) -> ResidualReport:
    """The report of the finite samples of ``resid_abs`` inside ``grid.keep`` (their
    minimum unused).  A report that dropped samples says so in its notes: with none
    left it checked nothing, and with some it checked only part of the valid set."""
    n, _, mx, mean, at = masked_stats(resid_abs, grid.keep & np.isfinite(resid_abs))
    kept = int(np.count_nonzero(grid.keep))
    xy = (grid.X[at], grid.Y[at]) if n else (math.nan, math.nan)
    notes = ("no valid samples" if not n else
             f"{kept - n} samples not finite inside the valid set" if kept > n else "")
    return ResidualReport(name, mx, mean, CoordinatePoint(*map(float, xy), float(t)), n,
                          grid.keep.size - kept, kept - n, notes=notes)


# ---------------------------------------------------------------------------
# Hirota bilinear operator


def hirota_cross(tau) -> float:
    """D_z D_e f.f from f's jet in (zeta, eta, t): 2 (f f_ze - f_z f_e)."""
    return 2.0 * (tau.value * tau[1, 1, 0] - tau[1, 0, 0] * tau[0, 1, 0])


# ---------------------------------------------------------------------------
# envelope equation


def _envelope_fields(spec: SolutionSpec, t, b):
    """|residual| of line 1 of the bilinear form, its terms scaled by 1/f^3, and
    of the envelope equation for u = g/f with phi, g = P Q, from the row entries ``b``."""
    g = b.P.shift(order=2, axes=(0, 2), n=3) * b.Q.shift(order=2, axes=(1, 2), n=3)
    g, g_z, g_e, g_t, g_zz, _, _, g_ee, _, _ = g.entries
    tau = eval_f(spec, b.pj, b.qj)
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
    t5 = beta * (b.p0 + b.q0) * u
    t6 = -1j * gamma * u
    # u_zz + u_ee, with u_zz = d2z - u D_z^2 f.f / f^2
    lap = ((d2z - u * 2.0 * (f * f_zz - f_z ** 2) / f2)
           + (d2e - u * 2.0 * (f * f_ee - f_e ** 2) / f2))
    phi = eval_phi(tau, b.p0, b.q0)
    pde1 = t1 + beta * (0.5 * lap - 0.5 * np.abs(u) ** 2 * u + u * phi) + t6
    return np.abs(t1 + t2 + t3 + t4 + t5 + t6), np.abs(pde1)


def envelope_residuals(ing: Ingredients):
    """The envelope equation twice over from one evaluation on the bundle's
    grid.

    Returns (bilinear1, pde1): line 1 of the bilinear form with its terms
    at envelope scale (the raw form scales like |f|^3, which would make
    absolute numbers meaningless) and the u-form with the forcing field
    phi.  Both come back not applicable where a3 = 0: there the residuals
    beside the zeros of f are rounding, and no floor tells it from a defect.
    """
    grid, t, names = ing.grid, ing.t, ("bilinear1", "pde1")
    if ing.spec.coeffs.a3 == 0.0:
        return tuple(ResidualReport(name, math.nan, math.nan,
                                    CoordinatePoint(math.nan, math.nan, t), 0, applicable=False,
                                    notes="not applicable: a3 = 0 (no rounding floor "
                                          "for the residual near the zeros of f)")
                     for name in names)
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        fields = fill_rows(grid.keep.shape,
                           lambda rows: _envelope_fields(ing.spec, t, ing.rows(rows)))
    return tuple(_report(name, v, grid, t) for name, v in zip(names, fields))


# ---------------------------------------------------------------------------
# bilinear residuals


def _bilinear2_field(spec: SolutionSpec, b):
    """Residual of 2 D_z D_e f.f = g g* relative to |g g*| from the row entries ``b``:
    the closed form 4 det p_z q_e, the left side for every separable f, against g g*
    from the amplitude factors; non-finite wherever their product p1 q1 is."""
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        exact = 4.0 * spec.coeffs.det * b.pj[1, 0] * b.qj[1, 0]
        gg = (b.p1.value * b.q1.value) ** 2
        scale = np.abs(gg)
        return (np.abs(exact - gg) / np.where(scale > 0.0, scale, 1.0),)


def bilinear_residuals(ing: Ingredients) -> ResidualReport:
    """Residual of the bilinear constraint 2 D_z D_e f.f = g g* on the
    bundle's grid, relative to |g g*| (line 2 of the bilinear form;
    :func:`envelope_residuals` reports line 1): the amplitude factors
    against the closed form 4 det p_z q_e.  Where they are not finite the
    sample is dropped, as the envelope checks drop it."""
    rel = fill_rows(ing.grid.keep.shape,
                    lambda rows: _bilinear2_field(ing.spec, ing.rows(rows)))[0]
    return _report("bilinear2", rel, ing.grid, ing.t)


# ---------------------------------------------------------------------------
# forcing-field constraint


def pde_residuals(ing: Ingredients, stencil: Stencil = PDE2_STENCIL) -> ResidualReport:
    """Residual of the forcing-field constraint (line 2 of the rotated-frame
    equations, fourth order in log f) on the bundle's grid, by central
    differences of the jet-computed intensity and forcing fields using
    ``stencil``."""
    return _report("pde2", _pde2_field(ing.spec, ing.grid, ing.t, stencil), ing.grid, ing.t)


def _pde2_field(spec, grid, t, stencil: Stencil):
    """Forcing-field residual |4 phi_ze - U_zz - U_ee - 2 U_ze| at ``grid``'s points,
    non-finite wherever a stencil sample of U or phi is.

    Central differences with ``stencil``.  A point's k x k stencil samples
    lie on k shifted zeta and k shifted eta lines, so per block of
    :func:`~dsfield.ansatz.fill_rows` p is evaluated once on its lines,
    (k, 1, rows, nx), q on its own, (1, k, rows, nx), both to order 2, U and
    phi come out on the stencil by broadcasting, and each stencil sums every
    sample it weighs, zero weights too, left to right: over k, or over (i, j)
    in raster order.  A point's bits do not depend on its block.
    """
    h = stencil.h
    w2 = Stencil(2, stencil.accuracy, h).weights
    w1 = Stencil(1, stencil.accuracy, h).weights
    cross = np.outer(w1, w1).ravel()
    half = (len(w1) - 1) // 2
    d = np.arange(-half, half + 1)[:, None, None, None] * h

    def wsum(weights, samples):
        return sum(w * v for w, v in zip(weights, samples)) / h**2

    def on_stencil(rows):
        z, e = rotate(grid.X[rows], grid.Y[rows])
        pj, qj = profile_jets3(spec, z + d, (e + d[:, 0])[None], t, 2)
        # zero backgrounds: the cross derivative annihilates separated
        # backgrounds, so the check is exact without them and stays
        # defined at degenerate times
        U = eval_intensity(spec, pj, qj)[0]
        PHI = eval_phi(eval_f(spec, pj, qj), 0.0, 0.0)
        u_ze, phi_ze = (wsum(cross, v.reshape(-1, *v.shape[2:])) for v in (U, PHI))
        return (np.abs(4.0 * phi_ze - wsum(w2, U[:, half]) - wsum(w2, U[half]) - 2.0 * u_ze),)

    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        return fill_rows(grid.keep.shape, on_stencil)[0]


def pde_phi_convergence(ing: Ingredients, stencil: Stencil = PDE2_STENCIL):
    """Rerun the forcing-field check at h and h/2; report the observed order."""
    coarse = pde_residuals(ing, stencil)
    finer = Stencil(stencil.order, stencil.accuracy, stencil.h / 2)
    fine = pde_residuals(ing, finer)
    return coarse, fine, observed_order(coarse.mean_abs, fine.mean_abs)


# ---------------------------------------------------------------------------
# singularity scan


# kept while perfbench/tracer.py wraps this name
def singularity_scan(spec: SolutionSpec, window, t: float, samples=128,
                     valid_mask=None) -> AdmissibilityReport:
    """:func:`~dsfield.ansatz.check_admissibility` on a fresh window grid,
    from the profiles' box (1, 0) jets there."""
    grid = window_grid(window, samples, valid_mask)
    return check_admissibility(spec, grid, t,
                               *profile_jets3(spec, *rotate(grid.X, grid.Y), t, (1, 0)))
