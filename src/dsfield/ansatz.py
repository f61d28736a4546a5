"""Separable solution data and pointwise field evaluators.

A :class:`SolutionSpec` bundles everything that defines one solution: four
mixing coefficients, two one-variable profiles, scalar coefficient
functions of time, and two sign choices.  In the rotated frame
``zeta = (x - y)/sqrt(2)``, ``eta = (x + y)/sqrt(2)`` the real denominator
field is

    f = a0 + a1*p(zeta,t) + a2*q(eta,t) + a3*p*q

and the intensity of the complex envelope is

    U = 4*(a0*a3 - a1*a2) * p_zeta * q_eta / f**2.

All evaluators accept scalars or numpy arrays and mark guarded or
out-of-domain samples NaN rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calculus import DIV_GUARD, Jet
from .profiles import ProfileFunction, TimeFunction, const_fn

__all__ = [
    "SeparationCoefficients",
    "CoefficientFunctions",
    "SolutionSpec",
    "CoordinatePoint",
    "rotate",
    "unrotate",
    "WindowGrid",
    "window_grid",
    "profile_jets3",
    "eval_f",
    "eval_intensity",
    "eval_intensity_dt",
    "grid_intensity",
    "eval_phi",
    "batches",
    "AdmissibilityReport",
    "DEGENERATE_LEVEL",
    "pole_sweep",
    "check_admissibility",
]

SQRT2 = math.sqrt(2.0)

# intensity samples whose largest |U| falls below this are degenerate
DEGENERATE_LEVEL = 1e-14

# work on many samples runs in batches of about this many, which keeps a
# batch's temporaries as small as those of one 181^2 grid sampled alone
_BATCH_POINTS = 2 ** 15


@dataclass(frozen=True)
class SeparationCoefficients:
    """Constant mixing coefficients a0..a3 with cached determinant a0*a3 - a1*a2."""

    a0: float
    a1: float
    a2: float
    a3: float
    det: float = field(init=False)

    def __post_init__(self):
        vals = (self.a0, self.a1, self.a2, self.a3)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("coefficients must be finite")
        for name, v in zip(("a0", "a1", "a2", "a3"), vals):
            object.__setattr__(self, name, float(v))
        object.__setattr__(self, "det", self.a0 * self.a3 - self.a1 * self.a2)


@dataclass(frozen=True)
class CoefficientFunctions:
    """Scalar functions of time entering the construction.

    ``beta`` scales dispersion and nonlinearity (must stay nonzero),
    ``gamma`` is the gain/dissipation rate, ``c0`` splits the amplitude
    product between the two factors, ``c3``/``c4`` shift phase gradients
    and backgrounds.
    """

    beta: TimeFunction = field(default_factory=lambda: const_fn(1.0))
    gamma: TimeFunction = field(default_factory=lambda: const_fn(0.0))
    c0: TimeFunction = field(default_factory=lambda: const_fn(1.0))
    c3: TimeFunction = field(default_factory=lambda: const_fn(0.0))
    c4: TimeFunction = field(default_factory=lambda: const_fn(0.0))


@dataclass(frozen=True)
class SolutionSpec:
    """Complete description of one separable solution."""

    coeffs: SeparationCoefficients
    p: ProfileFunction
    q: ProfileFunction
    funcs: CoefficientFunctions = field(default_factory=CoefficientFunctions)
    delta1: int = 1
    delta2: int = 1

    def __post_init__(self):
        if self.delta1 * self.delta1 != 1 or self.delta2 * self.delta2 != 1:
            raise ValueError("delta1 and delta2 must be +1 or -1")


@dataclass(frozen=True)
class CoordinatePoint:
    x: float
    y: float
    t: float

    @property
    def zeta(self) -> float:
        return (self.x - self.y) / SQRT2

    @property
    def eta(self) -> float:
        return (self.x + self.y) / SQRT2


def rotate(x, y):
    """(x, y) -> (zeta, eta); an isometry of the plane."""
    x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    y = np.asarray(y, dtype=float) if np.ndim(y) else float(y)
    return (x - y) / SQRT2, (x + y) / SQRT2


def unrotate(zeta, eta):
    """Inverse of :func:`rotate`."""
    return (zeta + eta) / SQRT2, (eta - zeta) / SQRT2


@dataclass(frozen=True)
class WindowGrid:
    """An (x, y) window sampled row-major, y along axis 0.

    ``X``, ``Y`` and ``zeta``, ``eta`` (= ``rotate(X, Y)``) are the (ny, nx)
    sample coordinates and ``keep`` is ``valid_mask(zeta, eta)``, or all
    True without one.  On a square grid with equal spacing on both axes,
    zeta at row i, column j depends on j - i alone and eta on i + j alone:
    ``zeta_lines`` and ``eta_lines`` then hold the 2N - 1 line coordinates
    and ``zeta_index``, ``eta_index`` (N, N) gather them onto the grid.
    Otherwise the lines are ``zeta`` and ``eta`` themselves and the indices
    are None.
    """

    X: np.ndarray
    Y: np.ndarray
    zeta: np.ndarray
    eta: np.ndarray
    keep: np.ndarray
    zeta_lines: np.ndarray
    eta_lines: np.ndarray
    zeta_index: Optional[np.ndarray]
    eta_index: Optional[np.ndarray]


def window_grid(window, samples, valid_mask=None) -> WindowGrid:
    """Sample an (x, y) window; ``samples`` is n or (nx, ny).

    Each line coordinate is taken from one grid point on it, zeta_k from
    the first row (k >= 0) or column and eta_m from the first row or the
    last column, so those points keep the bits of ``rotate``; elsewhere
    the two differ by rounding in x - y and x + y.
    """
    (x0, x1), (y0, y1) = window
    nx, ny = samples if isinstance(samples, tuple) else (samples, samples)
    x, y = np.linspace(x0, x1, nx), np.linspace(y0, y1, ny)
    X, Y = np.meshgrid(x, y, copy=False)      # read-only views, no copies
    zeta, eta = rotate(X, Y)
    if valid_mask is None:
        keep = np.ones_like(zeta, dtype=bool)
    else:
        keep = np.asarray(valid_mask(zeta, eta), dtype=bool)
    if nx != ny or x1 - x0 != y1 - y0:
        return WindowGrid(X, Y, zeta, eta, keep, zeta, eta, None, None)
    k, m = np.arange(1 - nx, nx), np.arange(2 * nx - 1)
    i, j = np.arange(nx)[:, None], np.arange(nx)       # row (y) and column (x)
    return WindowGrid(
        X, Y, zeta, eta, keep,
        (x[np.maximum(k, 0)] - y[np.maximum(-k, 0)]) / SQRT2,
        (x[np.minimum(m, nx - 1)] + y[np.maximum(m - nx + 1, 0)]) / SQRT2,
        j - i + (nx - 1), i + j)


def batches(n: int, points_each: int) -> list:
    """Slices that cut ``n`` items of ``points_each`` samples each into
    batches of about _BATCH_POINTS samples, at least one item each."""
    step = max(1, _BATCH_POINTS // points_each)
    return [slice(i, i + step) for i in range(0, n, step)]


# ---------------------------------------------------------------------------
# the denominator field


def profile_jets3(spec: SolutionSpec, zeta, eta, t, order=3) -> tuple[Jet, Jet]:
    return spec.p.jet3(zeta, t, order), spec.q.jet3(eta, t, order)


def _assemble(a: SeparationCoefficients, p, q):
    """f = a0 + a1 p + a2 q + a3 p q, of arrays or of jets; a0 enters f alone."""
    return a.a0 + a.a1 * p + a.a2 * q + a.a3 * p * q


def eval_f(spec: SolutionSpec, zeta, eta, t, pj: Optional[Jet] = None,
           qj: Optional[Jet] = None, order: int = 2, time: bool = True) -> Jet:
    """The denominator field f as a jet in (zeta, eta, t) to ``order``, or
    in (zeta, eta) alone without ``time``.

    The entries of the order-2 jet in (zeta, eta, t) come in the order f,
    f_z, f_e, f_t, f_zz, f_ze, f_zt, f_ee, f_et, f_tt; the mixed derivative
    comes out structurally, a3 * p_z * q_e.
    """
    if pj is None or qj is None:
        pj, qj = profile_jets3(spec, zeta, eta, t)
    n, t_axis = (3, 2) if time else (2, None)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        return _assemble(spec.coeffs, pj.shift(order=order, axes=(0, t_axis), n=n),
                         qj.shift(order=order, axes=(1, t_axis), n=n))


# ---------------------------------------------------------------------------
# intensity and forcing field


def _intensity(spec: SolutionSpec, pj: Jet, qj: Jet, dt: bool = False, f=None):
    """The one U kernel: (U, U_t), U_t only with ``dt`` (else None).

    It reads the jets' box (1, 0), the value and first derivative in x,
    and for U_t the box (1, 1); ``f`` is f's value if the caller has it.
    U is NaN where |f| falls under the guard.
    """
    a = spec.coeffs
    p, q = pj.value, qj.value
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        if f is None:
            f = _assemble(a, p, q)
        num = 4.0 * a.det * pj[1, 0] * qj[1, 0]
        bad = ~(np.abs(f) >= DIV_GUARD * (1.0 + np.abs(num)))
        fsafe = np.where(bad, np.nan, f)
        u = num / (fsafe * fsafe)
        if not dt:
            return u, None
        p_t, q_t = pj[0, 1], qj[0, 1]
        f_t = a.a1 * p_t + a.a2 * q_t + a.a3 * (p_t * q + p * q_t)
        return u, (4.0 * a.det * (pj[1, 1] * qj[1, 0] + pj[1, 0] * qj[1, 1]) / (f * f)
                   - 2.0 * u * f_t / f)


def eval_intensity(spec: SolutionSpec, zeta, eta, t,
                   pj: Optional[Jet] = None, qj: Optional[Jet] = None, f=None):
    """U at the points, from f's value ``f`` when the caller has it."""
    if pj is None or qj is None:
        pj, qj = profile_jets3(spec, zeta, eta, t, (1, 0))
    return _intensity(spec, pj, qj, f=f)[0]


def eval_intensity_dt(spec: SolutionSpec, zeta, eta, t):
    """U and its exact time derivative U_t, NaN where U is."""
    return _intensity(spec, *profile_jets3(spec, zeta, eta, t, (1, 1)), dt=True)


def grid_intensity(spec: SolutionSpec, grid: WindowGrid, t, dt: bool = False):
    """(U, U_t) on ``grid`` at ``t`` as :func:`eval_intensity_dt`, U_t only
    with ``dt``; a 1-D array of times leads the shape, (n_t, ny, nx).

    Each profile is evaluated once per line coordinate for all times, to
    the box the kernel reads, and that jet is gathered onto the grid.
    """
    t = np.asarray(t, dtype=float)
    tt = t.reshape(t.shape + (1,) * grid.zeta_lines.ndim) if t.ndim else float(t)

    def on_grid(profile, lines, index):
        jet = profile.jet3(lines, tt, (1, 1) if dt else (1, 0))
        if index is None:
            return jet
        shape = t.shape + lines.shape
        return Jet((np.take(np.broadcast_to(e, shape), index, axis=-1)
                    for e in jet.entries), jet.layout)

    return _intensity(spec, on_grid(spec.p, grid.zeta_lines, grid.zeta_index),
                      on_grid(spec.q, grid.eta_lines, grid.eta_index), dt)


def eval_phi(spec: SolutionSpec, zeta, eta, t, p0, q0, tau: Optional[Jet] = None):
    """Forcing field phi = -(f_z+f_e)^2/f^2 + (f_zz+2 f_ze+f_ee)/f + p0 + q0."""
    if tau is None:
        tau = eval_f(spec, zeta, eta, t)
    f, f_z, f_e, _, f_zz, f_ze, _, f_ee, _, _ = tau.entries
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        grad = f_z + f_e
        lap = f_zz + 2.0 * f_ze + f_ee
        bad = ~(np.abs(f) >= DIV_GUARD * (1.0 + np.abs(lap)))
        fsafe = np.where(bad, np.nan, f)
        return -(grad * grad) / (fsafe * fsafe) + lap / fsafe + p0 + q0


# ---------------------------------------------------------------------------
# the window scan: zeros of f, the sign condition and profile poles


# magnitude treated as a pole signature in the 1-D profile sweep; legitimate
# exponential-sum growth on sane windows stays far below this
_POLE_MAGNITUDE = 1e150


def pole_sweep(profile, coords, t: float, n: int = 65537):
    """Fine 1-D sweep for profile poles over the range of ``coords``; returns
    suspect intervals.  It reads profile values alone."""
    x = np.linspace(float(np.min(coords)), float(np.max(coords)), n)
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        v = np.asarray(profile.jet3(x, t, order=0).value, dtype=float)
        suspect = ~np.isfinite(v) | (np.abs(v) > _POLE_MAGNITUDE)
    if not suspect.any():
        return ()
    idx = np.nonzero(suspect)[0]
    gaps = np.nonzero(np.diff(idx) > 1)[0]
    starts = np.concatenate(([0], gaps + 1))
    ends = np.concatenate((gaps, [len(idx) - 1]))
    return tuple((float(x[idx[s]]), float(x[idx[e]])) for s, e in zip(starts, ends))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the window scan.

    verdict is one of ``admissible``, ``degenerate`` (U identically zero on
    the window), ``singular`` (denominator zero crossing or guard hits), or
    ``sign-violating``.  ``sign_change_examples`` holds up to five (x, y)
    grid points, each the first point of a cell where f changes sign
    (between x-neighbours, or between y-neighbours when there are none);
    ``pole_intervals_zeta`` and ``pole_intervals_eta`` are the suspect
    intervals of the pole sweeps of p and q over the grid's zeta and eta.
    """

    verdict: str
    min_abs_f: float
    min_f_point: tuple
    sign_changes: int
    sign_change_examples: tuple
    sign_violations: int
    invalid_points: int
    max_intensity: float
    witness: Optional[tuple]
    pole_intervals_zeta: tuple
    pole_intervals_eta: tuple


def check_admissibility(spec: SolutionSpec, grid: WindowGrid, t: float,
                        pj: Jet, qj: Jet) -> AdmissibilityReport:
    """Scan a window grid and classify the solution there, from the profile
    jets ``pj``, ``qj`` (box (1, 0) at least) on the grid's zeta and eta:
    min |f| and the sign changes of f between neighbours, the sign
    condition, and the pole sweeps of p and q over the grid's ranges.

    Points outside ``grid.keep`` (known poles, say) are left out of the 2-D scan.
    """
    if min(grid.zeta.shape) < 2:
        raise ValueError("need at least 2 samples per axis")
    keep = grid.keep
    f = eval_f(spec, grid.zeta, grid.eta, t, pj, qj, order=0).value
    u = eval_intensity(spec, grid.zeta, grid.eta, t, pj, qj, f=f)
    finite_u = np.isfinite(u)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        # det * p_z * q_e < 0 breaks the sign condition; U there is negative
        viol = keep & ((spec.coeffs.det * pj[1, 0] * qj[1, 0]) < 0.0)
        f = np.where(keep, f, np.nan)
        finite_f = np.isfinite(f)
        absf = np.where(finite_f, np.abs(f), np.inf)
        sgn = np.sign(np.where(finite_f, f, 0.0))
        flips_x = (sgn[:, 1:] * sgn[:, :-1]) < 0
        flips_y = (sgn[1:, :] * sgn[:-1, :]) < 0
    idx = np.unravel_index(np.argmin(absf), absf.shape)
    min_abs_f = float(absf[idx])
    min_point = (float(grid.X[idx]), float(grid.Y[idx]), float(t))
    n_invalid = int(np.count_nonzero(keep & ~(finite_u & finite_f)))
    n_flips = int(np.count_nonzero(flips_x) + np.count_nonzero(flips_y))
    n_viol = int(np.count_nonzero(viol))
    ys, xs = np.nonzero(flips_x if flips_x.any() else flips_y)
    examples = tuple((float(grid.X[i, j]), float(grid.Y[i, j]))
                     for i, j in zip(ys[:5], xs[:5]))

    kept_u = u[keep & finite_u]
    max_u = float(np.max(np.abs(kept_u))) if kept_u.size else 0.0

    witness = None
    if n_viol:
        widx = np.unravel_index(np.argmax(viol), viol.shape)
        witness = (float(grid.X[widx]), float(grid.Y[widx]), float(t))

    if kept_u.size and max_u < DEGENERATE_LEVEL:
        verdict = "degenerate"
    elif n_flips or not finite_f.any() or min_abs_f < DIV_GUARD:
        verdict = "singular"
        witness = witness or min_point
    elif n_viol:
        verdict = "sign-violating"
    else:
        verdict = "admissible"

    return AdmissibilityReport(
        verdict=verdict,
        min_abs_f=min_abs_f,
        min_f_point=min_point,
        sign_changes=n_flips,
        sign_change_examples=examples,
        sign_violations=n_viol,
        invalid_points=n_invalid,
        max_intensity=max_u,
        witness=witness,
        pole_intervals_zeta=pole_sweep(spec.p, grid.zeta, t),
        pole_intervals_eta=pole_sweep(spec.q, grid.eta, t),
    )
