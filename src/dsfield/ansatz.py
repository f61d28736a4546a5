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

from .calculus import DIV_GUARD, Jet3
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
    "TauJets",
    "profile_jets3",
    "eval_f",
    "eval_intensity",
    "eval_intensity_dt",
    "grid_intensity",
    "eval_envelope",
    "eval_phi",
    "phi_log_form",
    "Intensity",
    "AdmissibilityReport",
    "denominator_scan",
    "check_admissibility",
]

SQRT2 = math.sqrt(2.0)


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


# ---------------------------------------------------------------------------
# tau-function jets


@dataclass(frozen=True)
class TauJets:
    """f and all its partial derivatives through second order in (zeta, eta, t)."""

    f: object
    f_z: object
    f_e: object
    f_t: object
    f_zz: object
    f_ze: object
    f_zt: object
    f_ee: object
    f_et: object
    f_tt: object


def profile_jets3(spec: SolutionSpec, zeta, eta, t) -> tuple[Jet3, Jet3]:
    return spec.p.jet3(zeta, t), spec.q.jet3(eta, t)


def eval_f(spec: SolutionSpec, zeta, eta, t,
           pj: Optional[Jet3] = None, qj: Optional[Jet3] = None) -> TauJets:
    """Assemble the denominator field f from the two profile jets.

    The mixed derivative comes out structurally: f_ze = a3 * p_z * q_e.
    """
    if pj is None or qj is None:
        pj, qj = profile_jets3(spec, zeta, eta, t)
    a = spec.coeffs
    p, q = pj.value, qj.value
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        fa = a.a1 + a.a3 * q      # multiplies p-derivatives
        fb = a.a2 + a.a3 * p      # multiplies q-derivatives
        return TauJets(
            f=a.a0 + a.a1 * p + a.a2 * q + a.a3 * p * q,
            f_z=fa * pj.d1,
            f_e=fb * qj.d1,
            f_t=a.a1 * pj.dt + a.a2 * qj.dt + a.a3 * (pj.dt * q + p * qj.dt),
            f_zz=fa * pj.d11,
            f_ze=a.a3 * pj.d1 * qj.d1,
            f_zt=a.a1 * pj.d1t + a.a3 * (pj.d1t * q + pj.d1 * qj.dt),
            f_ee=fb * qj.d11,
            f_et=a.a2 * qj.d1t + a.a3 * (pj.dt * qj.d1 + p * qj.d1t),
            f_tt=a.a1 * pj.dtt + a.a2 * qj.dtt
                 + a.a3 * (pj.dtt * q + 2.0 * pj.dt * qj.dt + p * qj.dtt),
        )


# ---------------------------------------------------------------------------
# intensity, envelope, forcing field


@dataclass(frozen=True)
class Intensity:
    """Intensity samples with diagnostic masks.

    ``sign_violation`` marks points where det * p_z * q_e < 0 (the value is
    still reported, negative, for diagnostics).  ``invalid`` marks guarded
    divisions and non-finite profile data.
    """

    values: object
    sign_violation: object
    invalid: object


def _intensity(spec: SolutionSpec, pj: Jet3, qj: Jet3, dt: bool = False):
    """The one U kernel: (U, U_t), U_t only with ``dt`` (else None).

    It reads the jets' ``value`` and ``d1`` alone, and for U_t also ``dt``
    and ``d1t``.  U is NaN where |f| falls under the guard.
    """
    a = spec.coeffs
    p, q = pj.value, qj.value
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        f = a.a0 + a.a1 * p + a.a2 * q + a.a3 * p * q
        num = 4.0 * a.det * pj.d1 * qj.d1
        bad = ~(np.abs(f) >= DIV_GUARD * (1.0 + np.abs(num)))
        fsafe = np.where(bad, np.nan, f)
        u = num / (fsafe * fsafe)
        if not dt:
            return u, None
        f_t = a.a1 * pj.dt + a.a2 * qj.dt + a.a3 * (pj.dt * q + p * qj.dt)
        return u, (4.0 * a.det * (pj.d1t * qj.d1 + pj.d1 * qj.d1t) / (f * f)
                   - 2.0 * u * f_t / f)


def eval_intensity(spec: SolutionSpec, zeta, eta, t,
                   pj: Optional[Jet3] = None, qj: Optional[Jet3] = None) -> Intensity:
    if pj is None or qj is None:
        pj, qj = profile_jets3(spec, zeta, eta, t)
    vals = _intensity(spec, pj, qj)[0]
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        sign = (spec.coeffs.det * pj.d1 * qj.d1) < 0.0
    return Intensity(values=vals, sign_violation=sign, invalid=~np.isfinite(vals))


def eval_intensity_dt(spec: SolutionSpec, zeta, eta, t):
    """U and its exact time derivative U_t, NaN where U is."""
    return _intensity(spec, *profile_jets3(spec, zeta, eta, t), dt=True)


def grid_intensity(spec: SolutionSpec, grid: WindowGrid, t, dt: bool = False):
    """(U, U_t) on ``grid`` at ``t`` as :func:`eval_intensity_dt`, U_t only
    with ``dt``; a 1-D array of times leads the shape, (n_t, ny, nx).

    Each profile is evaluated once per line coordinate for all times, and
    only the entries the kernel reads are gathered onto the grid.
    """
    t = np.asarray(t, dtype=float)
    tt = t.reshape(t.shape + (1,) * grid.zeta_lines.ndim) if t.ndim else float(t)
    names = ("value", "d1", "dt", "d1t") if dt else ("value", "d1")

    def on_grid(profile, lines, index):
        jet = profile.jet3(lines, tt)
        if index is None:
            return jet
        shape = t.shape + lines.shape
        return Jet3(**{n: np.take(np.broadcast_to(getattr(jet, n), shape), index,
                                  axis=-1) for n in names})

    return _intensity(spec, on_grid(spec.p, grid.zeta_lines, grid.zeta_index),
                      on_grid(spec.q, grid.eta_lines, grid.eta_index), dt)


def eval_envelope(spec: SolutionSpec, zeta, eta, t, phase_r, phase_s,
                  pj: Optional[Jet3] = None, qj: Optional[Jet3] = None):
    """Complex envelope u with caller-supplied phases.

    |u|^2 equals :func:`eval_intensity` wherever both are defined.
    """
    if pj is None or qj is None:
        pj, qj = profile_jets3(spec, zeta, eta, t)
    tau = eval_f(spec, zeta, eta, t, pj, qj)
    det = spec.coeffs.det
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        rad = det * pj.d1 * qj.d1
        radsafe = np.where(rad < 0.0, np.nan, rad)
        amp = 2.0 * spec.delta1 * spec.delta2 * np.sqrt(radsafe)
        bad = ~(np.abs(tau.f) >= DIV_GUARD * (1.0 + np.abs(amp)))
        fsafe = np.where(bad, np.nan, tau.f)
        return amp * np.exp(1j * (phase_r + phase_s)) / fsafe


def eval_phi(spec: SolutionSpec, zeta, eta, t, p0, q0,
             tau: Optional[TauJets] = None):
    """Forcing field phi = -(f_z+f_e)^2/f^2 + (f_zz+2 f_ze+f_ee)/f + p0 + q0."""
    if tau is None:
        tau = eval_f(spec, zeta, eta, t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        grad = tau.f_z + tau.f_e
        lap = tau.f_zz + 2.0 * tau.f_ze + tau.f_ee
        bad = ~(np.abs(tau.f) >= DIV_GUARD * (1.0 + np.abs(lap)))
        fsafe = np.where(bad, np.nan, tau.f)
        return -(grad * grad) / (fsafe * fsafe) + lap / fsafe + p0 + q0


def phi_log_form(spec: SolutionSpec, zeta, eta, t, p0, q0,
                 tau: Optional[TauJets] = None):
    """Same field computed through second derivatives of log f (cross-check)."""
    if tau is None:
        tau = eval_f(spec, zeta, eta, t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        f = np.where(np.abs(tau.f) < DIV_GUARD, np.nan, tau.f)
        lzz = tau.f_zz / f - (tau.f_z / f) ** 2
        lze = tau.f_ze / f - (tau.f_z / f) * (tau.f_e / f)
        lee = tau.f_ee / f - (tau.f_e / f) ** 2
        return lzz + 2.0 * lze + lee + p0 + q0


# ---------------------------------------------------------------------------
# denominator scan and admissibility


def denominator_scan(f, keep, X, Y, t):
    """Scan denominator samples ``f`` over the kept points of the grid (X, Y).

    Returns (finite, min_abs_f, min_f_point, flips_x, flips_y): the kept
    finite samples, min |f| over them (inf if there are none) and its
    (x, y, t), and the sign changes between x- and between y-neighbours.
    """
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        f = np.where(keep, f, np.nan)
        finite = np.isfinite(f)
        absf = np.where(finite, np.abs(f), np.inf)
        idx = np.unravel_index(np.argmin(absf), absf.shape)
        sgn = np.sign(np.where(finite, f, 0.0))
        flips_x = (sgn[:, 1:] * sgn[:, :-1]) < 0
        flips_y = (sgn[1:, :] * sgn[:-1, :]) < 0
    return (finite, float(absf[idx]), (float(X[idx]), float(Y[idx]), float(t)),
            flips_x, flips_y)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of a window scan.

    verdict is one of ``admissible``, ``degenerate`` (U identically zero on
    the window), ``singular`` (denominator zero crossing or guard hits), or
    ``sign-violating``.
    """

    verdict: str
    min_abs_f: float
    min_f_point: tuple
    sign_changes: int
    sign_violations: int
    invalid_points: int
    max_intensity: float
    witness: Optional[tuple] = None


def check_admissibility(spec: SolutionSpec, window, t: float,
                        samples: tuple[int, int] = (64, 64),
                        valid_mask=None) -> AdmissibilityReport:
    """Scan a rectangular (x, y) window and classify the solution there.

    ``window`` is ((x0, x1), (y0, y1)); ``valid_mask(zeta, eta)`` may exclude
    known poles from the scan.
    """
    nx, ny = samples
    if nx < 2 or ny < 2:
        raise ValueError("need at least 2 samples per axis")
    grid = window_grid(window, (nx, ny), valid_mask)
    keep = grid.keep

    pj, qj = profile_jets3(spec, grid.zeta, grid.eta, t)
    tau = eval_f(spec, grid.zeta, grid.eta, t, pj, qj)
    inten = eval_intensity(spec, grid.zeta, grid.eta, t, pj, qj)

    finite_f, min_abs_f, min_point, flips_x, flips_y = denominator_scan(
        tau.f, keep, grid.X, grid.Y, t)
    n_invalid = int(np.count_nonzero(keep & (inten.invalid | ~finite_f)))
    n_flips = int(np.count_nonzero(flips_x) + np.count_nonzero(flips_y))

    viol = keep & inten.sign_violation
    n_viol = int(np.count_nonzero(viol))

    vals = np.where(keep & ~inten.invalid, inten.values, np.nan)
    finite_vals = vals[np.isfinite(vals)]
    max_u = float(np.max(np.abs(finite_vals))) if finite_vals.size else 0.0

    witness = None
    if n_viol:
        widx = np.unravel_index(np.argmax(viol), viol.shape)
        witness = (float(grid.X[widx]), float(grid.Y[widx]), float(t))

    if finite_vals.size and max_u < 1e-14:
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
        sign_violations=n_viol,
        invalid_points=n_invalid,
        max_intensity=max_u,
        witness=witness,
    )
