"""Field sampling over (x, y) windows, analytics, and file export.

Grids are sampled row-major with y varying along axis 0 and x along axis 1.
A boolean mask marks valid samples; guard hits, profile poles and window
exclusions are masked rather than raising.

Analytics quantify what renders can only suggest: strict local maxima with
plateau grouping, a continuously refined global maximum (the raw grid
maximum moves by O(dx^2) under refinement; projected-Newton ascents on
log U from the local maxima of the grid's two checkerboard sublattices, with
exact derivatives from the profile jets, stay in their peaks' basins and are
stable), periods (a scan of one time statistic, global max or L2, then
Gauss-Newton steps, the only place U_t is evaluated) and peak-decay
series; one batched U sampler feeds the ascent and the L2 norm.  numpy is
the only third-party import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import calculus as jc
from .ansatz import (
    SQRT2,
    SolutionSpec,
    batches,
    eval_f,
    eval_intensity,
    eval_intensity_dt,
    eval_phi,
    grid_intensity,
    profile_jets3,
    rotate,
    window_grid,
)
from .auxiliary import Ingredients
from .verify import residual_field

__all__ = [
    "SingularWindowError",
    "FieldGrid",
    "AnalyticsResult",
    "PeakInfo",
    "sample_field",
    "analyze_extrema",
    "refined_global_max",
    "estimate_period",
    "decay_profile",
    "to_csv",
    "parse_csv",
    "to_pgm16",
    "to_report",
    "reflection_defect",
    "point_reflection_defect",
]


class SingularWindowError(ValueError):
    """No sample of the requested window is valid (degenerate input)."""


@dataclass(frozen=True)
class FieldGrid:
    """Sampled scalar field over a rectangular window at fixed t."""

    window: tuple               # ((x0, x1), (y0, y1))
    nx: int
    ny: int
    t: float
    values: np.ndarray          # shape (ny, nx)
    mask: np.ndarray            # True where valid

    @property
    def x(self) -> np.ndarray:
        (x0, x1), _ = self.window
        return np.linspace(x0, x1, self.nx)

    @property
    def y(self) -> np.ndarray:
        _, (y0, y1) = self.window
        return np.linspace(y0, y1, self.ny)

    def valid_values(self) -> np.ndarray:
        return self.values[self.mask]


@dataclass(frozen=True)
class PeakInfo:
    value: float
    x: float
    y: float


@dataclass(frozen=True)
class AnalyticsResult:
    """Container filled per analysis; unfilled entries stay None/empty."""

    global_max: Optional[float] = None
    global_max_location: Optional[tuple] = None
    local_maxima: tuple = ()
    estimated_period: Optional[float] = None
    period_resolution: Optional[float] = None
    best_candidate: Optional[float] = None
    period_mismatch: Optional[float] = None
    decay_series: tuple = ()


# ---------------------------------------------------------------------------
# sampling


def sample_field(spec: SolutionSpec, which: str, window, t: float, nx: int, ny: int,
                 valid_mask=None) -> FieldGrid:
    """Sample one of the derived fields over an (x, y) window.

    ``which`` is one of ``U`` (intensity), ``phi`` (forcing field) or
    ``bilinear2`` or ``pde2`` (residual fields).  ``U`` comes from
    :func:`grid_intensity`, so on a square window with equal spacing the
    profiles are evaluated once per zeta and eta line; the other fields
    read one :class:`~dsfield.auxiliary.Ingredients` bundle on the grid.
    Raises if the window is entirely invalid.
    """
    if nx < 8 or ny < 8:
        raise ValueError("resolution must be at least 8 per axis")
    (x0, x1), (y0, y1) = window
    grid = window_grid(window, (nx, ny), valid_mask)

    ing = Ingredients(spec, grid, t)            # evaluates nothing until read
    if which == "U":
        vals = grid_intensity(spec, grid, t)[0]
    elif which == "phi":
        vals = eval_phi(spec, grid.zeta, grid.eta, t, ing.p0, ing.q0,
                        tau=eval_f(spec, grid.zeta, grid.eta, t, ing.pj, ing.qj))
    elif which in ("bilinear2", "pde2"):
        vals = residual_field(ing, which)
    else:
        raise ValueError(f"unknown field {which!r}; use U, phi, bilinear2, pde2")

    vals = np.asarray(vals, dtype=float)
    mask = grid.keep & np.isfinite(vals)
    _require_valid(mask.any())
    out = np.where(mask, vals, 0.0)
    return FieldGrid(window=((x0, x1), (y0, y1)), nx=nx, ny=ny, t=float(t),
                     values=out, mask=mask)


# ---------------------------------------------------------------------------
# extrema


def analyze_extrema(grid: FieldGrid) -> AnalyticsResult:
    """Strict local maxima over valid 8-neighborhoods.

    Equal-valued plateaus count once; a plateau (or point) qualifies only if
    every valid neighbor outside it is strictly lower and at least one such
    neighbor exists, so constant fields have no maxima.
    """
    v = np.where(grid.mask, grid.values, -np.inf)
    if not grid.mask.any():
        raise ValueError("grid has no valid points")

    neighbor_max = np.maximum.reduce(_neighbours(v, -np.inf))
    candidates = grid.mask & (v >= neighbor_max)

    labels = _label_components(candidates)
    xs, ys = grid.x, grid.y
    peaks = []
    for lbl in np.unique(labels[candidates]).tolist():
        comp = labels == lbl
        val = float(v[comp][0])
        ring = np.logical_or.reduce(_neighbours(comp, False)) & ~comp & grid.mask
        if not ring.any():
            continue                       # no valid surroundings to dominate
        if np.any(v[ring] >= val):
            continue                       # shoulder of an equal or higher region
        iy, ix = divmod(lbl, v.shape[1])
        peaks.append(PeakInfo(val, float(xs[ix]), float(ys[iy])))

    peaks.sort(key=lambda p: -p.value)
    gmax = float(np.max(v[grid.mask]))
    idx = np.unravel_index(int(np.argmax(v)), v.shape)
    return AnalyticsResult(
        global_max=gmax,
        global_max_location=(float(xs[idx[1]]), float(ys[idx[0]])),
        local_maxima=tuple(peaks),
    )


def _require_valid(valid):
    """Raise unless ``valid`` (one flag per time) is all True."""
    if not np.all(valid):
        raise SingularWindowError("window entirely singular")


def _sample_u(spec, grid, times, dt=False):
    """Yields (batch, U, U_t, valid mask) for each of the
    :func:`~dsfield.ansatz.batches` of ``times`` on ``grid``, U_t only with
    ``dt``; raises SingularWindowError for a time without a valid sample."""
    for batch in batches(times.size, grid.keep.size):
        u, ut = grid_intensity(spec, grid, times[batch], dt)
        ok = grid.keep & np.isfinite(u)
        _require_valid(ok.any(axis=(1, 2)))
        yield batch, u, ut, ok


# (dy, dx) neighbour shifts: the 3x3 ring, and the 8-neighbourhood of a point
# on its own checkerboard sublattice (i + j even, or odd): the four diagonal
# points and the four two steps away along an axis
_RING = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx)
_SUBLATTICE = ((-1, -1), (-1, 1), (1, -1), (1, 1), (-2, 0), (2, 0), (0, -2), (0, 2))


def _neighbours(a: np.ndarray, fill, shifts=_RING) -> list:
    """The ``shifts`` of ``a`` over its last two axes, padded with ``fill``."""
    r = max(max(abs(dy), abs(dx)) for dy, dx in shifts)
    padded = np.pad(a, [(0, 0)] * (a.ndim - 2) + [(r, r)] * 2, constant_values=fill)
    ny, nx = a.shape[-2:]
    return [padded[..., r + dy:r + dy + ny, r + dx:r + dx + nx] for dy, dx in shifts]


def _label_components(mask: np.ndarray) -> np.ndarray:
    """Label the 8-connected components of ``mask`` by their first pixel.

    Each pixel of a component gets the row-major flat index of the
    component's first pixel in raster order (entries outside ``mask`` get
    ``mask.size``), so sorting the labels numbers the components in raster
    order.  Every pass takes the minimum label over the 3x3 neighbourhood,
    then replaces each label by the label of the pixel it names, which
    shortens the propagation to about the log of a component's diameter.
    """
    none = mask.size
    labels = np.where(mask, np.arange(none).reshape(mask.shape), none)
    while True:
        new = np.minimum.reduce([labels] + _neighbours(labels, none))
        new = np.where(mask, new, none)
        new[mask] = new.ravel()[new[mask]]
        if np.array_equal(new, labels):
            return labels
        labels = new


def refined_global_max(spec: SolutionSpec, window, t, nx: int = 192,
                       ny: int = 192, valid_mask=None):
    """Grid maximum polished by a projected-Newton ascent on log U.

    ``t`` is one time or a 1-D array of times, sampled on one grid in
    :func:`~dsfield.ansatz.batches` of times.  An ascent runs from every
    valid grid point that is not below any valid point of its
    8-neighbourhood on its own checkerboard sublattice, for all times at
    once, and the best result of each time is kept; of equal-valued starts
    at one time (a plateau) only the first runs.  The starts include each
    time's grid argmax.  On a grid with equal spacing each sublattice holds
    every other zeta line, so they also include a hump that lies between
    two zeta lines next to a pole, where each grid point on the hump's
    flank has a higher 3x3 neighbour across the pole.

    Each ascent starts with a trust radius of one grid step and stays in
    its peak's basin.  Gradient and Hessian of log U are exact, from the
    profile jets.  A coordinate on a window bound whose gradient points
    outward is frozen (Bertsekas 1982) and each candidate is clipped to the
    window; where the free Hessian is not negative definite a gradient step
    replaces the Newton step.  A candidate is taken only where U is finite,
    inside ``valid_mask``, not lower, and has risen by at least a quarter of
    the quadratic model's prediction; without a step taken the grid value
    stands.

    Stable to grid refinement, unlike the raw grid maximum whose position
    quantization shifts it by O(dx^2).  Returns ``(value, (x, y))``: floats
    for a scalar ``t``, arrays for an array.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    grid = window_grid(window, (nx, ny), valid_mask)
    starts = []
    for batch, u, _, ok in _sample_u(spec, grid, times):
        v = np.where(ok, u, -np.inf)
        top = np.maximum.reduce(_neighbours(v, -np.inf, _SUBLATTICE))
        it, iy, ix = np.nonzero(ok & (v >= top))
        starts.append(np.column_stack([it + batch.start, v[it, iy, ix],
                                       grid.X[iy, ix], grid.Y[iy, ix]]))
    starts = np.concatenate(starts)
    starts = starts[np.sort(np.unique(starts[:, :2], axis=0, return_index=True)[1])]
    it, u, xy = starts[:, 0].astype(int), starts[:, 1].copy(), starts[:, 2:].copy()
    (xa, xb), (ya, yb) = window
    radius = max((xb - xa) / (nx - 1), (yb - ya) / (ny - 1))
    _newton_ascent(spec, times[it], u, xy, np.array([xa, ya]), np.array([xb, yb]),
                   radius, valid_mask)
    best = np.full(times.size, -np.inf)
    np.maximum.at(best, it, u)
    top = np.flatnonzero(u == best[it])             # the first start of each time wins ties
    pick = top[np.unique(it[top], return_index=True)[1]]
    u, xy = u[pick], xy[pick]
    if np.ndim(t) == 0:
        return float(u[0]), (float(xy[0, 0]), float(xy[0, 1]))
    return u, (xy[:, 0], xy[:, 1])


# The ascent stops when its next step is shorter than _ASCENT_XTOL (window
# units) or after _ASCENT_ITERATIONS candidate evaluations.  The model-ratio
# test (Nocedal & Wright, Algorithm 4.1) keeps a long step from leaping over
# a masked pole into another basin; below a predicted gain in log U of
# _ASCENT_PRED_FLOOR rounding decides the ratio, and not falling suffices.
_ASCENT_XTOL = 1e-13
_ASCENT_ITERATIONS = 60
_ASCENT_PRED_FLOOR = 1e-14
# The period solve compares S at _PERIOD_PROBES base times with S one period
# later and takes at most _PERIOD_ITERATIONS Gauss-Newton steps.
_PERIOD_PROBES = 5
_PERIOD_ITERATIONS = 6


def _newton_ascent(spec, times, u, xy, lo, hi, radius, valid_mask):
    """Trust-region ascent from the points ``xy`` (n, 2) in the box [lo, hi]
    where U is ``u``; updates ``u`` and ``xy`` in place."""
    u0, g, H = _log_intensity_jets(spec, times, xy, valid_mask)
    r = np.full(times.size, float(radius))
    run = np.flatnonzero((u > 0) & np.isfinite(u0))
    for _ in range(_ASCENT_ITERATIONS):
        s = np.clip(xy[run] + _step(g[run], H[run], xy[run], lo, hi, r[run]),
                    lo, hi) - xy[run]
        norm = np.hypot(s[:, 0], s[:, 1])
        moving = norm > _ASCENT_XTOL
        run, s, norm = run[moving], s[moving], norm[moving]
        if not run.size:
            break
        pred = (np.einsum("ni,ni->n", g[run], s)
                + 0.5 * np.einsum("ni,nij,nj->n", s, H[run], s))
        uc, gc, Hc = _log_intensity_jets(spec, times[run], xy[run] + s, valid_mask)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.log(uc / u[run]) / pred
        ok = (uc >= u[run]) & ((rho >= 0.25) | (pred <= _ASCENT_PRED_FLOOR))
        acc = run[ok]
        u[acc], xy[acc], g[acc], H[acc] = uc[ok], xy[acc] + s[ok], gc[ok], Hc[ok]
        grow = ok & (rho >= 0.75) & (norm >= 0.99 * r[run])
        r[run] = np.where(ok, np.where(grow, 2.0, 1.0) * r[run], 0.25 * norm)


def _step(g, H, xy, lo, hi, r):
    """Projected Newton step, at most ``r`` long.

    Where the free Hessian is not negative definite, the step follows the
    free gradient to the quadratic model's maximum along it or to the
    radius (the Cauchy point).
    """
    free = ~(((xy <= lo) & (g < 0)) | ((xy >= hi) & (g > 0)))
    g0, g1 = np.where(free, g, 0.0).T
    h00 = np.where(free[:, 0], H[:, 0, 0], -1.0)
    h11 = np.where(free[:, 1], H[:, 1, 1], -1.0)
    h01 = np.where(free.all(axis=1), H[:, 0, 1], 0.0)
    det = h00 * h11 - h01 * h01
    with np.errstate(divide="ignore", invalid="ignore"):
        nd = np.stack([h01 * g1 - h11 * g0, h01 * g0 - h00 * g1], axis=1) / det[:, None]
        nd *= np.minimum(1.0, r / np.hypot(nd[:, 0], nd[:, 1]))[:, None]
        gn = np.hypot(g0, g1)
        curv = h00 * g0 * g0 + 2.0 * h01 * g0 * g1 + h11 * g1 * g1
        cauchy = np.where(curv < 0, np.minimum(r / gn, gn * gn / -curv), r / gn)
        d = np.where(((h00 < 0) & (det > 0))[:, None], nd,
                     np.stack([g0, g1], axis=1) * cauchy[:, None])
    return np.where(np.isfinite(d), d, 0.0)


def _log_intensity_jets(spec, times, xy, valid_mask):
    """U at the points ``xy`` (n, 2) with the gradient (n, 2) and Hessian
    (n, 2, 2) of log U in (x, y), from the order-2 series of
    log|p_z| + log|q_e| - 2 log|f| in (zeta, eta); U is NaN outside
    ``valid_mask`` and where any of them is not finite.  The Hessian of
    log|p_z| needs p_zzz, and nothing here differentiates in t: box (3, 0)."""
    zeta, eta = rotate(xy[:, 0], xy[:, 1])
    pj, qj = profile_jets3(spec, zeta, eta, times, (3, 0))
    u = eval_intensity(spec, zeta, eta, times, pj, qj)

    def log_abs(j):
        return jc.log(j * np.sign(j.value))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # log|p_z| and log|q_e| are series in one variable each
        logu = (log_abs(pj.shift((1, 0), axes=(0, None), n=1)).shift(axes=(0,), n=2)
                + log_abs(qj.shift((1, 0), axes=(0, None), n=1)).shift(axes=(1,), n=2)
                - 2.0 * log_abs(eval_f(spec, zeta, eta, times, pj, qj, time=False)))
    gz, ge, hzz, hze, hee = np.broadcast_arrays(zeta, *(
        logu[m] for m in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))))[1:]
    # d/dx = (d/dzeta + d/deta)/sqrt2, d/dy = (d/deta - d/dzeta)/sqrt2
    g = np.stack([gz + ge, ge - gz], axis=1) / SQRT2
    hxy = 0.5 * (hee - hzz)
    H = np.moveaxis(np.array([[0.5 * (hzz + hee) + hze, hxy],
                              [hxy, 0.5 * (hzz + hee) - hze]]), -1, 0)
    ok = np.isfinite(u) & np.isfinite(g).all(axis=1) & np.isfinite(H).all(axis=(1, 2))
    if valid_mask is not None:
        ok &= valid_mask(zeta, eta)
    return np.where(ok, u, np.nan), g, H


# ---------------------------------------------------------------------------
# time analytics


def _statistic(spec, window, times, statistic, grid_n, valid_mask, rate=False):
    """(S, S') at ``times``: S the refined global max of U or the L2 norm of
    U over each time's valid samples; S' only with ``rate``, else None: U_t
    at the polished argmax for global_max (envelope theorem), mean(U U_t)/S
    for L2.  Raises SingularWindowError if some time has no valid sample."""
    if statistic == "global_max":
        u, (x, y) = refined_global_max(spec, window, times, grid_n, grid_n,
                                       valid_mask)
        return u, eval_intensity_dt(spec, *rotate(x, y), times)[1] if rate else None
    if statistic != "L2":
        raise ValueError(f"unknown statistic {statistic!r}")
    parts = []
    for _, u, ut, ok in _sample_u(spec, window_grid(window, grid_n, valid_mask), times, rate):
        n = np.count_nonzero(ok, axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.sqrt(np.sum(u * u, axis=(1, 2), where=ok) / n)
            parts.append((s, np.sum(u * ut, axis=(1, 2), where=ok) / n / s if rate else s))
    s, ds = (np.concatenate(p) for p in zip(*parts))
    return s, ds if rate else None


def estimate_period(spec: SolutionSpec, window, t_range: tuple[float, float],
                    n_t: int = 128, statistic: str = "global_max",
                    grid_n: int = 48, valid_mask=None,
                    tie_tol: float = 1e-9) -> AnalyticsResult:
    """Smallest time shift under which the chosen statistic repeats.

    A period is reported only if a uniform scan over shifts up to half the
    sampled range finds one whose series mismatch is below ``tie_tol``
    times the series scale; ``_refine_period`` polishes the first such
    shift, and ``period_mismatch`` is its probe mismatch over that scale.
    The resolution is the scan step, a guaranteed bound.  A near-constant
    series is degenerate and reports no period (best candidate None).
    """
    if n_t < 16:
        raise ValueError("need at least 16 time samples")
    t0, t1 = t_range
    times = np.linspace(t0, t1, n_t, endpoint=False)
    dt = (t1 - t0) / n_t
    series = _statistic(spec, window, times, statistic, grid_n, valid_mask)[0]

    scale = float(np.max(np.abs(series))) or 1.0
    if float(np.max(series) - np.min(series)) < tie_tol * scale:
        return AnalyticsResult(period_resolution=dt)

    best_k, best_mis = None, np.inf
    for k in range(1, n_t // 2 + 1):
        mis = float(np.max(np.abs(series[k:] - series[:-k])))
        if mis < best_mis:
            best_k, best_mis = k, mis
        if mis < tie_tol * scale:
            period, mismatch = _refine_period(spec, window, statistic, grid_n,
                                              valid_mask, t0, k * dt, dt, scale)
            return AnalyticsResult(estimated_period=period, period_resolution=dt,
                                   best_candidate=k * dt, period_mismatch=mismatch)
    return AnalyticsResult(estimated_period=None, period_resolution=dt,
                           best_candidate=best_k * dt if best_k else None)


def _refine_period(spec, window, statistic, grid_n, valid_mask, t0, period, dt, scale):
    """Gauss-Newton solve of g_i(T) = S(b_i + T) - S(b_i) = 0 from the scan
    shift ``period``, ended by a step out of one scan step around it, one
    that does not lower max|g_i|, or a zero or non-finite sum of S'^2.
    Returns the evaluated T with the smallest max|g_i|, and that max / scale."""
    base = t0 + np.linspace(0.0, 0.9, _PERIOD_PROBES) * period
    ref = _statistic(spec, window, base, statistic, grid_n, valid_mask)[0]
    T, best = period, None
    for _ in range(_PERIOD_ITERATIONS):
        s, ds = _statistic(spec, window, base + T, statistic, grid_n, valid_mask, rate=True)
        g = s - ref
        mis = float(np.max(np.abs(g)))
        if best is not None and not mis < best[1]:
            break
        best = (T, mis)
        with np.errstate(divide="ignore", invalid="ignore"):
            T = float(T - (ds @ g) / (ds @ ds))
        if not abs(T - period) <= dt:
            break
    return best[0], best[1] / scale


def decay_profile(spec: SolutionSpec, window, times: Sequence[float],
                  grid_n: int = 256, valid_mask=None) -> AnalyticsResult:
    """(t, refined max U) pairs across the requested times."""
    if not len(times):
        raise ValueError("need at least one time")
    peaks, _ = refined_global_max(spec, window, times, grid_n, grid_n,
                                  valid_mask)
    return AnalyticsResult(decay_series=tuple(
        (float(t), mx) for t, mx in zip(times, peaks.tolist())))


# ---------------------------------------------------------------------------
# symmetry diagnostics


def reflection_defect(grid: FieldGrid) -> float:
    """max |v(x, y) - v(x, -y)| over points valid under both orientations."""
    flipped = grid.values[::-1, :]
    both = grid.mask & grid.mask[::-1, :]
    if not both.any():
        return math.nan
    return float(np.max(np.abs(grid.values - flipped)[both]))


def point_reflection_defect(grid_a: FieldGrid, grid_b: FieldGrid) -> float:
    """max |a(x, y) - b(-x, -y)| for equal-shape grids on symmetric windows."""
    if grid_a.values.shape != grid_b.values.shape:
        raise ValueError("grids must share a shape")
    flipped = grid_b.values[::-1, ::-1]
    both = grid_a.mask & grid_b.mask[::-1, ::-1]
    if not both.any():
        return math.nan
    return float(np.max(np.abs(grid_a.values - flipped)[both]))


# ---------------------------------------------------------------------------
# export


# "%.17g" for whole arrays: with X the decimal exponent and s = 16 - X, the 17
# digits D = round-half-even(v 10^s) = round(M 5^s 2^(E+s)) of v = M 2^E are
# exact on two uint64 limbs and a right shift for s in [2, 27]; x, y, +-0 and
# the values outside, about 1e-11 <= |v| < 1e15, take Python's "%.17g".
_U64 = np.uint64
_POW5 = np.array([5 ** s for s in range(28)], dtype=np.uint64)


def _round_scaled(M, E, s):
    """Exact round-half-even(M 5^s 2^(E+s)) for M < 2^53, s <= 27, E + s < 0."""
    f, low, r = _POW5[s], _U64(2 ** 32 - 1), (-(E + s)).astype(_U64)
    ml, mh, fl, fh = M & low, M >> _U64(32), f & low, f >> _U64(32)
    mid, ll = ml * fh + mh * fl, ml * fl
    lo = ll + (mid << _U64(32))
    hi = mh * fh + (mid >> _U64(32)) + (lo < ll).astype(_U64)
    q = (hi << (_U64(64) - r)) | (lo >> r)
    rem, half = lo & ((_U64(1) << r) - _U64(1)), _U64(1) << (r - _U64(1))
    return q + (rem > half) + (rem == half) * (q & _U64(1))


def _python_g17(v, end: str) -> np.ndarray:
    """Python's "%.17g" and ``end`` per value, as rows of 25 bytes: right-
    justified to 24, the longest "%.17g", with the padding made zero."""
    text = (f"%24.17g{end}" * v.size % tuple(v.tolist())).encode()
    return np.frombuffer(text.replace(b" ", b"\0"), np.uint8).reshape(v.size, 25)


def _write_g17(v, out):
    """Writes "%.17g" % v and a newline for each value into the zero rows
    of ``out``, a (v.size, 29) byte matrix; zero bytes are padding."""
    with np.errstate(divide="ignore", invalid="ignore"):
        X = np.floor(np.log10(np.abs(v)) - 1e-12)  # never above the true exponent
    inside = (X >= -11) & (X <= 14)
    fallback, lanes = np.flatnonzero(~inside), np.flatnonzero(inside)
    out[fallback, :25] = _python_g17(v[fallback], "\n")
    v, X = v[lanes], X[lanes]
    m, e = np.frexp(np.abs(v))
    M, E, s = (m * 2.0 ** 53).astype(_U64), e.astype(np.int64) - 53, 16 - X.astype(np.int64)
    D = _round_scaled(M, E, s)
    # D >= 10^17 (X one too low, or rounded up to 10^17) is below it one place coarser
    low = np.flatnonzero(D >= _U64(10 ** 17))
    s[low] -= 1
    D[low], X = _round_scaled(M[low], E[low], s[low]), 16 - s
    G, part = np.empty((17, v.size), np.uint8), D  # G[j]: digit j, most significant first
    for j in range(16, -1, -1):
        q = part // _U64(10)
        G[j], part = part - q * _U64(10), q
    # %g: fixed for -4 <= X < 17, else d.ddde-XX; kept digits, dot before digit 0 < p < kept
    fixed, j = X >= -4, np.arange(17)[:, None]
    kept = np.maximum((np.arange(1, 18, dtype=np.uint8)[:, None] * (G != 0)).max(axis=0), X + 1)
    p = np.where(fixed, X + 1, 1)
    Gk = (G + np.uint8(48)) * (j < kept)
    K = np.zeros((29, v.size), np.uint8)        # the rows of out, transposed
    K[0] = np.uint8(45) * (v < 0)
    K[1:6] = np.frombuffer(b"0.000", np.uint8)[:, None] * ((j[:5] < 1 - X) & fixed & (X < 0))
    K[6:23] = Gk * (j < p)
    K[7:24] += Gk * (j >= p) + np.uint8(46) * ((j + 1 == p) & (kept > p))
    K[24:28] = ~fixed * np.stack([0 * X + 101, 0 * X + 45, 48 + (-X) // 10, 48 + (-X) % 10])
    K[28] = 10
    out[lanes] = K.T


def to_csv(grid: FieldGrid) -> bytes:
    """Header x,y,U plus one row per valid point, row-major with y ascending;
    masked points are omitted.  Every number reads as Python's "%.17g": an exact
    vectorized kernel writes the values in about 1e-11 <= |v| < 1e15, "%.17g" the rest."""
    iy, ix = np.nonzero(grid.mask)
    xs, ys = (r[:, r.any(axis=0)] for r in (_python_g17(grid.x, ","), _python_g17(grid.y, ",")))
    vals, rows = grid.values[iy, ix], [b"x,y,U\n"]
    for b in batches(iy.size, 1):
        mat = np.hstack([xs.take(ix[b], axis=0), ys.take(iy[b], axis=0),
                         np.zeros((ix[b].size, 29), np.uint8)])
        _write_g17(vals[b], mat[:, -29:])
        rows.append(mat.tobytes().translate(None, b"\0"))
    return b"".join(rows)


def parse_csv(data: bytes):
    """Inverse of :func:`to_csv`; returns (x, y, value) float arrays."""
    lines = data.decode("ascii").strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    if not lines or lines[0] != "x,y,U" or any(len(r) != 3 for r in rows):
        raise ValueError("not a field CSV")
    arr = np.array([[float(c) for c in r] for r in rows]).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def to_pgm16(grid: FieldGrid) -> tuple[bytes, str]:
    """16-bit binary PGM plus a sidecar describing the linear scaling.

    Pixels scale linearly from [0, grid max] to [0, 65535]; masked points
    are 0.  A zero-range grid maps to an all-zero image.
    """
    vmax = float(np.max(grid.values[grid.mask])) if grid.mask.any() else 0.0
    if vmax > 0:
        scaled = np.clip(grid.values / vmax, 0.0, 1.0) * 65535.0
    else:
        scaled = np.zeros_like(grid.values)
    pixels = np.where(grid.mask, np.rint(scaled), 0.0).astype(">u2")
    header = f"P5\n{grid.nx} {grid.ny}\n65535\n".encode("ascii")
    sidecar = to_report(grid) + (
        f"format: pgm16\nscale_max: {vmax:.17g}\n"
        "pixel_value: round(value / scale_max * 65535)\n"
        "masked_pixel: 0\nrow_order: y ascending\n"
    )
    return header + pixels.tobytes(), sidecar


def to_report(grid: FieldGrid) -> str:
    """Line-oriented key: value summary, stable for golden-file tests."""
    (x0, x1), (y0, y1) = grid.window
    vals = grid.valid_values()
    lines = [
        f"window: {x0:.17g}:{x1:.17g}:{y0:.17g}:{y1:.17g}",
        f"nx: {grid.nx}",
        f"ny: {grid.ny}",
        f"t: {grid.t:.17g}",
        f"valid: {int(np.count_nonzero(grid.mask))}",
        f"masked: {int(grid.mask.size - np.count_nonzero(grid.mask))}",
    ]
    if vals.size:
        mean = math.fsum(vals.tolist()) / vals.size
        idx = np.unravel_index(int(np.argmax(np.where(grid.mask, grid.values,
                                                      -np.inf))), grid.values.shape)
        lines += [
            f"min: {float(np.min(vals)):.17g}",
            f"max: {float(np.max(vals)):.17g}",
            f"mean: {mean:.17g}",
            f"max_at: {grid.x[idx[1]]:.17g},{grid.y[idx[0]]:.17g}",
        ]
    return "\n".join(lines) + "\n"
