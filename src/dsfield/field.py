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
series, each on the one window grid its caller built; one batched U sampler
feeds the ascent and the L2 norm.  numpy is the only third-party import.

U and the exports run in blocks of grid rows, the CSV and the PGM written
into their file block by block, so a render's peak memory is its grid's,
not its text's or its image's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ansatz import (
    PHI_READS,
    SQRT2,
    SolutionSpec,
    WindowGrid,
    _assemble,
    batches,
    eval_f,
    eval_intensity,
    eval_phi,
    fill_rows,
    grid_intensity,
    masked_stats,
    rotate,
    row_blocks,
    window_grid,
)
from .auxiliary import Ingredients
from .verify import _bilinear2_field, _pde2_field

__all__ = [
    "SingularWindowError",
    "FieldGrid",
    "Period",
    "PeakInfo",
    "sample_field",
    "analyze_extrema",
    "refined_global_max",
    "estimate_period",
    "MIN_PERIOD_SAMPLES",
    "decay_profile",
    "to_csv",
    "to_pgm16",
    "to_report",
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


@dataclass(frozen=True)
class PeakInfo:
    value: float
    x: float
    y: float


@dataclass(frozen=True)
class Period:
    """:func:`estimate_period`'s period and scan step, and its best scan shift
    and period mismatch; each of the three but the step may be None."""

    estimated_period: Optional[float]
    period_resolution: float
    best_candidate: Optional[float]
    period_mismatch: Optional[float]


# ---------------------------------------------------------------------------
# sampling


def sample_field(spec: SolutionSpec, which: str, window, t: float, nx: int, ny: int) -> FieldGrid:
    """Sample one of the derived fields over an (x, y) window.

    ``which`` is one of ``U`` (intensity), ``phi`` (forcing field) or
    ``bilinear2`` or ``pde2`` (residual fields).  On a square window with
    equal spacing every ingredient is evaluated once per zeta and eta line:
    ``U`` by :func:`grid_intensity`, phi and ``bilinear2`` by ``fill_rows`` from
    one :class:`~dsfield.auxiliary.Ingredients` bundle, as verify reads them, and ``pde2``
    as verify fills it.  Non-finite values and points outside the spec's guard are
    masked.  Raises if the window is entirely invalid.
    """
    if nx < 8 or ny < 8:
        raise ValueError("resolution must be at least 8 per axis")
    (x0, x1), (y0, y1) = window
    grid = window_grid(window, (nx, ny), spec.valid_mask)

    if which == "U":
        vals = grid_intensity(spec, grid, t)[0]
    elif which == "pde2":
        vals = _pde2_field(spec, grid, t)
    elif which in ("phi", "bilinear2"):
        ing = Ingredients(spec, grid, t)
        block = ((lambda b: _bilinear2_field(spec, b)) if which == "bilinear2" else
                 lambda b: (eval_phi(eval_f(spec, b.pj, b.qj, PHI_READS), b.p0, b.q0),))
        vals = fill_rows((ny, nx), lambda rows: block(ing.rows(rows)))[0]
    else:
        raise ValueError(f"unknown field {which!r}; use U, phi, bilinear2, pde2")

    mask = grid.keep & np.isfinite(vals)
    _require_valid(mask.any())
    np.copyto(vals, 0.0, where=~mask)
    return FieldGrid(window=((x0, x1), (y0, y1)), nx=nx, ny=ny, t=float(t),
                     values=vals, mask=mask)


# ---------------------------------------------------------------------------
# extrema


def analyze_extrema(grid: FieldGrid):
    """Strict local maxima over valid 8-neighborhoods, as ``(grid max, its
    (x, y), peaks)``, the peaks :class:`PeakInfo` by falling value.

    Adjacent candidates (valid points not below a valid neighbor) are each at least the
    other, so each component of candidates is a plateau; it counts once, at its first point
    in raster order, if every valid neighbor outside it is strictly lower and one exists, so
    constant fields have no maxima.  Candidates alone are labelled, by min-label propagation.
    """
    if not grid.mask.any():
        raise ValueError("grid has no valid points")
    w = grid.nx + 2                                 # flat indices on a ring of padding
    v = np.pad(np.where(grid.mask, grid.values, -np.inf), 1, constant_values=-np.inf)
    ok = np.pad(grid.mask, 1).ravel()
    cand = ok & (v >= _neighbour_max(v, _RING)).ravel()
    k = np.flatnonzero(cand)
    label, old = np.arange(k.size, dtype=np.int32), None   # ends as its plateau's first candidate
    nb = np.empty((len(_RING), k.size), np.int32)   # the adjacent candidates, or itself
    outer, shoulder = np.zeros((2, k.size), bool)   # a valid outer neighbor; one not below
    for s, (dy, dx) in enumerate(_RING):
        n = k + (dy * w + dx)
        nb[s] = np.where(cand[n], np.searchsorted(k, n), label)
        ring = ok[n] & ~cand[n]
        outer, shoulder = outer | ring, shoulder | ring & (v.flat[n] >= v.flat[k])
    while not np.array_equal(label, old):
        old, label = label, np.minimum(label, label[nb].min(axis=0))
        label = label[label[label]]
    peak = (np.bincount(label, outer, k.size) > 0) & (np.bincount(label, shoulder, k.size) == 0)
    xs, ys, (iy, ix) = grid.x, grid.y, np.divmod(k[peak], w)
    peaks = sorted((PeakInfo(float(v[y, x]), float(xs[x - 1]), float(ys[y - 1]))
                    for y, x in zip(iy.tolist(), ix.tolist())), key=lambda p: -p.value)
    v = v[1:-1, 1:-1]
    idx = np.unravel_index(int(np.argmax(v)), v.shape)
    return float(v[idx]), (float(xs[idx[1]]), float(ys[idx[0]])), tuple(peaks)


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


def _neighbour_max(a: np.ndarray, shifts) -> np.ndarray:
    """Max of ``a`` over ``shifts`` in its last two axes, in place; -inf if none inside."""
    out, (ny, nx) = np.full(a.shape, -np.inf), a.shape[-2:]
    for dy, dx in shifts:       # rows y0 + [0, h) and columns x0 + [0, w) have the shift inside
        y0, x0, h, w = max(-dy, 0), max(-dx, 0), max(ny - abs(dy), 0), max(nx - abs(dx), 0)
        here = out[..., y0:y0 + h, x0:x0 + w]
        np.maximum(here, a[..., y0 + dy:y0 + dy + h, x0 + dx:x0 + dx + w], out=here)
    return out


def refined_global_max(spec: SolutionSpec, grid: WindowGrid, times):
    """Grid maximum polished by a projected-Newton ascent on log U.

    ``times``, a 1-D array, are sampled on ``grid`` in
    :func:`~dsfield.ansatz.batches` of times.  An ascent runs from every
    valid grid point that is not below any valid point of its
    8-neighbourhood on its own checkerboard sublattice, for all times at
    once, and the best result of each time is kept; of equal-valued starts
    at one time (a plateau) only the first runs.  The starts include each
    time's grid argmax.  On a grid with equal spacing each sublattice holds
    every other zeta line, so they also include a hump that lies between
    two zeta lines next to a pole, where each grid point on the hump's
    flank has a higher 3x3 neighbour across the pole.

    Each ascent starts with a trust radius of one grid step, the longer
    axis step, and stays in its peak's basin.  Gradient and Hessian of log
    U are exact, ratios of the profiles' derivatives.  A coordinate on a
    bound of the grid's window whose gradient points outward is frozen
    (Bertsekas 1982) and each candidate is clipped to the window; where the
    free Hessian is not negative definite a gradient step replaces the
    Newton step.  A candidate is taken only where U is finite, inside the
    spec's guard, not lower, and has risen by at least a quarter of the
    quadratic model's prediction; without a step taken the grid value stands.  A start ends after the step whose predicted gain in
    log U (the Newton decrement) is rounding, so its value is the converged
    point's; a start flat to rounding over one grid step does not move.

    Stable to grid refinement, unlike the raw grid maximum whose position
    quantization shifts it by O(dx^2).  Returns ``(value, (x, y))`` arrays.
    """
    times = np.asarray(times, dtype=float)
    starts = []
    for batch, u, _, ok in _sample_u(spec, grid, times):
        v = np.where(ok, u, -np.inf)
        top = _neighbour_max(v, _SUBLATTICE)
        it, iy, ix = np.nonzero(ok & (v >= top))
        starts.append(np.column_stack([it + batch.start, v[it, iy, ix],
                                       grid.X[iy, ix], grid.Y[iy, ix]]))
    starts = np.concatenate(starts)
    starts = starts[np.sort(np.unique(starts[:, :2], axis=0, return_index=True)[1])]
    it, u, xy = starts[:, 0].astype(int), starts[:, 1].copy(), starts[:, 2:].copy()
    lo, hi = np.array([grid.X[0, 0], grid.Y[0, 0]]), np.array([grid.X[-1, -1], grid.Y[-1, -1]])
    radius = float(np.max((hi - lo) / (np.array(grid.X.shape[::-1]) - 1)))    # one grid step
    _newton_ascent(spec, times[it], u, xy, lo, hi, radius)
    best = np.full(times.size, -np.inf)
    np.maximum.at(best, it, u)
    top = np.flatnonzero(u == best[it])             # the first start of each time wins ties
    pick = top[np.unique(it[top], return_index=True)[1]]
    return u[pick], (xy[pick, 0], xy[pick, 1])


# A start ends once its free Hessian is negative definite and its Newton
# decrement 1/2 g^T (-H)^-1 g, the gain in log U that the full Newton step
# predicts (Boyd & Vandenberghe, Convex Optimization, 9.5.1), is at most
# _ASCENT_PRED_FLOOR, after taking and judging that last step; and at once
# where its free gradient times one grid step, the starting trust radius, is
# that small.  _ASCENT_XTOL (window units) and _ASCENT_ITERATIONS candidate
# evaluations cap it.  The model-ratio test (Nocedal & Wright, Algorithm 4.1)
# keeps a long step from leaping over a masked pole into another basin; below
# a predicted gain of _ASCENT_PRED_FLOOR rounding decides the ratio, and not
# falling suffices.
_ASCENT_XTOL = 1e-13
_ASCENT_ITERATIONS = 60
_ASCENT_PRED_FLOOR = 1e-14
# The period solve compares S at up to _PERIOD_PROBES scan times with S one
# period later and takes at most _PERIOD_ITERATIONS Gauss-Newton steps.
_PERIOD_PROBES = 5
_PERIOD_ITERATIONS = 6
_TIE_TOL = 1e-9         # a scan shift ties below this mismatch over the series scale
MIN_PERIOD_SAMPLES = 16     # the fewest scan times a period estimate takes


def _newton_ascent(spec, times, u, xy, lo, hi, radius):
    """Trust-region ascent from the points ``xy`` (n, 2) in the box [lo, hi]
    where U is ``u``; updates ``u`` and ``xy`` in place."""
    u0, g, H = _log_intensity_jets(spec, times, xy)
    r = np.full(times.size, float(radius))
    run = np.flatnonzero((u > 0) & np.isfinite(u0))
    for _ in range(_ASCENT_ITERATIONS):
        d, gain, slope = _step(g[run], H[run], xy[run], lo, hi, r[run])
        s = np.clip(xy[run] + d, lo, hi) - xy[run]
        norm = np.hypot(s[:, 0], s[:, 1])
        moving = (norm > _ASCENT_XTOL) & (slope * radius > _ASCENT_PRED_FLOOR)
        run, s, norm, gain = run[moving], s[moving], norm[moving], gain[moving]
        if not run.size:
            break
        pred = (np.einsum("ni,ni->n", g[run], s)
                + 0.5 * np.einsum("ni,nij,nj->n", s, H[run], s))
        uc, gc, Hc = _log_intensity_jets(spec, times[run], xy[run] + s)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.log(uc / u[run]) / pred
        ok = (uc >= u[run]) & ((rho >= 0.25) | (pred <= _ASCENT_PRED_FLOOR))
        acc = run[ok]
        u[acc], xy[acc], g[acc], H[acc] = uc[ok], xy[acc] + s[ok], gc[ok], Hc[ok]
        grow = ok & (rho >= 0.75) & (norm >= 0.99 * r[run])
        r[run] = np.where(ok, np.where(grow, 2.0, 1.0) * r[run], 0.25 * norm)
        run = run[gain > _ASCENT_PRED_FLOOR]        # a converged start took its last step


def _step(g, H, xy, lo, hi, r):
    """Projected Newton step, at most ``r`` long; the gain in log U that the
    full Newton step predicts (inf unless the free Hessian is negative
    definite); and the length of the free gradient.

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
    concave = (h00 < 0) & (det > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        nd = np.stack([h01 * g1 - h11 * g0, h01 * g0 - h00 * g1], axis=1) / det[:, None]
        gain = np.where(concave, 0.5 * (g0 * nd[:, 0] + g1 * nd[:, 1]), np.inf)
        nd *= np.minimum(1.0, r / np.hypot(nd[:, 0], nd[:, 1]))[:, None]
        gn = np.hypot(g0, g1)
        curv = h00 * g0 * g0 + 2.0 * h01 * g0 * g1 + h11 * g1 * g1
        cauchy = np.where(curv < 0, np.minimum(r / gn, gn * gn / -curv), r / gn)
        d = np.where(concave[:, None], nd, np.stack([g0, g1], axis=1) * cauchy[:, None])
    return np.where(np.isfinite(d), d, 0.0), gain, gn


def _log_intensity_jets(spec, times, xy):
    """U at the points ``xy`` (n, 2) with the gradient (n, 2) and Hessian
    (n, 2, 2) in (x, y) of log U = log|p_z| + log|q_e| - 2 log|f|, as ratios
    of the profiles' box (3, 0) jets (f_z = (a1 + a3 q) p_z, f_ze = a3 p_z q_e,
    ...); U is NaN outside the spec's guard and where any of them is not finite."""
    zeta, eta = rotate(xy[:, 0], xy[:, 1])
    pj, qj = spec.p.jet3(zeta, times, (3, 0)), spec.q.jet3(eta, times, (3, 0))
    a, p, q = spec.coeffs, pj.value, qj.value
    f = _assemble(a, p, q)
    u = eval_intensity(spec, pj, qj, f=f)[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p1, p2, p3, q1, q2, q3 = (j[m, 0] for j in (pj, qj) for m in (1, 2, 3))
        cz, ce = a.a1 + a.a3 * q, a.a2 + a.a3 * p     # f_z / p_z, f_e / q_e
        lz, le = p2 / p1, q2 / q1                     # (log|p_z|)_z, (log|q_e|)_e
        rz, re = cz * p1 / f, ce * q1 / f             # (log|f|)_z, (log|f|)_e
        gz, ge = lz - 2.0 * rz, le - 2.0 * re
        hzz = p3 / p1 - lz * lz - 2.0 * (cz * p2 / f - rz * rz)
        hee = q3 / q1 - le * le - 2.0 * (ce * q2 / f - re * re)
        hze = 2.0 * (rz * re - a.a3 * p1 * q1 / f)
    g, H = np.empty((zeta.size, 2)), np.empty((zeta.size, 2, 2))
    # d/dx = (d/dzeta + d/deta)/sqrt2, d/dy = (d/deta - d/dzeta)/sqrt2
    g[:, 0], g[:, 1] = (gz + ge) / SQRT2, (ge - gz) / SQRT2
    H[:, 0, 0], H[:, 1, 1] = 0.5 * (hzz + hee) + hze, 0.5 * (hzz + hee) - hze
    H[:, 0, 1] = H[:, 1, 0] = 0.5 * (hee - hzz)
    ok = np.isfinite(u) & np.isfinite(g).all(axis=1) & np.isfinite(H).all(axis=(1, 2))
    if spec.valid_mask is not None:
        ok &= spec.valid_mask(zeta, eta)
    return np.where(ok, u, np.nan), g, H


# ---------------------------------------------------------------------------
# time analytics


def _statistic(spec, grid, times, statistic, rate=False):
    """(S, S') at ``times`` on ``grid``: S the refined global max of U or the
    L2 norm of U over each time's valid samples; S' only with ``rate``, else
    None: U_t at the polished argmax for global_max (envelope theorem),
    mean(U U_t)/S for L2.  Raises SingularWindowError if some time has no
    valid sample."""
    if statistic == "global_max":
        u, (x, y) = refined_global_max(spec, grid, times)
        if not rate:
            return u, None
        zeta, eta = rotate(x, y)
        return u, eval_intensity(spec, spec.p.jet3(zeta, times, (1, 1)),
                                 spec.q.jet3(eta, times, (1, 1)), dt=True)[1]
    if statistic != "L2":
        raise ValueError(f"unknown statistic {statistic!r}")
    parts = []
    for _, u, ut, ok in _sample_u(spec, grid, times, rate):
        n = np.count_nonzero(ok, axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.sqrt(np.sum(u * u, axis=(1, 2), where=ok) / n)
            parts.append((s, np.sum(u * ut, axis=(1, 2), where=ok) / n / s if rate else s))
    s, ds = (np.concatenate(p) for p in zip(*parts))
    return s, ds if rate else None


def estimate_period(spec: SolutionSpec, grid: WindowGrid, t_range: tuple[float, float],
                    n_t: int, statistic: str) -> Period:
    """Smallest time shift under which the chosen statistic on ``grid`` repeats.

    A period is reported only if a uniform scan over shifts up to half the
    sampled range finds one whose series mismatch is below ``_TIE_TOL`` times
    the series scale; ``_refine_period`` polishes the first such shift from
    probes at scan times until its step is rounding, and ``period_mismatch``
    is the probe mismatch of the returned period over that scale.  The
    resolution is the scan step, a guaranteed bound.  A near-constant series
    reports no period (best candidate None).
    """
    if n_t < MIN_PERIOD_SAMPLES:
        raise ValueError(f"need at least {MIN_PERIOD_SAMPLES} time samples")
    t0, t1 = t_range
    times = np.linspace(t0, t1, n_t, endpoint=False)
    dt = (t1 - t0) / n_t
    series = _statistic(spec, grid, times, statistic)[0]

    scale = float(np.max(np.abs(series))) or 1.0
    if float(np.max(series) - np.min(series)) < _TIE_TOL * scale:
        return Period(None, dt, None, None)

    best_k, best_mis = None, np.inf
    for k in range(1, n_t // 2 + 1):
        mis = float(np.max(np.abs(series[k:] - series[:-k])))
        if mis < best_mis:
            best_k, best_mis = k, mis
        if mis < _TIE_TOL * scale:
            period, mismatch = _refine_period(spec, grid, statistic, times, series, k, dt, scale)
            return Period(period, dt, k * dt, mismatch)
    return Period(None, dt, best_k * dt if best_k else None, None)


def _refine_period(spec, grid, statistic, times, series, k, dt, scale):
    """Gauss-Newton solve of g_i(T) = S(b_i + T) - S(b_i) = 0 from the scan
    shift k dt, b_i up to _PERIOD_PROBES scan ``times`` in its first 0.9 with
    S(b_i) in ``series``, ended by a step out of one scan step around k dt, one
    that does not lower max|g_i|, a zero or non-finite sum of S'^2, or a step
    of at most 4 eps |T|, rounding, after which S is not evaluated again.
    Returns the evaluated T with the smallest max|g_i|, and that max / scale."""
    pick = np.unique(np.rint(np.linspace(0.0, 0.9, _PERIOD_PROBES) * k).astype(int))
    base, ref, period = times[pick], series[pick], k * dt
    T, best = period, None
    for _ in range(_PERIOD_ITERATIONS):
        s, ds = _statistic(spec, grid, base + T, statistic, rate=True)
        g = s - ref
        mis = float(np.max(np.abs(g)))
        if best is not None and not mis < best[1]:
            break
        best = (T, mis)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = float((ds @ g) / (ds @ ds))
        T -= step
        if not abs(T - period) <= dt or abs(step) <= 4 * np.finfo(float).eps * abs(T):
            break
    return best[0], best[1] / scale


def decay_profile(spec: SolutionSpec, grid: WindowGrid, times):
    """(t, refined max U) pairs across the requested times, on ``grid``."""
    if not len(times):
        raise ValueError("need at least one time")
    return tuple(zip(map(float, times), refined_global_max(spec, grid, times)[0].tolist()))


# ---------------------------------------------------------------------------
# export


# "%.17g" for whole arrays: with X the decimal exponent and s = 16 - X, the 17
# digits D = round-half-even(v 10^s) = round(M 5^s 2^(E+s)) of v = M 2^E are
# exact on two uint64 limbs and a right shift for s in [2, 27].  Every value runs
# the kernel with X clipped into [-11, 14]; x, y, +-0 and the values outside,
# about 1e-11 <= |v| < 1e15, are then rewritten with Python's "%.17g".  The row
# bytes other than digits and dot come from _FRAMES, by sign and final X.
_U64 = np.uint64
_POW5 = np.array([5 ** s for s in range(28)], dtype=np.uint64)
_J = np.arange(18, dtype=np.int8)[:, None]       # digit and slot index
_FRAMES = np.frombuffer(b"".join(                 # sign, "0.000"[:1 - X], "e-XX", newline
    ("-" * neg + "0.000"[:(1 - x) * (-4 <= x < 0)]).ljust(24, "\0").encode()
    + (f"e-{-x:02d}" * (x < -4)).ljust(4, "\0").encode() + b"\n"
    for neg in (0, 1) for x in range(-11, 16)), "V29")


def _round_scaled(M, E, s):
    """Exact round-half-even(M 5^s 2^(E+s)) for M < 2^53, s <= 27, E + s < 0."""
    f, low, r = _POW5.take(s), _U64(2 ** 32 - 1), (-(E + s)).astype(_U64)
    ml, mh, fl, fh = M & low, M >> _U64(32), f & low, f >> _U64(32)
    mid, ll = ml * fh + mh * fl, ml * fl
    lo = ll + (mid << _U64(32))
    hi = mh * fh + (mid >> _U64(32)) + (lo < ll)
    q, cut = (hi << (_U64(64) - r)) | (lo >> r), lo << (_U64(64) - r)  # cut: bits shifted out
    return q + ((cut | (q & _U64(1))) > _U64(2 ** 63))  # above half, or half and q odd


def _python_g17(v, end: str) -> np.ndarray:
    """Python's "%.17g" and ``end`` per value, as rows of 25 bytes: right-
    justified to 24, the longest "%.17g", with the padding made zero."""
    text = (f"%24.17g{end}" * v.size % tuple(v.tolist())).encode()
    return np.frombuffer(text.replace(b" ", b"\0"), np.uint8).reshape(v.size, 25)


def _write_g17(v, out):
    """Writes "%.17g" % v and a newline for each value into the rows of
    ``out``, a (v.size, 29) byte matrix; zero bytes are padding."""
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        X = np.floor(np.log10(a) - 1e-12)  # never above the true exponent
        Xk, (m, e) = np.fmax(np.fmin(X, 14), -11), np.frexp(a)
        M, E, s = (m * 2.0 ** 53).astype(_U64), e - 53, (16 - Xk).astype(np.int8)
    fallback = np.flatnonzero(X != Xk)
    D = _round_scaled(M, E, s)
    # D >= 10^17 (X one too low, or rounded up to 10^17) is below it one place coarser
    low = np.flatnonzero(D >= _U64(10 ** 17))
    s[low] -= 1
    D[low], X = _round_scaled(M[low], E[low], s[low]), 16 - s
    # P[1 + j]: digit j, most significant first; digits 0-7 and 8-16 as two uint32 of 9
    hi = D // _U64(10 ** 9)
    part = np.stack([hi, D - hi * _U64(10 ** 9)]).astype(np.uint32)
    P = np.empty((2, 9, v.size), np.uint8)
    for j in range(8, -1, -1):
        q = part // np.uint32(10)
        P[:, j], part = part - q * np.uint32(10), q
    P = P.reshape(18, v.size)
    # %g: fixed for -4 <= X < 17, else d.ddde-XX; kept digits, dot before digit 0 < p < kept
    kept, p = np.maximum((_J * (P != 0)).max(axis=0), X + 1), np.where(X >= -4, X + 1, 1)
    C = (P + np.uint8(48)) * (_J <= kept)
    C[0] = 0
    out.view(_FRAMES.dtype)[:, 0] = _FRAMES.take(X + 11 + 27 * (v < 0))
    K = C * (_J > p) + np.uint8(46) * ((kept > p) & (p > 0)) * (_J == p)  # digits < p, dot, rest
    K[:17] += C[1:] * (_J[:17] < p)
    out[:, 6:24] = K.T
    out[fallback, :4] = 0
    out[fallback, 4:] = _python_g17(v[fallback], "\n")


def to_csv(grid: FieldGrid, fh) -> None:
    """Writes x,y,U and a row per valid point, row-major with y ascending, into
    the binary file ``fh``; every number reads as Python's "%.17g".  Each block
    of grid rows is laid out in one reused byte matrix, zero bytes padding."""
    xs, ys = (np.compress(r.any(axis=0), r, axis=1) for r in (_python_g17(grid.x, ","),
                                                            _python_g17(grid.y, ",")))
    xs, ys = (r.view(f"V{r.shape[1]}").ravel() for r in (xs, ys))  # one element per text
    blocks = row_blocks(grid.ny, grid.nx)
    buf = np.empty((grid.mask[blocks[0]].size, xs.itemsize + ys.itemsize + 29), np.uint8)
    fh.write(b"x,y,U\n")
    for rows in blocks:
        iy, ix = np.nonzero(grid.mask[rows])
        mat = buf[:ix.size]
        mat[:, :xs.itemsize].view(xs.dtype)[:, 0] = xs.take(ix)
        mat[:, xs.itemsize:-29].view(ys.dtype)[:, 0] = ys[rows].take(iy)
        _write_g17(grid.values[rows][grid.mask[rows]], mat[:, -29:])
        fh.write(mat.tobytes().translate(None, b"\0"))


def to_pgm16(grid: FieldGrid, fh) -> str:
    """Writes a 16-bit binary PGM of ``grid`` into the binary file ``fh``,
    block by block of grid rows, and returns a sidecar describing the
    linear scaling.

    Pixels scale linearly from [0, grid max] to [0, 65535]; masked points
    are 0.  A zero-range grid maps to an all-zero image.  Negative values
    also map to 0; the sidecar counts them as clipped_below_zero, a line it
    has only when there are any.
    """
    vmax = (float(np.max(grid.values, where=grid.mask, initial=-np.inf))
            if grid.mask.any() else 0.0)
    fh.write(f"P5\n{grid.nx} {grid.ny}\n65535\n".encode("ascii"))
    clipped = 0
    for rows in row_blocks(grid.ny, grid.nx):
        v, ok = grid.values[rows], grid.mask[rows]
        scaled = np.clip(v / vmax, 0.0, 1.0) * 65535.0 if vmax > 0 else 0.0
        fh.write(np.where(ok, np.rint(scaled), 0.0).astype(">u2"))
        clipped += int(np.count_nonzero(ok & (v < 0)))
    return to_report(grid) + (
        f"format: pgm16\nscale_max: {vmax:.17g}\n"
        "pixel_value: round(value / scale_max * 65535)\n"
        + (f"clipped_below_zero: {clipped}\n" if clipped else "")
        + "masked_pixel: 0\nrow_order: y ascending\n"
    )


def to_report(grid: FieldGrid) -> str:
    """Line-oriented key: value summary, stable for golden-file tests."""
    (x0, x1), (y0, y1) = grid.window
    n, lo, hi, mean, at = masked_stats(grid.values, grid.mask)
    lines = [
        f"window: {x0:.17g}:{x1:.17g}:{y0:.17g}:{y1:.17g}",
        f"nx: {grid.nx}",
        f"ny: {grid.ny}",
        f"t: {grid.t:.17g}",
        f"valid: {n}",
        f"masked: {grid.mask.size - n}",
    ]
    if n:
        lines += [
            f"min: {lo:.17g}",
            f"max: {hi:.17g}",
            f"mean: {mean:.17g}",
            f"max_at: {grid.x[at[1]]:.17g},{grid.y[at[0]]:.17g}",
        ]
    return "\n".join(lines) + "\n"
