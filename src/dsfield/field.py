"""Field sampling over (x, y) windows, analytics, and file export.

Grids are sampled row-major with y varying along axis 0 and x along axis 1.
A boolean mask marks valid samples; guard hits, profile poles and window
exclusions are masked rather than raising.

Analytics quantify what renders can only suggest: strict local maxima with
plateau grouping, a continuously refined global maximum (the raw grid
maximum moves by O(dx^2) under refinement, the polished one is stable),
time-periodicity estimates, and peak-decay series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage, optimize

from .ansatz import SolutionSpec, eval_intensity, eval_phi, rotate, window_grid
from .auxiliary import Auxiliaries
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
    "export",
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
    decay_series: tuple = ()
    symmetry_defects: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# sampling


def sample_field(spec: SolutionSpec, aux: Optional[Auxiliaries], which: str,
                 window, t: float, nx: int, ny: int,
                 valid_mask=None) -> FieldGrid:
    """Sample one of the derived fields over an (x, y) window.

    ``which`` is one of ``U`` (intensity), ``phi`` (forcing field, needs
    ``aux`` for the backgrounds), ``bilinear2`` or ``pde2`` (residual
    fields).  Raises if the window is entirely invalid.
    """
    if nx < 8 or ny < 8:
        raise ValueError("resolution must be at least 8 per axis")
    (x0, x1), (y0, y1) = window
    _, _, zeta, eta, keep = window_grid(window, (nx, ny), valid_mask)

    if which == "U":
        inten = eval_intensity(spec, zeta, eta, t)
        vals = inten.values
    elif which == "phi":
        if aux is None:
            raise ValueError("phi sampling needs derived auxiliaries")
        with np.errstate(invalid="ignore", over="ignore", under="ignore",
                         divide="ignore"):
            p0 = aux.p0(zeta, t)
            q0 = aux.q0(eta, t)
        vals = eval_phi(spec, zeta, eta, t, p0, q0)
    elif which in ("bilinear2", "pde2"):
        vals = residual_field(spec, aux, which, window, t, nx, ny, valid_mask)
    else:
        raise ValueError(f"unknown field {which!r}; use U, phi, bilinear2, pde2")

    vals = np.asarray(vals, dtype=float)
    mask = keep & np.isfinite(vals)
    if not mask.any():
        raise SingularWindowError("window entirely singular")
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

    neighbor_max = _neighbor_max(v)
    candidates = grid.mask & (v >= neighbor_max)

    labels, count = ndimage.label(candidates, structure=np.ones((3, 3), dtype=int))
    xs, ys = grid.x, grid.y
    peaks = []
    for lbl in range(1, count + 1):
        comp = labels == lbl
        val = float(v[comp][0])
        ring = _dilate(comp) & ~comp & grid.mask
        if not ring.any():
            continue                       # no valid surroundings to dominate
        if np.any(v[ring] >= val):
            continue                       # shoulder of an equal or higher region
        iy, ix = np.argwhere(comp)[0]
        peaks.append(PeakInfo(val, float(xs[ix]), float(ys[iy])))

    peaks.sort(key=lambda p: -p.value)
    gmax = float(np.max(v[grid.mask]))
    idx = np.unravel_index(int(np.argmax(v)), v.shape)
    return AnalyticsResult(
        global_max=gmax,
        global_max_location=(float(xs[idx[1]]), float(ys[idx[0]])),
        local_maxima=tuple(peaks),
    )


def _neighbor_max(v: np.ndarray) -> np.ndarray:
    padded = np.pad(v, 1, constant_values=-np.inf)
    best = np.full_like(v, -np.inf)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            shifted = padded[1 + dy:1 + dy + v.shape[0], 1 + dx:1 + dx + v.shape[1]]
            best = np.maximum(best, shifted)
    return best


def _dilate(mask: np.ndarray) -> np.ndarray:
    return ndimage.binary_dilation(mask, structure=np.ones((3, 3), dtype=bool))


def refined_global_max(spec: SolutionSpec, window, t: float,
                       nx: int = 192, ny: int = 192,
                       valid_mask=None) -> tuple[float, tuple]:
    """Grid argmax polished by a continuous Nelder-Mead ascent.

    Stable to grid refinement, unlike the raw grid maximum whose position
    quantization shifts it by O(dx^2).
    """
    grid = sample_field(spec, None, "U", window, t, nx, ny, valid_mask)
    v = np.where(grid.mask, grid.values, -np.inf)
    iy, ix = np.unravel_index(int(np.argmax(v)), v.shape)
    x0, y0 = grid.x[ix], grid.y[iy]
    (xa, xb), (ya, yb) = window

    def negU(xy):
        x, y = xy
        if not (xa <= x <= xb and ya <= y <= yb):
            return np.inf
        zeta, eta = rotate(x, y)
        if valid_mask is not None and not np.asarray(valid_mask(zeta, eta)).all():
            return np.inf
        val = eval_intensity(spec, zeta, eta, t).values
        return np.inf if not np.isfinite(val) else -float(val)

    res = optimize.minimize(negU, [x0, y0], method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-14,
                                     "maxiter": 400})
    if np.isfinite(res.fun) and -res.fun >= float(v[iy, ix]):
        return -float(res.fun), (float(res.x[0]), float(res.x[1]))
    return float(v[iy, ix]), (float(x0), float(y0))


# ---------------------------------------------------------------------------
# time analytics


def _statistic_series(spec, window, times, statistic, grid_n, valid_mask):
    out = np.empty(len(times))
    for i, t in enumerate(times):
        if statistic == "global_max":
            out[i], _ = refined_global_max(spec, window, t, grid_n, grid_n,
                                           valid_mask)
        elif statistic == "L2":
            g = sample_field(spec, None, "U", window, t, grid_n, grid_n,
                             valid_mask)
            vals = g.valid_values()
            out[i] = float(np.sqrt(np.mean(vals ** 2)))
        else:
            raise ValueError(f"unknown statistic {statistic!r}")
    return out


def estimate_period(spec: SolutionSpec, window, t_range: tuple[float, float],
                    n_t: int = 128, statistic: str = "global_max",
                    grid_n: int = 48, valid_mask=None,
                    tie_tol: float = 1e-9, refine: bool = True) -> AnalyticsResult:
    """Smallest time shift under which the chosen statistic repeats.

    A uniform scan over shifts up to half the sampled range locates the
    first match; golden-section refinement then polishes the shift within
    one scan step (the claimed periods are exact symmetries, so the
    mismatch is V-shaped there).  The reported resolution is the scan
    step, a guaranteed bound.  A near-constant series is degenerate and
    reports no period (best candidate None).
    """
    if n_t < 16:
        raise ValueError("need at least 16 time samples")
    t0, t1 = t_range
    times = np.linspace(t0, t1, n_t, endpoint=False)
    dt = (t1 - t0) / n_t
    series = _statistic_series(spec, window, times, statistic, grid_n, valid_mask)

    scale = float(np.max(np.abs(series))) or 1.0
    if float(np.max(series) - np.min(series)) < tie_tol * scale:
        return AnalyticsResult(estimated_period=None, period_resolution=dt,
                               best_candidate=None)

    best_k, best_mis = None, np.inf
    for k in range(1, n_t // 2 + 1):
        mis = float(np.max(np.abs(series[k:] - series[:-k])))
        if mis < best_mis:
            best_k, best_mis = k, mis
        if mis < tie_tol * scale:
            period = k * dt
            if refine:
                period = _refine_period(spec, window, statistic, grid_n,
                                        valid_mask, t0, period, dt)
            return AnalyticsResult(estimated_period=period,
                                   period_resolution=dt,
                                   best_candidate=k * dt)
    return AnalyticsResult(estimated_period=None, period_resolution=dt,
                           best_candidate=best_k * dt if best_k else None)


def _refine_period(spec, window, statistic, grid_n, valid_mask,
                   t0, period, dt, probes: int = 5, iterations: int = 20):
    """Golden-section polish of the scan candidate within one step."""
    base = t0 + np.linspace(0.0, 0.9, probes) * period
    ref = _statistic_series(spec, window, base, statistic, grid_n, valid_mask)

    def mismatch(T):
        shifted = _statistic_series(spec, window, base + T, statistic,
                                    grid_n, valid_mask)
        return float(np.max(np.abs(shifted - ref)))

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = period - dt, period + dt
    a = hi - inv_phi * (hi - lo)
    b = lo + inv_phi * (hi - lo)
    fa, fb = mismatch(a), mismatch(b)
    for _ in range(iterations):
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = mismatch(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = mismatch(b)
    return 0.5 * (lo + hi)


def decay_profile(spec: SolutionSpec, window, times: Sequence[float],
                  grid_n: int = 256, valid_mask=None) -> AnalyticsResult:
    """(t, refined max U) pairs across the requested times."""
    if not len(times):
        raise ValueError("need at least one time")
    series = []
    for t in times:
        mx, _ = refined_global_max(spec, window, t, grid_n, grid_n, valid_mask)
        series.append((float(t), mx))
    return AnalyticsResult(decay_series=tuple(series))


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


def export(grid: FieldGrid, format: str):
    """Dispatch to one of the writers: csv or report bytes, or for pgm16 a
    (image bytes, sidecar text) pair."""
    if format == "csv":
        return to_csv(grid)
    if format == "pgm16":
        return to_pgm16(grid)
    if format == "report":
        return to_report(grid).encode("utf-8")
    raise ValueError(f"unknown export format {format!r}")


def to_csv(grid: FieldGrid) -> bytes:
    """Header x,y,U plus one row per valid point, row-major with y ascending,
    17 significant digits; masked points are omitted."""
    iy, ix = np.nonzero(grid.mask)
    xs = np.array(["%.17g" % v for v in grid.x.tolist()], dtype=object)
    ys = np.array(["%.17g" % v for v in grid.y.tolist()], dtype=object)
    cells = [None] * (3 * iy.size)
    cells[0::3], cells[1::3] = xs[ix].tolist(), ys[iy].tolist()
    cells[2::3] = grid.values[iy, ix].tolist()
    return ("x,y,U\n" + "%s,%s,%.17g\n" * iy.size % tuple(cells)).encode("ascii")


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
