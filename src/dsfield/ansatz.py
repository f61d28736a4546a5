"""Separable solution data and the field evaluators.

A :class:`SolutionSpec` bundles everything that defines one solution: four
mixing coefficients, two one-variable profiles, scalar coefficient
functions of time, and two sign choices.  In the rotated frame
``zeta = (x - y)/sqrt(2)``, ``eta = (x + y)/sqrt(2)`` the real denominator
field is

    f = a0 + a1*p(zeta,t) + a2*q(eta,t) + a3*p*q

and the intensity of the complex envelope is

    U = 4*(a0*a3 - a1*a2) * p_zeta * q_eta / f**2.

Profiles are evaluated where the coordinates are: a profile's ``jet3``
takes points, scalars or numpy arrays, and the grid readers take the
grid's lines.  The evaluators :func:`eval_f`, :func:`eval_intensity` and
:func:`eval_phi` take the jets they read, never coordinates, and mark
guarded samples NaN rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .calculus import DIV_GUARD, Jet, guarded
from .profiles import ProfileFunction, TimeFunction

__all__ = [
    "SeparationCoefficients",
    "CoefficientFunctions",
    "SolutionSpec",
    "rotate",
    "WindowGrid",
    "window_grid",
    "row_window",
    "grid_rows",
    "eval_f",
    "eval_intensity",
    "grid_intensity",
    "eval_phi",
    "batches",
    "AdmissibilityReport",
    "DEGENERATE_LEVEL",
    "max_abs",
    "drop_note",
    "pole_counts",
    "pole_note",
    "check_admissibility",
]

SQRT2 = math.sqrt(2.0)

# intensity samples whose largest |U| falls below this are degenerate
DEGENERATE_LEVEL = 1e-14

# work on many samples runs in batches of about this many, which keeps a
# batch's temporaries as small as those of one 181^2 grid sampled alone
_BATCH_POINTS = 2 ** 15
_ROW_BLOCK = 2 ** 13        # samples per leading index in a block of grid rows


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

    ``beta`` scales dispersion and nonlinearity (must stay nonzero) and
    ``gamma`` is the gain/dissipation rate.
    """

    beta: TimeFunction = TimeFunction((1.0,))
    gamma: TimeFunction = TimeFunction((0.0,))


@dataclass(frozen=True)
class SolutionSpec:
    """Complete description of one separable solution; ``valid_mask(zeta, eta)``, if
    given, is its evaluation guard, True where it is evaluated, and not compared."""

    coeffs: SeparationCoefficients
    p: ProfileFunction
    q: ProfileFunction
    funcs: CoefficientFunctions = field(default_factory=CoefficientFunctions)
    delta1: int = 1
    delta2: int = 1
    valid_mask: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        if self.delta1 * self.delta1 != 1 or self.delta2 * self.delta2 != 1:
            raise ValueError("delta1 and delta2 must be +1 or -1")
        if not any(self.funcs.beta.coeffs):
            raise ValueError("beta must not be identically zero")


def rotate(x, y):
    """(x, y) -> (zeta, eta); an isometry of the plane."""
    x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    y = np.asarray(y, dtype=float) if np.ndim(y) else float(y)
    return (x - y) / SQRT2, (x + y) / SQRT2


@dataclass(frozen=True)
class WindowGrid:
    """An (x, y) window sampled row-major, y along axis 0.

    ``X``, ``Y`` are the (ny, nx) sample coordinates, views of x and y,
    ``keep`` is ``valid_mask(*rotate(X, Y))``, or all True without one.
    On a square grid with equal spacing on both axes, zeta at row i, column
    j depends on j - i alone and eta on i + j alone: ``zeta_lines`` and
    ``eta_lines`` then hold the 2N - 1 line coordinates, and row i reads the
    windows ``zeta_lines[N-1-i : 2N-1-i]`` and ``eta_lines[i : i+N]``.
    Otherwise the lines are ``rotate(X, Y)``, 2-D.
    """

    X: np.ndarray
    Y: np.ndarray
    keep: np.ndarray
    zeta_lines: np.ndarray
    eta_lines: np.ndarray
    window: tuple = None          # ((x0, x1), (y0, y1)), sampled


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
    if nx != ny or x1 - x0 != y1 - y0:
        lines = rotate(X, Y)
    else:
        k, m = np.arange(1 - nx, nx), np.arange(2 * nx - 1)
        lines = ((x[np.maximum(k, 0)] - y[np.maximum(-k, 0)]) / SQRT2,
                 (x[np.minimum(m, nx - 1)] + y[np.maximum(m - nx + 1, 0)]) / SQRT2)
    keep = (np.ones((ny, nx), dtype=bool) if valid_mask is None else
            fill_rows((ny, nx), lambda rows: (valid_mask(*rotate(X[rows], Y[rows])),))[0])
    return WindowGrid(X, Y, keep, *lines, ((x0, x1), (y0, y1)))


def row_window(grid: WindowGrid, lines, x):
    """``x``, jets or arrays on ``lines`` (``grid.zeta_lines`` or ``grid.eta_lines``)
    after any leading axes, on the whole grid, for :func:`grid_rows` to read: on the
    line lattice views of each row's window, as :class:`WindowGrid` names them."""
    if lines.ndim == 2:
        return x
    n, zeta = grid.keep.shape[1], lines is grid.zeta_lines    # zeta row i starts at line n - 1 - i

    def window(e):                  # broadcast_to: read-only, as are the views
        e = np.broadcast_to(e, np.shape(e)[:-1] + lines.shape)[..., (n - 1) * zeta:]
        s = e.strides[-1]
        return as_strided(e, e.shape[:-1] + (n, n), e.strides[:-1] + (-s if zeta else s, s))
    return _entrywise(window, x)


def grid_rows(x, rows):
    """The grid rows ``rows`` of ``x``, as :func:`row_window` leaves it."""
    return _entrywise(lambda e: e[..., rows, :], x)


def _entrywise(fn, x):
    """``fn`` of an array, or of each array entry of a jet or of a tuple of them."""
    if isinstance(x, tuple):
        return tuple(_entrywise(fn, e) for e in x)
    if isinstance(x, Jet):
        return Jet((e if np.ndim(e) == 0 else fn(e) for e in x.entries), x.layout)
    return fn(x)


def batches(n: int, points_each: int, size: int = _BATCH_POINTS) -> list:
    """Slices that cut ``n`` items of ``points_each`` samples each into
    batches of about ``size`` samples, at least one item each."""
    step = max(1, size // points_each)
    return [slice(i, i + step) for i in range(0, n, step)]


def row_blocks(ny: int, nx: int) -> list:
    """The block rule: slices of ``ny`` grid rows of ``nx`` samples, _ROW_BLOCK samples each."""
    return batches(ny, nx, _ROW_BLOCK)


def fill_rows(shape, fn) -> tuple:
    """Arrays of ``shape`` (leading axes, grid rows, columns) filled by :func:`row_blocks`,
    per leading index: ``fn(rows)`` returns the tuple of their blocks."""
    out = ()
    for rows in row_blocks(*shape[-2:]):
        blocks = fn(rows)
        out = out or tuple(np.empty(shape, np.result_type(b)) for b in blocks)
        for whole, block in zip(out, blocks):
            whole[..., rows, :] = block
    return out


def max_abs(values, mask) -> float:
    """max |values| where ``mask``, 0 (never -0) if nowhere: max(max, -min), no |values|."""
    return float(abs(max(np.max(values, where=mask, initial=0.0),
                         -np.min(values, where=mask, initial=0.0))))


def drop_note(kept: int, n: int) -> str:
    """The note of a reduction that read ``n`` of the ``kept`` samples inside the valid set."""
    return ("no valid samples" if not n else
            f"{kept - n} samples not finite inside the valid set" if kept > n else "")


def masked_stats(values, mask):
    """(count, min, max, exact mean, (row, column) of the first max in raster order)
    of the (ny, nx) ``values`` where ``mask``; NaNs and None without such values."""
    n = int(np.count_nonzero(mask))
    if not n:
        return 0, math.nan, math.nan, math.nan, None
    hi = float(np.max(values, where=mask, initial=-np.inf))
    lo = float(np.min(values, where=mask, initial=np.inf))
    total = _exact_sum((values[rows][mask[rows]] for rows in row_blocks(*mask.shape)),
                       max(hi, -lo), n)
    at = np.equal(values, hi, out=np.zeros_like(mask), where=mask)
    return n, lo, hi, total / n, np.unravel_index(int(np.argmax(at)), at.shape)


def _exact_sum(blocks, top: float, n: int) -> float:
    """The sum of the ``n`` values in the arrays ``blocks`` (each read once and overwritten),
    of largest magnitude ``top``, bit for bit ``math.fsum``'s: error-free extraction (Rump,
    Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 2008).  With sigma = 2^ceil(log2 top)
    2^(ceil(log2 n) + 1), q = (r + sigma) - sigma and r - q are exact and the q sum exactly;
    each level repeats it on r - q with sigma times 2^(ceil(log2 n) - 52).  fsum adds the
    level sums, or reads the values where sigma would not be finite."""
    shift = (n - 1).bit_length() + 1
    e = math.frexp(top)[1] + shift              # 2^e >= 2^ceil(log2 top) 2^shift
    if not (math.isfinite(top) and e < 1024):
        return math.fsum(v for r in blocks for v in memoryview(r))
    parts = []
    for r in blocks:
        sigma = math.ldexp(1.0, e)
        while r.any():
            q = (r + sigma) - sigma
            parts.append(float(np.sum(q)))
            r -= q
            sigma = math.ldexp(sigma, shift - 53)
    return math.fsum(parts)


# ---------------------------------------------------------------------------
# the denominator field


def _assemble(a: SeparationCoefficients, p, q):
    """f = a0 + a1 p + a2 q + a3 p q, of arrays or of jets; a0 enters f alone."""
    return a.a0 + a.a1 * p + a.a2 * q + a.a3 * p * q


def eval_f(spec: SolutionSpec, pj: Jet, qj: Jet, order=2) -> Jet:
    """The denominator field f as a jet in (zeta, eta, t) to ``order``, a
    :func:`~dsfield.calculus.layout` order that names the entries its reader reads,
    from the profile jets ``pj``, ``qj`` (to ``order`` at least) at its points.

    The entries of the order-2 jet in (zeta, eta, t) come in the order f,
    f_z, f_e, f_t, f_zz, f_ze, f_zt, f_ee, f_et, f_tt; the mixed derivative
    comes out structurally, a3 * p_z * q_e.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        return _assemble(spec.coeffs, pj.shift(order=order, axes=(0, 2), n=3),
                         qj.shift(order=order, axes=(1, 2), n=3))


# ---------------------------------------------------------------------------
# intensity and forcing field


def eval_intensity(spec: SolutionSpec, pj: Jet, qj: Jet, dt: bool = False, f=None):
    """The one U kernel: (U, U_t) from the profile jets ``pj``, ``qj`` at
    the points, U_t only with ``dt`` (else None).

    It reads the jets' box (1, 0), the value and first derivative in x,
    and for U_t the box (1, 1); ``f`` is f's value if the caller has it.
    U is NaN where |f| falls under the guard, and U_t where U is.
    """
    a = spec.coeffs
    p, q = pj.value, qj.value
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        if f is None:
            f = _assemble(a, p, q)
        num = 4.0 * a.det * pj[1, 0] * qj[1, 0]
        fsafe = guarded(f, num)
        u = num / (fsafe * fsafe)
        if not dt:
            return u, None
        p_t, q_t = pj[0, 1], qj[0, 1]
        f_t = a.a1 * p_t + a.a2 * q_t + a.a3 * (p_t * q + p * q_t)
        return u, (4.0 * a.det * (pj[1, 1] * qj[1, 0] + pj[1, 0] * qj[1, 1]) / (f * f)
                   - 2.0 * u * f_t / f)


def grid_intensity(spec: SolutionSpec, grid: WindowGrid, t, dt: bool = False):
    """(U, U_t) on ``grid`` at ``t`` by :func:`eval_intensity`, U_t only
    with ``dt``; a 1-D array of times leads the shape, (n_t, ny, nx).

    The kernel fills the arrays by :func:`fill_rows`, a time being a leading
    index, reading each profile's jet to the box the kernel reads.  On
    the line lattice each profile is evaluated once per line coordinate for
    all times, windowed onto the grid once by :func:`row_window`, and each
    block reads its rows; off it each block evaluates its own zeta and eta.
    """
    t = np.asarray(t, dtype=float)
    tt = t.reshape(t.shape + (1,) * grid.zeta_lines.ndim) if t.ndim else float(t)

    def on_grid(profile, lines):                # rows -> the jet on those rows
        if lines.ndim == 2:
            return lambda rows: profile.jet3(lines[rows], tt, (1, int(dt)))
        jet = row_window(grid, lines, profile.jet3(lines, tt, (1, int(dt))))
        return lambda rows: grid_rows(jet, rows)

    pj, qj = on_grid(spec.p, grid.zeta_lines), on_grid(spec.q, grid.eta_lines)
    out = fill_rows(t.shape + grid.keep.shape,
                    lambda rows: eval_intensity(spec, pj(rows), qj(rows), dt)[:1 + dt])
    return out[0], out[1] if dt else None


# the entries of f's jet that eval_phi reads: f, f_z, f_e, f_zz, f_ze, f_ee
PHI_READS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 2, 0))


def eval_phi(tau: Jet, p0, q0):
    """Forcing field phi = -(f_z+f_e)^2/f^2 + (f_zz+2 f_ze+f_ee)/f + p0 + q0, from
    the entries ``PHI_READS`` of f's jet ``tau`` (:func:`eval_f`) and the backgrounds."""
    f, f_z, f_e, f_zz, f_ze, f_ee = map(tau.__getitem__, PHI_READS)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        grad = f_z + f_e
        lap = f_zz + 2.0 * f_ze + f_ee
        fsafe = guarded(f, lap)
        return -(grad * grad) / (fsafe * fsafe) + lap / fsafe + p0 + q0


# ---------------------------------------------------------------------------
# the window scan: zeros of f, the sign condition and profile poles


def pole_counts(spec: SolutionSpec, grid: WindowGrid, t: float):
    """(zeta, eta) counts of the poles of p and q over the ranges of ``grid``'s lines,
    which are its points' ranges bit for bit, as each profile declares them."""
    return tuple(prof.pole_count(float(np.min(lines)), float(np.max(lines)), t)
                 for prof, lines in ((spec.p, grid.zeta_lines), (spec.q, grid.eta_lines)))


def count_text(n: int) -> str:
    """A count as reports print it: exact below 2^53, else to a double's 17 digits."""
    return str(n) if n < 2 ** 53 else f"{n:.17g}"


def pole_note(ing) -> str:
    """The one pole rule, from the pole counts ``ing.poles`` of a bundle: a profile pole
    inside the valid set fails the window, since the solution holds only between poles.
    A guard is how a spec cuts its poles out, so the rule holds for a spec without one."""
    n = 0 if ing.spec.valid_mask is not None else sum(ing.poles)
    return (f"profile poles inside the window, which no guard cuts out: {count_text(n)}"
            if n else "")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the window scan.

    verdict is one of ``admissible``, ``degenerate`` (U identically zero on
    the window), ``singular`` (denominator zero crossing or guard hits, or a
    profile pole inside the valid set, which ``note`` then names: :func:`pole_note`),
    or ``sign-violating``.  ``min_f_point`` is the (x, y, t) of the first grid
    point in raster order where |f| is ``min_abs_f``; ``sign_changes`` counts
    the x-neighbour and y-neighbour pairs inside the valid set where f changes
    sign; ``pole_intervals_zeta`` and ``pole_intervals_eta`` count the poles of
    p and q over the grid's zeta and eta (:func:`pole_counts`).
    """

    verdict: str
    min_abs_f: float
    min_f_point: tuple
    sign_changes: int
    sign_violations: int
    invalid_points: int
    pole_intervals_zeta: int
    pole_intervals_eta: int
    note: str


def check_admissibility(ing) -> AdmissibilityReport:
    """Scan the grid of the bundle ``ing`` (:class:`~dsfield.auxiliary.Ingredients`) and
    classify the solution there at its time, from the bundle's profile jets on the grid
    rows: min |f| and its first point, the sign changes of f between neighbours, the
    sign condition, max |U| against ``DEGENERATE_LEVEL``, and the bundle's pole counts
    of p and q (:func:`pole_counts`) under :func:`pole_note`.

    Points outside ``grid.keep`` (known poles, say) are left out of the 2-D scan.
    """
    spec, grid, t = ing.spec, ing.grid, ing.t
    if min(grid.keep.shape) < 2:
        raise ValueError("need at least 2 samples per axis")
    keep = grid.keep

    def f_and_u(rows):
        b = ing.rows(rows)
        f = eval_f(spec, b.pj, b.qj, order=0).value
        return f, eval_intensity(spec, b.pj, b.qj, f=f)[0]
    f, u = fill_rows(keep.shape, f_and_u)
    ok_u = keep & np.isfinite(u)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        # det * p_z * q_e < 0 breaks the sign condition; U there is negative
        viol = keep & ((spec.coeffs.det * ing.rows().pj[1, 0] * ing.rows().qj[1, 0]) < 0.0)
        finite_f = keep & np.isfinite(f)
        sgn = np.sign(f, out=np.zeros(f.shape, np.int8), where=finite_f, casting="unsafe")
        flips_x = (sgn[:, 1:] * sgn[:, :-1]) < 0
        flips_y = (sgn[1:, :] * sgn[:-1, :]) < 0
    absf = np.abs(f, out=f)
    min_abs_f = float(np.min(absf, where=finite_f, initial=np.inf))
    at = np.equal(absf, min_abs_f, out=np.zeros_like(keep), where=finite_f)
    idx = np.unravel_index(np.argmax(at), at.shape)         # the first smallest |f|
    min_point = (float(grid.X[idx]), float(grid.Y[idx]), float(t))
    n_invalid = int(np.count_nonzero(keep & ~(ok_u & finite_f)))
    n_flips = int(np.count_nonzero(flips_x) + np.count_nonzero(flips_y))
    n_viol = int(np.count_nonzero(viol))

    note = pole_note(ing)
    if ok_u.any() and max_abs(u, ok_u) < DEGENERATE_LEVEL and not note:
        verdict = "degenerate"
    elif note or n_flips or not finite_f.any() or min_abs_f < DIV_GUARD:
        verdict = "singular"
    elif n_viol:
        verdict = "sign-violating"
    else:
        verdict = "admissible"
    zeta_poles, eta_poles = ing.poles
    return AdmissibilityReport(
        verdict=verdict,
        min_abs_f=min_abs_f,
        min_f_point=min_point,
        sign_changes=n_flips,
        sign_violations=n_viol,
        invalid_points=n_invalid,
        pole_intervals_zeta=zeta_poles,
        pole_intervals_eta=eta_poles,
        note=note,
    )
