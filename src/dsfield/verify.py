"""The numerical verification suites.

Three independent suites certify a solution spec:

* the bilinear constraint 2 D_z D_e f.f - g g* = 0: for the separable f
  the left side is identically 4 det p_z q_e, so the check compares that
  closed form with g g* from the amplitude factors, to a few roundings of
  |g g*|;
* the governing equations in the rotated frame: the envelope equation, as
  line 1 of the bilinear form and as the u-form with the forcing field, one
  residual in exact arithmetic that both report, assembled per block of grid
  rows from line identities (the background relation and the separation
  bracket) read once per line from the bundle's entries, building no jet; and the
  forcing-field constraint by one second-order central-difference stencil
  of the jet-computed fields at its step h and at h/2 and the order they
  show, from each profile once per stencil line on the entries U and phi
  read and U and phi broadcast onto the stencil, the stencils summed in a
  fixed order per block of grid rows (the package's only finite
  differences, their weights kept here);
* the window scan, :func:`~dsfield.ansatz.check_admissibility`: zeros of
  f from f's value alone, the sign condition, and profile poles from the
  counts each profile family declares in closed form.

Every check but ``pde2``, the consistency check among them, reads the
:class:`~dsfield.auxiliary.Ingredients` bundle of its window grid, each
line entry evaluated once per line; ``pde2`` reads the spec, the time and
its own grid of the bundle grid's window.  One pole rule,
:func:`~dsfield.ansatz.pole_note`, fails both the window scan and the
consistency check where, on a spec without a guard, the bundle's pole
counts hold a pole (grid lines can step over one).  Each check fills its residual
grid from row windows by :func:`~dsfield.ansatz.fill_rows`, as the renders
do, and reduces its finite samples inside the grid's ``keep`` by
``masked_stats`` under ``drop_note``: a residual is non-finite exactly
where it checks nothing.

:func:`run_checks` gives every verdict, against the fixed :data:`THRESHOLDS`,
and no check gates another: the envelope-equation checks run on every spec
with a3 != 0, whatever the consistency report says, so a non-solution fails
them.  At a3 = 0 they are marked not applicable, because their residuals near
the zeros of f have no rounding floor to be judged by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ansatz import (
    PHI_READS,
    AdmissibilityReport,
    SolutionSpec,
    _assemble,
    check_admissibility,
    count_text,
    drop_note,
    eval_f,
    eval_intensity,
    eval_phi,
    fill_rows,
    grid_rows,
    masked_stats,
    rotate,
    row_window,
    window_grid,
)
from .auxiliary import Ingredients, bracket, consistency_c1_c2

__all__ = [
    "ResidualReport",
    "bilinear_residuals",
    "envelope_residuals",
    "pde_residuals",
    "singularity_scan",
    "CHECKS",
    "THRESHOLDS",
    "run_checks",
]

@dataclass(frozen=True)
class ResidualReport:
    """A residual field reduced to its maximum, mean and worst point over its finite
    ``samples`` inside ``keep``, the ``dropped`` ones inside but not finite and the
    ``masked`` ones outside; ``notes`` say why it is not applicable or cannot pass."""

    check_name: str
    max_abs: float
    mean_abs: float
    worst_point: tuple                  # (x, y, t)
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
    return ResidualReport(name, mx, mean, (*map(float, xy), float(t)), n,
                          grid.keep.size - kept, kept - n, notes=drop_note(kept, n))


# ---------------------------------------------------------------------------
# envelope equation


def _line_terms(amp, grad, pj, r_t, p0, beta, gamma, a, own, other):
    """(X0, X1, p, p_z, |P|^2) on one coordinate's lines for P = p1 e^{ir}, from the jets p1
    (``amp``), r_z (``grad``), ``pj`` and from r_t, ``p0``: X0 = L (a0 + own p) + own k and
    X1 = L (other + a3 p) + a3 k, with L = [beta p0 - r_t + (beta/2)(p1_zz/p1 - r_z^2)]
    + i [bracket - gamma/2] and k = -i p_t - beta (p1_z/p1 + i r_z) p_z + beta p_zz/2."""
    p, p_z, p1, r_z = pj.value, pj[1, 0], amp.value, grad.value
    L = (beta * p0 - r_t + 0.5 * beta * (amp[2, 0] / p1 - r_z ** 2)
         + 1j * (bracket(amp, grad, beta) - 0.5 * gamma))
    k = -1j * pj[0, 1] - beta * (amp[1, 0] / p1 + 1j * r_z) * p_z + 0.5 * beta * pj[2, 0]
    return L * (a.a0 + own * p) + own * k, L * (other + a.a3 * p) + a.a3 * k, p, p_z, p1 * p1


def envelope_residuals(ing: Ingredients):
    """(bilinear1, pde1) on the bundle's grid: line 1 of the bilinear form at envelope
    scale and the u-form with phi, one residual in exact arithmetic, so both report E.

    For u = P Q / f, by f f_ze - f_z f_e = det p_z q_e alone, the residual of
    i u_t + (beta/2)(u_zz + u_ee) + beta (phi - |u|^2/2) u - i gamma u is

        E = (P Q / f^2) [X0 + X1 q + Y0 + p Y1 + beta (4 det p_z q_e - |P|^2 |Q|^2) / (2 f)]

    with X0, X1 by :func:`_line_terms` on the zeta lines (own = a1, other = a2) and Y0, Y1
    on the eta lines (a2, a1).  Its last term is line 2 of the bilinear form, so an
    amplitude error stays in it.  Both reports are not applicable where a3 = 0: there the
    residual beside the zeros of f is rounding, and no floor tells it from a defect.
    """
    grid, t, names = ing.grid, ing.t, ("bilinear1", "pde1")
    if ing.spec.coeffs.a3 == 0.0:
        return tuple(ResidualReport(name, math.nan, math.nan,
                                    (math.nan, math.nan, t), 0, applicable=False,
                                    notes="not applicable: a3 = 0 (no rounding floor "
                                          "for the residual near the zeros of f)")
                     for name in names)
    pde1 = _report("pde1", _envelope_field(ing), grid, t)
    return replace(pde1, check_name="bilinear1"), pde1


def _envelope_field(ing: Ingredients):
    """|E| on the bundle's grid: the line terms, evaluated once per line and windowed
    onto the grid, combined per block of rows; non-finite wherever a line term is."""
    grid, t, a = ing.grid, ing.t, ing.spec.coeffs
    beta, gamma = ing.spec.funcs.beta(t), ing.spec.funcs.gamma(t)
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        zeta = row_window(grid, grid.zeta_lines, _line_terms(
            ing.p1, ing.rz, ing.pj, ing.r[1], ing.p0, beta, gamma, a, a.a1, a.a2))
        eta = row_window(grid, grid.eta_lines, _line_terms(
            ing.q1, ing.se, ing.qj, ing.s[1], ing.q0, beta, gamma, a, a.a2, a.a1))

        def on_rows(rows):
            (X0, X1, p, p_z, P2), (Y0, Y1, q, q_e, Q2) = grid_rows((zeta, eta), rows)
            f, PQ2 = _assemble(a, p, q), P2 * Q2
            defect = 4.0 * a.det * p_z * q_e - PQ2
            return (np.sqrt(PQ2) / (f * f)
                    * np.abs(X0 + X1 * q + Y0 + p * Y1 + 0.5 * beta * defect / f),)
        return fill_rows(grid.keep.shape, on_rows)[0]


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
# forcing-field constraint: the package's only finite differences


# central-difference weights at the offsets -1, 0, 1, by derivative order
_FD_WEIGHTS = {1: (-0.5, 0.0, 0.5), 2: (1.0, -2.0, 1.0)}
_PDE2_H = 1e-2                      # the check's step; its convergence pair runs h/2 too


def pde_residuals(spec: SolutionSpec, grid, t, h=_PDE2_H) -> ResidualReport:
    """Residual of the forcing-field constraint (line 2 of the rotated-frame equations,
    fourth order in log f) on ``grid``, by central differences of step ``h`` of the
    jet-computed intensity and forcing fields."""
    return _report("pde2", _pde2_field(spec, grid, t, h), grid, t)


def _pde2_field(spec, grid, t, h=_PDE2_H):
    """Forcing-field residual |4 phi_ze - U_zz - U_ee - 2 U_ze| at ``grid``'s points,
    non-finite wherever a stencil sample of U or phi is.

    Second-order central differences of step ``h``.  A point's 3 x 3 stencil samples
    lie on 3 shifted zeta and 3 shifted eta lines, so per block of
    :func:`~dsfield.ansatz.fill_rows` p is evaluated once on its lines, (3, 1, rows,
    nx), q on its own, (1, 3, rows, nx), both on the box (2, 0) that U and phi read,
    U and phi come out on the stencil by broadcasting, and each stencil sums every
    sample it weighs, zero weights too, left to right: over k, or over (i, j) in
    raster order.  A point's bits do not depend on its block.
    """
    w1, w2 = _FD_WEIGHTS[1], _FD_WEIGHTS[2]
    cross = np.outer(w1, w1).ravel()
    d = np.array((-h, 0.0, h))[:, None, None, None]

    def wsum(weights, samples):
        return sum(w * v for w, v in zip(weights, samples)) / h**2

    def on_stencil(rows):
        z, e = rotate(grid.X[rows], grid.Y[rows])
        pj = spec.p.jet3(z + d, t, (2, 0))
        qj = spec.q.jet3((e + d[:, 0])[None], t, (2, 0))
        # zero backgrounds: the cross derivative annihilates separated
        # backgrounds, so the check is exact without them and stays
        # defined at degenerate times
        U = eval_intensity(spec, pj, qj)[0]
        PHI = eval_phi(eval_f(spec, pj, qj, PHI_READS), 0.0, 0.0)
        u_ze, phi_ze = (wsum(cross, v.reshape(-1, *v.shape[2:])) for v in (U, PHI))
        return (np.abs(4.0 * phi_ze - wsum(w2, U[:, 1]) - wsum(w2, U[1]) - 2.0 * u_ze),)

    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        return fill_rows(grid.keep.shape, on_stencil)[0]


# ---------------------------------------------------------------------------
# singularity scan


# kept while perfbench/tracer.py wraps this name
def singularity_scan(spec: SolutionSpec, window, t: float, samples=128) -> AdmissibilityReport:
    """:func:`~dsfield.ansatz.check_admissibility` on a fresh bundle under the spec's guard."""
    return check_admissibility(Ingredients(spec, window_grid(window, samples, spec.valid_mask), t))


# ---------------------------------------------------------------------------
# verdicts


CHECKS = ("bilinear2", "bilinear1", "pde2", "pde1", "consistency", "admissibility")

# the pass thresholds: bilinear2 relative to |g g*|, bilinear1 and pde1 absolute, the
# consistency variation, and the distance of pde2's observed order from its nominal 2
THRESHOLDS = {"bilinear2": 1e-10, "bilinear1": 1e-6, "pde1": 1e-6, "consistency": 1e-8,
              "pde2": 0.3}


def _residual(report):
    """(status, fields, notes) of a residual check against its threshold; an
    applicable report's fields also give its worst point, after max_abs, and
    end with its counts of masked and dropped samples.  An applicable report
    with notes fails: they say that it checked nothing, or not every valid
    sample."""
    threshold = THRESHOLDS[report.check_name]
    status = ("skipped" if not report.applicable
              else "pass" if report.max_abs < threshold and not report.notes else "fail")
    w, counts = report.worst_point, ("masked", "dropped") if report.applicable else ()
    return status, [("max_abs", f"{report.max_abs:.6e}"),
                    *((("worst_at", f"{w[0]:.17g},{w[1]:.17g}"),) if report.applicable else ()),
                    ("mean_abs", f"{report.mean_abs:.6e}"),
                    ("samples", str(report.samples)),
                    ("threshold", f"{threshold:.1e}"),
                    *((key, str(getattr(report, key))) for key in counts)], report.notes


def run_checks(ing: Ingredients, names) -> dict:
    """{check: (status, fields, notes)} of each of ``names``, in report order (not
    :data:`CHECKS` order).  All but pde2 read the bundle ``ing`` alone; pde2 runs at h
    and h/2 on at most 24^2 points of the bundle grid's window, and fails on a drop at
    either."""
    spec, t = ing.spec, ing.t
    checks = {}
    if "bilinear2" in names:
        checks["bilinear2"] = _residual(bilinear_residuals(ing))

    if "bilinear1" in names or "pde1" in names:
        for rep in envelope_residuals(ing):
            if rep.check_name in names:
                checks[rep.check_name] = _residual(rep)

    if "pde2" in names:
        grid = window_grid(ing.grid.window, min(ing.grid.keep.shape[1], 24), spec.valid_mask)
        coarse, fine = (pde_residuals(spec, grid, t, h) for h in (_PDE2_H, _PDE2_H / 2))
        e_h, e_h2 = coarse.mean_abs, fine.mean_abs
        order = math.log2(e_h / e_h2) if e_h > 0 and e_h2 > 0 else math.nan
        notes = "; ".join(dict.fromkeys(r.notes for r in (coarse, fine) if r.notes))
        ok = math.isfinite(order) and abs(order - 2.0) <= THRESHOLDS["pde2"] and not notes
        checks["pde2"] = ("pass" if ok else "fail", [
            ("mean_abs_h", f"{e_h:.6e}"),
            ("mean_abs_h2", f"{e_h2:.6e}"),
            ("observed_order", f"{order:.3f}"),
            ("nominal_order", "2"),
            ("masked", str(coarse.masked)),
            ("dropped_h", str(coarse.dropped)),
            ("dropped_h2", str(fine.dropped))], notes)

    if "consistency" in names:
        crep = consistency_c1_c2(ing)
        if not crep.applicable:
            checks["consistency"] = ("skipped", (), crep.note)
        else:
            ok = crep.max_variation <= THRESHOLDS["consistency"] and not crep.note
            var = {"c1_variation": crep.c1_variation, "c2_variation": crep.c2_variation}
            notes = [f"{key} undefined (nan)" for key, v in var.items() if math.isnan(v)]
            checks["consistency"] = ("pass" if ok else "fail", [
                *((key, f"{v:.6e}") for key, v in var.items()),
                ("threshold", f"{THRESHOLDS['consistency']:.1e}"),
                *((key, str(getattr(crep, key))) for key in ("samples", "masked", "dropped"))],
                "; ".join(filter(None, notes + [crep.note])))

    if "admissibility" in names:
        rep = check_admissibility(ing)
        checks["admissibility"] = ("pass" if rep.verdict == "admissible" else "fail", [
            ("verdict", rep.verdict),
            ("min_abs_f", f"{rep.min_abs_f:.6e}"),
            ("sign_changes", str(rep.sign_changes)),
            ("sign_violations", str(rep.sign_violations)),
            ("pole_intervals", count_text(rep.pole_intervals_zeta + rep.pole_intervals_eta))],
            rep.note)
    return checks
