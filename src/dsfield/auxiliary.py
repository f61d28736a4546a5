"""Derived quantities completing a separable solution.

Given the profile pair the construction determines, in order:

* amplitude factors  p1 = delta1 * sqrt(s * p_z)  and
  q1 = 2 * delta2 * sqrt(s * det * q_e), whose squared product is
  4 * det * p_z * q_e; the branch s(t) is -1 where p_z and det * q_e are
  both negative at the phase anchors, else +1, so the + branch is kept
  wherever it is real at either anchor;
* phase gradients r_z = -p_t / (beta * p_z) and s_e = -q_t / (beta * q_e),
  solved pointwise from the profile evolution relations;
* phases r, s by one cumulative Gauss-Legendre pass over the sorted line
  coordinates, from an anchor (r(anchor, t) = 0, absorbing the free
  additive time function into the background);
* background levels

      p0 = (r_t - (beta/2)*(p1_zz/p1 - r_z^2)) / beta,
      q0 = (s_t - (beta/2)*(q1_ee/q1 - s_e^2)) / beta.

The consistency report evaluates the two bracket ratios c1(t), c2(t) that
the separation needs to be time functions alone, from a bundle's line
entries on every sample of its grid; spatial variation in them flags an
inconsistent configuration; their :func:`bracket` is also the imaginary
part of the envelope equation's line term.  A profile pole inside the valid
set, which grid lines can step over, fails it by the one pole rule, the
window scan's :func:`~dsfield.ansatz.pole_note`.

The amplitude and gradient jets take the profile jet of their coordinate,
so a caller evaluates each profile once for all of them.  An
:class:`Ingredients` bundle holds every one of these line quantities for
one window grid at one time, for all the checks and renders on that grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import calculus as jc
from .calculus import Jet
from .ansatz import (SolutionSpec, drop_note, grid_rows, masked_stats, pole_counts,
                     pole_note, row_window)

__all__ = [
    "Auxiliaries",
    "Ingredients",
    "ConsistencyReport",
    "consistency_c1_c2",
    "bracket",
]


class Auxiliaries:
    """The derived-quantity formulas of one solution spec.

    All evaluators are vectorized over their spatial argument at fixed t; the ``*_jet``
    methods map the profile jet of their coordinate, to order k, to a jet in (own coordinate,
    t) to order k - 1.  The class constants are single choices: ``quad_n``, the Gauss-Legendre
    nodes per gap between neighbouring line coordinates, and the anchors, the zeros of r and s.
    """

    quad_n = 16
    anchor_zeta = anchor_eta = 0.0

    def __init__(self, spec: SolutionSpec):
        self.spec = spec

    # -- amplitude factors ---------------------------------------------------

    def branch(self, t):
        """s(t), the sign both amplitude radicands carry: -1 where p_z and
        det * q_e are both negative at their anchors, else +1."""
        pz = self.spec.p.jet3(self.anchor_zeta, t, (1, 0))[1, 0]
        qe = self.spec.coeffs.det * self.spec.q.jet3(self.anchor_eta, t, (1, 0))[1, 0]
        return np.where((pz < 0.0) & (qe < 0.0), -1.0, 1.0)

    def p1_jet(self, pj: Jet, t) -> Jet:
        return float(self.spec.delta1) * jc.sqrt(self.branch(t) * pj.shift((1, 0)))

    def q1_jet(self, qj: Jet, t) -> Jet:
        rad = (self.branch(t) * self.spec.coeffs.det) * qj.shift((1, 0))
        return float(2 * self.spec.delta2) * jc.sqrt(rad)

    # -- phase gradients -----------------------------------------------------

    def r_zeta_jet(self, j: Jet, t) -> Jet:
        return -j.shift((0, 1)) / (self.spec.funcs.beta.jet(t, j.order - 1) * j.shift((1, 0)))

    s_eta_jet = r_zeta_jet

    # -- phases ---------------------------------------------------------------

    def phase_r(self, zeta, t):
        """(r, r_t) at the requested points, integrated from the anchor; the
        profile is evaluated at the quadrature nodes."""
        return _integrate_from_anchor(self.r_zeta_jet, self.spec.p, self.anchor_zeta,
                                      zeta, t, self.quad_n)

    def phase_s(self, eta, t):
        return _integrate_from_anchor(self.s_eta_jet, self.spec.q, self.anchor_eta,
                                      eta, t, self.quad_n)

    # -- backgrounds -----------------------------------------------------------

    def p0(self, r_t, p1: Jet, rz: Jet, t):
        """(r_t - (beta/2) (p1_zz/p1 - r_z^2)) / beta from r_t and the p1 and
        r_z jets at the same points; q0 is the same formula in eta."""
        beta = self.spec.funcs.beta(t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            return (r_t - 0.5 * beta * (p1[2, 0] / p1.value - rz.value ** 2)) / beta

    q0 = p0


def _entry(fn):
    """An :class:`Ingredients` entry: evaluated on first read, then kept.
    Non-finite values are data here, so numpy's warnings are off."""
    return functools.cached_property(jc._quiet(fn))


class Ingredients:
    """The one-variable ingredients of ``spec`` on one window grid at ``t``.

    Every check and render on the grid reads this one evaluation: the formulas ``aux``,
    the :class:`Auxiliaries` of ``spec``; the profile jets ``pj``, ``qj`` on the grid's
    zeta and eta lines (on the lattice, once per line), the amplitude jets ``p1``, ``q1``
    and gradient jets ``rz``, ``se`` from them, the phase pairs ``r`` = (r, r_t) and
    ``s`` = (s, s_t), the backgrounds ``p0``, ``q0``; ``rows(rows)`` reads them on grid
    rows, as attributes; ``poles``, the pole counts of p and q over the ranges of the
    lines (:func:`~dsfield.ansatz.pole_counts`).  Each entry is evaluated when first
    read, and one assigned before its first read replaces it.
    """

    def __init__(self, spec: SolutionSpec, grid, t: float):
        self.spec, self.grid, self.t = spec, grid, t

    aux = _entry(lambda self: Auxiliaries(self.spec))
    pj = _entry(lambda self: self.spec.p.jet3(self.grid.zeta_lines, self.t))
    qj = _entry(lambda self: self.spec.q.jet3(self.grid.eta_lines, self.t))
    p1 = _entry(lambda self: self.aux.p1_jet(self.pj, self.t))
    q1 = _entry(lambda self: self.aux.q1_jet(self.qj, self.t))
    rz = _entry(lambda self: self.aux.r_zeta_jet(self.pj, self.t))
    se = _entry(lambda self: self.aux.s_eta_jet(self.qj, self.t))
    r = _entry(lambda self: self.aux.phase_r(self.grid.zeta_lines, self.t))
    s = _entry(lambda self: self.aux.phase_s(self.grid.eta_lines, self.t))
    p0 = _entry(lambda self: self.aux.p0(self.r[1], self.p1, self.rz, self.t))
    q0 = _entry(lambda self: self.aux.q0(self.s[1], self.q1, self.se, self.t))
    poles = _entry(lambda self: pole_counts(self.spec, self.grid, self.t))

    def rows(self, rows=slice(None)) -> "_Rows":
        return _Rows(self, rows)


_LINES = {**dict.fromkeys(("pj", "p1", "rz", "r", "p0"), "zeta_lines"),
          **dict.fromkeys(("qj", "q1", "se", "s", "q0"), "eta_lines")}


class _Rows:
    """Grid rows of a bundle's entries on their ``_LINES``, windowed once per bundle."""

    def __init__(self, ing: Ingredients, rows):
        self.ing, self.rows = ing, rows

    def __getattr__(self, name):
        if name not in _LINES:
            raise AttributeError(name)
        ing, views = self.ing, vars(self.ing).setdefault("_on_grid", {})
        if name not in views:
            views[name] = row_window(ing.grid, getattr(ing.grid, _LINES[name]), getattr(ing, name))
        return grid_rows(views[name], self.rows)


# ---------------------------------------------------------------------------
# phase integration


@functools.cache
def _gauss_legendre(m: int):
    """m-point Gauss-Legendre nodes and weights on [-1, 1] (Golub-Welsch), read-only."""
    k = np.arange(1.0, m)
    nodes, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1), UPLO="U")
    weights = 2.0 * vecs[0] ** 2 / np.sum(vecs[0] ** 2)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _restarting_cumsum(gaps, broken):
    """Prefix sums along the last axis that restart from 0 after a broken gap."""
    total = np.cumsum(np.where(broken, 0.0, gaps), axis=-1)
    last = np.maximum.accumulate(np.where(broken, np.arange(broken.size), -1))
    return total - np.where(last >= 0, total[..., last], 0.0)


def _integrate_from_anchor(grad_jet, profile, anchor: float, targets, t, m: int):
    """Cumulative m-point Gauss-Legendre integral from the anchor of the
    gradient ``grad_jet`` of ``profile``'s jet.

    The breakpoints are the sorted distinct targets plus the anchor.  Each
    gap between neighbours gets one rule (all gaps in one profile and one
    gradient call, for the value and its time derivative), and prefix sums
    run outward from the anchor give (phase, phase_t) at every breakpoint,
    gathered back to the targets' shape.  A gap with a non-finite node value breaks the chain:
    the breakpoints beyond it restart from its far end with phase 0, which
    shifts the phase there by a function of t alone.
    """
    tg = np.asarray(targets, dtype=float)
    distinct, inverse = np.unique(tg, return_inverse=True)
    pts = np.union1d(distinct, anchor)
    k = int(np.searchsorted(pts, anchor))
    x, w = _gauss_legendre(m)
    half = 0.5 * np.diff(pts)
    nodes = (pts[:-1] + half)[:, None] + half[:, None] * x
    # the rule reads the gradient's value and t-derivative: order 1 of order 2
    jets = grad_jet(profile.jet3(nodes, t, 2), t)
    gaps = (np.array(np.broadcast_arrays(jets.value, jets[0, 1], nodes)[:2], dtype=float)
            @ w) * half
    broken = ~np.isfinite(gaps).all(axis=0)
    phase = np.zeros((2, pts.size))
    phase[:, k + 1:] = _restarting_cumsum(gaps[:, k:], broken[k:])
    phase[:, :k] = -_restarting_cumsum(gaps[:, :k][:, ::-1], broken[:k][::-1])[:, ::-1]
    phase[:, ~np.isfinite(pts)] = np.nan
    r, r_t = phase[:, np.searchsorted(pts, distinct)][:, inverse.ravel()]
    return r.reshape(tg.shape)[()], r_t.reshape(tg.shape)[()]


# ---------------------------------------------------------------------------
# consistency diagnostics


@dataclass(frozen=True)
class ConsistencyReport:
    """Spatial variation of the two t-only candidate ratios on a bundle's grid.

    ``applicable`` is False when a3 = 0 (the ratios divide by a3).  The
    separation is certified when both variations are at the rounding level;
    ``max_variation`` is NaN when either is, so the check fails closed.  The
    counts add c1's and c2's, each reduced as a residual is, and ``note`` says
    why it is not applicable, what was dropped, or that a pole lies in the valid set.
    """

    applicable: bool
    c1_variation: float
    c2_variation: float
    samples: int = 0
    masked: int = 0
    dropped: int = 0
    note: str = ""

    @property
    def max_variation(self) -> float:
        return float(np.maximum(self.c1_variation, self.c2_variation))


def bracket(amp: Jet, grad: Jet, beta):
    """amp_t/amp + beta (amp_z grad/amp + grad_z/2): Im (i P_t + beta P_zz/2)/P, P = amp e^{ir}."""
    return (amp[0, 1] / amp.value
            + beta * (amp[1, 0] * grad.value / amp.value + 0.5 * grad[1, 0]))


def consistency_c1_c2(ing: Ingredients) -> ConsistencyReport:
    """The bracket ratios c1, c2 of the bundle ``ing`` on its lines, from its amplitude,
    gradient and profile jets, windowed onto its grid and reduced inside ``keep``; the
    note adds :func:`~dsfield.ansatz.pole_note`'s, so a pole in the valid set fails."""
    spec, grid, t = ing.spec, ing.grid, ing.t
    a = spec.coeffs
    if a.a3 == 0.0:
        return ConsistencyReport(False, math.nan, math.nan, note="not applicable: a3 = 0")
    beta, gamma = spec.funcs.beta(t), spec.funcs.gamma(t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        c1 = (bracket(ing.p1, ing.rz, beta) - gamma) / (a.a3 * (a.a2 + a.a3 * ing.pj.value))
        c2 = -bracket(ing.q1, ing.se, beta) / (a.a3 * (a.a1 + a.a3 * ing.qj.value))
    kept = 2 * int(np.count_nonzero(grid.keep))
    stats = [masked_stats(v, grid.keep & np.isfinite(v)) for v in
             (row_window(grid, grid.zeta_lines, c1), row_window(grid, grid.eta_lines, c2))]
    n = sum(st[0] for st in stats)
    note = "; ".join(filter(None, (drop_note(kept, n), pole_note(ing))))
    return ConsistencyReport(True, *(hi - lo for _, lo, hi, _, _ in stats), n,
                             2 * grid.keep.size - kept, kept - n, note)
