"""Derived quantities completing a separable solution.

Given the profile pair the construction determines, in order:

* amplitude factors  p1 = delta1 * sqrt(c0 * p_z)  and
  q1 = 2 * delta2 * sqrt(det * q_e / c0)  (their squared product is
  4 * det * p_z * q_e, independent of c0);
* phase gradients, solved pointwise from the profile evolution relations:

      r_z = (-p_t - det*c3) / (beta * p_z),
      s_e = (-q_t - c3*A^2 + det*c4) / (beta * q_e),   A = a1 + a3*q;

* phases r, s by one cumulative Gauss-Legendre pass over the sorted line
  coordinates, from an anchor (r(anchor, t) = 0, absorbing the free
  additive time function into the background);
* background levels

      p0 = (c3 + r_t - (beta/2)*(p1_zz/p1 - r_z^2)) / beta,
      q0 = (-c4 + s_t - (beta/2)*(q1_ee/q1 - s_e^2)) / beta.

The consistency report evaluates the two bracket ratios c1(t), c2(t) that
the separation needs to be time functions alone; spatial variation in
them flags an inconsistent configuration.

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
from .ansatz import SolutionSpec

__all__ = [
    "Auxiliaries",
    "Ingredients",
    "derive",
    "ConsistencyReport",
    "consistency_c1_c2",
]


class Auxiliaries:
    """Immutable bundle of derived evaluators for one solution spec.

    All evaluators are vectorized over their spatial argument at fixed t;
    the ``*_jet`` methods map the profile jet of their coordinate, to order
    k, to a jet in (own coordinate, t) to order k - 1.
    ``quad_n`` is the number of Gauss-Legendre nodes per gap between
    neighbouring line coordinates and the anchors are the zeros of r and s.
    """

    def __init__(self, spec: SolutionSpec, quad_n: int = 16,
                 anchor_zeta: float = 0.0, anchor_eta: float = 0.0):
        self.spec = spec
        self.quad_n = int(quad_n)
        self.anchor_zeta = float(anchor_zeta)
        self.anchor_eta = float(anchor_eta)

    # -- amplitude factors ---------------------------------------------------

    def p1_jet(self, pj: Jet, t) -> Jet:
        c0 = self.spec.funcs.c0.jet(t, pj.order - 1)
        rad = c0 * pj.shift((1, 0))
        return float(self.spec.delta1) * jc.sqrt(rad)

    def q1_jet(self, qj: Jet, t) -> Jet:
        c0 = self.spec.funcs.c0.jet(t, qj.order - 1)
        det = self.spec.coeffs.det
        rad = (det * qj.shift((1, 0))) / c0
        return float(2 * self.spec.delta2) * jc.sqrt(rad)

    # -- phase gradients -----------------------------------------------------

    def r_zeta_jet(self, j: Jet, t) -> Jet:
        spec, k = self.spec, j.order - 1
        num = -j.shift((0, 1)) - spec.coeffs.det * spec.funcs.c3.jet(t, k)
        return num / (spec.funcs.beta.jet(t, k) * j.shift((1, 0)))

    def s_eta_jet(self, j: Jet, t) -> Jet:
        spec, k = self.spec, j.order - 1
        A = spec.coeffs.a1 + spec.coeffs.a3 * j.shift(order=k)
        num = (-j.shift((0, 1)) - spec.funcs.c3.jet(t, k) * A * A
               + spec.coeffs.det * spec.funcs.c4.jet(t, k))
        return num / (spec.funcs.beta.jet(t, k) * j.shift((1, 0)))

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
        """p0 from r_t and the p1 and r_z jets at the same points."""
        return _background(self.spec.funcs.c3(t), r_t, p1, rz, self.spec.funcs.beta(t))

    def q0(self, s_t, q1: Jet, se: Jet, t):
        """q0 from s_t and the q1 and s_e jets, as :meth:`p0`."""
        return _background(-self.spec.funcs.c4(t), s_t, q1, se, self.spec.funcs.beta(t))


def _background(c, phase_t, amp, grad, beta):
    """(c + phase_t - (beta/2) (amp''/amp - grad^2)) / beta: p0 from p1 and
    r_z, or q0 from q1 and s_e."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        return (c + phase_t - 0.5 * beta * (amp[2, 0] / amp.value - grad.value ** 2)) / beta


def derive(spec: SolutionSpec, quad_n: int = 16, anchor_zeta: float = 0.0,
           anchor_eta: float = 0.0) -> Auxiliaries:
    """Build the derived-quantity bundle for a solution spec."""
    return Auxiliaries(spec, quad_n, anchor_zeta, anchor_eta)


def _entry(fn):
    """An :class:`Ingredients` entry: evaluated on first read, then kept.
    Non-finite values are data here, so numpy's warnings are off."""
    return functools.cached_property(jc._quiet(fn))


class Ingredients:
    """The one-variable ingredients of ``spec`` on one window grid at ``t``.

    Every check and render on the grid reads this one evaluation: the
    profile jets ``pj``, ``qj`` on the grid's zeta and eta, the amplitude
    jets ``p1``, ``q1`` and gradient jets ``rz``, ``se`` from them, the
    phase pairs ``r`` = (r, r_t) and ``s`` = (s, s_t), the backgrounds
    ``p0``, ``q0``, and the ``consistency`` report on 33 probes over each
    coordinate's range.  Each entry is evaluated when first read, so a run
    that reads no phase integrates none.  ``aux`` may be None when only the
    profile jets are read.
    """

    def __init__(self, spec: SolutionSpec, aux, grid, t: float):
        self.spec, self.aux, self.grid, self.t = spec, aux, grid, t

    pj = _entry(lambda self: self.spec.p.jet3(self.grid.zeta, self.t))
    qj = _entry(lambda self: self.spec.q.jet3(self.grid.eta, self.t))
    p1 = _entry(lambda self: self.aux.p1_jet(self.pj, self.t))
    q1 = _entry(lambda self: self.aux.q1_jet(self.qj, self.t))
    rz = _entry(lambda self: self.aux.r_zeta_jet(self.pj, self.t))
    se = _entry(lambda self: self.aux.s_eta_jet(self.qj, self.t))
    r = _entry(lambda self: self.aux.phase_r(self.grid.zeta, self.t))
    s = _entry(lambda self: self.aux.phase_s(self.grid.eta, self.t))
    p0 = _entry(lambda self: self.aux.p0(self.r[1], self.p1, self.rz, self.t))
    q0 = _entry(lambda self: self.aux.q0(self.s[1], self.q1, self.se, self.t))

    @_entry
    def consistency(self):
        zp, ep = (np.linspace(float(np.min(c)), float(np.max(c)), 33)
                  for c in (self.grid.zeta, self.grid.eta))
        return consistency_c1_c2(self.spec, self.aux, zp, ep, self.t)


# ---------------------------------------------------------------------------
# phase integration


def _gauss_legendre(m: int):
    """m-point Gauss-Legendre nodes and weights on [-1, 1] (Golub-Welsch)."""
    k = np.arange(1.0, m)
    nodes, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1), UPLO="U")
    return nodes, 2.0 * vecs[0] ** 2 / np.sum(vecs[0] ** 2)


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
    """Spatial variation of the two t-only candidate ratios.

    ``applicable`` is False when a3 = 0 (the ratios divide by a3).  The
    separation is certified when both variations are at the rounding level.
    """

    applicable: bool
    c1_variation: float
    c2_variation: float
    c1_mean: float
    c2_mean: float
    t: float
    probes: int
    note: str = ""

    @property
    def max_variation(self) -> float:
        return max(self.c1_variation, self.c2_variation)


def consistency_c1_c2(spec: SolutionSpec, aux: Auxiliaries,
                      zeta_probes, eta_probes, t: float) -> ConsistencyReport:
    a3 = spec.coeffs.a3
    if a3 == 0.0:
        return ConsistencyReport(False, math.nan, math.nan, math.nan, math.nan,
                                 t, 0, note="not applicable: a3 = 0")
    zeta_probes = np.asarray(zeta_probes, dtype=float)
    eta_probes = np.asarray(eta_probes, dtype=float)
    beta = spec.funcs.beta(t)
    gamma = spec.funcs.gamma(t)
    c4 = spec.funcs.c4(t)

    def bracket(amp, grad):
        return (amp[0, 1] / amp.value
                + beta * (amp[1, 0] * grad.value / amp.value + 0.5 * grad[1, 0]))

    # the brackets read the amplitude and gradient jets to first order
    pj, qj = spec.p.jet3(zeta_probes, t, 2), spec.q.jet3(eta_probes, t, 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        c1_vals = ((bracket(aux.p1_jet(pj, t), aux.r_zeta_jet(pj, t))
                    - gamma - c4) / (a3 * (spec.coeffs.a2 + a3 * pj.value)))
        c2_vals = (-(bracket(aux.q1_jet(qj, t), aux.s_eta_jet(qj, t)) + c4)
                   / (a3 * (spec.coeffs.a1 + a3 * qj.value)))

    def spread(v):
        v = v[np.isfinite(v)]
        if v.size == 0:
            return math.nan, math.nan
        return float(np.max(v) - np.min(v)), float(np.mean(v))

    var1, mean1 = spread(np.atleast_1d(c1_vals))
    var2, mean2 = spread(np.atleast_1d(c2_vals))
    return ConsistencyReport(True, var1, var2, mean1, mean2, t,
                             int(zeta_probes.size + eta_probes.size))
