"""Derived quantities completing a separable solution.

Given the profile pair the construction determines, in order:

* amplitude factors  p1 = delta1 * sqrt(c0 * p_z)  and
  q1 = 2 * delta2 * sqrt(det * q_e / c0)  (their squared product is
  4 * det * p_z * q_e, independent of c0);
* phase gradients, solved pointwise from the profile evolution relations
  with caller-chosen scalar policies c1(t), c2(t) (default zero):

      r_z = (-p_t + c1*B^2 + c2*B - det*c3) / (beta * p_z),   B = a2 + a3*p,
      s_e = (-q_t - c3*A^2 - c2*A + det*c4) / (beta * q_e),   A = a1 + a3*q;

* phases r, s by one cumulative Gauss-Legendre pass over the sorted line
  coordinates, from an anchor (r(anchor, t) = 0, absorbing the free
  additive time function into the background);
* background levels

      p0 = (c3 + r_t - (beta/2)*(p1_zz/p1 - r_z^2)) / beta,
      q0 = (-c4 + s_t - (beta/2)*(q1_ee/q1 - s_e^2)) / beta.

The consistency report evaluates the two bracket ratios whose
time-independence certifies that the chosen c1, c2 make the separation
exact; spatial variation in them flags an inconsistent configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calculus as jc
from .calculus import Jet, spatial_shift, time_shift, truncate
from .ansatz import SolutionSpec
from .profiles import TimeFunction, const_fn

__all__ = [
    "Auxiliaries",
    "derive",
    "integrate_phases",
    "SampledPhase",
    "ConsistencyReport",
    "consistency_c1_c2",
]


def _as_timefn(v) -> TimeFunction:
    if isinstance(v, TimeFunction):
        return v
    return const_fn(float(v))


class Auxiliaries:
    """Immutable bundle of derived evaluators for one solution spec.

    All evaluators are vectorized over their spatial argument at fixed t.
    ``c1``/``c2`` are the phase-gradient policies, ``quad_n`` the number of
    Gauss-Legendre nodes per gap between neighbouring line coordinates and
    the anchors the zeros of r and s.
    """

    def __init__(self, spec: SolutionSpec, c1=0.0, c2=0.0,
                 quad_n: int = 16, anchor_zeta: float = 0.0,
                 anchor_eta: float = 0.0):
        self.spec = spec
        self.c1 = _as_timefn(c1)
        self.c2 = _as_timefn(c2)
        self.quad_n = int(quad_n)
        self.anchor_zeta = float(anchor_zeta)
        self.anchor_eta = float(anchor_eta)

    # -- amplitude factors ---------------------------------------------------

    def p1_jet(self, zeta, t) -> Jet:
        pj = self.spec.p.jet3(zeta, t)
        c0 = self.spec.funcs.c0.jet(t)
        rad = c0 * spatial_shift(pj)
        return float(self.spec.delta1) * jc.sqrt(rad)

    def q1_jet(self, eta, t) -> Jet:
        qj = self.spec.q.jet3(eta, t)
        c0 = self.spec.funcs.c0.jet(t)
        det = self.spec.coeffs.det
        rad = (det * spatial_shift(qj)) / c0
        return float(2 * self.spec.delta2) * jc.sqrt(rad)

    # -- phase gradients -----------------------------------------------------

    def r_zeta_jet(self, zeta, t) -> Jet:
        spec = self.spec
        pj = spec.p.jet3(zeta, t)
        B = spec.coeffs.a2 + spec.coeffs.a3 * truncate(pj)
        num = (-time_shift(pj)
               + self.c1.jet(t) * B * B
               + self.c2.jet(t) * B
               - spec.coeffs.det * spec.funcs.c3.jet(t))
        return num / (spec.funcs.beta.jet(t) * spatial_shift(pj))

    def s_eta_jet(self, eta, t) -> Jet:
        spec = self.spec
        qj = spec.q.jet3(eta, t)
        A = spec.coeffs.a1 + spec.coeffs.a3 * truncate(qj)
        num = (-time_shift(qj)
               - spec.funcs.c3.jet(t) * A * A
               - self.c2.jet(t) * A
               + spec.coeffs.det * spec.funcs.c4.jet(t))
        return num / (spec.funcs.beta.jet(t) * spatial_shift(qj))

    # -- phases ---------------------------------------------------------------

    def phase_r(self, zeta, t):
        """(r, r_t) at the requested points, integrated from the anchor."""
        return _integrate_from_anchor(self.r_zeta_jet, self.anchor_zeta,
                                      zeta, t, self.quad_n)

    def phase_s(self, eta, t):
        return _integrate_from_anchor(self.s_eta_jet, self.anchor_eta,
                                      eta, t, self.quad_n)

    # -- backgrounds -----------------------------------------------------------

    def p0(self, zeta, t, r_t=None):
        spec = self.spec
        if r_t is None:
            _, r_t = self.phase_r(zeta, t)
        p1 = self.p1_jet(zeta, t)
        rz = self.r_zeta_jet(zeta, t)
        beta = spec.funcs.beta(t)
        c3 = spec.funcs.c3(t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            curvature = p1.d11 / p1.value
            return (c3 + r_t - 0.5 * beta * (curvature - rz.value ** 2)) / beta

    def q0(self, eta, t, s_t=None):
        spec = self.spec
        if s_t is None:
            _, s_t = self.phase_s(eta, t)
        q1 = self.q1_jet(eta, t)
        se = self.s_eta_jet(eta, t)
        beta = spec.funcs.beta(t)
        c4 = spec.funcs.c4(t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            curvature = q1.d11 / q1.value
            return (-c4 + s_t - 0.5 * beta * (curvature - se.value ** 2)) / beta


def derive(spec: SolutionSpec, c1=0.0, c2=0.0, quad_n: int = 16,
           anchor_zeta: float = 0.0, anchor_eta: float = 0.0) -> Auxiliaries:
    """Build the derived-quantity bundle for a solution spec."""
    return Auxiliaries(spec, c1, c2, quad_n, anchor_zeta, anchor_eta)


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


def _integrate_from_anchor(grad_jet, anchor: float, targets, t, m: int):
    """Cumulative m-point Gauss-Legendre integral from the anchor.

    The breakpoints are the sorted distinct targets plus the anchor.  Each
    gap between neighbours gets one rule (all gaps in one gradient call, for
    the value and its time derivative), and prefix sums run outward from the
    anchor give (phase, phase_t) at every breakpoint, gathered back to the
    targets' shape.  A gap with a non-finite node value breaks the chain:
    the breakpoints beyond it restart from its far end with phase 0, which
    shifts the phase there by a function of t alone.
    """
    tg = np.asarray(targets, dtype=float)
    distinct, inverse = np.unique(tg, return_inverse=True)
    pts = np.union1d(distinct, anchor)
    k = int(np.searchsorted(pts, anchor))
    x, w = _gauss_legendre(m)
    half = 0.5 * np.diff(pts)
    jets = grad_jet((pts[:-1] + half)[:, None] + half[:, None] * x, t)
    gaps = (np.array([jets.value, jets.dt], dtype=float) @ w) * half
    broken = ~np.isfinite(gaps).all(axis=0)
    phase = np.zeros((2, pts.size))
    phase[:, k + 1:] = _restarting_cumsum(gaps[:, k:], broken[k:])
    phase[:, :k] = -_restarting_cumsum(gaps[:, :k][:, ::-1], broken[:k][::-1])[:, ::-1]
    phase[:, ~np.isfinite(pts)] = np.nan
    r, r_t = phase[:, np.searchsorted(pts, distinct)][:, inverse.ravel()]
    return r.reshape(tg.shape)[()], r_t.reshape(tg.shape)[()]


@dataclass(frozen=True)
class SampledPhase:
    positions: np.ndarray
    values: np.ndarray
    t_derivatives: np.ndarray
    anchor: float


def integrate_phases(spec: SolutionSpec, aux: Auxiliaries,
                     zeta_range: tuple[float, float],
                     eta_range: tuple[float, float],
                     t: float, n: int = 257) -> tuple[SampledPhase, SampledPhase]:
    """Sample the integrated phases on uniform grids over the given ranges.

    Raises if a gradient is non-finite anywhere inside a range, naming the
    offending location.
    """
    out = []
    for (lo, hi), grad, anchor in (
        (zeta_range, aux.r_zeta_jet, aux.anchor_zeta),
        (eta_range, aux.s_eta_jet, aux.anchor_eta),
    ):
        pos = np.linspace(lo, hi, n)
        probe = grad(pos, t)
        finite = np.isfinite(np.asarray(probe.value, dtype=float))
        if not finite.all():
            bad = pos[~finite][0]
            raise ValueError(f"non-finite phase gradient at coordinate {bad!r}")
        vals, dts = _integrate_from_anchor(grad, anchor, pos, t, aux.quad_n)
        out.append(SampledPhase(pos, vals, dts, anchor))
    return out[0], out[1]


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

    pj = spec.p.jet3(zeta_probes, t)
    p1 = aux.p1_jet(zeta_probes, t)
    rz = aux.r_zeta_jet(zeta_probes, t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        bracket_p = (p1.dt / p1.value
                     + beta * (p1.d1 * rz.value / p1.value + 0.5 * rz.d1)
                     - gamma - c4)
        denom_p = a3 * (spec.coeffs.a2 + a3 * pj.value)
        c1_vals = bracket_p / denom_p

    qj = spec.q.jet3(eta_probes, t)
    q1 = aux.q1_jet(eta_probes, t)
    se = aux.s_eta_jet(eta_probes, t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        bracket_q = (q1.dt / q1.value
                     + beta * (q1.d1 * se.value / q1.value + 0.5 * se.d1)
                     + c4)
        denom_q = a3 * (spec.coeffs.a1 + a3 * qj.value)
        c2_vals = -bracket_q / denom_q

    def spread(v):
        v = v[np.isfinite(v)]
        if v.size == 0:
            return math.nan, math.nan
        return float(np.max(v) - np.min(v)), float(np.mean(v))

    var1, mean1 = spread(np.atleast_1d(c1_vals))
    var2, mean2 = spread(np.atleast_1d(c2_vals))
    return ConsistencyReport(True, var1, var2, mean1, mean2, t,
                             int(zeta_probes.size + eta_probes.size))
