import importlib.util
import io
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from dsfield.ansatz import (
    SeparationCoefficients,
    SolutionSpec,
    eval_f,
    eval_intensity,
    eval_phi,
    rotate,
    window_grid,
)
from dsfield import calculus as jc
from dsfield.auxiliary import Auxiliaries, Ingredients
from dsfield.field import refined_global_max, to_csv, to_pgm16
from dsfield.profiles import ExpSumProfile
from dsfield.verify import _report

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

# the edit that makes the p of configs/dromion.cfg (its first "K = 1") a
# decaying exponential: then p_z < 0 < q_e with det > 0, so the sign
# condition det p_z q_e >= 0 fails everywhere and no branch makes p1 q1 real
DECAYING_P = ("K = 1", "K = -1", 1)


def profile_jets3(spec, zeta, eta, t, order=3):
    """The jets of p at ``zeta`` and of q at ``eta`` at ``t``, to ``order``
    (a total order or a box), as the evaluators take them."""
    return spec.p.jet3(zeta, t, order), spec.q.jet3(eta, t, order)


def csv_bytes(grid) -> bytes:
    """The bytes :func:`~dsfield.field.to_csv` writes for ``grid``."""
    buf = io.BytesIO()
    assert to_csv(grid, buf) is None
    return buf.getvalue()


def parse_csv(data: bytes):
    """Inverse of :func:`~dsfield.field.to_csv`; returns (x, y, value) float arrays."""
    lines = data.decode("ascii").strip().splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    if not lines or lines[0] != "x,y,U" or any(len(r) != 3 for r in rows):
        raise ValueError("not a field CSV")
    arr = np.array([[float(c) for c in r] for r in rows]).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def pgm16(grid) -> tuple[bytes, str]:
    """The bytes :func:`~dsfield.field.to_pgm16` writes for ``grid``, and its sidecar."""
    buf = io.BytesIO()
    sidecar = to_pgm16(grid, buf)
    return buf.getvalue(), sidecar


def reflection_defect(grid) -> float:
    """max |v(x, y) - v(x, -y)| over points valid under both orientations."""
    flipped = grid.values[::-1, :]
    both = grid.mask & grid.mask[::-1, :]
    if not both.any():
        return math.nan
    return float(np.max(np.abs(grid.values - flipped)[both]))


def point_reflection_defect(grid_a, grid_b) -> float:
    """max |a(x, y) - b(-x, -y)| for equal-shape grids on symmetric windows."""
    if grid_a.values.shape != grid_b.values.shape:
        raise ValueError("grids must share a shape")
    flipped = grid_b.values[::-1, ::-1]
    both = grid_a.mask & grid_b.mask[::-1, ::-1]
    if not both.any():
        return math.nan
    return float(np.max(np.abs(grid_a.values - flipped)[both]))


def hirota_d(a, b, m: int, n: int, pt):
    """D_x^m D_t^n a.b at pt, expanded from jets in (x, t): the outside
    check of :func:`hirota_cross`.

    ``a`` and ``b`` map a point (x, t) to a :class:`~dsfield.calculus.Jet`.
    Requesting m + n above the jets' order raises; there is no
    finite-difference fallback.
    """
    if m < 0 or n < 0:
        raise ValueError("operator orders must be nonnegative")
    ja, jb = a(pt), b(pt)
    order = min(ja.order, jb.order)
    if m + n > order:
        raise ValueError(f"operator order m + n exceeds jet order {order}")
    total = 0.0
    for k in range(m + 1):
        for l in range(n + 1):
            sign = -1.0 if (m - k + n - l) % 2 else 1.0
            coeff = math.comb(m, k) * math.comb(n, l)
            total = total + sign * coeff * ja[k, l] * jb[m - k, n - l]
    return total


def hirota_cross(tau):
    """D_z D_e f.f from f's jet ``tau`` in (zeta, eta, t): 2 (f f_ze - f_z f_e)."""
    return 2.0 * (tau.value * tau[1, 1, 0] - tau[1, 0, 0] * tau[0, 1, 0])


def carriers(b):
    """The carriers P = p1 e^{ir} and Q = q1 e^{is} on the row entries ``b``, order-2
    jets in (own coordinate, t) whose product is the envelope g: the input of the plane
    envelope oracle.  The quadrature gives no r_tt, so that entry is NaN."""
    lay = jc.layout(2, 2)
    return tuple(amp * jc.exp(1j * jc.Jet((r, g.value, r_t, g[1, 0], g[0, 1], math.nan), lay))
                 for amp, g, (r, r_t) in ((b.p1, b.rz, b.r), (b.q1, b.se, b.s)))


# the entries of g = P Q and of f that the plane envelope oracle reads, in (zeta, eta, t)
_G_READS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0))
_F_READS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 2, 0))


def plane_pde1_field(spec, t, b):
    """|i u_t + (beta/2)(u_zz + u_ee) + beta (phi - |u|^2/2) u - i gamma u| for
    u = g / f from jets in (zeta, eta, t) of the envelope g = P Q (:func:`carriers`)
    and of f on the row entries ``b``, phi by :func:`~dsfield.ansatz.eval_phi`: the
    envelope residual as first written, an oracle of verify's separated form."""
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        P, Q = carriers(b)
        g = (P.shift(order=_G_READS, axes=(0, 2), n=3)
             * Q.shift(order=_G_READS, axes=(1, 2), n=3))
        g, g_z, g_e, g_t, g_zz, g_ee = map(g.__getitem__, _G_READS)
        tau = eval_f(spec, b.pj, b.qj, _F_READS)
        f, f_z, f_e, f_t, f_zz, _, f_ee = map(tau.__getitem__, _F_READS)
        beta, gamma = spec.funcs.beta(t), spec.funcs.gamma(t)
        f2 = f * f
        u = g / f
        t1 = 1j * (g_t * f - g * f_t) / f2
        d2z = (g_zz * f - 2.0 * g_z * f_z + g * f_zz) / f2
        d2e = (g_ee * f - 2.0 * g_e * f_e + g * f_ee) / f2
        # u_zz + u_ee, with u_zz = d2z - u D_z^2 f.f / f^2
        lap = ((d2z - u * 2.0 * (f * f_zz - f_z ** 2) / f2)
               + (d2e - u * 2.0 * (f * f_ee - f_e ** 2) / f2))
        phi = eval_phi(tau, b.p0, b.q0)
        return np.abs(t1 + beta * (0.5 * lap - 0.5 * np.abs(u) ** 2 * u + u * phi)
                      - 1j * gamma * u)


# The finite-difference oracle of the forcing-field constraint.  verify runs one
# stencil, accuracy 2 at its own step and half of it; the oracle studies the
# stencil at any step and accuracy, per stencil point on the whole grid.

# central-difference weights at the offsets -k..k, by (derivative order, accuracy)
FD_WEIGHTS = {(1, 2): (-0.5, 0.0, 0.5), (2, 2): (1.0, -2.0, 1.0),
              (1, 4): (1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12),
              (2, 4): (-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12)}


def fixed_order_sums(w2, w1, U, PHI, half):
    """U_zz, U_ee, U_ze and phi_ze times h^2, each stencil summed left to right:
    over k along each axis, over (i, j) in raster order."""
    def cross(V):
        total = 0
        for i in range(len(w1)):
            for j in range(len(w1)):
                total = total + (w1[i] * w1[j]) * V[i, j]
        return total
    u_zz = u_ee = 0
    for k, w in enumerate(w2):
        u_zz, u_ee = u_zz + w * U[k, half], u_ee + w * U[half, k]
    return u_zz, u_ee, cross(U), cross(PHI)


def fd_pde2_field(spec, zeta, eta, t, h, accuracy, apply=fixed_order_sums):
    """The forcing-field residual |4 phi_ze - U_zz - U_ee - 2 U_ze| by central
    differences of step ``h`` and order of ``accuracy``, as first written: order-3
    profile jets, U and phi evaluated on the whole grid once per stencil point, the
    stencils applied by ``apply``; and the mask of points whose samples are finite."""
    w2 = np.asarray(FD_WEIGHTS[2, accuracy])
    w1 = np.asarray(FD_WEIGHTS[1, accuracy])
    half = (len(w1) - 1) // 2
    offs = np.arange(-half, half + 1)
    U = np.empty((len(offs), len(offs)) + zeta.shape)
    PHI = np.empty_like(U)
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        for i, oi in enumerate(offs):
            for j, oj in enumerate(offs):
                z, e = zeta + oi * h, eta + oj * h
                pj, qj = profile_jets3(spec, z, e, t)
                PHI[i, j] = eval_phi(eval_f(spec, pj, qj), 0.0, 0.0)
                U[i, j] = eval_intensity(spec, pj, qj)[0]
        u_zz, u_ee, u_ze, phi_ze = (v / h**2 for v in apply(w2, w1, U, PHI, half))
        resid = np.abs(4.0 * phi_ze - u_zz - u_ee - 2.0 * u_ze)
    stencil_ok = np.isfinite(U).all(axis=(0, 1)) & np.isfinite(PHI).all(axis=(0, 1))
    return resid, stencil_ok


def observed_order(e_h, e_h2) -> float:
    """log2(e_h / e_h2), the order that errors at h and h/2 show; NaN unless both
    are positive."""
    return math.log2(e_h / e_h2) if e_h > 0 and e_h2 > 0 else math.nan


def fd_phi_convergence(spec, grid, t, h, accuracy):
    """The oracle's forcing-field reports on ``grid`` at ``h`` and ``h / 2``, reduced
    as verify reduces its own, and the order their mean residuals show."""
    coarse, fine = (_report("pde2", fd_pde2_field(spec, *rotate(grid.X, grid.Y), t,
                                                  step, accuracy)[0], grid, t)
                    for step in (h, h / 2))
    return coarse, fine, observed_order(coarse.mean_abs, fine.mean_abs)


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of the allocations of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def perfbench_module(name: str):
    """A fresh load of ``perfbench/<name>.py``, read as it is, as ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


def decaying_p_text() -> str:
    """configs/dromion.cfg with :data:`DECAYING_P` applied."""
    with open(os.path.join(CONFIGS, "dromion.cfg"), encoding="utf-8") as fh:
        return fh.read().replace(*DECAYING_P)


# one line per acceptance criterion, echoed after the run regardless of
# capture settings
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_expsum(rng, n_max=3):
    n = int(rng.integers(1, n_max + 1))
    sign = rng.choice([-1.0, 1.0], n)
    return ExpSumProfile(
        A=tuple(sign * rng.uniform(0.3, 2.0, n)),
        K=tuple(rng.uniform(-1.5, 1.5, n)),
        L=tuple(rng.uniform(-1.0, 1.0, n)),
        theta=tuple(rng.uniform(-1.0, 1.0, n)),
    )


def random_spec(rng):
    """Arbitrary separable data; no admissibility guarantees."""
    coeffs = SeparationCoefficients(*rng.uniform(-2.0, 2.0, 4))
    return SolutionSpec(coeffs, random_expsum(rng), random_expsum(rng),
                        delta1=int(rng.choice([-1, 1])),
                        delta2=int(rng.choice([-1, 1])))


def admissible_spec(rng):
    """A solution of the exponential-sum family, admissible on every window at
    every time: each profile has positive amplitudes and rates of one sign s, so
    it is positive and its derivative has sign s everywhere; a0..a3 > 0, so f > 0;
    and sign det = s_p s_q with |det| > 0.05, so det p_z q_e > 0 everywhere."""
    s_p, s_q = rng.choice([-1.0, 1.0], 2)
    while True:
        coeffs = SeparationCoefficients(*rng.uniform(0.2, 2.0, 4))
        if np.sign(coeffs.det) == s_p * s_q and abs(coeffs.det) > 0.05:
            break
    p, q = (ExpSumProfile(A=tuple(rng.uniform(0.3, 2.0, n)),
                          K=tuple(s * rng.uniform(0.3, 1.5, n)),
                          L=tuple(rng.uniform(-1.0, 1.0, n)),
                          theta=tuple(rng.uniform(-1.0, 1.0, n)))
            for s, n in ((s_p, int(rng.integers(1, 4))), (s_q, int(rng.integers(1, 4)))))
    return SolutionSpec(coeffs, p, q, delta1=int(rng.choice([-1, 1])),
                        delta2=int(rng.choice([-1, 1])))


class CorruptedAuxiliaries(Auxiliaries):
    """Auxiliaries with corrupted ingredients, so negative controls can show
    that the residual checks detect them; the hooks default to the identity."""

    def __init__(self, spec, *, p0_offset=0.0, rz_offset=0.0, amplitude_scale=1.0):
        super().__init__(spec)
        self.p0_offset = float(p0_offset)
        self.rz_offset = float(rz_offset)
        self.amplitude_scale = float(amplitude_scale)

    def p1_jet(self, pj, t):
        out = super().p1_jet(pj, t)
        if self.amplitude_scale != 1.0:
            out = self.amplitude_scale * out
        return out

    def r_zeta_jet(self, pj, t):
        out = super().r_zeta_jet(pj, t)
        if self.rz_offset:
            out = out + self.rz_offset
        return out

    def p0(self, r_t, p1, rz, t):
        val = super().p0(r_t, p1, rz, t)
        if self.p0_offset:
            val = val + self.p0_offset
        return val


def analysis_grid(spec, window, n):
    """The n x n grid of ``window`` under the spec's guard, as ``dsfield analyze`` builds it."""
    return window_grid(window, n, spec.valid_mask)


def peak_at(spec, window, t, n):
    """:func:`~dsfield.field.refined_global_max` at the one time ``t`` on the
    :func:`analysis_grid` of ``window``, as ``(value, (x, y))``."""
    (value,), ((x,), (y,)) = refined_global_max(spec, analysis_grid(spec, window, n), [t])
    return float(value), (float(x), float(y))


def bundle(spec, window, t, samples, valid_mask=None, **hooks) -> Ingredients:
    """The ingredient bundle of ``spec`` on a window grid, as verify builds it.

    Corruption ``hooks`` put :class:`CorruptedAuxiliaries` formulas into the
    bundle before their first read (negative-control support)."""
    ing = Ingredients(spec, window_grid(window, samples, valid_mask), t)
    if hooks:
        ing.aux = CorruptedAuxiliaries(spec, **hooks)
    return ing


def negative_radicands(ing) -> int:
    """The samples of the bundle's grid where an amplitude radicand, s p_z or
    s det q_e with s the branch s(t), is negative, so p1 q1 is not real."""
    s, b = ing.aux.branch(ing.t), ing.rows()
    return int(np.count_nonzero((s * b.pj[1, 0] < 0.0)
                                | (s * ing.spec.coeffs.det * b.qj[1, 0] < 0.0)))


def line_backgrounds(aux, zeta, eta, t):
    """(p0, q0) at the points, from their own line ingredients."""
    pj, qj = aux.spec.p.jet3(zeta, t), aux.spec.q.jet3(eta, t)
    return (aux.p0(aux.phase_r(zeta, t)[1], aux.p1_jet(pj, t), aux.r_zeta_jet(pj, t), t),
            aux.q0(aux.phase_s(eta, t)[1], aux.q1_jet(qj, t), aux.s_eta_jet(qj, t), t))


def regular_window(entry):
    """The case window, except for resonant, whose denominator crosses zero
    on it: there a window on the ridge where min |f| stays above 40 at
    t in [0.3, 2.5]."""
    return ((-4.0, 0.0), (2.0, 6.0)) if entry.name == "resonant" else entry.window


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
