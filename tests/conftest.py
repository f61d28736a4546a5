import importlib.util
import io
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from dsfield.ansatz import SeparationCoefficients, SolutionSpec, window_grid
from dsfield.auxiliary import Auxiliaries, Ingredients
from dsfield.field import to_csv, to_pgm16
from dsfield.profiles import ExpSumProfile

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

# the edit that makes the p of configs/dromion.cfg (its first "K = 1") a
# decaying exponential: then p_z < 0 < q_e with det > 0, so the sign
# condition det p_z q_e >= 0 fails everywhere and no branch makes p1 q1 real
DECAYING_P = ("K = 1", "K = -1", 1)


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
    check of :func:`~dsfield.verify.hirota_cross`.

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
