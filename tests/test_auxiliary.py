import functools
import math

import mpmath
import numpy as np
import pytest

from dsfield.ansatz import (
    CoefficientFunctions,
    SeparationCoefficients,
    SolutionSpec,
    rotate,
    window_grid,
)
from dsfield.auxiliary import Auxiliaries, _gauss_legendre, consistency_c1_c2
from dsfield.catalog import build_case, case_names
from dsfield.profiles import CustomProfile, ExpSumProfile, TimeFunction
from dsfield.specfile import loads_spec

from conftest import bundle, decaying_p_text, line_backgrounds

@pytest.fixture
def dromion():
    return build_case("dromion").spec


def admissible_spec(rng):
    """Positive-slope exponential sums with det > 0."""
    def prof():
        n = int(rng.integers(1, 3))
        return ExpSumProfile(A=tuple(rng.uniform(0.3, 1.5, n)),
                             K=tuple(rng.uniform(0.2, 1.2, n)),
                             L=tuple(rng.uniform(-1.0, 1.0, n)),
                             theta=tuple(rng.uniform(-1.0, 1.0, n)))
    a1, a2 = rng.uniform(0.1, 1.5, 2)
    a0, a3 = rng.uniform(0.5, 2.0, 2)
    a3 = a3 + a1 * a2 / a0      # ensures det > 0
    coeffs = SeparationCoefficients(a0, a1, a2, a3)
    return SolutionSpec(coeffs, prof(), prof())


def test_dromion_amplitudes(dromion):
    aux = Auxiliaries(dromion)
    p1 = aux.p1_jet(dromion.p.jet3(0.0, 0.0), 0.0)
    q1 = aux.q1_jet(dromion.q.jet3(0.0, 0.0), 0.0)
    assert p1.value == pytest.approx(math.exp(0.5), rel=1e-14)
    assert q1.value == pytest.approx(2 * math.exp(0.5), rel=1e-14)
    # analytic jets of exp((zeta + t + 1)/2)
    assert p1[1, 0] == pytest.approx(0.5 * math.exp(0.5), rel=1e-13)
    assert p1[0, 1] == pytest.approx(0.5 * math.exp(0.5), rel=1e-13)
    assert p1[2, 0] == pytest.approx(0.25 * math.exp(0.5), rel=1e-13)
    assert p1[0, 2] == pytest.approx(0.25 * math.exp(0.5), rel=1e-13)


def test_amplitude_product_identity(rng):
    # p1^2 q1^2 = 4 det p_z q_e at admissible points
    for _ in range(20):
        spec = admissible_spec(rng)
        aux = Auxiliaries(spec)
        z, e, t = rng.uniform(-2, 2, 3)
        pj = spec.p.jet3(z, t)
        qj = spec.q.jet3(e, t)
        p1 = aux.p1_jet(pj, t)
        q1 = aux.q1_jet(qj, t)
        want = 4.0 * spec.coeffs.det * pj[1, 0] * qj[1, 0]
        assert (p1.value * q1.value) ** 2 == pytest.approx(want, rel=1e-12)


def test_amplitude_negative_radicand_flagged():
    # whichever branch s(t) picks, one radicand is negative and the product
    # of the amplitude factors is NaN
    spec = loads_spec(decaying_p_text())
    aux = Auxiliaries(spec)
    p1 = aux.p1_jet(spec.p.jet3(0.0, 0.0), 0.0)
    q1 = aux.q1_jet(spec.q.jet3(0.0, 0.0), 0.0)
    assert not np.isfinite(p1.value * q1.value)


def test_breather_amplitude_vanishes_at_degenerate_time():
    spec = build_case("breather").spec
    p1 = Auxiliaries(spec).p1_jet(spec.p.jet3(0.7, math.pi / 2), math.pi / 2)
    assert abs(p1.value) < 1e-12


def test_dromion_phase_gradients(dromion):
    aux = Auxiliaries(dromion)
    rz = aux.r_zeta_jet(dromion.p.jet3(1.3, 0.45), 0.45)
    se = aux.s_eta_jet(dromion.q.jet3(-0.8, 0.45), 0.45)
    assert rz.value == pytest.approx(-1.0, rel=1e-14)
    assert se.value == pytest.approx(-1.0, rel=1e-14)
    assert rz[1, 0] == pytest.approx(0.0, abs=1e-14)


def test_static_profile_zero_gradient():
    spec = SolutionSpec(SeparationCoefficients(1, 1, 1, 2),
                        ExpSumProfile((1.0,), (1.0,), (0.0,), (0.0,)),
                        ExpSumProfile((1.0,), (1.0,), (0.0,), (0.0,)))
    rz = Auxiliaries(spec).r_zeta_jet(spec.p.jet3(0.4, 0.0), 0.0)
    assert rz.value == 0.0


def test_gradient_blows_up_where_p_z_vanishes():
    spec = build_case("breather").spec
    rz = Auxiliaries(spec).r_zeta_jet(spec.p.jet3(0.0, math.pi / 2), math.pi / 2)
    # p_z underflows to ~1e-33 while p_t stays finite: ratio is huge or
    # guarded, never silently wrong
    assert not np.isfinite(rz.value) or abs(rz.value) > 1e10


def test_evolution_round_trip(rng):
    # -beta r_z p_z + (policy terms) reproduces p_t
    for _ in range(10):
        spec = admissible_spec(rng)
        aux = Auxiliaries(spec)
        z, t = rng.uniform(-2, 2, 2)
        pj = spec.p.jet3(z, t)
        rz = aux.r_zeta_jet(pj, t)
        beta = spec.funcs.beta(t)
        assert -beta * rz.value * pj[1, 0] == pytest.approx(pj[0, 1], rel=1e-12)


def test_dromion_background(dromion):
    aux = Auxiliaries(dromion)
    p0, q0 = line_backgrounds(aux, 0.9, -1.4, 0.2)
    assert p0 == pytest.approx(0.375, rel=1e-12)
    assert q0 == pytest.approx(0.375, rel=1e-12)


def test_background_zero_for_linear_custom_profile():
    # p = zeta: constant slope, no drift, so the background level vanishes
    lin = CustomProfile(lambda xj, tj: xj + 0.0 * tj, lambda lo, hi, t: 0)
    spec = SolutionSpec(SeparationCoefficients(1, 1, 1, 2), lin, lin)
    aux = Auxiliaries(spec)
    assert line_backgrounds(aux, 0.3, 0.3, 0.0)[0] == pytest.approx(0.0, abs=1e-14)
    assert aux.r_zeta_jet(lin.jet3(0.3, 0.0), 0.0).value == 0.0


def test_phases_dromion_pipeline(dromion):
    aux = Auxiliaries(dromion)
    positions = np.linspace(-5, 5, 101)
    r, r_t = aux.phase_r(positions, 0.0)
    s, _ = aux.phase_s(positions, 0.0)
    assert np.max(np.abs(r + positions)) < 1e-10
    assert np.max(np.abs(s + positions)) < 1e-10
    assert np.max(np.abs(r_t)) < 1e-12


def test_phase_constant_gradient(dromion):
    aux = Auxiliaries(dromion)
    r, _ = aux.phase_r(2.0, 0.0)
    assert r == pytest.approx(-2.0, abs=1e-10)
    zero = Auxiliaries(SolutionSpec(dromion.coeffs,
                                    ExpSumProfile((1.0,), (1.0,), (0.0,), (0.0,)),
                                    ExpSumProfile((1.0,), (1.0,), (0.0,), (0.0,))))
    r0, _ = zero.phase_r(3.0, 0.0)
    assert r0 == 0.0


def test_phase_anchor_is_zero(dromion):
    aux = Auxiliaries(dromion)
    r, r_t = aux.phase_r(0.0, 1.7)
    assert r == 0.0 and r_t == 0.0


def test_phases_against_analytic_oracle():
    # p = exp(z + t) + exp(2z + 3t): the gradient integrates in closed form
    prof = ExpSumProfile((1.0, 1.0), (1.0, 2.0), (1.0, 3.0), (0.0, 0.0))
    spec = SolutionSpec(SeparationCoefficients(1, 1, 1, 2), prof, prof)
    aux = Auxiliaries(spec)
    t = 0.37
    grid, _ = rotate(*np.meshgrid(np.linspace(-5, 5, 97), np.linspace(-5, 5, 97)))
    for z in (np.linspace(-5, 5, 11), grid):
        r, r_t = aux.phase_r(z, t)
        ez = np.exp(z + 2 * t)
        e0 = np.exp(2 * t)
        r_want = -z - 0.5 * (np.log(1 + 2 * ez) - np.log(1 + 2 * e0))
        rt_want = -0.5 * (4 * ez / (1 + 2 * ez) - 4 * e0 / (1 + 2 * e0))
        assert np.max(np.abs(r - r_want)) <= 1e-13
        assert np.max(np.abs(r_t - rt_want)) <= 1e-13


@pytest.mark.parametrize("m", [1, 5, 16])
def test_gauss_legendre_rule_is_built_once_and_read_only(m):
    assert _gauss_legendre(m) is _gauss_legendre(m)
    x, w = _gauss_legendre(m)
    assert not x.flags.writeable and not w.flags.writeable
    # exact on polynomials of degree 2m - 1
    assert w @ x ** (2 * m - 2) == pytest.approx(2.0 / (2 * m - 1), rel=1e-13)
    assert abs(w @ x ** (2 * m - 1)) <= 1e-14


def _valid_run(entry, side, z):
    """The points of sorted ``z`` on the valid run of the line through the
    anchor 0: no mask edge, hence no catalog pole, lies between them and it."""
    ok = entry.valid_mask(z, 0.0) if side == "zeta" else entry.valid_mask(0.0, z)
    run = np.cumsum(~ok)
    return z[ok & (run == run[np.searchsorted(z, 0.0)])]


def _lines(entry, aux):
    return (("zeta", aux.r_zeta_jet, aux.phase_r, entry.spec.p),
            ("eta", aux.s_eta_jet, aux.phase_s, entry.spec.q))


@pytest.mark.parametrize("name", case_names())
def test_phases_match_mpmath_quadrature(name):
    # mpmath's adaptive tanh-sinh rule integrates the same gradient (value
    # as the real part, t-derivative as the imaginary part) gap by gap
    # between 25 targets on the anchor's pole-free valid run
    entry = build_case(name)
    aux = Auxiliaries(entry.spec)
    t = 0.3
    for side, grad, phase, profile in _lines(entry, aux):
        run = _valid_run(entry, side, np.linspace(-8.0, 8.0, 161))
        z = np.linspace(run[0], run[-1], 25)
        assert profile.pole_count(z[0], z[-1], t) == 0

        @functools.lru_cache(maxsize=None)
        def g(x):
            j = grad(profile.jet3(x, t), t)
            return complex(float(j.value), float(j[0, 1]))

        pts = np.union1d(z, 0.0).tolist()
        k = pts.index(0.0)
        gaps = [mpmath.quad(lambda x: g(float(x)), [a, b]) for a, b in zip(pts, pts[1:])]
        want = {0.0: mpmath.mpc(0)}
        for i in range(k, len(gaps)):
            want[pts[i + 1]] = want[pts[i]] + gaps[i]
        for i in range(k - 1, -1, -1):
            want[pts[i]] = want[pts[i + 1]] - gaps[i]
        scale = float(mpmath.quad(lambda x: abs(g(float(x)).real) + abs(g(float(x)).imag), pts))
        r, r_t = phase(z, t)
        assert np.max(np.abs(r - [float(want[v].real) for v in z])) <= 1e-12 * scale
        assert np.max(np.abs(r_t - [float(want[v].imag) for v in z])) <= 1e-12 * scale


@pytest.mark.parametrize("name", case_names())
def test_phases_converge_under_refinement(name):
    # doubling the nodes per gap moves neither phase on the distinct line
    # coordinates of a 48^2 window grid, inside the anchor's valid run
    entry = build_case(name)
    aux = Auxiliaries(entry.spec)
    fine = Auxiliaries(entry.spec)
    fine.quad_n = 2 * aux.quad_n
    grid = window_grid(entry.window, 48)
    for t in sorted({0.3, *entry.reference_times}):
        for (side, _, phase, _), (_, _, phase_fine, _), coords in zip(
                _lines(entry, aux), _lines(entry, fine), rotate(grid.X, grid.Y)):
            z = _valid_run(entry, side, np.unique(coords))
            for a, b in zip(phase(z, t), phase_fine(z, t)):
                assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("name", case_names())
def test_phases_integrate_each_line_coordinate_once(name):
    # r and s are functions of one coordinate each: a grid costs one
    # quadrature rule per gap between its sorted distinct coordinates (and
    # the anchor), all in one gradient call, gathered back to the grid's shape
    entry = build_case(name)
    aux = Auxiliaries(entry.spec)
    (x0, x1), (y0, y1) = entry.window
    zeta, eta = rotate(*np.meshgrid(np.linspace(x0, x1, 24),
                                    np.linspace(y0, y1, 24)))
    t = entry.reference_times[-1]
    nodes = []
    for attr in ("r_zeta_jet", "s_eta_jet"):
        def counting(j, t, grad=getattr(aux, attr)):
            nodes.append(np.size(j.value))
            return grad(j, t)
        setattr(aux, attr, counting)
    for phase, coords in ((aux.phase_r, zeta), (aux.phase_s, eta)):
        nodes.clear()
        with np.errstate(all="ignore"):
            grid = phase(coords, t)
            flat = phase(coords.ravel(), t)
        assert len(nodes) == 2
        assert nodes[0] <= aux.quad_n * (np.unique(coords).size + 1)
        assert np.unique(coords).size < coords.size
        for g, f in zip(grid, flat):
            np.testing.assert_array_equal(g, f.reshape(coords.shape))


def test_consistency_dromion(dromion):
    # c1 and c2 on every sample of the bundle's 33^2 grid: both constant, and
    # c1, written out from the bundle's entries, zero everywhere
    ing = bundle(dromion, ((-4, 4), (-4, 4)), 0.0, 33)
    rep = consistency_c1_c2(ing)
    assert rep.applicable
    assert rep.c1_variation < 1e-12
    assert rep.c2_variation < 1e-12
    assert (rep.samples, rep.masked, rep.dropped, rep.note) == (2 * 33 * 33, 0, 0, "")
    a, b, beta = dromion.coeffs, ing.rows(), dromion.funcs.beta(0.0)
    bracket = (b.p1[0, 1] / b.p1.value
               + beta * (b.p1[1, 0] * b.rz.value / b.p1.value + 0.5 * b.rz[1, 0]))
    assert np.max(np.abs(bracket / (a.a3 * (a.a2 + a.a3 * b.pj.value)))) < 1e-12


def test_consistency_gain_breaks_p_side(dromion):
    spec = SolutionSpec(dromion.coeffs, dromion.p, dromion.q,
                        CoefficientFunctions(gamma=TimeFunction((0.5,))))
    rep = consistency_c1_c2(bundle(spec, ((-4, 4), (-4, 4)), 0.0, 33))
    assert rep.c1_variation > 1e-3
    assert rep.c2_variation < 1e-12     # the q-side bracket has no gain term


def test_consistency_not_applicable_without_a3():
    e = build_case("resonant")
    rep = consistency_c1_c2(bundle(e.spec, ((-2, 2), (-2, 2)), 0.0, 9))
    assert not rep.applicable
    assert "a3" in rep.note
    assert rep.samples == 0


def test_consistency_reduces_the_valid_samples_apart_from_the_masked_ones():
    # double_instanton's guard cuts its pole out of the window: c1 and c2 count
    # every kept sample and leave out the masked ones, each ratio once
    e = build_case("double_instanton")
    ing = bundle(e.spec, e.window, 0.3, 48, e.valid_mask)
    rep = consistency_c1_c2(ing)
    masked = int(np.count_nonzero(~ing.grid.keep))
    assert masked == 44
    assert (rep.samples, rep.masked, rep.dropped) == (2 * (48 * 48 - masked), 2 * masked, 0)
    assert rep.max_variation < 1e-8 and rep.note == ""


def test_closed_case_satisfies_background_and_consistency(dromion):
    # with gradients -1 and backgrounds 3/8 both relations hold at once
    aux = Auxiliaries(dromion)
    zs = np.linspace(-3, 3, 7)
    assert np.allclose(line_backgrounds(aux, zs, zs, 0.0)[0], 0.375, rtol=1e-12)
    rep = consistency_c1_c2(bundle(dromion, ((-3, 3), (-3, 3)), 0.0, 7))
    assert rep.max_variation < 1e-12


def test_random_profiles_consistent_without_gain(rng):
    # zero-policy separation is exact for any profile when gamma = 0
    for _ in range(5):
        spec = admissible_spec(rng)
        rep = consistency_c1_c2(bundle(spec, ((-2, 2), (-2, 2)), 0.3, 17))
        assert rep.max_variation < 1e-10
