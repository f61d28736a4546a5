import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfield import calculus as jc
from dsfield.ansatz import SeparationCoefficients, SolutionSpec
from dsfield.auxiliary import Auxiliaries
from dsfield.calculus import DIV_GUARD, Jet
from dsfield.profiles import CustomProfile

L2 = jc.layout(2, 2)    # (value, d1, dt, d11, d1t, dtt) in (x, t)
finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
jets = st.builds(lambda *e: Jet(e, L2), finite, finite, finite, finite, finite, finite)


def const(v, order=2):
    return jc.constant(v, jc.layout(2, order))


def spatial(v, order=2):
    return jc.variables(v, 0.0, order=order)[0]


def temporal(v, order=2):
    return jc.variables(0.0, v, order=order)[1]


def test_layout_is_graded():
    # lower orders are a prefix, so the order-2 entries of an order-3 jet are its first six
    assert jc.layout(2, 3).index == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                                     (3, 0), (2, 1), (1, 2), (0, 3))
    assert jc.layout(3, 2).index[:4] == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert jc.layout(2, 2) is L2


def test_mul_square_of_linear():
    # (x+1)^2 at x=0
    a = Jet((1.0, 1.0, 0.0, 0.0, 0.0, 0.0), L2)
    m = a * a
    assert (m.value, m[1, 0], m[2, 0]) == (1.0, 2.0, 2.0)
    assert m[0, 1] == m[1, 1] == m[0, 2] == 0.0


def test_sub_self_is_zero():
    a = Jet((3.0, -1.0, 2.0, 0.5, 0.25, -4.0), L2)
    z = a - a
    assert all(e == 0.0 for e in z.entries)


def test_div_of_equal_exponentials_is_constant():
    z = 0.0
    e = jc.exp(spatial(z))
    r = e / e
    assert r.value == pytest.approx(1.0, abs=0)
    for entry in r.entries[1:]:
        assert entry == pytest.approx(0.0, abs=1e-15)


def test_exp_seed():
    e = jc.exp(spatial(0.0))
    assert (e.value, e[1, 0], e[2, 0]) == (1.0, 1.0, 1.0)


def test_cos_of_time_seed():
    c = jc.cos(temporal(0.0))
    assert (c.value, c[0, 1], c[0, 2]) == (1.0, 0.0, -1.0)


def test_sqrt_of_exponential():
    # oracle: derivatives of exp(x/2) at 0 are 1, 1/2, 1/4
    s = jc.sqrt(jc.exp(spatial(0.0)))
    assert s.value == pytest.approx(1.0, rel=1e-15)
    assert s[1, 0] == pytest.approx(0.5, rel=1e-15)
    assert s[2, 0] == pytest.approx(0.25, rel=1e-15)


def test_division_guard_marks_nonfinite():
    num = Jet((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), L2)
    den = Jet((0.0, 1.0, 0.0, 0.0, 0.0, 0.0), L2)
    r = num / den
    assert not all(np.all(np.isfinite(e)) for e in r.entries)
    assert not np.isfinite(r.value)


@pytest.mark.parametrize("num", [1.0, -3.0, 250.0])
def test_one_division_guard_decides_every_division(num):
    # b divides a only where |b| >= DIV_GUARD (1 + |a|): a / b, a reciprocal
    # (a = 1) and a negative power (the power of the reciprocal) follow the
    # same relative rule, just below and just above the threshold
    edge = DIV_GUARD * (1.0 + abs(num))
    for b, finite in ((0.99 * edge, False), (1.01 * edge, True),
                      (-0.99 * edge, False), (-1.01 * edge, True)):
        x = spatial(b, order=3)
        assert np.isfinite((const(num, 3) / x).value) == finite
        assert np.isfinite((num / x).value) == finite
        assert np.all([np.isfinite(e) for e in (num / x).entries]) == finite
    edge = 2.0 * DIV_GUARD
    for b, finite in ((0.99 * edge, False), (1.01 * edge, True), (-0.99 * edge, False)):
        x = spatial(b, order=3)
        assert np.isfinite((1.0 / x).value) == finite
        assert np.isfinite(jc.powi(x, -1).value) == finite
        assert np.isfinite(jc.powi(x, -2).value) == finite
    inv = jc.powi(spatial(0.5, order=3), -2)       # x^-2 at 1/2: 4, -16, 96, -768
    assert [inv[k, 0] for k in range(4)] == [4.0, -16.0, 96.0, -768.0]


@pytest.mark.parametrize("e", range(-4, 4))
def test_integer_powers_match_mpmath_on_both_signs(e):
    # the reciprocal and powi tables raise a base to an integer power through
    # |v| and give odd powers the sign back: within 1 ulp of the power at 40
    # digits on either sign, and a positive base keeps numpy's own bits
    mag = np.geomspace(1e-3, 1e3, 101)
    v = np.concatenate([mag, -mag])
    got = jc._ipow(v, e)
    with mpmath.workdps(40):
        off = [float(abs(mpmath.mpf(g) - mpmath.mpf(x) ** e) / math.ulp(g))
               for g, x in zip(got.tolist(), v.tolist())]
    assert max(off) <= 1.0, max(off)
    assert np.array_equal(got[:mag.size], mag ** e)
    inv = jc._tables("reciprocal", v, 3)
    assert all(np.array_equal(c, (-1.0) ** j * jc._ipow(v, -1 - j)) for j, c in enumerate(inv))


def test_domain_violations_mark_nonfinite():
    assert not np.isfinite(jc.log(const(-1.0)).value)
    assert not np.isfinite(jc.sqrt(const(-0.5)).value)
    near_pole = math.pi / 2 + 1e-14
    assert not np.isfinite(jc.tan(const(near_pole)).value)


def test_nonfinite_propagates_through_arithmetic():
    bad = jc.log(const(-1.0))
    out = (bad + 1.0) * 2.0 - bad
    assert not np.isfinite(out.value)
    assert not np.isfinite(jc.powi(bad, 0).value)  # even x**0 stays marked


@given(jets, jets)
def test_leibniz_rule_is_exact(a, b):
    m = a * b
    assert m[1, 0] == a[1, 0] * b.value + a.value * b[1, 0]
    assert m[0, 1] == a[0, 1] * b.value + a.value * b[0, 1]
    assert m[2, 0] == a[2, 0] * b.value + 2.0 * a[1, 0] * b[1, 0] + a.value * b[2, 0]


@settings(max_examples=60)
@given(st.floats(min_value=-1.2, max_value=1.2),
       st.floats(min_value=-1.2, max_value=1.2))
def test_jets_agree_with_finite_differences(x, t):
    # cross-validation of the two derivative engines on a smooth composite
    def f(xx, tt):
        return np.exp(np.sin(xx) * np.cos(tt) + 0.3 * xx * tt)

    xj, tj = jc.variables(x, t, order=2)
    j = jc.exp(jc.sin(xj) * jc.cos(tj) + 0.3 * xj * tj)
    h = 1e-5
    d1 = (f(x + h, t) - f(x - h, t)) / (2 * h)
    dt = (f(x, t + h) - f(x, t - h)) / (2 * h)
    d11 = (f(x + h, t) - 2 * f(x, t) + f(x - h, t)) / h**2
    scale = abs(j.value) + 1.0
    assert j.value == pytest.approx(f(x, t), rel=1e-12)
    assert j[1, 0] == pytest.approx(d1, abs=1e-8 * scale)
    assert j[0, 1] == pytest.approx(dt, abs=1e-8 * scale)
    assert j[2, 0] == pytest.approx(d11, abs=1e-4 * scale)


def test_jet3_matches_analytic_tan_derivatives():
    v = 0.3
    j = jc.tan(spatial(v, order=3))
    T, S = math.tan(v), 1.0 / math.cos(v) ** 2
    assert j[1, 0] == pytest.approx(S, rel=1e-14)
    assert j[2, 0] == pytest.approx(2 * S * T, rel=1e-14)
    assert j[3, 0] == pytest.approx(4 * S * T * T + 2 * S * S, rel=1e-14)


def test_jet3_third_derivative_against_finite_differences():
    def f(xx):
        return np.exp(np.sin(xx))

    x, h = 0.4, 1e-2
    j = jc.exp(jc.sin(spatial(x, order=3)))
    fd3 = (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)
    assert j[3, 0] == pytest.approx(fd3, abs=1e-3)


def test_jet3_truncates_to_jet():
    j3 = jc.exp(spatial(0.7, order=3))
    j2 = j3.shift(order=2)
    assert isinstance(j2, Jet) and j2.order == 2
    assert j2.entries == j3.entries[:6]


def test_shift_differentiates_and_renames_variables():
    x, t = jc.variables(0.4, 0.9, order=3)
    j = jc.exp(2.0 * x + 3.0 * t)
    e = math.exp(0.8 + 2.7)
    # the derivative in x to order 2: entries 2^(a+1) 3^b e
    dx = j.shift((1, 0))
    assert dx.order == 2
    assert [dx[m] / e for m in dx.layout.index] == pytest.approx(
        [2 ** (a + 1) * 3 ** b for a, b in dx.layout.index], rel=1e-14)
    # x becomes the second of three variables; the others are structural zeros
    moved = j.shift(order=2, axes=(1, 2), n=3)
    assert moved[0, 1, 1] == j[1, 1] and moved[0, 2, 0] == j[2, 0]
    assert moved[1, 0, 0] == 0.0 and moved[1, 1, 0] == 0.0
    with pytest.raises(ValueError, match="exceeds jet order"):
        j.shift((1, 0), order=3)


def test_box_layout_pairs_restrict_the_total_order_table():
    def named(lay):
        return {m: [(lay.index[i], lay.index[j], c) for i, j, c in terms]
                for m, terms in zip(lay.index, lay.pairs)}

    box, total = jc.layout(2, (1, 1)), jc.layout(2, 2)
    assert box.index == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert named(box) == {m: named(total)[m] for m in box.index}
    assert len(jc.layout(2, (3, 3)).index) == 16


def test_layout_of_boxes_holds_what_lies_below_any_of_them():
    # a reader names the entries it reads: the layout is the union of their
    # boxes, in graded order, and a product on it keeps the bits of the full
    # product's entries (the same Leibniz terms, summed in the same order)
    reads = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 2, 0))
    assert jc.layout(3, reads).index == reads
    assert jc.layout(3, ((1, 1, 0), (0, 0, 1))).index == (
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0))
    rng = np.random.default_rng(3)
    p, q = (Jet(rng.normal(size=(6, 5)), L2) for _ in range(2))     # in (zeta, t), (eta, t)
    full = p.shift(order=2, axes=(0, 2), n=3) * q.shift(order=2, axes=(1, 2), n=3)
    part = p.shift(order=reads, axes=(0, 2), n=3) * q.shift(order=reads, axes=(1, 2), n=3)
    assert len(part.entries) == 7
    for m in reads:
        assert part[m].tobytes() == full[m].tobytes()


def test_box_jet_holds_only_its_box():
    # t is a constant of the box (1, 0); a derivative outside the box raises
    # rather than reading as a structural zero
    x, t = jc.variables(0.4, 0.9, order=(1, 0))
    assert t.entries == (0.9, 0.0)
    j = jc.exp(2.0 * x + 3.0 * t)
    assert j[1, 0] == 2.0 * j.value
    for bad in ((0, 1), (1, 1)):
        with pytest.raises(ValueError, match="exceeds jet order"):
            j.shift(bad)
        with pytest.raises(ValueError, match="exceeds jet order"):
            j[bad]
    x, t = jc.variables(0.4, 0.9, order=(3, 0))
    with pytest.raises(ValueError, match="exceeds jet order"):
        jc.exp(x * t).shift((1, 0), order=2)


def test_jet_mixing_orders_raises():
    with pytest.raises(TypeError):
        const(1.0, 2) + const(1.0, 3)


def test_partial_lookup_and_overflow():
    j = Jet((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), L2)
    assert j[1, 1] == 5.0
    with pytest.raises(ValueError):
        j[2, 1]


# -- quadrature: the phase rule of Auxiliaries.phase_r ---------------------------


def phase_rule(integrand, a, b):
    """The integral of ``integrand`` over [a, b] by the cumulative
    Gauss-Legendre rule of the phases: phase_r anchored at a, with the
    integrand as its gradient."""
    lin = CustomProfile(lambda xj, tj: xj + 0.0 * tj, lambda lo, hi, t: 0)
    aux = Auxiliaries(SolutionSpec(SeparationCoefficients(1, 1, 1, 2), lin, lin))
    aux.anchor_zeta = a
    # the profile is zeta itself, so its jet's value is the node
    aux.r_zeta_jet = lambda pj, t: Jet((integrand(pj.value),) + (0.0,) * 5, L2)
    return aux.phase_r(b, 0.0)[0]


def test_quadrature_cubic_exact():
    got = phase_rule(lambda x: x**3, 0.0, 1.0)
    assert got == pytest.approx(0.25, rel=1e-14)


def test_quadrature_sine():
    got = phase_rule(np.sin, 0.0, math.pi)
    assert got == pytest.approx(2.0, abs=1e-8)
