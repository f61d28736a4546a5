import math

import numpy as np
import pytest

from dsfield import calculus as jc
from dsfield.catalog import build_case, case_names

from dsfield.profiles import (
    FAMILIES,
    CustomProfile,
    ExpSumProfile,
    InstantonPProfile,
    TimeFunction,
)

NO_POLES = lambda lo, hi, t: 0     # noqa: E731, the count of a profile without poles

ALL_FAMILIES = [ExpSumProfile((1.0, -0.5), (1.0, -0.7), (0.5, 1.2), (0.0, 0.3)),
                *FAMILIES.values()]


def fd(fn, x, t, which, h=1e-4):
    if which == "d1":
        return (fn(x + h, t) - fn(x - h, t)) / (2 * h)
    if which == "dt":
        return (fn(x, t + h) - fn(x, t - h)) / (2 * h)
    if which == "d11":
        return (fn(x + h, t) - 2 * fn(x, t) + fn(x - h, t)) / h**2
    if which == "d1t":
        return (fn(x + h, t + h) - fn(x + h, t - h)
                - fn(x - h, t + h) + fn(x - h, t - h)) / (4 * h**2)
    if which == "dtt":
        return (fn(x, t + h) - 2 * fn(x, t) + fn(x, t - h)) / h**2
    if which == "d111":
        return (fn(x + 2*h, t) - 2*fn(x + h, t) + 2*fn(x - h, t)
                - fn(x - 2*h, t)) / (2 * h**3)
    raise KeyError(which)


@pytest.mark.parametrize("prof", ALL_FAMILIES, ids=lambda p: p.family)
def test_profile_jets_match_finite_differences(prof):
    x, t = 0.37, 0.61   # regular point for every family
    scalar = lambda xx, tt: float(prof.jet3(xx, tt).value)
    j = prof.jet3(x, t)
    scale = abs(j.value) + 1.0
    assert j[1, 0] == pytest.approx(fd(scalar, x, t, "d1"), abs=2e-7 * scale)
    assert j[0, 1] == pytest.approx(fd(scalar, x, t, "dt"), abs=2e-7 * scale)
    assert j[2, 0] == pytest.approx(fd(scalar, x, t, "d11"), abs=2e-5 * scale)
    assert j[1, 1] == pytest.approx(fd(scalar, x, t, "d1t"), abs=2e-5 * scale)
    assert j[0, 2] == pytest.approx(fd(scalar, x, t, "dtt"), abs=2e-5 * scale)
    assert j[3, 0] == pytest.approx(fd(scalar, x, t, "d111", 1e-3), abs=2e-4 * scale)


BOX_PROFILES = (
    [p for name in case_names() for p in (build_case(name).spec.p, build_case(name).spec.q)]
    + [ExpSumProfile((1.0, -0.5, 2.0, 0.25), (1.0, -0.7, 0.0, 1.3), (0.5, 1.2, -0.4, 0.0),
                     (0.0, 0.3, -1.0, 0.2)),
       CustomProfile(lambda xj, tj: jc.sin(xj * tj) + jc.exp(xj) * tj * tj, NO_POLES)])


@pytest.mark.parametrize("prof", BOX_PROFILES, ids=lambda p: p.family)
@pytest.mark.parametrize("box", [(0, 0), (1, 0), (1, 1), (3, 0)])
def test_box_jets_are_the_order3_entries_bit_for_bit(prof, box):
    # clear of the tan poles and the instanton pole at x = -1
    x = np.linspace(-0.8, 1.2, 7)
    ts = np.linspace(0.1, 2.9, 7)
    for t in (0.7, ts, ts[:5, None]):
        full, part = prof.jet3(x, t), prof.jet3(x, t, box)
        assert part.layout.index == tuple(
            m for m in full.layout.index if all(e <= b for e, b in zip(m, box)))
        for m, e in zip(part.layout.index, part.entries):
            got, want = np.asarray(e), np.asarray(full[m])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (m, t)


def test_expsum_closed_form():
    prof = ExpSumProfile((2.0,), (0.7,), (-0.3,), (0.1,))
    x, t = 1.1, -0.4
    e = 2.0 * math.exp(0.7 * x - 0.3 * t + 0.1)
    j = prof.jet3(x, t)
    assert j.value == pytest.approx(e, rel=1e-15)
    assert j[1, 0] == pytest.approx(0.7 * e, rel=1e-15)
    assert j[3, 0] == pytest.approx(0.7**3 * e, rel=1e-15)
    assert j[0, 3] == pytest.approx((-0.3)**3 * e, rel=1e-15)


def test_expsum_validation():
    with pytest.raises(ValueError):
        ExpSumProfile((), (), (), ())
    with pytest.raises(ValueError):
        ExpSumProfile((1.0,), (1.0, 2.0), (1.0,), (1.0,))
    with pytest.raises(ValueError):
        ExpSumProfile((math.inf,), (1.0,), (1.0,), (1.0,))


def test_vectorized_evaluation_matches_scalar():
    prof = FAMILIES["tancos"]
    xs = np.linspace(-1.0, 1.0, 7)
    j = prof.jet3(xs, 0.3)
    for i, x in enumerate(xs):
        ji = prof.jet3(float(x), 0.3)
        assert j.value[i] == ji.value
        assert j[3, 0][i] == ji[3, 0]


def test_instanton_pole_goes_nonfinite():
    prof = FAMILIES["instanton_p"]
    j = prof.jet3(-1.0, 0.0)
    assert not np.all(np.isfinite(np.asarray(j.value)))


def test_breather_spatial_derivative_vanishes_at_half_pi():
    j = FAMILIES["breather_p"].jet3(0.8, math.pi / 2)
    assert abs(j[1, 0]) < 1e-30


def test_custom_profile_roundtrip():
    lin = CustomProfile(lambda xj, tj: xj + 0.0 * tj, NO_POLES)
    j = lin.jet3(2.5, 1.0)
    assert j.value == 2.5 and j[1, 0] == 1.0 and j[2, 0] == 0.0

    with pytest.raises(TypeError):
        CustomProfile(lambda xj, tj: 1.0, NO_POLES).jet3(0.0, 0.0)


def test_timefunction_polynomial_jets():
    f = TimeFunction((1.0, -2.0, 0.5))     # 1 - 2t + 0.5 t^2
    t = 0.7
    assert f(t) == pytest.approx(1 - 2 * t + 0.5 * t * t, rel=1e-15)
    j = f.jet(t, 3)
    assert j[0, 1] == pytest.approx(-2.0 + t, rel=1e-15)
    assert j[0, 2] == pytest.approx(1.0, rel=1e-15)
    assert j[0, 3] == 0.0
    assert j[1, 0] == 0.0

    c = TimeFunction((3.0,))
    assert c.is_constant and c(123.0) == 3.0


def test_family_is_the_table_key_of_the_table_value_alone():
    for name, prof in FAMILIES.items():
        assert prof.family == name
    # an equal profile that is not the table value itself takes its form's name
    q = FAMILIES["instanton_q"]
    twin = ExpSumProfile(q.A, q.K, q.L, q.theta)
    assert twin == q and twin.family == "expsum"
    tancos = FAMILIES["tancos"]
    assert CustomProfile(tancos.fn, tancos.pole_count).family == "custom"
    assert InstantonPProfile().family == "custom"


@pytest.mark.parametrize("family", ["expsum", "breather_p", "breather_q", "instanton_q"])
def test_profiles_without_poles_count_none_on_random_ranges(family):
    # exponential sums are entire and the breather pair is exp of a polynomial
    # in x, so no range holds a pole, not even where the value overflows: the
    # random sums reach exp(60 * 12) = inf on half these ranges
    rng = np.random.default_rng(53)
    overflowed = 0
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(-12.0, 12.0, 2))
        t = float(rng.uniform(-3.0, 3.0))
        prof = FAMILIES.get(family) or ExpSumProfile(
            *(tuple(rng.uniform(-s, s, 3)) for s in (3.0, 60.0, 2.0, 5.0)))
        with np.errstate(over="ignore", invalid="ignore"):
            v = prof.jet3(np.linspace(lo, hi, 257), t, order=0).value
        overflowed += not np.all(np.abs(v) < 1e150)
        assert prof.pole_count(lo, hi, t) == 0
    assert (overflowed > 50) == (family == "expsum"), overflowed


def test_custom_profile_declares_its_pole_count():
    # a custom formula has no count to fall back on: the caller states it
    with pytest.raises(TypeError):
        CustomProfile(lambda xj, tj: xj)
    three = CustomProfile(lambda xj, tj: xj, lambda lo, hi, t: 3)
    assert three.pole_count(0.0, 1.0, 0.5) == 3
