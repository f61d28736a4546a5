import math
from dataclasses import replace

import numpy as np
import pytest

from dsfield.ansatz import rotate, window_grid
from dsfield.catalog import build_case, case_names
from dsfield.field import sample_field

from conftest import profile_jets3

E = math.e


def test_six_cases():
    assert case_names() == ("dromion", "solitoff", "resonant", "breather",
                            "periodic", "double_instanton")


def test_unknown_name_lists_valid():
    with pytest.raises(ValueError, match="dromion.*double_instanton"):
        build_case("vortex")


@pytest.mark.parametrize("name,det", [("dromion", 1.0), ("solitoff", 4.0),
                                      ("resonant", 2.0), ("breather", 2.0),
                                      ("periodic", 2.0),
                                      ("double_instanton", 2.0)])
def test_determinants(name, det):
    assert build_case(name).spec.coeffs.det == det


def test_rebuild_is_identical():
    for name in case_names():
        a, b = build_case(name), build_case(name)
        assert a == b
        assert a.spec.coeffs == b.spec.coeffs


def test_dromion_profile_values():
    e = build_case("dromion")
    z, t = 0.4, -0.2
    assert e.spec.p.jet3(z, t).value == pytest.approx(math.exp(z + t + 1), rel=1e-15)


def test_solitoff_profile_values():
    e = build_case("solitoff")
    z, h, t = 0.4, -0.3, 0.2
    p_want = math.exp(z + t + 1) + math.exp(2 * z + t + 1)
    q_want = math.exp(h - t + 1) + math.exp(2 * h - t + 1)
    assert e.spec.p.jet3(z, t).value == pytest.approx(p_want, rel=1e-15)
    assert e.spec.q.jet3(h, t).value == pytest.approx(q_want, rel=1e-15)


def test_resonant_profile_values():
    e = build_case("resonant")
    z, h, t = 0.7, -0.5, 0.1
    p_want = -math.exp(-z + t + 1) + math.exp(2 * z + t + 1)
    q_want = -math.exp(-h - t + 1) + math.exp(2 * h - t + 1)
    assert e.spec.p.jet3(z, t).value == pytest.approx(p_want, rel=1e-15)
    assert e.spec.q.jet3(h, t).value == pytest.approx(q_want, rel=1e-15)


def test_breather_profile_values():
    e = build_case("breather")
    z, h, t = 0.3, -0.6, 0.9
    c2 = math.cos(t) ** 2
    assert e.spec.p.jet3(z, t).value == pytest.approx(1 + math.exp(z * c2), rel=1e-15)
    assert e.spec.q.jet3(h, t).value == pytest.approx(math.exp(h + c2), rel=1e-15)


def test_periodic_profile_values():
    e = build_case("periodic")
    z, t = 0.5, 0.8
    want = 1 + math.exp(math.tan(z) * math.cos(t) + 1)
    assert e.spec.p.jet3(z, t).value == pytest.approx(want, rel=1e-14)


def test_instanton_profile_values():
    e = build_case("double_instanton")
    z, h, t = 0.6, -0.9, 0.4
    p_want = (math.exp(z + 2 * t + 1) + math.exp(z + t + 1)
              + math.exp(-1.0 / (z**3 + 1) + 2 * t + 1))
    q_want = math.exp(h + 2 * t + 1) + math.exp(h + t + 1)
    assert e.spec.p.jet3(z, t).value == pytest.approx(p_want, rel=1e-14)
    assert e.spec.q.jet3(h, t).value == pytest.approx(q_want, rel=1e-15)


def _sign_product_range(entry, t):
    (x0, x1), (y0, y1) = entry.window
    x = np.linspace(x0, x1, 48)
    y = np.linspace(y0, y1, 48)
    X, Y = np.meshgrid(x, y)
    zeta, eta = rotate(X, Y)
    keep = entry.valid_mask(zeta, eta)
    pj, qj = profile_jets3(entry.spec, zeta, eta, t)
    prod = entry.spec.coeffs.det * pj[1, 0] * qj[1, 0]
    vals = prod[keep & np.isfinite(prod)]
    return float(np.min(vals)), float(np.max(vals))


@pytest.mark.parametrize("name", ["dromion", "solitoff", "resonant"])
def test_sign_condition_strictly_positive(name):
    e = build_case(name)
    for t in e.reference_times:
        lo, _ = _sign_product_range(e, t)
        assert lo > 0.0


@pytest.mark.parametrize("name", ["breather", "periodic", "double_instanton"])
def test_sign_condition_nonnegative(name):
    e = build_case(name)
    for t in e.reference_times:
        lo, _ = _sign_product_range(e, t)
        assert lo >= 0.0


def test_breather_equality_exactly_at_half_pi():
    # cos(pi/2)^2 rounds to ~3.7e-33, scaled by q_e up to ~1e5 on the window
    e = build_case("breather")
    lo, hi = _sign_product_range(e, math.pi / 2)
    assert hi < 1e-25
    lo, _ = _sign_product_range(e, 1.0)
    assert lo > 0.0


def test_periodic_mask_excludes_tan_poles():
    e = build_case("periodic")
    # the guard keeps |zeta|, |eta| <= pi/2 - 0.1 to the last float and
    # drops the next one beyond it, on both sides of both axes
    limit = math.pi / 2 - 0.1
    side = np.array([limit, np.nextafter(limit, math.inf)])
    for s in (side, -side):
        assert e.valid_mask(s, np.zeros(2)).tolist() == [True, False]
        assert e.valid_mask(np.zeros(2), s).tolist() == [True, False]
    ok = e.valid_mask(np.array([0.0, math.pi / 2]), np.array([0.0, 0.0]))
    assert ok.tolist() == [True, False]


@pytest.mark.parametrize("which", ["U", "phi"])
@pytest.mark.parametrize("name", case_names())
def test_spec_guard_masks_only_what_it_drops(name, which):
    # the guard travels with the spec: a case's field equals that of its
    # unguarded copy, bit for bit, wherever the guard keeps the point, and
    # is masked wherever it drops it; periodic and double_instanton drop some
    e = build_case(name)
    keep = window_grid(e.window, 48, e.valid_mask).keep
    guarded = sample_field(e.spec, which, e.window, 0.3, 48, 48)
    bare = sample_field(replace(e.spec, valid_mask=None), which, e.window, 0.3, 48, 48)
    assert keep.all() == (e.spec.valid_mask is None)
    np.testing.assert_array_equal(guarded.mask, bare.mask & keep)
    np.testing.assert_array_equal(guarded.values[keep], bare.values[keep], strict=True)


def test_instanton_mask_excludes_pole():
    e = build_case("double_instanton")
    ok = e.valid_mask(np.array([-1.0, -1.04, -0.9]), np.zeros(3))
    assert ok.tolist() == [False, False, True]


def test_degenerate_times_listed():
    assert math.pi / 2 in build_case("breather").degenerate_times
    assert math.pi / 2 in build_case("periodic").degenerate_times
