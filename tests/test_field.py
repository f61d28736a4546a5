import io
import math

import numpy as np
import pytest

from dsfield.ansatz import SeparationCoefficients, SolutionSpec, eval_intensity, rotate
from dsfield.auxiliary import derive
from dsfield.catalog import build_case
from dsfield.field import (
    FieldGrid,
    analyze_extrema,
    decay_profile,
    estimate_period,
    export,
    parse_csv,
    point_reflection_defect,
    reflection_defect,
    refined_global_max,
    sample_field,
    to_csv,
    to_pgm16,
    to_report,
)
from dsfield.profiles import ExpSumProfile

# closed-form dromion peak: U = 2/(2+sqrt(2))^2 at x = -sqrt(2)(1+ln(2)/2)
DROMION_PEAK = 2.0 / (2.0 + math.sqrt(2.0)) ** 2
DROMION_PEAK_X = -math.sqrt(2.0) * (1.0 + 0.5 * math.log(2.0))


def grid_of(values, mask=None, window=((0.0, 1.0), (0.0, 1.0)), t=0.0):
    values = np.asarray(values, dtype=float)
    ny, nx = values.shape
    if mask is None:
        mask = np.ones_like(values, dtype=bool)
    return FieldGrid(window, nx, ny, t, values, np.asarray(mask, dtype=bool))


def test_sample_rejects_tiny_resolution():
    e = build_case("dromion")
    with pytest.raises(ValueError):
        sample_field(e.spec, None, "U", e.window, 0.0, 4, 64)


def test_sample_unknown_field():
    e = build_case("dromion")
    with pytest.raises(ValueError, match="unknown field"):
        sample_field(e.spec, None, "V", e.window, 0.0, 16, 16)


def test_dromion_grid_all_valid_single_peak():
    e = build_case("dromion")
    g = sample_field(e.spec, None, "U", e.window, 0.0, 256, 256)
    assert g.mask.all()
    res = analyze_extrema(g)
    assert len(res.local_maxima) == 1
    assert res.global_max == pytest.approx(DROMION_PEAK, rel=1e-3)


def test_breather_degenerate_grid_is_zero():
    e = build_case("breather")
    g = sample_field(e.spec, None, "U", e.window, math.pi / 2, 32, 32)
    assert np.max(np.abs(g.valid_values())) < 1e-30


def test_entirely_masked_window_raises():
    e = build_case("periodic")
    # window far outside the tan box: everything masked
    with pytest.raises(ValueError, match="entirely singular"):
        sample_field(e.spec, None, "U", ((5.0, 6.0), (5.0, 6.0)), 0.0,
                     16, 16, valid_mask=e.valid_mask)


def test_phi_field_needs_aux():
    e = build_case("dromion")
    with pytest.raises(ValueError, match="aux"):
        sample_field(e.spec, None, "phi", e.window, 0.0, 16, 16)


def test_extrema_all_zero_grid():
    res = analyze_extrema(grid_of(np.zeros((8, 8))))
    assert res.local_maxima == ()


def test_extrema_plateau_counts_once():
    v = np.zeros((7, 7))
    v[3, 3] = v[3, 4] = 1.0          # two-cell plateau
    res = analyze_extrema(grid_of(v))
    assert len(res.local_maxima) == 1
    assert res.local_maxima[0].value == 1.0


def test_extrema_shoulder_is_not_a_peak():
    v = np.zeros((5, 9))
    v[2, 2] = v[2, 3] = 1.0
    v[2, 4] = 2.0                     # plateau rises into a higher point
    res = analyze_extrema(grid_of(v))
    assert len(res.local_maxima) == 1
    assert res.local_maxima[0].value == 2.0


def test_extrema_equal_peaks_in_raster_order():
    # equal peaks keep the raster order of each component's first pixel;
    # the U-shaped plateau is one component though its arms meet only at
    # the bottom row
    v = np.zeros((9, 11))
    v[1:6, 2] = v[5, 2:5] = v[1:6, 4] = 1.0
    v[1, 8] = 1.0
    v[7, 0] = 1.0
    g = grid_of(v, window=((0.0, 10.0), (0.0, 8.0)))
    res = analyze_extrema(g)
    assert [(p.x, p.y) for p in res.local_maxima] == [(2.0, 1.0), (8.0, 1.0),
                                                      (0.0, 7.0)]


def test_extrema_instanton_double_peak():
    e = build_case("double_instanton")
    g = sample_field(e.spec, None, "U", e.window, 0.0, 256, 256,
                     valid_mask=e.valid_mask)
    res = analyze_extrema(g)
    assert len(res.local_maxima) == 2


def test_refined_max_matches_closed_form():
    e = build_case("dromion")
    mx, (x, y) = refined_global_max(e.spec, e.window, 0.0, 128, 128)
    assert mx == pytest.approx(DROMION_PEAK, rel=1e-14)
    assert x == pytest.approx(DROMION_PEAK_X, abs=1e-10)
    assert abs(y) < 1e-10


def test_refined_max_stable_under_grid_doubling():
    e = build_case("dromion")
    a, _ = refined_global_max(e.spec, e.window, 0.0, 96, 96)
    b, _ = refined_global_max(e.spec, e.window, 0.0, 192, 192)
    assert abs(a - b) / b < 1e-12


def test_refined_max_reaches_edge_maximum():
    # the solitoff maximum at t = 0.1 lies on the window edge y = -8, where
    # the 48^2 grid gives 1.9506 and an unprojected ascent stays there
    e = build_case("solitoff")
    mx, (x, y) = refined_global_max(e.spec, e.window, 0.1, 48, 48,
                                    e.valid_mask)
    def edge_max(xs):
        zeta, eta = rotate(xs, np.full_like(xs, -8.0))
        u = eval_intensity(e.spec, zeta, eta, 0.1).values
        return float(np.max(u)), xs[np.argmax(u)]

    edge, xe = edge_max(np.linspace(-8.0, 8.0, 20001))
    assert y == -8.0
    assert mx >= edge * (1.0 - 1e-12)
    # resampled within one spacing of the sample argmax, the edge maximum
    # is exact to rounding, and the polish must reach it
    finer, xf = edge_max(np.linspace(xe - 8e-4, xe + 8e-4, 20001))
    assert mx >= finer * (1.0 - 1e-12)
    assert x == pytest.approx(xf, abs=1e-6)


def test_refined_max_does_not_leap_over_masked_pole():
    # at t = 0.3 the grid-56 argmax on [-12, 12]^2 lies at zeta = -1.23, on
    # the far side of the masked pole at zeta = -1; the first step lands at
    # zeta = -0.81, across the pole and higher (0.259 against 0.248), but
    # far below the quadratic model's prediction, so it is refused and the
    # ascent climbs its own hump (0.349, where the other one reaches 0.306)
    e = build_case("double_instanton")
    window = ((-12.0, 12.0), (-12.0, 12.0))
    mx, (x, y) = refined_global_max(e.spec, window, 0.3, 56, 56, e.valid_mask)
    fine, _ = refined_global_max(e.spec, window, 0.3, 128, 128, e.valid_mask)
    assert rotate(x, y)[0] < -1.0
    assert mx == pytest.approx(fine, rel=1e-12)


def test_refined_max_batch_matches_scalar_calls():
    e = build_case("breather")
    times = np.linspace(0.1, 3.0, 8)
    values, (xs, ys) = refined_global_max(e.spec, e.window, times, 32, 32)
    assert values.shape == xs.shape == ys.shape == (8,)
    for t, v, x, y in zip(times, values, xs, ys):
        mx, (px, py) = refined_global_max(e.spec, e.window, float(t), 32, 32)
        assert v == pytest.approx(mx, rel=1e-15)
        assert (x, y) == pytest.approx((px, py), rel=1e-15)


def test_dromion_reflection_symmetry():
    e = build_case("dromion")
    g = sample_field(e.spec, None, "U", e.window, 0.0, 128, 128)
    assert reflection_defect(g) < 1e-12


def test_breather_period_scan():
    e = build_case("breather")
    res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 64,
                          "global_max", grid_n=32, refine=False)
    assert res.estimated_period == pytest.approx(math.pi, abs=2 * math.pi / 64)
    assert res.period_resolution == pytest.approx(2 * math.pi / 64)


def test_breather_period_refinement_beats_scan_step():
    e = build_case("breather")
    res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 32,
                          "global_max", grid_n=24)
    assert abs(res.estimated_period - math.pi) < 1e-4
    assert abs(res.best_candidate - math.pi) <= res.period_resolution


def test_periodic_period_refinement_with_global_max():
    e = build_case("periodic")
    res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 32,
                          "global_max", grid_n=32, valid_mask=e.valid_mask)
    assert abs(res.estimated_period - math.pi) < 1e-4


def test_breather_pointwise_periodicity():
    e = build_case("breather")
    a = sample_field(e.spec, None, "U", e.window, 0.4, 64, 64)
    b = sample_field(e.spec, None, "U", e.window, 0.4 + math.pi, 64, 64)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_static_case_has_no_period():
    prof = ExpSumProfile((1.0,), (1.0,), (0.0,), (1.0,))
    spec = SolutionSpec(SeparationCoefficients(1, 1, 1, 2), prof, prof)
    res = estimate_period(spec, ((-6, 6), (-6, 6)), (0.0, 4.0), 16,
                          grid_n=24)
    assert res.estimated_period is None
    assert res.best_candidate is None


def test_periodic_case_symmetry_and_period():
    e = build_case("periodic")
    ga = sample_field(e.spec, None, "U", e.window, 0.4 + math.pi, 96, 96,
                      valid_mask=e.valid_mask)
    gb = sample_field(e.spec, None, "U", e.window, 0.4, 96, 96,
                      valid_mask=e.valid_mask)
    assert point_reflection_defect(ga, gb) < 1e-12
    res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 32,
                          grid_n=32, valid_mask=e.valid_mask, refine=False)
    assert res.estimated_period == pytest.approx(math.pi, abs=2 * math.pi / 32)


def test_decay_profile_deterministic():
    e = build_case("dromion")
    a = decay_profile(e.spec, e.window, (0.0,), grid_n=64)
    b = decay_profile(e.spec, e.window, (0.0,), grid_n=64)
    assert a.decay_series == b.decay_series
    with pytest.raises(ValueError):
        decay_profile(e.spec, e.window, ())


def test_instanton_decay_series():
    e = build_case("double_instanton")
    res = decay_profile(e.spec, ((-12, 12), (-12, 12)), (0.0, 3.0, 6.0),
                        grid_n=256, valid_mask=e.valid_mask)
    (t0, m0), (t1, m1), (t2, m2) = res.decay_series
    # regression values pinned from a 384^2 oracle run
    assert m0 == pytest.approx(0.5956, rel=2e-2)
    assert m1 == pytest.approx(5.676e-3, rel=2e-2)
    assert m2 == pytest.approx(1.519e-5, rel=2e-2)


# -- export ---------------------------------------------------------------------


def test_pgm_linear_scaling_example():
    g = grid_of([[0.0, 1.0], [2.0, 3.0]])
    data, sidecar = to_pgm16(g)
    header, _, rest = data.partition(b"65535\n")
    pixels = np.frombuffer(rest, dtype=">u2")
    assert pixels.tolist() == [0, 21845, 43690, 65535]
    assert "scale_max: 3" in sidecar


def test_pgm_zero_range_grid():
    g = grid_of(np.zeros((3, 3)))
    data, _ = to_pgm16(g)
    pixels = np.frombuffer(data.rpartition(b"65535\n")[2], dtype=">u2")
    assert not pixels.any()


def test_pgm_masks_to_zero():
    mask = np.ones((2, 2), dtype=bool)
    mask[0, 0] = False
    g = grid_of([[5.0, 1.0], [2.0, 4.0]], mask)
    data, _ = to_pgm16(g)
    pixels = np.frombuffer(data.rpartition(b"65535\n")[2], dtype=">u2")
    assert pixels[0] == 0


def test_csv_round_trip_is_bit_exact():
    e = build_case("dromion")
    g = sample_field(e.spec, None, "U", e.window, 0.0, 16, 16)
    x, y, v = parse_csv(to_csv(g))
    assert v.shape == (256,)
    assert np.array_equal(v, g.values.ravel())
    assert np.array_equal(x, np.tile(g.x, 16))


def test_csv_round_trip_of_masked_grid():
    e = build_case("double_instanton")
    g = sample_field(e.spec, None, "U", e.window, 0.0, 48, 48, e.valid_mask)
    assert 0 < np.count_nonzero(g.mask) < g.mask.size
    iy, ix = np.nonzero(g.mask)
    x, y, v = parse_csv(to_csv(g))
    assert np.array_equal(x, g.x[ix])
    assert np.array_equal(y, g.y[iy])
    assert np.array_equal(v, g.values[iy, ix])


def csv_reference(grid):
    """Per-point writer that to_csv must match byte for byte."""
    buf = io.StringIO()
    buf.write("x,y,U\n")
    xs, ys = grid.x, grid.y
    for iy in range(grid.ny):
        for ix in range(grid.nx):
            if grid.mask[iy, ix]:
                buf.write(f"{xs[ix]:.17g},{ys[iy]:.17g},{grid.values[iy, ix]:.17g}\n")
    return buf.getvalue().encode("ascii")


def _instanton_u():
    e = build_case("double_instanton")
    return sample_field(e.spec, None, "U", e.window, 3.0, 48, 48, e.valid_mask)


def _instanton_phi():
    e = build_case("double_instanton")
    return sample_field(e.spec, derive(e.spec), "phi", e.window, 3.0, 48, 48,
                        e.valid_mask)


def _non_square():
    e = build_case("breather")
    return sample_field(e.spec, None, "U", e.window, 0.7, 23, 37)


def _one_valid_point():
    mask = np.zeros((3, 4), dtype=bool)
    mask[2, 1] = True
    return grid_of(np.full((3, 4), -1.0 / 3.0), mask, ((-1.5, 2.0), (0.1, 0.7)))


@pytest.mark.parametrize("make", [_instanton_u, _instanton_phi, _non_square,
                                  _one_valid_point])
def test_csv_matches_per_point_writer(make):
    g = make()
    assert g.mask.any()
    assert to_csv(g) == csv_reference(g)


def test_instanton_phi_masks_non_finite_points_beyond_valid_mask():
    assert np.count_nonzero(~_instanton_phi().mask) > np.count_nonzero(
        ~_instanton_u().mask) > 0


def test_csv_header_checked():
    with pytest.raises(ValueError):
        parse_csv(b"a,b,c\n1,2,3\n")


@pytest.mark.parametrize("data", [b"x,y,U\n1,2\n3,4\n5,6\n",
                                  b"x,y,U\n1,2,3,4\n5,6\n",
                                  b"x,y,U\n1,2,3\n4,5\n"])
def test_csv_rows_need_three_fields(data):
    with pytest.raises(ValueError, match="not a field CSV"):
        parse_csv(data)


def test_report_is_stable_text():
    g = grid_of([[0.0, 1.0], [2.0, 3.0]])
    rep = to_report(g)
    assert rep == to_report(g)
    assert "max: 3" in rep and "valid: 4" in rep


def test_export_dispatcher():
    g = grid_of([[0.0, 1.0], [2.0, 3.0]])
    assert export(g, "csv") == to_csv(g)
    assert export(g, "pgm16") == to_pgm16(g)
    assert export(g, "report") == to_report(g).encode()
    with pytest.raises(ValueError):
        export(g, "png")


def test_period_l2_statistic():
    e = build_case("breather")
    res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 32,
                          statistic="L2", grid_n=24, refine=False)
    assert res.estimated_period == pytest.approx(math.pi, abs=2 * math.pi / 32)


def test_render_deterministic_bytes():
    e = build_case("dromion")
    outs = []
    for _ in range(2):
        g = sample_field(e.spec, None, "U", e.window, 0.0, 64, 64)
        outs.append((to_csv(g), to_pgm16(g)[0]))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
