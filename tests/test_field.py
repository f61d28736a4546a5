import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsfield import ansatz
from dsfield.ansatz import (
    SeparationCoefficients,
    SolutionSpec,
    eval_intensity,
    rotate,
    window_grid,
)
from dsfield.catalog import build_case, case_names
from dsfield.field import (
    FieldGrid,
    SingularWindowError,
    _refine_period,
    _statistic,
    _write_g17,
    analyze_extrema,
    decay_profile,
    estimate_period,
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

from conftest import regular_window

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
        sample_field(e.spec, "U", e.window, 0.0, 4, 64)


def test_sample_unknown_field():
    e = build_case("dromion")
    with pytest.raises(ValueError, match="unknown field"):
        sample_field(e.spec, "V", e.window, 0.0, 16, 16)


def test_dromion_grid_all_valid_single_peak():
    e = build_case("dromion")
    g = sample_field(e.spec, "U", e.window, 0.0, 256, 256)
    assert g.mask.all()
    res = analyze_extrema(g)
    assert len(res.local_maxima) == 1
    assert res.global_max == pytest.approx(DROMION_PEAK, rel=1e-3)


@pytest.mark.parametrize("name", case_names())
def test_unequal_spacing_u_grid_is_pointwise_intensity(name):
    # x and y scaled apart, as a zoomed render window: no lattice, and every
    # valid sample is eval_intensity at rotate(X, Y) bit for bit
    e = build_case(name)
    window = ((-7.44, 7.44), (-7.76, 7.76))
    g = sample_field(e.spec, "U", window, 0.7, 40, 40, e.valid_mask)
    X, Y = np.meshgrid(g.x, g.y)
    u = eval_intensity(e.spec, *rotate(X, Y), 0.7)
    np.testing.assert_array_equal(g.values[g.mask], u[g.mask])


def test_breather_degenerate_grid_is_zero():
    e = build_case("breather")
    g = sample_field(e.spec, "U", e.window, math.pi / 2, 32, 32)
    assert np.max(np.abs(g.valid_values())) < 1e-30


def test_entirely_masked_window_raises():
    e = build_case("periodic")
    # window far outside the tan box: everything masked
    with pytest.raises(ValueError, match="entirely singular"):
        sample_field(e.spec, "U", ((5.0, 6.0), (5.0, 6.0)), 0.0,
                     16, 16, valid_mask=e.valid_mask)


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
    g = sample_field(e.spec, "U", e.window, 0.0, 256, 256,
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
        u = eval_intensity(e.spec, zeta, eta, 0.1)
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
    g = sample_field(e.spec, "U", e.window, 0.0, 128, 128)
    assert reflection_defect(g) < 1e-12


def test_breather_period_scan():
    e = build_case("breather")
    res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 64,
                          "global_max", grid_n=32)
    assert res.best_candidate == pytest.approx(math.pi, abs=2 * math.pi / 64)
    assert res.estimated_period == pytest.approx(math.pi, abs=2 * math.pi / 64)
    assert res.period_resolution == pytest.approx(2 * math.pi / 64)


def test_breather_period_refinement_beats_scan_step():
    e = build_case("breather")
    res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 32,
                          "global_max", grid_n=24)
    assert abs(res.estimated_period - math.pi) <= 1e-8
    assert abs(res.best_candidate - math.pi) <= res.period_resolution


def test_periodic_period_refinement_with_global_max():
    e = build_case("periodic")
    res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 32,
                          "global_max", grid_n=32, valid_mask=e.valid_mask)
    assert abs(res.estimated_period - math.pi) <= 1e-8


@pytest.mark.parametrize("name,statistic,start,n_t,grid_n", [
    ("breather", "L2", 0, 32, 24),
    ("breather", "global_max", 39, 64, 48),
    ("periodic", "L2", 0, 32, 32),
    ("periodic", "L2", 39, 64, 48),
])
def test_period_solve_reaches_pi(name, statistic, start, n_t, grid_n):
    # the scan spans 2 pi from start*pi/64
    e = build_case(name)
    t0 = start * math.pi / 64
    res = estimate_period(e.spec, e.window, (t0, t0 + 2 * math.pi), n_t,
                          statistic, grid_n=grid_n, valid_mask=e.valid_mask)
    assert abs(res.estimated_period - math.pi) <= 1e-8
    assert abs(res.best_candidate - math.pi) <= res.period_resolution
    assert res.period_mismatch <= 1e-13


@pytest.mark.parametrize("statistic", ["L2", "global_max"])
def test_period_solve_converges_from_a_loose_tie(statistic):
    # a range 0.1% longer than 2 pi puts the scan shift 3.1e-3 past pi; a
    # loose tie_tol accepts it and the solve must close the gap
    e = build_case("breather")
    res = estimate_period(e.spec, e.window, (0.3, 0.3 + 2.002 * math.pi), 32,
                          statistic, grid_n=32, tie_tol=0.05)
    assert res.best_candidate - math.pi == pytest.approx(1e-3 * math.pi)
    assert abs(res.estimated_period - math.pi) <= 1e-12
    assert res.period_mismatch <= 1e-13


@pytest.mark.parametrize("rate_factor",
                         [1.0, -1.0, 1e-3, -1e-3 / (math.pi - 1e-3), 0.0, math.nan])
def test_period_solve_safeguards(monkeypatch, rate_factor):
    # S = sin 2t has period pi; S' scaled by rate_factor: exact (1), wrong
    # sign (the step raises the mismatch), too small (the step leaves the
    # bracket; with the sign flipped too it lands on 2 pi, where the
    # mismatch is lower), zero or NaN (no step); all but the exact one keep
    # the scan shift and its mismatch
    def synthetic(spec, window, times, statistic, grid_n, valid_mask, rate=False):
        return np.sin(2 * times), rate_factor * 2 * np.cos(2 * times)

    monkeypatch.setattr("dsfield.field._statistic", synthetic)
    shift = math.pi + 1e-3
    base = np.linspace(0.0, 0.9, 5) * shift
    T, mis = _refine_period(None, None, "L2", 8, None, 0.0, shift, 0.1, 2.0)
    if rate_factor == 1.0:
        assert abs(T - math.pi) <= 1e-15 and mis <= 1e-15
    else:
        assert T == shift
        assert mis == np.max(np.abs(np.sin(2 * (base + shift)) - np.sin(2 * base))) / 2


def test_refined_l2_scan_samples_few_extra_grids(monkeypatch):
    # each profile's jets are evaluated once per batch of times, on the
    # 2N - 1 = 63 line coordinates of the 32^2 lattice: the scan's batches
    # cover its 64 times, and every Newton evaluation is one batch of the 5
    # probe times, the reference and at most 3 iterations; no call sees the
    # N^2 grid points
    e = build_case("breather")
    points = {}
    for profile in (e.spec.p, e.spec.q):
        cls = type(profile)

        def counting(self, x, t, order=3, jet3=cls.jet3, cls=cls):
            points[cls].append(np.broadcast(x, t).size)
            return jet3(self, x, t, order)

        points[cls] = []
        monkeypatch.setattr(cls, "jet3", counting)
    res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 64, "L2",
                          grid_n=32)
    assert abs(res.estimated_period - math.pi) <= 1e-8
    batch = max(1, ansatz._BATCH_POINTS // 32 ** 2)
    scan = -(-64 // batch)
    for sizes in points.values():
        assert sizes[:scan] == [min(batch, 64 - k * batch) * 63 for k in range(scan)]
        probes = sizes[scan:]
        assert 2 <= len(probes) <= 4 and set(probes) == {5 * 63}


def _l2_per_time(spec, window, times, grid_n, valid_mask=None):
    grids = (sample_field(spec, "U", window, t, grid_n, grid_n, valid_mask)
             for t in times)
    return np.array([np.sqrt(np.mean(g.valid_values() ** 2)) for g in grids])


@pytest.mark.parametrize("name", case_names())
@pytest.mark.parametrize("grid_n", [32, 48])
def test_batched_l2_series_matches_per_time_grids(name, grid_n):
    # 80 times cross a batch boundary at both resolutions
    e = build_case(name)
    window = regular_window(e)
    times = np.linspace(0.05, 3.0, 80)
    batched = _statistic(e.spec, window, times, "L2", grid_n, e.valid_mask)[0]
    ref = _l2_per_time(e.spec, window, times, grid_n, e.valid_mask)
    assert np.max(np.abs(batched - ref) / ref) <= 1e-14


def test_batched_l2_series_raises_where_a_time_is_singular():
    # q = e^eta sqrt(1 - t) is NaN for t > 1, so every sample at t = 2 is
    # invalid; the per-time grids and the batch raise alike, and a series
    # that stops short of t = 1 does not
    from dsfield import calculus as jc
    from dsfield.profiles import CustomProfile
    e = build_case("dromion")
    spec = SolutionSpec(e.spec.coeffs, e.spec.p,
                        CustomProfile(lambda x, t: jc.exp(x) * jc.sqrt(1.0 - t)))
    bad = np.array([0.0, 0.5, 2.0])

    def batched(spec, window, times, grid_n):
        return _statistic(spec, window, times, "L2", grid_n, None)[0]

    for series in (_l2_per_time, batched):
        with pytest.raises(SingularWindowError):
            series(spec, e.window, bad, 32)
        assert np.all(np.isfinite(series(spec, e.window, bad[:2], 32)))
    with pytest.raises(SingularWindowError):
        refined_global_max(spec, e.window, bad, 32, 32)


@pytest.mark.parametrize("statistic", ["L2", "global_max"])
def test_statistic_rate_raises_where_a_time_is_singular(statistic):
    # the rate path applies the singular-time rule of the series: on the
    # sqrt(1 - t) spec every sample at t = 2 is invalid
    from dsfield import calculus as jc
    from dsfield.profiles import CustomProfile
    e = build_case("dromion")
    spec = SolutionSpec(e.spec.coeffs, e.spec.p,
                        CustomProfile(lambda x, t: jc.exp(x) * jc.sqrt(1.0 - t)))
    with pytest.raises(SingularWindowError):
        _statistic(spec, e.window, np.array([0.0, 0.5, 2.0]), statistic, 32, None,
                   rate=True)
    s, ds = _statistic(spec, e.window, np.array([0.0, 0.5]), statistic, 32, None,
                       rate=True)
    assert np.all(np.isfinite(s)) and np.all(np.isfinite(ds))


@pytest.mark.parametrize("name", case_names())
@pytest.mark.parametrize("statistic", ["L2", "global_max"])
def test_statistic_rate_matches_central_difference(name, statistic):
    e = build_case(name)
    window = regular_window(e)
    times, h = np.array([0.3, 1.1, 2.5]), 1e-5
    s, ds = _statistic(e.spec, window, times, statistic, 40, e.valid_mask, rate=True)
    fd = (_statistic(e.spec, window, times + h, statistic, 40, e.valid_mask)[0]
          - _statistic(e.spec, window, times - h, statistic, 40,
                       e.valid_mask)[0]) / (2 * h)
    assert s == pytest.approx(
        _statistic(e.spec, window, times, statistic, 40, e.valid_mask)[0],
        rel=1e-14)
    assert np.all(np.abs(fd - ds) <= 1e-8 * (np.abs(ds) + s))


def test_breather_pointwise_periodicity():
    e = build_case("breather")
    a = sample_field(e.spec, "U", e.window, 0.4, 64, 64)
    b = sample_field(e.spec, "U", e.window, 0.4 + math.pi, 64, 64)
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
    ga = sample_field(e.spec, "U", e.window, 0.4 + math.pi, 96, 96,
                      valid_mask=e.valid_mask)
    gb = sample_field(e.spec, "U", e.window, 0.4, 96, 96,
                      valid_mask=e.valid_mask)
    assert point_reflection_defect(ga, gb) < 1e-12
    res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 32,
                          grid_n=32, valid_mask=e.valid_mask)
    assert res.best_candidate == pytest.approx(math.pi, abs=2 * math.pi / 32)
    assert res.estimated_period == pytest.approx(math.pi, abs=2 * math.pi / 32)


def test_decay_profile_deterministic():
    e = build_case("dromion")
    a = decay_profile(e.spec, e.window, (0.0,), grid_n=64)
    b = decay_profile(e.spec, e.window, (0.0,), grid_n=64)
    assert a.decay_series == b.decay_series
    with pytest.raises(ValueError):
        decay_profile(e.spec, e.window, ())


def test_refined_max_finds_hump_between_coarse_zeta_lines():
    # on [-12, 12]^2 at grid 32 the higher hump at zeta = -0.887 lies between
    # the zeta lines -1.095 and -0.547, across the pole at zeta = -1 from the
    # only 3x3 grid maximum (on the lower hump, which gave 4.83e-3 and
    # 2.42e-4); its flank on the zeta = -0.547 sublattice starts an ascent
    e = build_case("double_instanton")
    window = ((-12.0, 12.0), (-12.0, 12.0))
    times = (2.5, 4.0)
    coarse = decay_profile(e.spec, window, times, grid_n=32, valid_mask=e.valid_mask)
    fine = decay_profile(e.spec, window, times, grid_n=256, valid_mask=e.valid_mask)
    for (_, a), (_, b), expected in zip(coarse.decay_series, fine.decay_series,
                                        (1.459e-2, 8.09e-4)):
        assert a == pytest.approx(b, rel=1e-10)
        assert b == pytest.approx(expected, rel=1e-3)


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
    g = sample_field(e.spec, "U", e.window, 0.0, 16, 16)
    x, y, v = parse_csv(to_csv(g))
    assert v.shape == (256,)
    assert np.array_equal(v, g.values.ravel())
    assert np.array_equal(x, np.tile(g.x, 16))


def test_csv_round_trip_of_masked_grid():
    e = build_case("double_instanton")
    g = sample_field(e.spec, "U", e.window, 0.0, 48, 48, e.valid_mask)
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
    return sample_field(e.spec, "U", e.window, 3.0, 48, 48, e.valid_mask)


def _instanton_phi():
    e = build_case("double_instanton")
    return sample_field(e.spec, "phi", e.window, 3.0, 48, 48, e.valid_mask)


def _non_square():
    e = build_case("breather")
    return sample_field(e.spec, "U", e.window, 0.7, 23, 37)


def _one_valid_point():
    mask = np.zeros((3, 4), dtype=bool)
    mask[2, 1] = True
    return grid_of(np.full((3, 4), -1.0 / 3.0), mask, ((-1.5, 2.0), (0.1, 0.7)))


def _resonant_u():
    # values up to 1.6e9 over 69169 points: three batches, the last partial
    e = build_case("resonant")
    return sample_field(e.spec, "U", e.window, 0.5, 263, 263, e.valid_mask)


def _bilinear2_residual():
    # every value below 1e-15: each one takes the "%.17g" fallback
    e = build_case("dromion")
    return sample_field(e.spec, "bilinear2", e.window, 0.3, 48, 48, e.valid_mask)


def _breather_phi():
    e = build_case("breather")
    return sample_field(e.spec, "phi", e.window, e.reference_times[0], 48, 48,
                        e.valid_mask)


def _masked_rows():
    # row 1 partly masked, row 2 fully masked; values across every form of
    # %g, the kernel's range edges, +-0 and the fallback on both sides
    values = np.array([[1e-11, -9.999999999999999e-12, 1e15, -999999999999999.9],
                       [0.0, -0.0, 2.0 ** -25, 1.5e-5],
                       [1.0, 2.0, 3.0, 4.0],
                       [-1e300, 5e-324, 123456.789, 0.1]])
    mask = np.ones_like(values, dtype=bool)
    mask[1, [0, 2]] = False
    mask[2] = False
    return grid_of(values, mask, ((-2.5, 1e-7), (0.0, 3e15)))


@pytest.mark.parametrize("make", [_instanton_u, _instanton_phi, _non_square,
                                  _one_valid_point, _resonant_u,
                                  _bilinear2_residual, _breather_phi, _masked_rows])
def test_csv_matches_per_point_writer(make):
    g = make()
    assert g.mask.any()
    assert to_csv(g) == csv_reference(g)


def test_csv_fixtures_reach_every_path():
    # the cases above cover the kernel, the fallback and their batching
    u, b2, phi = _resonant_u(), _bilinear2_residual(), _breather_phi()
    assert u.valid_values().max() > 1e9 and u.mask.sum() % ansatz._BATCH_POINTS
    assert u.mask.sum() > 2 * ansatz._BATCH_POINTS
    assert np.abs(b2.valid_values()).max() < 1e-15
    assert phi.valid_values().min() < 0
    m = _masked_rows().mask
    assert not m[2].any() and 0 < m[1].sum() < m.shape[1]


def _kernel_bytes(v):
    out = np.zeros((v.size, 29), np.uint8)
    _write_g17(v, out)
    return out.tobytes().translate(None, b"\0")


def _printf_bytes(v):
    return ("%.17g\n" * v.size % tuple(v.tolist())).encode()


def test_g17_kernel_matches_printf():
    rng = np.random.default_rng(17)
    n = 1_000_000
    log_uniform = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-323.3, 308.25, n)
    ulps = np.arange(-40, 41)
    near_powers = np.concatenate([(np.float64(f"1e{k}").view(np.int64) + ulps)
                                  .view(np.float64) for k in range(-12, 18)])
    # odd c 2^-k with c 5^k of 18 digits ending in 5: ties at 17 digits
    ties = [2.0 ** -25]
    for k in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** k), min(10 ** 18 // 5 ** k, 2 ** 53)
        ties += [c * 2.0 ** -k for c in rng.integers(lo, hi, 200) | 1]
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300,
             -1e300, 1.7976931348623157e308, 1e-11, -1e-11, 1e15, -1e15]
    subnormals = rng.integers(1, 2 ** 52, 1000).view(np.float64)
    for v in (log_uniform, near_powers, np.array(ties), -np.array(ties),
              np.array(edges), subnormals):
        assert _kernel_bytes(v) == _printf_bytes(v)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_g17_kernel_matches_printf_on_any_float(values):
    v = np.array(values, dtype=float)
    assert _kernel_bytes(v) == _printf_bytes(v)


@pytest.mark.parametrize("res,dropped", [(48, 44), (128, 117)])
@pytest.mark.parametrize("t", [3.0, 6.0])
def test_instanton_phi_masks_only_what_valid_mask_drops(t, res, dropped):
    # beyond the profile pole at zeta = -1 phi stays finite: the phases
    # there never pick up a non-finite gap from the other side of the pole
    e = build_case("double_instanton")
    keep = window_grid(e.window, res, e.valid_mask).keep
    phi = sample_field(e.spec, "phi", e.window, t, res, res, e.valid_mask)
    assert np.count_nonzero(~keep) == dropped
    np.testing.assert_array_equal(phi.mask, keep)


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


def test_period_l2_statistic():
    e = build_case("breather")
    res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 32,
                          statistic="L2", grid_n=24)
    assert res.best_candidate == pytest.approx(math.pi, abs=2 * math.pi / 32)
    assert res.estimated_period == pytest.approx(math.pi, abs=2 * math.pi / 32)


def test_render_deterministic_bytes():
    e = build_case("dromion")
    outs = []
    for _ in range(2):
        g = sample_field(e.spec, "U", e.window, 0.0, 64, 64)
        outs.append((to_csv(g), to_pgm16(g)[0]))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
