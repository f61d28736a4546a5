import io
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dsfield import ansatz, field
from dsfield.ansatz import (
    SeparationCoefficients,
    SolutionSpec,
    _exact_sum,
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
    refined_global_max,
    sample_field,
    to_csv,
    to_pgm16,
    to_report,
)
from dsfield.profiles import ExpSumProfile
from dsfield.verify import _report

from conftest import (
    analysis_grid,
    csv_bytes,
    parse_csv,
    peak_at,
    pgm16,
    point_reflection_defect,
    profile_jets3,
    reflection_defect,
    regular_window,
    traced_peak,
)

# closed-form dromion peak: U = 2/(2+sqrt(2))^2 at x = -sqrt(2)(1+ln(2)/2)
DROMION_PEAK = 2.0 / (2.0 + math.sqrt(2.0)) ** 2
DROMION_PEAK_X = -math.sqrt(2.0) * (1.0 + 0.5 * math.log(2.0))
EPS = np.finfo(float).eps


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
    top, _, peaks = analyze_extrema(g)
    assert len(peaks) == 1
    assert top == pytest.approx(DROMION_PEAK, rel=1e-3)


@pytest.mark.parametrize("name", case_names())
def test_unequal_spacing_u_grid_is_pointwise_intensity(name):
    # x and y scaled apart, as a zoomed render window: no lattice, and every
    # valid sample is eval_intensity at rotate(X, Y) bit for bit
    e = build_case(name)
    window = ((-7.44, 7.44), (-7.76, 7.76))
    g = sample_field(e.spec, "U", window, 0.7, 40, 40)
    X, Y = np.meshgrid(g.x, g.y)
    u = eval_intensity(e.spec, *profile_jets3(e.spec, *rotate(X, Y), 0.7, (1, 0)))[0]
    np.testing.assert_array_equal(g.values[g.mask], u[g.mask])


def _one_block(monkeypatch):
    """Makes every row block span the whole grid."""
    monkeypatch.setattr(ansatz, "_ROW_BLOCK", 10 ** 9)


@pytest.mark.parametrize("name,window,mask", [
    ("dromion", None, False),                       # the line lattice
    ("dromion", ((-7.5, 7.5), (-7.0, 7.0)), False),  # off it
    ("double_instanton", None, True),               # masked, on the lattice
])
def test_row_blocks_match_the_whole_grid(name, window, mask, monkeypatch):
    # 150 columns: blocks of 54 rows, the last of 42; U, its mask, the PGM
    # and its sidecar are those of one block over the whole grid, bit for bit
    e = build_case(name)
    window, spec = window or e.window, e.spec if mask else replace(e.spec, valid_mask=None)
    assert ansatz.batches(150, 150, ansatz._ROW_BLOCK)[-1] == slice(108, 162)
    assert (window_grid(window, 150).zeta_lines.ndim == 2) == (window != e.window)
    blocked = sample_field(spec, "U", window, 0.4, 150, 150)
    pgm = pgm16(blocked)
    _one_block(monkeypatch)
    whole = sample_field(spec, "U", window, 0.4, 150, 150)
    assert whole.values.tobytes() == blocked.values.tobytes()
    np.testing.assert_array_equal(whole.mask, blocked.mask)
    assert mask == (not blocked.mask.all())
    assert pgm16(whole) == pgm


@pytest.mark.parametrize("name", ["dromion", "double_instanton"])
def test_line_fields_peak_as_u_does(name):
    # phi and bilinear2 read the ingredient bundle on the 1023 lines of a
    # 512^2 case window through row windows, so beside the 2.1 MB values
    # they take what U takes: a row block's temporaries, not N^2 jets; pde2
    # sums its stencils per row block, so it holds one block's 3 x 3 stencil
    # jets (about 15-17 MB), not the 18 (512, 512) stencil arrays (U + 51.6 MB)
    e = build_case(name)
    t = e.reference_times[0]
    peak = {}
    for which in ("U", "phi", "bilinear2", "pde2"):
        sample_field(e.spec, which, e.window, t, 64, 64)     # warm caches
        peak[which] = traced_peak(sample_field, e.spec, which, e.window, t, 512, 512)
    assert peak["phi"] <= peak["U"] + 4e6, peak
    assert peak["bilinear2"] <= peak["U"] + 4e6, peak
    assert peak["pde2"] <= peak["U"] + 20e6, peak


def test_breather_degenerate_grid_is_zero():
    e = build_case("breather")
    g = sample_field(e.spec, "U", e.window, math.pi / 2, 32, 32)
    assert np.max(np.abs(g.values[g.mask])) < 1e-30


def test_entirely_masked_window_raises():
    e = build_case("periodic")
    # window far outside the tan box: everything masked
    with pytest.raises(ValueError, match="entirely singular"):
        sample_field(e.spec, "U", ((5.0, 6.0), (5.0, 6.0)), 0.0, 16, 16)


def test_extrema_all_zero_grid():
    _, _, peaks = analyze_extrema(grid_of(np.zeros((8, 8))))
    assert peaks == ()


def test_extrema_plateau_counts_once():
    v = np.zeros((7, 7))
    v[3, 3] = v[3, 4] = 1.0          # two-cell plateau
    _, _, peaks = analyze_extrema(grid_of(v))
    assert len(peaks) == 1
    assert peaks[0].value == 1.0


def test_extrema_shoulder_is_not_a_peak():
    v = np.zeros((5, 9))
    v[2, 2] = v[2, 3] = 1.0
    v[2, 4] = 2.0                     # plateau rises into a higher point
    _, _, peaks = analyze_extrema(grid_of(v))
    assert len(peaks) == 1
    assert peaks[0].value == 2.0


def test_extrema_equal_peaks_in_raster_order():
    # equal peaks keep the raster order of each component's first pixel;
    # the U-shaped plateau is one component though its arms meet only at
    # the bottom row
    v = np.zeros((9, 11))
    v[1:6, 2] = v[5, 2:5] = v[1:6, 4] = 1.0
    v[1, 8] = 1.0
    v[7, 0] = 1.0
    g = grid_of(v, window=((0.0, 10.0), (0.0, 8.0)))
    _, _, peaks = analyze_extrema(g)
    assert [(p.x, p.y) for p in peaks] == [(2.0, 1.0), (8.0, 1.0), (0.0, 7.0)]


def _extrema_reference(grid):
    """The local maxima of :func:`analyze_extrema`, one component at a time:
    each 8-connected component of candidates is flood-filled from its first
    point in raster order, then its outer ring is read."""
    v = np.where(grid.mask, grid.values, -np.inf)
    ny, nx = v.shape

    def around(y, x):
        return [(y + dy, x + dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                if (dy or dx) and 0 <= y + dy < ny and 0 <= x + dx < nx]

    cand = {(y, x) for y in range(ny) for x in range(nx)
            if grid.mask[y, x] and all(v[y, x] >= v[n] for n in around(y, x))}
    seen, peaks = set(), []
    for start in sorted(cand):
        if start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            for n in around(*todo.pop()):
                if n in cand and n not in comp:
                    comp.add(n)
                    todo.append(n)
        seen |= comp
        ring = {n for p in comp for n in around(*p) if n not in comp and grid.mask[n]}
        if ring and all(v[n] < v[start] for n in ring):
            peaks.append(field.PeakInfo(float(v[start]), float(grid.x[start[1]]),
                                        float(grid.y[start[0]])))
    return tuple(sorted(peaks, key=lambda p: -p.value))


@st.composite
def plateau_grids(draw):
    """Masked grids of small integers: plateaus, shoulders and ties."""
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    values = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 3)))
    mask = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 4))) > 0
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    return grid_of(values, mask, window=((-1.0, 2.0), (0.0, 5.0)))


@settings(max_examples=300, deadline=None)
@given(plateau_grids())
def test_extrema_match_the_per_component_reference(g):
    top, at, peaks = analyze_extrema(g)
    assert peaks == _extrema_reference(g)
    v = np.where(g.mask, g.values, -np.inf)
    iy, ix = np.unravel_index(np.argmax(v), v.shape)
    assert (top, at) == (v.max(), (g.x[ix], g.y[iy]))


def test_extrema_memory_follows_the_candidates():
    # a 512^2 grid of doubles is 2.1 MB: the pass holds the padded masked
    # values and their neighbour maximum, then works on the candidates alone
    e = build_case("resonant")
    g = sample_field(e.spec, "U", e.window, 1.1, 512, 512)
    assert traced_peak(analyze_extrema, g) <= 10e6
    # a constant field is one plateau of 512^2 candidates, with eight int32
    # neighbour indices each
    assert traced_peak(analyze_extrema, grid_of(np.zeros((512, 512)))) <= 30e6


def test_extrema_instanton_double_peak():
    e = build_case("double_instanton")
    g = sample_field(e.spec, "U", e.window, 0.0, 256, 256)
    _, _, peaks = analyze_extrema(g)
    assert len(peaks) == 2


def test_refined_max_matches_closed_form():
    e = build_case("dromion")
    mx, (x, y) = peak_at(e.spec, e.window, 0.0, 128)
    assert mx == pytest.approx(DROMION_PEAK, rel=1e-14)
    assert x == pytest.approx(DROMION_PEAK_X, abs=1e-10)
    assert abs(y) < 1e-10


def test_refined_max_stable_under_grid_doubling():
    e = build_case("dromion")
    a, _ = peak_at(e.spec, e.window, 0.0, 96)
    b, _ = peak_at(e.spec, e.window, 0.0, 192)
    assert abs(a - b) / b < 1e-12


def test_refined_max_reaches_edge_maximum():
    # the solitoff maximum at t = 0.1 lies on the window edge y = -8, where
    # the 48^2 grid gives 1.9506 and an unprojected ascent stays there
    e = build_case("solitoff")
    mx, (x, y) = peak_at(e.spec, e.window, 0.1, 48)
    def edge_max(xs):
        zeta, eta = rotate(xs, np.full_like(xs, -8.0))
        u = eval_intensity(e.spec, *profile_jets3(e.spec, zeta, eta, 0.1, (1, 0)))[0]
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
    mx, (x, y) = peak_at(e.spec, window, 0.3, 56)
    fine, _ = peak_at(e.spec, window, 0.3, 128)
    assert rotate(x, y)[0] < -1.0
    assert mx == pytest.approx(fine, rel=1e-12)


def test_refined_max_batch_matches_scalar_calls():
    e = build_case("breather")
    times = np.linspace(0.1, 3.0, 8)
    values, (xs, ys) = refined_global_max(e.spec, analysis_grid(e.spec, e.window, 32), times)
    assert values.shape == xs.shape == ys.shape == (8,)
    for t, v, x, y in zip(times, values, xs, ys):
        mx, (px, py) = peak_at(e.spec, e.window, float(t), 32)
        assert v == pytest.approx(mx, rel=1e-15)
        assert (x, y) == pytest.approx((px, py), rel=1e-15)


def counted(monkeypatch, name):
    """A list that grows by one at each call of ``field.<name>``."""
    calls, real = [], getattr(field, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(field, name, counting)
    return calls


def test_peak_ascents_stop_at_convergence(monkeypatch):
    # a start stops once its full Newton step predicts a log-U gain of at
    # most _ASCENT_PRED_FLOOR, after taking that step, and at once where its
    # gradient times one grid step is that flat (the breather at pi/2 and
    # 3 pi/2, where U does not depend on zeta): the ascents over all 32 scan
    # times evaluate log U at most 4 times and the decay's at most 22 times,
    # and reach their peaks to rounding
    evaluations = counted(monkeypatch, "_log_intensity_jets")
    e = build_case("breather")
    peaks, _ = refined_global_max(e.spec, analysis_grid(e.spec, e.window, 32),
                                  np.linspace(0.0, 2 * math.pi, 32, endpoint=False))
    assert len(evaluations) <= 4
    assert float(np.sum(peaks)) == pytest.approx(1.6154725601664874, rel=4 * EPS)
    evaluations.clear()
    e = build_case("double_instanton")
    window = ((-7.6204, 7.6204), (-7.3131, 7.3131))
    series = decay_profile(e.spec, analysis_grid(e.spec, window, 96),
                           (0.844427, 2.968861, 4.274598))
    assert len(evaluations) <= 22
    assert [v for _, v in series] == pytest.approx(
        [0.1980025479094476, 0.006025202423572073, 0.00045493148627143626], rel=16 * EPS)


@pytest.mark.parametrize("statistic, grid_n", [("L2", 48), ("global_max", 32)])
def test_period_solve_stops_when_its_step_is_rounding(monkeypatch, statistic, grid_n):
    # the Gauss-Newton update after the first step moves T by less than
    # 4 eps T, so the solve ends without evaluating S there: S is evaluated
    # for the scan and for one solve step
    calls = counted(monkeypatch, "_statistic")
    e = build_case("breather")
    res = estimate_period(e.spec, analysis_grid(e.spec, e.window, grid_n), (0.0, 2 * math.pi),
                          32, statistic)
    assert len(calls) <= 2
    assert abs(res.estimated_period - math.pi) <= 4.4e-16 and res.period_mismatch <= 2e-15


def test_dromion_reflection_symmetry():
    e = build_case("dromion")
    g = sample_field(e.spec, "U", e.window, 0.0, 128, 128)
    assert reflection_defect(g) < 1e-12


def test_breather_period_scan():
    e = build_case("breather")
    res = estimate_period(e.spec, analysis_grid(e.spec, e.window, 32), (0.0, 2 * math.pi), 64,
                          "global_max")
    assert res.best_candidate == pytest.approx(math.pi, abs=2 * math.pi / 64)
    assert res.estimated_period == pytest.approx(math.pi, abs=2 * math.pi / 64)
    assert res.period_resolution == pytest.approx(2 * math.pi / 64)


def test_breather_period_refinement_beats_scan_step():
    e = build_case("breather")
    res = estimate_period(e.spec, analysis_grid(e.spec, e.window, 24), (0.0, 2 * math.pi), 32,
                          "global_max")
    assert abs(res.estimated_period - math.pi) <= 1e-8
    assert abs(res.best_candidate - math.pi) <= res.period_resolution


def test_periodic_period_refinement_with_global_max():
    e = build_case("periodic")
    res = estimate_period(e.spec, analysis_grid(e.spec, e.window, 32), (0.0, 2 * math.pi), 32,
                          "global_max")
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
    res = estimate_period(e.spec, analysis_grid(e.spec, e.window, grid_n),
                          (t0, t0 + 2 * math.pi), n_t, statistic)
    assert abs(res.estimated_period - math.pi) <= 1e-8
    assert abs(res.best_candidate - math.pi) <= res.period_resolution
    assert res.period_mismatch <= 1e-13


@pytest.mark.parametrize("statistic", ["L2", "global_max"])
def test_period_solve_converges_from_a_loose_tie(statistic, monkeypatch):
    # a range 0.1% longer than 2 pi puts the scan shift 3.1e-3 past pi; a
    # loose tie tolerance accepts it and the solve must close the gap
    e = build_case("breather")
    monkeypatch.setattr(field, "_TIE_TOL", 0.05)
    res = estimate_period(e.spec, analysis_grid(e.spec, e.window, 32),
                          (0.3, 0.3 + 2.002 * math.pi), 32, statistic)
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
    def synthetic(spec, grid, times, statistic, rate=False):
        return np.sin(2 * times), rate_factor * 2 * np.cos(2 * times)

    # a scan of 64 times at the step dt whose 32nd shift is pi + 1e-3; the
    # probes are the scan times at 0, 7, 14, 22 and 29 steps
    monkeypatch.setattr("dsfield.field._statistic", synthetic)
    dt = (math.pi + 1e-3) / 32
    times = np.arange(64) * dt
    series = np.sin(2 * times)
    shift, pick = 32 * dt, [0, 7, 14, 22, 29]
    T, mis = _refine_period(None, None, "L2", times, series, 32, dt, 2.0)
    if rate_factor == 1.0:
        assert abs(T - math.pi) <= 1e-15 and mis <= 1e-15
    else:
        assert T == shift
        assert mis == np.max(np.abs(np.sin(2 * (times[pick] + shift)) - series[pick])) / 2


@pytest.mark.parametrize("statistic", ["L2", "global_max"])
def test_period_solve_reads_its_references_from_the_scan(monkeypatch, statistic):
    # after the scan, S is evaluated only at b_i + T, one shift T per call,
    # with every b_i a scan time: S(b_i) itself is read from the scan series
    calls = []

    def recording(spec, grid, times, *args, real=_statistic, **kwargs):
        calls.append(np.array(times))
        return real(spec, grid, times, *args, **kwargs)

    monkeypatch.setattr("dsfield.field._statistic", recording)
    e = build_case("breather")
    res = estimate_period(e.spec, analysis_grid(e.spec, e.window, 24),
                          (0.3, 0.3 + 2 * math.pi), 32, statistic)
    assert abs(res.estimated_period - math.pi) <= 1e-12
    scan, steps = calls[0], calls[1:]
    assert 1 <= len(steps) <= 6
    for times in steps:
        base = times - (times[0] - scan[0])
        k = np.rint((base - scan[0]) / res.period_resolution).astype(int)
        assert 1 <= times.size <= 5 and np.all(np.diff(k) > 0) and k[-1] < scan.size
        assert np.max(np.abs(base - scan[k])) <= 1e-14


def test_refined_l2_scan_samples_few_extra_grids(monkeypatch):
    # each profile's jets are evaluated once per batch of times, on the
    # 2N - 1 = 63 line coordinates of the 32^2 lattice: the scan's batches
    # cover its 64 times, and every Newton evaluation is one batch of the 5
    # probe times, at most 3 iterations (S at the probe times themselves
    # comes from the scan); no call sees the N^2 grid points
    e = build_case("breather")
    points = {e.spec.p.family: [], e.spec.q.family: []}
    for cls in {type(e.spec.p), type(e.spec.q)}:

        def counting(self, x, t, order=3, jet3=cls.jet3):
            points[self.family].append(np.broadcast(x, t).size)
            return jet3(self, x, t, order)

        monkeypatch.setattr(cls, "jet3", counting)
    res = estimate_period(e.spec, analysis_grid(e.spec, e.window, 32), (0.0, 2 * math.pi), 64,
                          "L2")
    assert abs(res.estimated_period - math.pi) <= 1e-8
    batch = max(1, ansatz._BATCH_POINTS // 32 ** 2)
    scan = -(-64 // batch)
    for sizes in points.values():
        assert sizes[:scan] == [min(batch, 64 - k * batch) * 63 for k in range(scan)]
        probes = sizes[scan:]
        assert 1 <= len(probes) <= 3 and set(probes) == {5 * 63}


def _l2_per_time(spec, window, times, grid_n):
    grids = (sample_field(spec, "U", window, t, grid_n, grid_n)
             for t in times)
    return np.array([np.sqrt(np.mean(g.values[g.mask] ** 2)) for g in grids])


@pytest.mark.parametrize("name", case_names())
@pytest.mark.parametrize("grid_n", [32, 48])
def test_batched_l2_series_matches_per_time_grids(name, grid_n):
    # 80 times cross a batch boundary at both resolutions
    e = build_case(name)
    window = regular_window(e)
    times = np.linspace(0.05, 3.0, 80)
    batched = _statistic(e.spec, analysis_grid(e.spec, window, grid_n), times, "L2")[0]
    ref = _l2_per_time(e.spec, window, times, grid_n)
    assert np.max(np.abs(batched - ref) / ref) <= 1e-14


def test_batched_l2_series_raises_where_a_time_is_singular():
    # q = e^eta sqrt(1 - t) is NaN for t > 1, so every sample at t = 2 is
    # invalid; the per-time grids and the batch raise alike, and a series
    # that stops short of t = 1 does not
    from dsfield import calculus as jc
    from dsfield.profiles import CustomProfile
    e = build_case("dromion")
    spec = SolutionSpec(e.spec.coeffs, e.spec.p,
                        CustomProfile(lambda x, t: jc.exp(x) * jc.sqrt(1.0 - t),
                                      lambda lo, hi, t: 0))
    bad = np.array([0.0, 0.5, 2.0])

    def batched(spec, window, times, grid_n):
        return _statistic(spec, analysis_grid(spec, window, grid_n), times, "L2")[0]

    for series in (_l2_per_time, batched):
        with pytest.raises(SingularWindowError):
            series(spec, e.window, bad, 32)
        assert np.all(np.isfinite(series(spec, e.window, bad[:2], 32)))
    with pytest.raises(SingularWindowError):
        refined_global_max(spec, analysis_grid(spec, e.window, 32), bad)


@pytest.mark.parametrize("statistic", ["L2", "global_max"])
def test_statistic_rate_raises_where_a_time_is_singular(statistic):
    # the rate path applies the singular-time rule of the series: on the
    # sqrt(1 - t) spec every sample at t = 2 is invalid
    from dsfield import calculus as jc
    from dsfield.profiles import CustomProfile
    e = build_case("dromion")
    spec = SolutionSpec(e.spec.coeffs, e.spec.p,
                        CustomProfile(lambda x, t: jc.exp(x) * jc.sqrt(1.0 - t),
                                      lambda lo, hi, t: 0))
    grid = analysis_grid(spec, e.window, 32)
    with pytest.raises(SingularWindowError):
        _statistic(spec, grid, np.array([0.0, 0.5, 2.0]), statistic, rate=True)
    s, ds = _statistic(spec, grid, np.array([0.0, 0.5]), statistic, rate=True)
    assert np.all(np.isfinite(s)) and np.all(np.isfinite(ds))


@pytest.mark.parametrize("name", case_names())
@pytest.mark.parametrize("statistic", ["L2", "global_max"])
def test_statistic_rate_matches_central_difference(name, statistic):
    e = build_case(name)
    grid = analysis_grid(e.spec, regular_window(e), 40)
    times, h = np.array([0.3, 1.1, 2.5]), 1e-5
    s, ds = _statistic(e.spec, grid, times, statistic, rate=True)
    fd = (_statistic(e.spec, grid, times + h, statistic)[0]
          - _statistic(e.spec, grid, times - h, statistic)[0]) / (2 * h)
    assert s == pytest.approx(
        _statistic(e.spec, grid, times, statistic)[0],
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
    res = estimate_period(spec, analysis_grid(spec, ((-6, 6), (-6, 6)), 24), (0.0, 4.0), 16,
                          "global_max")
    assert res.estimated_period is None
    assert res.best_candidate is None


def test_periodic_case_symmetry_and_period():
    e = build_case("periodic")
    ga = sample_field(e.spec, "U", e.window, 0.4 + math.pi, 96, 96)
    gb = sample_field(e.spec, "U", e.window, 0.4, 96, 96)
    assert point_reflection_defect(ga, gb) < 1e-12
    res = estimate_period(e.spec, analysis_grid(e.spec, e.window, 32), (0.0, 2 * math.pi), 32,
                          "global_max")
    assert res.best_candidate == pytest.approx(math.pi, abs=2 * math.pi / 32)
    assert res.estimated_period == pytest.approx(math.pi, abs=2 * math.pi / 32)


def test_decay_profile_deterministic():
    e = build_case("dromion")
    a = decay_profile(e.spec, analysis_grid(e.spec, e.window, 64), (0.0,))
    b = decay_profile(e.spec, analysis_grid(e.spec, e.window, 64), (0.0,))
    assert a == b
    with pytest.raises(ValueError):
        decay_profile(e.spec, analysis_grid(e.spec, e.window, 64), ())


def test_refined_max_finds_hump_between_coarse_zeta_lines():
    # on [-12, 12]^2 at grid 32 the higher hump at zeta = -0.887 lies between
    # the zeta lines -1.095 and -0.547, across the pole at zeta = -1 from the
    # only 3x3 grid maximum (on the lower hump, which gave 4.83e-3 and
    # 2.42e-4); its flank on the zeta = -0.547 sublattice starts an ascent
    e = build_case("double_instanton")
    window = ((-12.0, 12.0), (-12.0, 12.0))
    times = (2.5, 4.0)
    coarse = decay_profile(e.spec, analysis_grid(e.spec, window, 32), times)
    fine = decay_profile(e.spec, analysis_grid(e.spec, window, 256), times)
    for (_, a), (_, b), expected in zip(coarse, fine, (1.459e-2, 8.09e-4)):
        assert a == pytest.approx(b, rel=1e-10)
        assert b == pytest.approx(expected, rel=1e-3)


def test_instanton_decay_series():
    e = build_case("double_instanton")
    series = decay_profile(e.spec, analysis_grid(e.spec, ((-12, 12), (-12, 12)), 256),
                           (0.0, 3.0, 6.0))
    (t0, m0), (t1, m1), (t2, m2) = series
    # regression values pinned from a 384^2 oracle run
    assert m0 == pytest.approx(0.5956, rel=2e-2)
    assert m1 == pytest.approx(5.676e-3, rel=2e-2)
    assert m2 == pytest.approx(1.519e-5, rel=2e-2)


# -- export ---------------------------------------------------------------------


def test_pgm_export_streams_into_its_file(tmp_path):
    # the image goes into the file one block of rows at a time: exporting
    # a 512^2 grid allocates less than the 2 N^2 bytes of its image (about
    # 0.4 MB; 1.6 MB with the whole image built, copied and concatenated)
    e = build_case("dromion")
    g = sample_field(e.spec, "U", e.window, 0.3, 512, 512)
    path = tmp_path / "u.pgm"
    with open(path, "wb") as fh:
        assert traced_peak(to_pgm16, g, fh) < 2 * 512 * 512
    assert path.read_bytes() == pgm16(g)[0]
    assert len(path.read_bytes()) == len(b"P5\n512 512\n65535\n") + 2 * 512 * 512


def test_pgm_linear_scaling_example():
    g = grid_of([[0.0, 1.0], [2.0, 3.0]])
    data, sidecar = pgm16(g)
    header, _, rest = data.partition(b"65535\n")
    pixels = np.frombuffer(rest, dtype=">u2")
    assert pixels.tolist() == [0, 21845, 43690, 65535]
    assert "scale_max: 3" in sidecar


def test_pgm_zero_range_grid():
    g = grid_of(np.zeros((3, 3)))
    data, _ = pgm16(g)
    pixels = np.frombuffer(data.rpartition(b"65535\n")[2], dtype=">u2")
    assert not pixels.any()


def test_pgm_masks_to_zero():
    mask = np.ones((2, 2), dtype=bool)
    mask[0, 0] = False
    g = grid_of([[5.0, 1.0], [2.0, 4.0]], mask)
    data, _ = pgm16(g)
    pixels = np.frombuffer(data.rpartition(b"65535\n")[2], dtype=">u2")
    assert pixels[0] == 0


def test_csv_round_trip_is_bit_exact():
    e = build_case("dromion")
    g = sample_field(e.spec, "U", e.window, 0.0, 16, 16)
    x, y, v = parse_csv(csv_bytes(g))
    assert v.shape == (256,)
    assert np.array_equal(v, g.values.ravel())
    assert np.array_equal(x, np.tile(g.x, 16))


def test_csv_round_trip_of_masked_grid():
    e = build_case("double_instanton")
    g = sample_field(e.spec, "U", e.window, 0.0, 48, 48)
    assert 0 < np.count_nonzero(g.mask) < g.mask.size
    iy, ix = np.nonzero(g.mask)
    x, y, v = parse_csv(csv_bytes(g))
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
    return sample_field(e.spec, "U", e.window, 3.0, 48, 48)


def _instanton_phi():
    e = build_case("double_instanton")
    return sample_field(e.spec, "phi", e.window, 3.0, 48, 48)


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
    return sample_field(e.spec, "U", e.window, 0.5, 263, 263)


def _bilinear2_residual():
    # every value below 1e-15: each one takes the "%.17g" fallback
    e = build_case("dromion")
    return sample_field(e.spec, "bilinear2", e.window, 0.3, 48, 48)


def _breather_phi():
    e = build_case("breather")
    return sample_field(e.spec, "phi", e.window, e.reference_times[0], 48, 48)


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


def _in_range(n, seed):
    # n values of either sign in the kernel's range, 1e-11 <= |v| < 1e15
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-11.0, 14.99, n)


def _one_full_batch():
    # exactly one batch, every value in range: no row falls back
    return grid_of(_in_range(ansatz._BATCH_POINTS, 20).reshape(128, -1))


def _batch_seams():
    # fallback values on both sides of the first seam; 1e15, whose first X is
    # one too low and is redone as X = 15, on both sides of the second; two
    # masked points before them, as seams count valid points
    n = ansatz._BATCH_POINTS
    valid = _in_range(2 * n + 254, 21)
    valid[[n - 1, n, 2 * n - 1, 2 * n]] = [0.0, -1e300, 1e15, -1e15]
    values = np.insert(valid, [5, n + 7], np.nan).reshape(-1, 128)
    return grid_of(values, np.isfinite(values))


def _row_block_seams():
    # 300 columns, blocks of 27 rows, 120 rows: five blocks, the last of 12;
    # masked points across the first seam, +-0 and 1e-300 on both sides of
    # the second, and the fourth block masked whole
    step = ansatz._ROW_BLOCK // 300
    values = _in_range(120 * 300, 22).reshape(120, 300)
    values[2 * step - 1, -2:] = [0.0, 1e-300]
    values[2 * step, :2] = [-0.0, -1e-300]
    mask = np.ones_like(values, dtype=bool)
    mask[step - 1, 250:] = mask[step, :40] = False
    mask[3 * step:4 * step] = False
    return grid_of(values, mask, ((-3.0, 4.0), (-1e-3, 2e16)))


def _falls_back(v):
    return v == 0 or not 1e-11 <= abs(v) < 1e15


@pytest.mark.parametrize("make", [_instanton_u, _instanton_phi, _non_square,
                                  _one_valid_point, _resonant_u,
                                  _bilinear2_residual, _breather_phi, _masked_rows,
                                  _one_full_batch, _batch_seams, _row_block_seams])
def test_csv_matches_per_point_writer(make):
    g = make()
    assert g.mask.any()
    assert csv_bytes(g) == csv_reference(g)


def test_csv_memory_follows_the_grid_not_the_text():
    # 512^2 values in the kernel's range are about 18 MB of CSV text; the
    # export writes it block by block and allocates a few block buffers
    class Discard:
        def write(self, data):
            pass

    g = grid_of(_in_range(512 * 512, 23).reshape(512, 512))
    assert traced_peak(to_csv, g, Discard()) < 8e6


def test_report_makes_no_float_copy_of_the_grid():
    # a 512^2 grid of doubles is 2.1 MB; finding max_at takes one boolean
    # mask of the grid (0.26 MB) and the exact mean one block at a time
    e = build_case("dromion")
    g = sample_field(e.spec, "U", e.window, 0.4, 512, 512)
    assert traced_peak(to_report, g) <= 0.5e6


def test_csv_fixtures_reach_every_path():
    # the cases above cover the kernel, the fallback and their batching
    u, b2, phi = _resonant_u(), _bilinear2_residual(), _breather_phi()
    assert u.values[u.mask].max() > 1e9 and u.mask.sum() % ansatz._BATCH_POINTS
    assert u.mask.sum() > 2 * ansatz._BATCH_POINTS
    assert np.abs(b2.values[b2.mask]).max() < 1e-15
    assert phi.values[phi.mask].min() < 0
    m = _masked_rows().mask
    assert not m[2].any() and 0 < m[1].sum() < m.shape[1]
    n = ansatz._BATCH_POINTS
    full = _one_full_batch()
    full = full.values[full.mask]
    assert full.size == n and not any(map(_falls_back, full.tolist()))
    seams = _batch_seams()
    seams = seams.values[seams.mask]
    assert seams.size > 2 * n and ansatz.batches(seams.size, 1)[1] == slice(n, 2 * n)
    assert [_falls_back(v) for v in seams[n - 2:n + 2].tolist()] == [False, True, True, False]
    assert abs(seams[2 * n - 1]) == abs(seams[2 * n]) == 1e15
    assert math.floor(math.log10(1e15) - 1e-12) == 14      # the kernel's first X
    rows = _row_block_seams()
    step = ansatz._ROW_BLOCK // rows.nx
    blocks = ansatz.batches(rows.ny, rows.nx, ansatz._ROW_BLOCK)
    assert len(blocks) == 5 and blocks[-1] == slice(4 * step, 5 * step) and rows.ny % step
    assert not rows.mask[step - 1, -1] and not rows.mask[step, 0]
    assert not rows.mask[blocks[3]].any() and rows.mask[blocks[4]].all()
    seam = rows.values[2 * step - 1:2 * step + 1].ravel()[rows.nx - 2:rows.nx + 2]
    assert all(map(_falls_back, seam.tolist()))


def _nonfinite_residual():
    # a residual with NaN and +-inf outside the count, where it is not
    # finite, and its max twice, the first after an inf in raster order
    values = np.abs(_in_range(40 * 50, 24)).reshape(40, 50)
    values[[7, 30], [3, 41]] = 2.0 * values.max()
    values[[2, 5, 20], [10, 1, 0]] = [np.nan, np.inf, -np.inf]
    return grid_of(values, np.isfinite(values), ((-1.0, 2.0), (0.5, 3.0)), 0.25)


@pytest.mark.parametrize("make", [_masked_rows, _breather_phi, _resonant_u,
                                  _nonfinite_residual])
def test_report_mean_is_the_exact_sum_over_the_count(make):
    # the render reports count the mask and verify's the finite samples
    # inside keep; both reduce through ansatz.masked_stats
    g = make()
    valid = g.values[g.mask]
    mean = f"mean: {math.fsum(valid.tolist()) / valid.size:.17g}"
    assert mean in to_report(g).splitlines()
    assert mean in pgm16(g)[1].splitlines()
    if make is _nonfinite_residual:
        X, Y = np.meshgrid(g.x, g.y)
        rep = _report("r", g.values, SimpleNamespace(X=X, Y=Y, keep=np.ones_like(g.mask)), g.t)
        assert rep.mean_abs.hex() == (math.fsum(valid.tolist()) / valid.size).hex()
        assert (rep.samples, rep.dropped) == (valid.size, 3)
        assert rep.worst_point == (X[7, 3], Y[7, 3], g.t)


def _sum_outcome(fn):
    try:
        return fn().hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=60),
       st.integers(1, 4))
@example([0.0, -0.0, -0.0], 2)
@example([5e-324, -5e-324, 2.2250738585072014e-308, 1e-320], 3)
@example([2.0 ** 300, -2.0 ** -300, 1.0, -(2.0 ** 300)], 2)
@example([1.7976931348623157e308, 1.7976931348623157e308, -1.7976931348623157e308], 1)
@example([8.98846567431158e307, 1.0, -8.98846567431158e307], 2)
def test_exact_sum_is_fsum_over_the_double_range(values, parts):
    # +-0, subnormals, every magnitude; near overflow sigma is not finite and
    # fsum reads the values, which it may refuse (intermediate overflow)
    a = np.array(values)
    blocks = (b.copy() for b in np.array_split(a, parts))
    assert _sum_outcome(lambda: _exact_sum(blocks, float(np.max(np.abs(a))), a.size)) == \
        _sum_outcome(lambda: math.fsum(values))


def test_exact_sum_is_fsum_on_full_mantissas():
    # random 53-bit mantissas over +-2^300, half of them cancelled by their
    # negatives: every level carries bits that a sum rounded anywhere loses
    rng = np.random.default_rng(20)
    for _ in range(300):
        n = int(rng.integers(1, 1000))
        a = rng.uniform(-1.0, 1.0, n) * np.exp2(rng.integers(-300, 300, n).astype(float))
        a = rng.permutation(np.concatenate([a, -a[:n // 2]]))
        n = a.size
        blocks = (b.copy() for b in np.array_split(a, int(rng.integers(1, 6))))
        assert _exact_sum(blocks, float(np.max(np.abs(a))), n) == math.fsum(a.tolist())


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
    phi = sample_field(e.spec, "phi", e.window, t, res, res)
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
    res = estimate_period(e.spec, analysis_grid(e.spec, e.window, 24), (0.0, 2 * math.pi), 32,
                          statistic="L2")
    assert res.best_candidate == pytest.approx(math.pi, abs=2 * math.pi / 32)
    assert res.estimated_period == pytest.approx(math.pi, abs=2 * math.pi / 32)


def test_render_deterministic_bytes():
    e = build_case("dromion")
    outs = []
    for _ in range(2):
        g = sample_field(e.spec, "U", e.window, 0.0, 64, 64)
        outs.append((csv_bytes(g), pgm16(g)[0]))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
