import math
from dataclasses import replace

import numpy as np
import pytest

from dsfield import ansatz
from dsfield.ansatz import (
    PHI_READS,
    SQRT2,
    SeparationCoefficients,
    SolutionSpec,
    check_admissibility,
    eval_f,
    eval_intensity,
    eval_phi,
    grid_intensity,
    pole_counts,
    rotate,
    window_grid,
)
from dsfield.auxiliary import Auxiliaries, Ingredients
from dsfield.calculus import DIV_GUARD, Jet, layout
from dsfield.catalog import build_case, case_names
from dsfield.profiles import ExpSumProfile

from conftest import profile_jets3, random_spec, regular_window, traced_peak

E = math.e
DROMION_F0 = 1.0 + 2 * E + 2 * E * E


def unrotate(zeta, eta):
    """Inverse of :func:`~dsfield.ansatz.rotate`."""
    return (zeta + eta) / SQRT2, (eta - zeta) / SQRT2


@pytest.fixture
def dromion():
    return build_case("dromion").spec


def envelope(spec, zeta, eta, t, phase_r, phase_s):
    """u = p1 q1 exp(i (r + s)) / f from the amplitude factors, as the
    envelope checks assemble it, with caller-supplied phases."""
    aux = Auxiliaries(spec)
    pj, qj = profile_jets3(spec, zeta, eta, t)
    amp = aux.p1_jet(pj, t).value * aux.q1_jet(qj, t).value
    return amp * np.exp(1j * (phase_r + phase_s)) / eval_f(spec, pj, qj).value


def phi_log_form(spec, zeta, eta, t, p0, q0, tau=None):
    """The forcing field through second derivatives of log f (the oracle of
    eval_phi's two-form test)."""
    if tau is None:
        tau = eval_f(spec, *profile_jets3(spec, zeta, eta, t))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        f = np.where(np.abs(tau.value) < DIV_GUARD, np.nan, tau.value)
        f_z, f_e, f_zz, f_ze, f_ee = (tau[m] for m in ((1, 0, 0), (0, 1, 0), (2, 0, 0),
                                                       (1, 1, 0), (0, 2, 0)))
        lzz = f_zz / f - (f_z / f) ** 2
        lze = f_ze / f - (f_z / f) * (f_e / f)
        lee = f_ee / f - (f_e / f) ** 2
        return lzz + 2.0 * lze + lee + p0 + q0


def test_coefficients_cache_det():
    c = SeparationCoefficients(1, 1, 1, 2)
    assert c.det == 1.0
    with pytest.raises(ValueError):
        SeparationCoefficients(math.nan, 0, 0, 0)


def test_spec_validates_signs(dromion):
    with pytest.raises(ValueError):
        SolutionSpec(dromion.coeffs, dromion.p, dromion.q, delta1=2)


def test_rotation_is_isometry(rng):
    x, y = rng.uniform(-5, 5, 100), rng.uniform(-5, 5, 100)
    zeta, eta = rotate(x, y)
    assert np.allclose(zeta**2 + eta**2, x**2 + y**2, rtol=1e-14)
    xb, yb = unrotate(zeta, eta)
    assert np.max(np.abs(xb - x)) < 1e-15 * 5
    assert np.max(np.abs(yb - y)) < 1e-15 * 5


def test_rotation_example_point():
    zeta, eta = rotate(1.0, 1.0)
    assert zeta == 0.0
    assert eta == pytest.approx(math.sqrt(2.0), rel=1e-15)


# values at and around the division guard, and the non-finite ones, NaN of
# either sign among them
SPECIAL = np.array([0.0, -0.0, 1e-300, 9.9e-13, -1.01e-12, 2.5e-12, -3.0, 1.0, 1e200,
                    np.inf, -np.inf, np.nan, -np.nan, np.inf - np.inf])


def _same_output(got, want):
    """Equal NaN positions and bit-equal numbers elsewhere: the NaN payloads
    are not outputs, since every writer and report skips or names NaN."""
    got, want = np.broadcast_arrays(got, want)
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes())


def test_intensity_and_phi_keep_their_outputs_under_the_shared_guard():
    # eval_intensity and eval_phi used to spell the guard out as
    # NaN where ~(|f| >= DIV_GUARD (1 + |num|)), which also catches a NaN f or
    # numerator; calculus.guarded reads |f| < DIV_GUARD (1 + |num|), which
    # passes NaN through, so the quotient is NaN at the same points
    spec = SolutionSpec(SeparationCoefficients(2.0, 1.0, 2.0, 2.0),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (0.0,)),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (0.0,)))
    a, n = spec.coeffs, SPECIAL.size
    rng = np.random.default_rng(3)
    box = layout(2, (1, 1))
    pj = Jet((rng.uniform(1, 2, (n, 1, 1)), SPECIAL[:, None, None], rng.uniform(-1, 1),
              rng.uniform(-1, 1)), box)
    qj = Jet((rng.uniform(1, 2), SPECIAL[None, :, None], rng.uniform(-1, 1),
              rng.uniform(-1, 1)), box)
    f = SPECIAL[None, None, :]
    with np.errstate(all="ignore"):
        num = 4.0 * a.det * pj[1, 0] * qj[1, 0]
        fsafe = np.where(~(np.abs(f) >= DIV_GUARD * (1.0 + np.abs(num))), np.nan, f)
        u = num / (fsafe * fsafe)
        f_t = a.a1 * pj[0, 1] + a.a2 * qj[0, 1] + a.a3 * (pj[0, 1] * qj.value
                                                            + pj.value * qj[0, 1])
        u_t = (4.0 * a.det * (pj[1, 1] * qj[1, 0] + pj[1, 0] * qj[1, 1]) / (f * f)
               - 2.0 * u * f_t / f)
        got_u, got_ut = eval_intensity(spec, pj, qj, True, f)
    assert np.isnan(u).any() and np.isfinite(u).any()
    assert _same_output(got_u, u) and _same_output(got_ut, u_t)

    s = SPECIAL
    entries = [s[:, None, None], s[None, :, None], 0.5, 0.0, s[None, None, :], 0.25,
               0.0, -1.5, 0.0, 0.0]                 # f, f_z, f_e, .., f_zz, f_ze, .., f_ee
    tau = Jet(entries, layout(3, 2))
    with np.errstate(all="ignore"):
        grad, lap = entries[1] + entries[2], entries[4] + 2.0 * entries[5] + entries[7]
        f = entries[0]
        fsafe = np.where(~(np.abs(f) >= DIV_GUARD * (1.0 + np.abs(lap))), np.nan, f)
        phi = -(grad * grad) / (fsafe * fsafe) + lap / fsafe + 0.5 + 0.25
        got = eval_phi(tau, 0.5, 0.25)
    assert np.isnan(phi).any() and np.isfinite(phi).any()
    assert _same_output(got, phi)


def test_f_at_origin_dromion(dromion):
    tau = eval_f(dromion, *profile_jets3(dromion, 0.0, 0.0, 0.0))
    assert tau.value == pytest.approx(DROMION_F0, rel=1e-14)


def test_f_constant_when_only_a0():
    spec = SolutionSpec(SeparationCoefficients(1, 0, 0, 0),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (1.0,)),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (1.0,)))
    tau = eval_f(spec, *profile_jets3(spec, 0.3, -0.8, 0.5))
    assert tau.value == 1.0
    assert len(tau.entries) == 10      # f, f_z, f_e, f_t, f_zz, f_ze, f_zt, f_ee, f_et, f_tt
    for entry in tau.entries[1:]:
        assert entry == 0.0


def test_f_gradient_structure(rng):
    # f_z = (a1 + a3 q) p_z for arbitrary data
    for _ in range(20):
        spec = random_spec(rng)
        z, e, t = rng.uniform(-2, 2, 3)
        pj, qj = profile_jets3(spec, z, e, t)
        tau = eval_f(spec, pj, qj)
        want = (spec.coeffs.a1 + spec.coeffs.a3 * qj.value) * pj[1, 0]
        assert tau[1, 0, 0] == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_bilinear_closure_identity(rng):
    # f*f_ze - f_z*f_e = det * p_z * q_e, to rounding of the operands
    for _ in range(50):
        spec = random_spec(rng)
        z, e, t = rng.uniform(-3, 3, 3)
        pj, qj = profile_jets3(spec, z, e, t)
        tau = eval_f(spec, pj, qj)
        f, f_z, f_e, f_ze = tau.value, tau[1, 0, 0], tau[0, 1, 0], tau[1, 1, 0]
        lhs = f * f_ze - f_z * f_e
        rhs = spec.coeffs.det * pj[1, 0] * qj[1, 0]
        scale = abs(f * f_ze) + abs(f_z * f_e) + abs(rhs) + 1e-300
        assert abs(lhs - rhs) / scale < 1e-13


def test_intensity_at_origin_dromion(dromion):
    got = eval_intensity(dromion, *profile_jets3(dromion, 0.0, 0.0, 0.0, (1, 0)))[0]
    assert got == pytest.approx(4 * E * E / DROMION_F0**2, rel=1e-14)


def test_intensity_zero_det():
    spec = SolutionSpec(SeparationCoefficients(1, 1, 1, 1),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (1.0,)),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (1.0,)))
    vals = eval_intensity(spec, *profile_jets3(spec, np.linspace(-2, 2, 9), np.zeros(9), 0.0,
                                               (1, 0)))[0]
    assert np.all(vals == 0.0)


def test_breather_degenerate_time():
    spec = build_case("breather").spec
    z = np.linspace(-5, 5, 21)
    vals = eval_intensity(spec, *profile_jets3(spec, z, z, math.pi / 2, (1, 0)))[0]
    assert np.all(np.abs(vals) < 1e-30)


def test_envelope_modulus_matches_intensity(rng, dromion):
    z, e, t = rng.uniform(-2, 2, 3)
    u = envelope(dromion, z, e, t, 0.123, -0.5)
    U = eval_intensity(dromion, *profile_jets3(dromion, z, e, t, (1, 0)))[0]
    assert abs(u) ** 2 == pytest.approx(U, rel=1e-14)


def test_envelope_zero_phase_sign(dromion):
    u = envelope(dromion, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert u.imag == 0.0 and u.real > 0.0
    flipped = SolutionSpec(dromion.coeffs, dromion.p, dromion.q,
                           dromion.funcs, delta1=-1, delta2=1)
    uf = envelope(flipped, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert uf.real == pytest.approx(-u.real, rel=1e-15)


def test_envelope_value_dromion_origin(dromion):
    # phases r = -zeta, s = -eta vanish at the origin
    u = envelope(dromion, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert u.real == pytest.approx(2 * E / DROMION_F0, rel=1e-14)


def test_phi_constant_f():
    spec = SolutionSpec(SeparationCoefficients(2, 0, 0, 0),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (1.0,)),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (1.0,)))
    tau = eval_f(spec, *profile_jets3(spec, 0.5, 0.5, 0.0))
    assert eval_phi(tau, 0.25, 0.125) == pytest.approx(0.375, abs=0)


def test_phi_dromion_origin_value(dromion):
    # oracle: assemble the defining expression by hand from profile values
    p = pz = pzz = E
    f = DROMION_F0
    fz = (1 + 2 * p) * pz
    fzz = (1 + 2 * p) * pzz
    fze = 2 * pz * pz
    want = -(fz + fz) ** 2 / f**2 + (fzz + 2 * fze + fzz) / f + 0.75
    got = eval_phi(eval_f(dromion, *profile_jets3(dromion, 0.0, 0.0, 0.0)), 0.375, 0.375)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("name", case_names())
def test_phi_from_its_six_entries_keeps_the_bits_of_the_full_jet(name):
    # f on the (zeta, eta) entries that eval_phi reads: each entry is the full
    # jet's, the same Leibniz terms in the same order, so phi keeps its bits
    e = build_case(name)
    zeta, eta = rotate(*np.meshgrid(np.linspace(-3, 3, 9), np.linspace(-2, 2, 7)))
    pj, qj = profile_jets3(e.spec, zeta, eta, 0.3)
    full, narrow = eval_f(e.spec, pj, qj), eval_f(e.spec, pj, qj, PHI_READS)
    assert narrow.layout.index == PHI_READS and len(full.entries) == 10
    assert eval_phi(narrow, 0.1, 0.2).tobytes() == eval_phi(full, 0.1, 0.2).tobytes()


def test_phi_two_forms_agree(rng):
    for _ in range(25):
        spec = random_spec(rng)
        z, e, t = rng.uniform(-2, 2, 3)
        a = eval_phi(eval_f(spec, *profile_jets3(spec, z, e, t)), 0.1, 0.2)
        b = phi_log_form(spec, z, e, t, 0.1, 0.2)
        if np.isfinite(a) and np.isfinite(b):
            assert a == pytest.approx(b, rel=1e-11, abs=1e-11)


def test_phi_agrees_with_log_fd(dromion):
    # independent route: 2 (d/dx)^2 log f by central differences in x
    x, y, t = 0.6, -0.4, 0.0

    def logf(xx):
        z, e = rotate(xx, y)
        return math.log(eval_f(dromion, *profile_jets3(dromion, z, e, t)).value)

    h = 1e-4
    fd = 2 * (logf(x + h) - 2 * logf(x) + logf(x - h)) / h**2
    z, e = rotate(x, y)
    got = eval_phi(eval_f(dromion, *profile_jets3(dromion, z, e, t)), 0.0, 0.0)
    assert got == pytest.approx(fd, abs=1e-6)


def test_phi_reflection_symmetry(dromion):
    xs = np.linspace(-3, 3, 13)
    for x in xs:
        za, ea = rotate(x, 1.3)
        zb, eb = rotate(x, -1.3)
        pa = eval_phi(eval_f(dromion, *profile_jets3(dromion, za, ea, 0.0)), 0.375, 0.375)
        pb = eval_phi(eval_f(dromion, *profile_jets3(dromion, zb, eb, 0.0)), 0.375, 0.375)
        assert pa == pytest.approx(pb, rel=1e-13)


def test_intensity_sign_violation_flagged():
    # negative det with positive slopes violates the sign condition
    spec = SolutionSpec(SeparationCoefficients(1, 1, 1, 0.5),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (0.0,)),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (0.0,)))
    assert spec.coeffs.det < 0
    u = eval_intensity(spec, *profile_jets3(spec, 0.0, 0.0, 0.0, (1, 0)))[0]
    assert u < 0.0      # raw value still reported
    rep = admissibility(spec, ((-1, 1), (-1, 1)), 0.0, 8)
    assert rep.verdict == "sign-violating"
    assert rep.sign_violations >= 1


# -- admissibility -------------------------------------------------------------


def admissibility(spec, window, t, samples, valid_mask=None):
    """check_admissibility on the bundle of a window grid."""
    return check_admissibility(Ingredients(spec, window_grid(window, samples, valid_mask), t))


def test_admissibility_dromion(dromion):
    rep = admissibility(dromion, ((-8, 8), (-8, 8)), 0.0, (48, 48))
    assert rep.verdict == "admissible"
    assert rep.min_abs_f > 1.0
    assert rep.sign_changes == 0


def test_admissibility_breather_degenerate():
    spec = build_case("breather").spec
    rep = admissibility(spec, ((-8, 8), (-8, 8)), math.pi / 2, (32, 32))
    assert rep.verdict == "degenerate"


def test_admissibility_resonant_singular():
    e = build_case("resonant")
    g = window_grid(e.window, (64, 64))
    ing = Ingredients(e.spec, g, 0.0)
    rep = check_admissibility(ing)
    assert rep.verdict == "singular"
    assert rep.sign_changes > 0
    # the worst point is the first grid point in raster order where |f| is min |f|
    absf = np.abs(eval_f(e.spec, ing.rows().pj, ing.rows().qj, order=0).value)
    i, j = np.argwhere(g.keep & (absf == rep.min_abs_f))[0]
    assert rep.min_f_point == (g.X[i, j], g.Y[i, j], 0.0)


def test_admissibility_window_without_finite_f_is_singular(dromion):
    rep = admissibility(dromion, ((-8, 8), (-8, 8)), math.inf, (16, 16))
    assert rep.invalid_points == 16 * 16
    assert rep.min_abs_f == math.inf
    assert rep.verdict == "singular"


def test_window_scan_holds_only_f_and_u():
    # with the bundle's jets read first, a 512^2 lattice scan peaks at 7.7 MB:
    # f and U are filled block by block of rows, min |f|, the invalid count
    # and max |U| are where= reductions, the signs an int8 grid and |f| goes
    # into f's buffer (10.75 MB with f and U made over all rows at once,
    # 13.9 MB with copies of them beside it; one float grid is 2.1 MB)
    e = build_case("dromion")
    t = e.reference_times[0]
    ing = Ingredients(e.spec, window_grid(e.window, 512), t)
    ing.rows().pj, ing.rows().qj
    assert traced_peak(check_admissibility, ing) <= 9e6


def test_admissibility_requires_samples(dromion):
    with pytest.raises(ValueError):
        admissibility(dromion, ((-1, 1), (-1, 1)), 0.0, (1, 4))


@pytest.mark.parametrize("name", case_names())
@pytest.mark.parametrize("t", [0.3, 1.1, 2.5])
def test_intensity_time_derivative_matches_central_difference(name, t):
    e = build_case(name)
    g = window_grid(regular_window(e), 40, e.valid_mask)
    (zeta, eta), keep = rotate(g.X, g.Y), g.keep
    h = 1e-5
    u, ut = eval_intensity(e.spec, *profile_jets3(e.spec, zeta, eta, t, (1, 1)), dt=True)
    fd = (eval_intensity(e.spec, *profile_jets3(e.spec, zeta, eta, t + h, (1, 0)))[0]
          - eval_intensity(e.spec, *profile_jets3(e.spec, zeta, eta, t - h, (1, 0)))[0]) / (2 * h)
    ref = eval_intensity(e.spec, *profile_jets3(e.spec, zeta, eta, t, (1, 0)))[0]
    assert np.array_equal(u, ref, equal_nan=True)
    assert np.all(np.isfinite(ut[keep]))
    scale = np.max(np.abs(ut[keep]) + np.abs(u[keep]))
    assert np.max(np.abs(fd - ut)[keep]) <= 1e-8 * scale


# -- line lattice ---------------------------------------------------------------


def lattice_index(n):
    """The line indices of an n x n lattice, j - i + n - 1 for zeta and
    i + j for eta at row i, column j: the reference for the row windows."""
    i, j = np.arange(n)[:, None], np.arange(n)
    return j - i + n - 1, i + j


EQUAL_SPANS = ((-16.4, 27.0), (-20.7, 22.7))
LATTICE_N = (9, 48, 97, 199, 200)


@pytest.mark.parametrize("name", case_names())
@pytest.mark.parametrize("n,window", [pytest.param(n, None, id=str(n)) for n in LATTICE_N]
                         + [pytest.param(n, EQUAL_SPANS, id=f"{n}-equal_spans")
                            for n in LATTICE_N])
def test_lattice_intensity_is_pointwise_intensity_at_line_coordinates(name, n, window):
    # on an equally spaced window U comes from the 2n - 1 zeta and eta lines;
    # read through the row windows, it is eval_intensity at the indexed line
    # coordinates bit for bit, one time or a batch of them, U_t included.
    # 97 takes blocks of 84 rows and a last of 13, 199 four of 41 and a last
    # of 35, 200 five of 40
    e = build_case(name)
    g = window_grid(window or e.window, n, e.valid_mask)
    assert g.zeta_lines.shape == g.eta_lines.shape == (2 * n - 1,)
    zeta_index, eta_index = lattice_index(n)
    zeta, eta = g.zeta_lines[zeta_index], g.eta_lines[eta_index]
    u, ut = grid_intensity(e.spec, g, 0.3)
    assert ut is None
    np.testing.assert_array_equal(
        u, eval_intensity(e.spec, *profile_jets3(e.spec, zeta, eta, 0.3, (1, 0)))[0])
    times = np.array([0.3, 1.1, 2.5])
    u, ut = grid_intensity(e.spec, g, times, dt=True)
    ref_u, ref_ut = eval_intensity(
        e.spec, *profile_jets3(e.spec, zeta, eta, times[:, None, None], (1, 1)), dt=True)
    np.testing.assert_array_equal(u, ref_u)
    np.testing.assert_array_equal(ut, ref_ut)


@pytest.mark.parametrize("window", [build_case(name).window for name in case_names()]
                         + [EQUAL_SPANS, ((-11.5, 31.9), (-13.4, 30.0))])
def test_lattice_coordinates_stay_within_rounding_of_rotate(window):
    # equal spans give x and y the same linspace step s, so rotate and the
    # line coordinate share the exact value (k s + x0 -+ y0)/sqrt(2) up to
    # the errors of the samples involved; with M the largest |bound| and
    # u = ulp(M), a sample fl(fl(k s) + x0) is off by <= 1.5u, the last one
    # (set to the bound) by < 3u, the first by none.  eta on the last
    # column involves the most: 3 + 3 * 1.5 = 7.5u, plus u for each of the
    # two sums, over sqrt(2), plus u for each of the two quotients: < 9u.
    # rotate itself spreads by 4u along a line on the last two windows, so
    # a value taken from one point of a line can lie 4u from another.  The
    # first row keeps the bits of rotate, and so does the first column for
    # zeta and the last column for eta
    ulp = np.spacing(np.max(np.abs(window)))
    for n in range(8, 200, 3):
        g = window_grid(window, n)
        zeta_index, eta_index = lattice_index(n)
        zeta, eta = g.zeta_lines[zeta_index], g.eta_lines[eta_index]
        ref_zeta, ref_eta = rotate(g.X, g.Y)
        assert np.max(np.abs(zeta - ref_zeta)) < 9 * ulp
        assert np.max(np.abs(eta - ref_eta)) < 9 * ulp
        for a, b in ((zeta[0], ref_zeta[0]), (zeta[:, 0], ref_zeta[:, 0]),
                     (eta[0], ref_eta[0]), (eta[:, -1], ref_eta[:, -1])):
            np.testing.assert_array_equal(a, b)


def test_lattice_grid_keeps_no_index_arrays():
    # keep of a 512^2 window is 0.26 MB, and its mask runs one block of rows
    # at a time; the (N, N) zeta and eta would be 2.1 MB each, and an (N, N)
    # int64 index for each line family would add 4.2 MB
    mask = build_case("periodic").valid_mask
    for valid_mask in (None, mask):
        assert traced_peak(window_grid, EQUAL_SPANS, 512, valid_mask) <= 1.5e6
    g = window_grid(EQUAL_SPANS, 512, mask)
    assert g.zeta_lines.shape == g.eta_lines.shape == (1023,)
    assert not {"zeta", "eta"} & set(vars(g))


@pytest.mark.parametrize("name", case_names())
@pytest.mark.parametrize("window", ["case", EQUAL_SPANS, ((-3.0, 5.0), (1.0, 9.5))])
def test_keep_is_valid_mask_at_the_rotated_points(name, window, monkeypatch):
    # keep is decided at rotate's coordinates, not at the lattice's lines,
    # so a mask edge between the two (periodic's tan poles) cannot move it;
    # blocks of 3 rows put 66 seams into a 199^2 grid
    import dsfield.ansatz as ansatz
    e = build_case(name)
    window = e.window if window == "case" else window
    monkeypatch.setattr(ansatz, "_ROW_BLOCK", 3 * 199)
    g = window_grid(window, 199, e.valid_mask)
    np.testing.assert_array_equal(g.keep, e.valid_mask(*rotate(g.X, g.Y)), strict=True)
    monkeypatch.undo()
    np.testing.assert_array_equal(window_grid(window, 199, e.valid_mask).keep, g.keep)
    if name == "periodic" and window == "case":
        # where lattice coordinates flip whole zeta lines (2965 points at 77)
        counts = [np.count_nonzero(window_grid(window, n, e.valid_mask).keep)
                  for n in (47, 61, 77)]
        assert counts == [1059, 1796, 2949]


def test_line_jets_are_windowed_once_per_call(monkeypatch):
    # each line jet entry becomes a view of the whole grid once per call, or
    # once per bundle; row blocks only slice those views, so 20 blocks build
    # as many views as one
    import dsfield.ansatz as ansatz
    e, views = build_case("dromion"), []
    as_strided = ansatz.as_strided
    monkeypatch.setattr(ansatz, "as_strided", lambda *a: views.append(1) or as_strided(*a))

    def count(block):
        monkeypatch.setattr(ansatz, "_ROW_BLOCK", block)
        views.clear()
        g = window_grid(e.window, 100)
        grid_intensity(e.spec, g, 0.3, dt=True)
        ing = Ingredients(e.spec, g, 0.3)
        for rows in ansatz.batches(100, 100, block):
            ing.rows(rows).pj, ing.rows(rows).r
        return len(views)

    assert count(5 * 100) == count(100 * 100) > 0


@pytest.mark.parametrize("window,samples", [
    (((-7.44, 7.44), (-7.76, 7.76)), 64),          # x and y scaled apart
    (((-8.0, 8.0), (-8.0, 8.0)), (64, 48)),
    (((-3.0, 5.0), (1.0, 9.5)), 40),
])
@pytest.mark.parametrize("name", case_names())
def test_unequal_spacing_samples_every_point(name, window, samples):
    # without equal spacing the lines are the grid points themselves, so U
    # is eval_intensity at rotate(X, Y), bit for bit, per time or batched
    e = build_case(name)
    g = window_grid(window, samples, e.valid_mask)
    assert g.zeta_lines.ndim == g.eta_lines.ndim == 2
    zeta, eta = rotate(g.X, g.Y)
    assert g.zeta_lines.tobytes() == zeta.tobytes() and g.eta_lines.tobytes() == eta.tobytes()
    np.testing.assert_array_equal(
        grid_intensity(e.spec, g, 0.3)[0],
        eval_intensity(e.spec, *profile_jets3(e.spec, zeta, eta, 0.3, (1, 0)))[0])
    times = np.array([0.3, 1.1])
    u, ut = grid_intensity(e.spec, g, times, dt=True)
    ref_u, ref_ut = eval_intensity(
        e.spec, *profile_jets3(e.spec, zeta, eta, times[:, None, None], (1, 1)), dt=True)
    np.testing.assert_array_equal(u, ref_u)
    np.testing.assert_array_equal(ut, ref_ut)


# -- one assembly of f -----------------------------------------------------------


class CountingCoefficients:
    """Separation coefficients that count the reads of a0.  a0 enters f
    alone (the determinant is cached), so each read is one assembly of f."""

    def __init__(self, coeffs):
        self._coeffs = coeffs
        self.a0_reads = 0

    def __getattr__(self, name):
        if name == "a0":
            self.a0_reads += 1
        return getattr(self._coeffs, name)


@pytest.mark.parametrize("name", case_names())
def test_admissibility_and_scan_assemble_f_once(name, monkeypatch):
    import dsfield.ansatz as ansatz
    import dsfield.verify as verify
    e = build_case(name)
    coeffs = CountingCoefficients(e.spec.coeffs)
    spec = replace(e.spec, coeffs=coeffs)
    # the admissibility scan takes U from the f it scans
    rep = admissibility(spec, e.window, 0.3, (24, 24), e.valid_mask)
    assert coeffs.a0_reads == 1
    ref = admissibility(e.spec, e.window, 0.3, (24, 24), e.valid_mask)
    assert rep == ref
    # the singularity scan reads f's value alone: a jet of one entry
    built = []

    def recording_eval_f(*args, **kwargs):
        built.append(eval_f(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ansatz, "eval_f", recording_eval_f)
    coeffs.a0_reads = 0
    verify.singularity_scan(spec, e.window, 0.3, 24)
    assert coeffs.a0_reads == 1
    assert [len(f.entries) for f in built] == [1]


# ---------------------------------------------------------------------------
# the pole counts


def denominator_sign_changes(profile, lo, hi, n=200001):
    """Poles counted from outside the profiles: the sign changes, over n samples of
    [lo, hi], of the denominator behind each catalog family's pole, cos x under
    tan x and x^3 + 1 under the instanton bump; the other families have none."""
    den = {"tancos": np.cos, "instanton_p": lambda x: x ** 3 + 1.0}.get(profile.family)
    if den is None:
        return 0
    sign = np.sign(den(np.linspace(lo, hi, n)))
    return int(np.count_nonzero(sign[1:] * sign[:-1] < 0))


@pytest.mark.parametrize("name", case_names())
@pytest.mark.parametrize("window", ["case", ((-4.0, 4.0), (-4.0, 4.0))])
def test_pole_counts_are_the_sign_changes_of_the_denominators(name, window):
    # -4:4:-4:4 holds the instanton pole at zeta = -1 and tan's at +-pi/2 and
    # +-3pi/2; the counts cover the ranges of the grid's lines at every t,
    # 1.5707 beside pi/2 too, where cos t is small
    e = build_case(name)
    g = window_grid(e.window if window == "case" else window, 48)
    found = 0
    for t in (0.0, 0.3, 1.1, 1.5707, 2.7):
        want = tuple(denominator_sign_changes(prof, np.min(lines), np.max(lines))
                     for prof, lines in ((e.spec.p, g.zeta_lines), (e.spec.q, g.eta_lines)))
        assert pole_counts(e.spec, g, t) == want, t
        found += sum(want)
    assert (found > 0) == (name in ("periodic", "double_instanton"))
