import math

import numpy as np
import pytest

from dsfield.ansatz import (
    CoordinatePoint,
    SeparationCoefficients,
    SolutionSpec,
    check_admissibility,
    eval_f,
    eval_intensity,
    eval_intensity_dt,
    eval_phi,
    grid_intensity,
    profile_jets3,
    rotate,
    unrotate,
    window_grid,
)
from dsfield.auxiliary import derive
from dsfield.calculus import DIV_GUARD
from dsfield.catalog import build_case, case_names
from dsfield.profiles import ExpSumProfile

from conftest import random_spec, regular_window

E = math.e
DROMION_F0 = 1.0 + 2 * E + 2 * E * E


@pytest.fixture
def dromion():
    return build_case("dromion").spec


def envelope(spec, zeta, eta, t, phase_r, phase_s):
    """u = p1 q1 exp(i (r + s)) / f from the amplitude factors, as the
    envelope checks assemble it, with caller-supplied phases."""
    aux = derive(spec)
    pj, qj = profile_jets3(spec, zeta, eta, t)
    amp = aux.p1_jet(pj, t).value * aux.q1_jet(qj, t).value
    return amp * np.exp(1j * (phase_r + phase_s)) / eval_f(spec, zeta, eta, t).value


def phi_log_form(spec, zeta, eta, t, p0, q0, tau=None):
    """The forcing field through second derivatives of log f (the oracle of
    eval_phi's two-form test)."""
    if tau is None:
        tau = eval_f(spec, zeta, eta, t)
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


def test_coordinate_point_carries_rotated_values():
    pt = CoordinatePoint(1.0, 1.0, 0.5)
    assert pt.zeta == 0.0
    assert pt.eta == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert pt.zeta**2 + pt.eta**2 == pytest.approx(pt.x**2 + pt.y**2, rel=1e-14)


def test_f_at_origin_dromion(dromion):
    tau = eval_f(dromion, 0.0, 0.0, 0.0)
    assert tau.value == pytest.approx(DROMION_F0, rel=1e-14)


def test_f_constant_when_only_a0():
    spec = SolutionSpec(SeparationCoefficients(1, 0, 0, 0),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (1.0,)),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (1.0,)))
    tau = eval_f(spec, 0.3, -0.8, 0.5)
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
        tau = eval_f(spec, z, e, t, pj, qj)
        want = (spec.coeffs.a1 + spec.coeffs.a3 * qj.value) * pj[1, 0]
        assert tau[1, 0, 0] == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_bilinear_closure_identity(rng):
    # f*f_ze - f_z*f_e = det * p_z * q_e, to rounding of the operands
    for _ in range(50):
        spec = random_spec(rng)
        z, e, t = rng.uniform(-3, 3, 3)
        pj, qj = profile_jets3(spec, z, e, t)
        tau = eval_f(spec, z, e, t, pj, qj)
        f, f_z, f_e, f_ze = tau.value, tau[1, 0, 0], tau[0, 1, 0], tau[1, 1, 0]
        lhs = f * f_ze - f_z * f_e
        rhs = spec.coeffs.det * pj[1, 0] * qj[1, 0]
        scale = abs(f * f_ze) + abs(f_z * f_e) + abs(rhs) + 1e-300
        assert abs(lhs - rhs) / scale < 1e-13


def test_intensity_at_origin_dromion(dromion):
    got = eval_intensity(dromion, 0.0, 0.0, 0.0)
    assert got == pytest.approx(4 * E * E / DROMION_F0**2, rel=1e-14)


def test_intensity_zero_det():
    spec = SolutionSpec(SeparationCoefficients(1, 1, 1, 1),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (1.0,)),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (1.0,)))
    vals = eval_intensity(spec, np.linspace(-2, 2, 9), np.zeros(9), 0.0)
    assert np.all(vals == 0.0)


def test_breather_degenerate_time():
    spec = build_case("breather").spec
    z = np.linspace(-5, 5, 21)
    vals = eval_intensity(spec, z, z, math.pi / 2)
    assert np.all(np.abs(vals) < 1e-30)


def test_envelope_modulus_matches_intensity(rng, dromion):
    z, e, t = rng.uniform(-2, 2, 3)
    u = envelope(dromion, z, e, t, 0.123, -0.5)
    U = eval_intensity(dromion, z, e, t)
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
    assert eval_phi(spec, 0.5, 0.5, 0.0, 0.25, 0.125) == pytest.approx(0.375, abs=0)


def test_phi_dromion_origin_value(dromion):
    # oracle: assemble the defining expression by hand from profile values
    p = pz = pzz = E
    f = DROMION_F0
    fz = (1 + 2 * p) * pz
    fzz = (1 + 2 * p) * pzz
    fze = 2 * pz * pz
    want = -(fz + fz) ** 2 / f**2 + (fzz + 2 * fze + fzz) / f + 0.75
    got = eval_phi(dromion, 0.0, 0.0, 0.0, 0.375, 0.375)
    assert got == pytest.approx(want, rel=1e-13)


def test_phi_two_forms_agree(rng):
    for _ in range(25):
        spec = random_spec(rng)
        z, e, t = rng.uniform(-2, 2, 3)
        a = eval_phi(spec, z, e, t, 0.1, 0.2)
        b = phi_log_form(spec, z, e, t, 0.1, 0.2)
        if np.isfinite(a) and np.isfinite(b):
            assert a == pytest.approx(b, rel=1e-11, abs=1e-11)


def test_phi_agrees_with_log_fd(dromion):
    # independent route: 2 (d/dx)^2 log f by central differences in x
    x, y, t = 0.6, -0.4, 0.0

    def logf(xx):
        z, e = rotate(xx, y)
        return math.log(eval_f(dromion, z, e, t).value)

    h = 1e-4
    fd = 2 * (logf(x + h) - 2 * logf(x) + logf(x - h)) / h**2
    z, e = rotate(x, y)
    got = eval_phi(dromion, z, e, t, 0.0, 0.0)
    assert got == pytest.approx(fd, abs=1e-6)


def test_phi_reflection_symmetry(dromion):
    xs = np.linspace(-3, 3, 13)
    for x in xs:
        za, ea = rotate(x, 1.3)
        zb, eb = rotate(x, -1.3)
        pa = eval_phi(dromion, za, ea, 0.0, 0.375, 0.375)
        pb = eval_phi(dromion, zb, eb, 0.0, 0.375, 0.375)
        assert pa == pytest.approx(pb, rel=1e-13)


def test_intensity_sign_violation_flagged():
    # negative det with positive slopes violates the sign condition
    spec = SolutionSpec(SeparationCoefficients(1, 1, 1, 0.5),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (0.0,)),
                        ExpSumProfile((1.0,), (1.0,), (1.0,), (0.0,)))
    assert spec.coeffs.det < 0
    assert eval_intensity(spec, 0.0, 0.0, 0.0) < 0.0      # raw value still reported
    rep = admissibility(spec, ((-1, 1), (-1, 1)), 0.0, 8)
    assert rep.verdict == "sign-violating"
    assert rep.sign_violations >= 1


# -- admissibility -------------------------------------------------------------


def admissibility(spec, window, t, samples, valid_mask=None):
    """check_admissibility on a window grid, from the profile jets there."""
    g = window_grid(window, samples, valid_mask)
    return check_admissibility(spec, g, t, *profile_jets3(spec, g.zeta, g.eta, t))


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
    rep = admissibility(e.spec, e.window, 0.0, (64, 64))
    assert rep.verdict == "singular"
    assert rep.sign_changes > 0
    assert rep.witness is not None


def test_admissibility_window_without_finite_f_is_singular(dromion):
    rep = admissibility(dromion, ((-8, 8), (-8, 8)), math.inf, (16, 16))
    assert rep.invalid_points == 16 * 16
    assert rep.min_abs_f == math.inf
    assert rep.verdict == "singular"


def test_admissibility_requires_samples(dromion):
    with pytest.raises(ValueError):
        admissibility(dromion, ((-1, 1), (-1, 1)), 0.0, (1, 4))


@pytest.mark.parametrize("name", case_names())
@pytest.mark.parametrize("t", [0.3, 1.1, 2.5])
def test_intensity_time_derivative_matches_central_difference(name, t):
    e = build_case(name)
    g = window_grid(regular_window(e), 40, e.valid_mask)
    zeta, eta, keep = g.zeta, g.eta, g.keep
    h = 1e-5
    u, ut = eval_intensity_dt(e.spec, zeta, eta, t)
    fd = (eval_intensity_dt(e.spec, zeta, eta, t + h)[0]
          - eval_intensity_dt(e.spec, zeta, eta, t - h)[0]) / (2 * h)
    assert np.array_equal(u, eval_intensity(e.spec, zeta, eta, t),
                          equal_nan=True)
    assert np.all(np.isfinite(ut[keep]))
    scale = np.max(np.abs(ut[keep]) + np.abs(u[keep]))
    assert np.max(np.abs(fd - ut)[keep]) <= 1e-8 * scale


# -- line lattice ---------------------------------------------------------------


@pytest.mark.parametrize("name", case_names())
@pytest.mark.parametrize("n", [9, 48, 97])
def test_lattice_intensity_is_pointwise_intensity_at_line_coordinates(name, n):
    # on an equally spaced window U comes from the 2n - 1 zeta and eta lines;
    # gathered, it is eval_intensity at the gathered line coordinates bit for
    # bit, one time or a batch of them, U_t included
    e = build_case(name)
    g = window_grid(e.window, n, e.valid_mask)
    assert g.zeta_lines.shape == g.eta_lines.shape == (2 * n - 1,)
    zeta, eta = g.zeta_lines[g.zeta_index], g.eta_lines[g.eta_index]
    u, ut = grid_intensity(e.spec, g, 0.3)
    assert ut is None
    np.testing.assert_array_equal(u, eval_intensity(e.spec, zeta, eta, 0.3))
    times = np.array([0.3, 1.1, 2.5])
    u, ut = grid_intensity(e.spec, g, times, dt=True)
    ref_u, ref_ut = eval_intensity_dt(e.spec, zeta, eta, times[:, None, None])
    np.testing.assert_array_equal(u, ref_u)
    np.testing.assert_array_equal(ut, ref_ut)


@pytest.mark.parametrize("window", [build_case(name).window for name in case_names()]
                         + [((-16.4, 27.0), (-20.7, 22.7)),
                            ((-11.5, 31.9), (-13.4, 30.0))])
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
        zeta, eta = g.zeta_lines[g.zeta_index], g.eta_lines[g.eta_index]
        assert np.max(np.abs(zeta - g.zeta)) < 9 * ulp
        assert np.max(np.abs(eta - g.eta)) < 9 * ulp
        for a, b in ((zeta[0], g.zeta[0]), (zeta[:, 0], g.zeta[:, 0]),
                     (eta[0], g.eta[0]), (eta[:, -1], g.eta[:, -1])):
            np.testing.assert_array_equal(a, b)


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
    assert g.zeta_index is None and g.eta_index is None
    assert g.zeta_lines is g.zeta and g.eta_lines is g.eta
    zeta, eta = rotate(g.X, g.Y)
    np.testing.assert_array_equal(grid_intensity(e.spec, g, 0.3)[0],
                                  eval_intensity(e.spec, zeta, eta, 0.3))
    times = np.array([0.3, 1.1])
    u, ut = grid_intensity(e.spec, g, times, dt=True)
    ref_u, ref_ut = eval_intensity_dt(e.spec, zeta, eta, times[:, None, None])
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
    spec = SolutionSpec(coeffs, e.spec.p, e.spec.q, e.spec.funcs)
    # the admissibility scan takes U from the f it scans
    rep = admissibility(spec, e.window, 0.3, (24, 24), e.valid_mask)
    assert coeffs.a0_reads == 1
    ref = admissibility(e.spec, e.window, 0.3, (24, 24), e.valid_mask)
    assert (rep.verdict, rep.min_abs_f, rep.max_intensity) == (
        ref.verdict, ref.min_abs_f, ref.max_intensity)
    # the singularity scan reads f's value alone: a jet of one entry
    built = []

    def recording_eval_f(*args, **kwargs):
        built.append(eval_f(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ansatz, "eval_f", recording_eval_f)
    coeffs.a0_reads = 0
    verify.singularity_scan(spec, e.window, 0.3, 24, e.valid_mask)
    assert coeffs.a0_reads == 1
    assert [len(f.entries) for f in built] == [1]
