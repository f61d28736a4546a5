import math

import numpy as np
import pytest

from dsfield.ansatz import (
    CoefficientFunctions,
    SolutionSpec,
    batches,
    check_admissibility,
    eval_f,
    eval_intensity,
    eval_phi,
    pole_sweep,
    profile_jets3,
    window_grid,
)
from dsfield.auxiliary import derive
from dsfield.calculus import Jet, Stencil, layout
from dsfield.catalog import build_case, case_names
from dsfield.profiles import const_fn
from dsfield.verify import (
    _pde2_field,
    bilinear_residuals,
    envelope_residuals,
    hirota_cross,
    hirota_d,
    pde_phi_convergence,
    pde_residuals,
    residual_field,
    singularity_scan,
)

from conftest import bundle, perturbed, random_spec


def exp_jet(k, omega=0.0):
    def f(pt):
        x, t = pt
        v = math.exp(k * x + omega * t)
        return Jet((v, k * v, omega * v, k * k * v, k * omega * v,
                    omega * omega * v), layout(2, 2))
    return f


def random_jet_fn(rng):
    vals = rng.uniform(-3, 3, 6)
    return lambda pt: Jet(vals, layout(2, 2))


# -- operator engine -----------------------------------------------------------


def test_odd_order_antisymmetry_on_random_jets(rng):
    for _ in range(1000):
        a = random_jet_fn(rng)
        assert hirota_d(a, a, 1, 0, (0.0, 0.0)) == 0.0
        assert hirota_d(a, a, 0, 1, (0.0, 0.0)) == 0.0


def test_exponential_eigenvalue_identity(rng):
    for _ in range(200):
        k1 = rng.uniform(-2, 2)
        k2 = k1 - rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
        x = rng.uniform(-1, 1)
        for m in (1, 2):
            got = hirota_d(exp_jet(k1), exp_jet(k2), m, 0, (x, 0.0))
            want = (k1 - k2) ** m * math.exp((k1 + k2) * x)
            assert got == pytest.approx(want, rel=1e-13)


def test_mixed_operator_on_plane_wave():
    a = exp_jet(0.8, -0.55)
    got = hirota_d(a, a, 1, 1, (0.2, 0.4))
    assert got == pytest.approx(0.0, abs=1e-12)


def test_cross_operator_equals_product_gap(rng):
    # D_z D_e f.f equals twice the closure product det * p_z * q_e
    from dsfield.ansatz import eval_f, profile_jets3
    for _ in range(10):
        spec = random_spec(rng)
        z, e, t = rng.uniform(-2, 2, 3)
        pj, qj = profile_jets3(spec, z, e, t)
        tau = eval_f(spec, z, e, t, pj, qj)
        want = 2.0 * spec.coeffs.det * pj[1, 0] * qj[1, 0]
        scale = abs(tau.value * tau[1, 1, 0]) + abs(want) + 1.0
        assert abs(hirota_cross(tau) - want) / scale < 1e-13


def test_order_overflow_raises():
    a = exp_jet(1.0)
    with pytest.raises(ValueError, match="exceeds jet order"):
        hirota_d(a, a, 2, 1, (0.0, 0.0))


def test_first_order_values():
    # D_x on distinct exponentials at one point, against the closed form
    got = hirota_d(exp_jet(1.0), exp_jet(-0.5), 1, 0, (0.3, 0.0))
    want = 1.5 * math.exp(0.5 * 0.3)
    assert got == pytest.approx(want, rel=1e-14)


# -- bilinear residuals ----------------------------------------------------------


@pytest.mark.parametrize("name", case_names())
def test_bilinear_constraint_on_catalog(name):
    e = build_case(name)
    t = e.reference_times[0]
    aux = derive(e.spec)
    line2 = bilinear_residuals(bundle(e.spec, aux, e.window, t, 64, e.valid_mask))
    assert line2.max_abs < 1e-12
    assert line2.mean_abs <= line2.max_abs


def test_bilinear_constraint_on_random_specs(rng):
    for _ in range(30):
        spec = random_spec(rng)
        line2 = bilinear_residuals(bundle(spec, None, ((-8, 8), (-8, 8)),
                                          float(rng.uniform(-1, 1)), 32))
        assert line2.max_abs < 1e-12


def test_bilinear_line1_closed_case():
    e = build_case("dromion")
    aux = derive(e.spec)
    line1, _ = envelope_residuals(bundle(e.spec, aux, ((-4, 4), (-4, 4)), 0.0, 48))
    assert line1.applicable
    assert line1.max_abs < 1e-8


def test_bilinear_line1_gated_for_inconsistent_spec():
    d = build_case("dromion").spec
    spec = SolutionSpec(d.coeffs, d.p, d.q,
                        CoefficientFunctions(gamma=const_fn(0.5)))
    line1, _ = envelope_residuals(bundle(spec, derive(spec), ((-4, 4), (-4, 4)), 0.0, 24))
    assert not line1.applicable
    assert "inconsistent" in line1.notes


def test_bilinear_line1_not_applicable_for_resonant():
    e = build_case("resonant")
    line1, _ = envelope_residuals(bundle(e.spec, derive(e.spec), e.window, 0.0, 24))
    assert not line1.applicable


def test_negative_control_corrupted_background():
    e = build_case("dromion")
    aux = perturbed(derive(e.spec), p0_offset=0.5 - 0.375)
    line1, _ = envelope_residuals(bundle(e.spec, aux, ((-4, 4), (-4, 4)), 0.0, 48))
    assert line1.max_abs > 1e-2


def test_negative_control_corrupted_gradient():
    e = build_case("dromion")
    aux = perturbed(derive(e.spec), rz_offset=0.1)
    # the corrupted gradient shows up in the consistency gate...
    ing = bundle(e.spec, aux, ((-4, 4), (-4, 4)), 0.0, 24)
    gated, _ = envelope_residuals(ing)
    assert not gated.applicable
    # ...and in the ungated residual itself
    line1, _ = envelope_residuals(ing, tol=math.inf)
    assert line1.max_abs > 1e-3


def test_negative_control_corrupted_amplitude():
    e = build_case("dromion")
    aux = perturbed(derive(e.spec), amplitude_scale=1.1)
    line2 = bilinear_residuals(bundle(e.spec, aux, e.window, 0.0, 32))
    assert line2.max_abs > 0.15       # (1.1^2 - 1)/1.1^2 relative mismatch


def test_periodic_amplitude_branch_fallback():
    # cos t < 0 flips the profile slopes; the real amplitude factors do not
    # exist for c0 > 0 and the check falls back to the exact product form
    e = build_case("periodic")
    aux = derive(e.spec)
    line2 = bilinear_residuals(bundle(e.spec, aux, e.window, 2 * math.pi / 3, 32,
                                      e.valid_mask))
    assert line2.flags["amplitude_branch"] > 0
    assert line2.max_abs < 1e-12


def test_report_invariants():
    e = build_case("solitoff")
    ing = bundle(e.spec, derive(e.spec), e.window, 0.0, 32)
    line2 = bilinear_residuals(ing)
    line1, _ = envelope_residuals(ing)
    for rep in (line2, line1):
        assert rep.max_abs >= rep.mean_abs >= 0.0
        (x0, x1), (y0, y1) = e.window
        assert x0 <= rep.worst_point.x <= x1
        assert y0 <= rep.worst_point.y <= y1
        assert rep.worst_point.t == 0.0


# -- governing-equation residuals -------------------------------------------------


def test_pde_line1_closed_case():
    e = build_case("dromion")
    _, l1 = envelope_residuals(bundle(e.spec, derive(e.spec), ((-4, 4), (-4, 4)), 0.0, 48))
    assert l1.applicable
    assert l1.max_abs < 1e-6


def test_pde_line1_negative_control():
    e = build_case("dromion")
    aux = perturbed(derive(e.spec), p0_offset=0.125)
    _, l1 = envelope_residuals(bundle(e.spec, aux, ((-4, 4), (-4, 4)), 0.0, 48))
    assert l1.max_abs > 1e-2


@pytest.mark.parametrize("name", ["dromion", "solitoff"])
def test_pde_line2_convergence_order(name):
    e = build_case(name)
    coarse, fine, order = pde_phi_convergence(e.spec, ((-3, 3), (-3, 3)), 0.0,
                                              20, Stencil(2, 2, 2e-2))
    assert abs(order - 2.0) <= 0.3
    assert fine.max_abs < coarse.max_abs


def test_pde_line2_fourth_order_stencil():
    e = build_case("dromion")
    _, _, order = pde_phi_convergence(e.spec, ((-3, 3), (-3, 3)), 0.0,
                                      16, Stencil(2, 4, 5e-2))
    assert abs(order - 4.0) <= 0.3


def test_pde_line2_breather_degenerate_time():
    e = build_case("breather")
    l2 = pde_residuals(e.spec, e.window, math.pi / 2, 20)
    assert l2.max_abs < 1e-20


def test_pde_line2_drops_stencil_hits_near_pole():
    e = build_case("double_instanton")
    l2 = pde_residuals(e.spec, ((-3, 1), (-3, 1)), 0.0, 24, Stencil(2, 2, 1e-2),
                       valid_mask=e.valid_mask)
    # truncation is honest but large right at the mask edge where the pole
    # term's high derivatives blow up; the bulk of the window stays clean
    assert l2.flags["dropped"] > 0
    assert l2.mean_abs < 0.1


def _pde2_field_per_point(spec, zeta, eta, t, stencil):
    """The forcing-field residual as first written: order-3 profile jets, U
    and phi evaluated on the whole grid once per stencil point."""
    h = stencil.h
    w2 = Stencil(2, stencil.accuracy, h).weights
    w1 = Stencil(1, stencil.accuracy, h).weights
    half = (len(w1) - 1) // 2
    offs = np.arange(-half, half + 1)
    U = np.empty((len(offs), len(offs)) + zeta.shape)
    PHI = np.empty_like(U)
    with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
        for i, oi in enumerate(offs):
            for j, oj in enumerate(offs):
                z, e = zeta + oi * h, eta + oj * h
                pj, qj = profile_jets3(spec, z, e, t)
                PHI[i, j] = eval_phi(spec, z, e, t, 0.0, 0.0,
                                     tau=eval_f(spec, z, e, t, pj, qj))
                U[i, j] = eval_intensity(spec, z, e, t, pj, qj)
        u_zz = np.tensordot(w2, U[:, half], axes=(0, 0)) / h**2
        u_ee = np.tensordot(w2, U[half, :], axes=(0, 0)) / h**2
        u_ze = np.einsum("i,j,ij...->...", w1, w1, U) / h**2
        phi_ze = np.einsum("i,j,ij...->...", w1, w1, PHI) / h**2
        resid = np.abs(4.0 * phi_ze - u_zz - u_ee - 2.0 * u_ze)
    stencil_ok = np.isfinite(U).all(axis=(0, 1)) & np.isfinite(PHI).all(axis=(0, 1))
    return resid, stencil_ok


@pytest.mark.parametrize("name", case_names())
def test_pde2_field_is_the_per_point_stencil_bit_for_bit(name):
    # profiles once per stencil line, to order 2, and U and phi by
    # broadcasting, in row batches: the residual (NaNs in place) and the
    # stencil mask keep every bit of the per-point evaluation; 97 columns
    # put the batch seams mid-vector for the stencils' matrix products
    e = build_case(name)
    grid = window_grid(e.window, (97, 80))
    for t in (e.reference_times[0], 0.3):
        for accuracy in (2, 4):
            stencil = Stencil(2, accuracy, 1e-2)
            k = len(Stencil(1, accuracy, 1e-2).weights)
            assert len(batches(80, k * k * 97)) > 2
            want = _pde2_field_per_point(e.spec, grid.zeta, grid.eta, t, stencil)
            got = _pde2_field(e.spec, grid.zeta, grid.eta, t, stencil)
            np.testing.assert_array_equal(got[0], want[0], strict=True)
            np.testing.assert_array_equal(got[1], want[1], strict=True)


def test_residual_field_values_match_report():
    e = build_case("dromion")
    vals = residual_field(bundle(e.spec, None, e.window, 0.0, (32, 32)), "bilinear2")
    assert np.nanmax(vals) < 1e-12
    with pytest.raises(ValueError):
        residual_field(bundle(e.spec, None, e.window, 0.0, (8, 8)), "nope")
    # at 48 samples the double_instanton mask drops 44 points near its pole
    for name in ("dromion", "double_instanton"):
        e = build_case(name)
        t = e.reference_times[0]
        line2 = bilinear_residuals(bundle(e.spec, None, e.window, t, 48, e.valid_mask))
        pde2 = pde_residuals(e.spec, e.window, t, 48, valid_mask=e.valid_mask)
        for which, rep in (("bilinear2", line2), ("pde2", pde2)):
            vals = residual_field(bundle(e.spec, None, e.window, t, (48, 48), e.valid_mask),
                                  which)
            assert np.nanmax(vals) == rep.max_abs, (name, which)
            assert np.count_nonzero(np.isfinite(vals)) == rep.samples, (name, which)


# -- scans -------------------------------------------------------------------------


@pytest.mark.parametrize("name", case_names())
def test_scan_agrees_with_admissibility(name):
    e = build_case(name)
    t = e.reference_times[0]
    g = window_grid(e.window, (48, 48), e.valid_mask)
    rep = check_admissibility(e.spec, g, t, *profile_jets3(e.spec, g.zeta, g.eta, t))
    scan = singularity_scan(e.spec, e.window, t, 48, e.valid_mask)
    assert scan.min_abs_f == rep.min_abs_f
    assert scan.min_f_point == rep.min_f_point
    assert scan.sign_changes == rep.sign_changes


def test_scan_dromion_positive():
    rep = singularity_scan(build_case("dromion").spec, ((-8, 8), (-8, 8)), 0.0, 64)
    assert rep.min_abs_f > 1.0
    assert rep.sign_changes == 0
    assert rep.pole_intervals_zeta == ()


def test_scan_resonant_reports_sign_changes():
    e = build_case("resonant")
    rep = singularity_scan(e.spec, e.window, 0.0, 96)
    assert rep.sign_changes > 0
    assert len(rep.sign_change_examples) > 0


def test_scan_detects_tan_poles():
    e = build_case("periodic")
    rep = singularity_scan(e.spec, ((-4, 4), (-4, 4)), 0.0, 32)
    assert len(rep.pole_intervals_zeta) >= 2     # poles at +-pi/2 in range
    lo, hi = rep.pole_intervals_zeta[0]
    assert any(abs(abs(0.5 * (a + b)) - math.pi / 2) < 0.05
               for a, b in rep.pole_intervals_zeta)


def test_scan_detects_instanton_pole():
    e = build_case("double_instanton")
    rep = singularity_scan(e.spec, ((-4, 4), (-4, 4)), 0.0, 32)
    assert len(rep.pole_intervals_zeta) == 1
    lo, hi = rep.pole_intervals_zeta[0]
    assert lo <= -1.0 <= hi + 0.01


@pytest.mark.parametrize("name", case_names())
def test_admissibility_is_the_one_window_scan(name):
    # the pole sweeps run over the grid's own zeta and eta, each example is
    # the first point of a cell where f changes sign, and singularity_scan
    # is the same scan on the same grid
    e = build_case(name)
    t = e.reference_times[0]
    g = window_grid(e.window, (48, 48), e.valid_mask)
    rep = check_admissibility(e.spec, g, t, *profile_jets3(e.spec, g.zeta, g.eta, t))
    assert rep.pole_intervals_zeta == pole_sweep(e.spec.p, g.zeta, t)
    assert rep.pole_intervals_eta == pole_sweep(e.spec.q, g.eta, t)
    assert singularity_scan(e.spec, e.window, t, 48, e.valid_mask) == rep

    f = np.where(g.keep, eval_f(e.spec, g.zeta, g.eta, t, order=0).value, np.nan)
    assert len(rep.sign_change_examples) <= 5
    assert bool(rep.sign_change_examples) == bool(rep.sign_changes)
    for x, y in rep.sign_change_examples:
        (i,), (j,) = np.nonzero(g.Y[:, 0] == y), np.nonzero(g.X[0] == x)
        right = f[i, j] * f[i, j + 1] if j + 1 < f.shape[1] else np.nan
        below = f[i, j] * f[i + 1, j] if i + 1 < f.shape[0] else np.nan
        assert right < 0 or below < 0, (x, y)
