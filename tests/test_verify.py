import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from dsfield import ansatz
from dsfield.ansatz import (
    CoefficientFunctions,
    SolutionSpec,
    check_admissibility,
    eval_f,
    eval_intensity,
    eval_phi,
    rotate,
    window_grid,
)
from dsfield.auxiliary import Ingredients, consistency_c1_c2
from dsfield.calculus import Jet, layout
from dsfield.catalog import build_case, case_names
from dsfield.field import sample_field
from dsfield.profiles import TimeFunction
from dsfield.specfile import loads_spec
from dsfield.verify import (
    _FD_WEIGHTS,
    _PDE2_H,
    THRESHOLDS,
    _bilinear2_field,
    _envelope_field,
    _pde2_field,
    bilinear_residuals,
    envelope_residuals,
    pde_residuals,
    run_checks,
    singularity_scan,
)

from conftest import (
    FD_WEIGHTS,
    admissible_spec,
    bundle,
    carriers,
    decaying_p_text,
    fd_pde2_field,
    fd_phi_convergence,
    hirota_cross,
    hirota_d,
    negative_radicands,
    plane_pde1_field,
    profile_jets3,
    random_spec,
    traced_peak,
)


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
    for _ in range(10):
        spec = random_spec(rng)
        z, e, t = rng.uniform(-2, 2, 3)
        pj, qj = profile_jets3(spec, z, e, t)
        tau = eval_f(spec, pj, qj)
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
    line2 = bilinear_residuals(bundle(e.spec, e.window, t, 64, e.valid_mask))
    assert line2.max_abs < 1e-12
    assert line2.mean_abs <= line2.max_abs


def test_bilinear_constraint_on_random_specs(rng):
    # the samples where an amplitude radicand is negative are dropped, and
    # only those: the others are checked
    for _ in range(30):
        spec = random_spec(rng)
        ing = bundle(spec, ((-8, 8), (-8, 8)), float(rng.uniform(-1, 1)), 32)
        line2 = bilinear_residuals(ing)
        assert line2.samples + line2.dropped == 32 * 32
        assert line2.dropped == negative_radicands(ing)
        if line2.samples:
            assert line2.max_abs < 1e-12
    # an admissible draw drops nothing (the random draws above check 14,681 of
    # their 30,720 samples)
    adm = np.random.default_rng(2)
    for _ in range(30):
        ing = bundle(admissible_spec(adm), ((-8, 8), (-8, 8)), float(adm.uniform(-1, 1)), 32)
        line2 = bilinear_residuals(ing)
        assert line2.samples == 32 * 32 and line2.dropped == 0
        assert line2.max_abs < 1e-12


def test_bilinear_line1_closed_case():
    e = build_case("dromion")
    line1, _ = envelope_residuals(bundle(e.spec, ((-4, 4), (-4, 4)), 0.0, 48))
    assert line1.applicable
    assert line1.max_abs < 1e-8


def test_bilinear_line1_runs_on_an_inconsistent_spec():
    # the gain shows in the consistency report and, ungated, in line 1
    d = build_case("dromion").spec
    spec = SolutionSpec(d.coeffs, d.p, d.q,
                        CoefficientFunctions(gamma=TimeFunction((0.5,))))
    ing = bundle(spec, ((-4, 4), (-4, 4)), 0.0, 24)
    assert consistency_c1_c2(ing).max_variation > 1e-3
    line1, _ = envelope_residuals(ing)
    assert line1.applicable
    assert line1.samples == 24 * 24
    assert line1.max_abs > 1e-1


def test_bilinear_line1_not_applicable_for_resonant():
    e = build_case("resonant")
    line1, _ = envelope_residuals(bundle(e.spec, e.window, 0.0, 24))
    assert not line1.applicable
    assert line1.notes.startswith("not applicable: a3 = 0")


def test_negative_control_corrupted_background():
    e = build_case("dromion")
    line1, _ = envelope_residuals(bundle(e.spec, ((-4, 4), (-4, 4)), 0.0, 48,
                                         p0_offset=0.5 - 0.375))
    assert line1.max_abs > 1e-2


def test_negative_control_corrupted_gradient():
    e = build_case("dromion")
    # the corrupted gradient shows up in the consistency report...
    ing = bundle(e.spec, ((-4, 4), (-4, 4)), 0.0, 24, rz_offset=0.1)
    assert consistency_c1_c2(ing).max_variation > 1e-8
    # ...and in the ungated residual itself
    line1, _ = envelope_residuals(ing)
    assert line1.max_abs > 1e-3


def test_negative_control_corrupted_amplitude():
    e = build_case("dromion")
    line2 = bilinear_residuals(bundle(e.spec, e.window, 0.0, 32, amplitude_scale=1.1))
    assert line2.max_abs > 0.15       # (1.1^2 - 1)/1.1^2 relative mismatch
    # near bilinear2's threshold of 1e-10: a scale of 1 + 1e-9 mismatches g g*
    # by about 2e-9 relative on every case
    for name in case_names():
        e = build_case(name)
        line2 = bilinear_residuals(bundle(e.spec, e.window, e.reference_times[0], 32,
                                          e.valid_mask, amplitude_scale=1 + 1e-9))
        assert line2.max_abs > 1e-10, name


def _failing_checks(ing) -> set:
    """The checks that verify fails on the bundle, of those its ingredients
    reach: bilinear2, bilinear1, pde1 and consistency."""
    checks = run_checks(ing, {"bilinear2", "bilinear1", "pde1", "consistency"})
    return {name for name, (status, _, _) in checks.items() if status == "fail"}


def _admissible_draws():
    """60 seeded admissible specs, each with a time in [-1, 1]."""
    rng = np.random.default_rng(3)
    return [(admissible_spec(rng), float(rng.uniform(-1, 1))) for _ in range(60)]


def test_gain_on_admissible_draws_fails_the_consistency_check_alone():
    # a gain of 1e-6 makes every draw a non-solution; only the consistency
    # check catches it, for the envelope residuals stay under verify's 1e-6
    # (7.35e-7 at most): no residual has a floor yet (ROADMAP item 3)
    worst = 0.0
    for spec, t in _admissible_draws():
        gained = dataclasses.replace(
            spec, funcs=CoefficientFunctions(gamma=TimeFunction((1e-6,))))
        ing = bundle(gained, ((-8, 8), (-8, 8)), t, 48)
        assert _failing_checks(ing) == {"consistency"}, t
        worst = max(worst, *(rep.max_abs for rep in envelope_residuals(ing)))
    assert 1e-7 < worst < THRESHOLDS["pde1"] == THRESHOLDS["bilinear1"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: without a floor and a ratio no "
                                       "check sees a corruption at the rounding level")
@pytest.mark.parametrize("hook", [{"amplitude_scale": 1 + 1e-12}, {"p0_offset": 1e-12}],
                         ids=["amplitude_scale", "p0_offset"])
def test_rounding_level_corruption_fails_every_admissible_draw(hook):
    caught = [bool(_failing_checks(bundle(spec, ((-8, 8), (-8, 8)), t, 48, **hook)))
              for spec, t in _admissible_draws()]
    assert all(caught), f"caught on {sum(caught)} of {len(caught)} draws"


def test_bilinear2_drops_the_samples_where_the_sign_condition_fails():
    # with a decaying p the real amplitude factors exist on neither branch,
    # so the residual is not finite and every sample is dropped
    spec = loads_spec(decaying_p_text())
    line2 = bilinear_residuals(bundle(spec, ((-4.0, 4.0), (-4.0, 4.0)), 0.3, 32))
    assert line2.dropped == 32 * 32 and line2.samples == 0
    assert math.isnan(line2.max_abs)
    assert line2.notes == "no valid samples"


def test_report_invariants():
    e = build_case("solitoff")
    ing = bundle(e.spec, e.window, 0.0, 32)
    line2 = bilinear_residuals(ing)
    line1, _ = envelope_residuals(ing)
    for rep in (line2, line1):
        assert rep.max_abs >= rep.mean_abs >= 0.0
        (x0, x1), (y0, y1) = e.window
        x, y, t = rep.worst_point
        assert x0 <= x <= x1
        assert y0 <= y <= y1
        assert t == 0.0


def _hand_envelope_terms(b):
    """The envelope g = p1 q1 e^{ir} e^{is} and its derivatives (g, g_z, g_zz, g_e,
    g_ee, g_t) by the product rules written out, from the row entries ``b``, each
    with its term-magnitude scale: the sum of its terms' moduli."""
    p1, q1, rz, se = b.p1, b.q1, b.rz, b.se
    (r, r_t), (s, s_t) = b.r, b.s
    E = np.exp(1j * r) * np.exp(1j * s)
    P = p1.value * q1.value
    a = np.abs
    return [
        (P * E, a(P)),
        ((p1[1, 0] + 1j * rz.value * p1.value) * q1.value * E,
         (a(p1[1, 0]) + a(rz.value * p1.value)) * a(q1.value)),
        ((p1[2, 0] + 2j * rz.value * p1[1, 0]
          + (1j * rz[1, 0] - rz.value ** 2) * p1.value) * q1.value * E,
         (a(p1[2, 0]) + 2 * a(rz.value * p1[1, 0])
          + (a(rz[1, 0]) + rz.value ** 2) * a(p1.value)) * a(q1.value)),
        (p1.value * (q1[1, 0] + 1j * se.value * q1.value) * E,
         a(p1.value) * (a(q1[1, 0]) + a(se.value * q1.value))),
        (p1.value * (q1[2, 0] + 2j * se.value * q1[1, 0]
                     + (1j * se[1, 0] - se.value ** 2) * q1.value) * E,
         a(p1.value) * (a(q1[2, 0]) + 2 * a(se.value * q1[1, 0])
                        + (a(se[1, 0]) + se.value ** 2) * a(q1.value))),
        ((p1[0, 1] * q1.value + p1.value * q1[0, 1] + 1j * P * (r_t + s_t)) * E,
         a(p1[0, 1] * q1.value) + a(p1.value * q1[0, 1]) + a(P) * (a(r_t) + a(s_t))),
    ]


def test_each_reader_multiplies_jets_on_the_entries_it_reads(monkeypatch):
    # the jets in (zeta, eta, t): phi, in its render and in pde2's stencils,
    # builds f on the six (zeta, eta) entries it reads; the full order-2 layout
    # has ten.  The envelope pass, on a bundle whose line entries are read,
    # multiplies no jets and builds no jet of any layout: it reads the line
    # identities from the entries' arrays
    from dsfield import calculus
    sizes, products, built = [], [], []
    real_product, real_init = calculus._product, calculus.Jet.__init__

    def recording(a, b):
        products.append(a.layout.n)
        if a.layout.n == 3:
            sizes.append(len(a.entries))
        return real_product(a, b)

    def building(self, entries, lay):
        real_init(self, entries, lay)
        built.append(lay.n)

    monkeypatch.setattr(calculus, "_product", recording)
    e = build_case("double_instanton")
    for which in ("phi", "pde2"):
        sizes.clear()
        sample_field(e.spec, which, e.window, 0.3, 16, 16)
        assert set(sizes) == {6}, which
    ing = bundle(e.spec, e.window, 0.3, 16, e.valid_mask)
    for entry in ("pj", "qj", "p1", "q1", "rz", "se", "r", "s", "p0", "q0"):
        getattr(ing, entry)
    monkeypatch.setattr(calculus.Jet, "__init__", building)
    products.clear()
    _, pde1 = envelope_residuals(ing)
    assert products == built == [] and pde1.samples > 0


@pytest.mark.parametrize("name", case_names())
def test_envelope_jet_is_the_hand_expanded_product_rule(name):
    # the product of conftest's carriers P Q, the plane oracle's input, gives
    # g's entries within 8 eps of the scale of the product rules written out,
    # non-finite where they are
    e = build_case(name)
    for t in (*e.reference_times, 0.3):
        for samples in (64, 128):
            b = bundle(e.spec, e.window, t, samples, e.valid_mask).rows()
            with np.errstate(invalid="ignore", over="ignore", under="ignore", divide="ignore"):
                P, Q = carriers(b)
                g = P.shift(order=2, axes=(0, 2), n=3) * Q.shift(order=2, axes=(1, 2), n=3)
                want = _hand_envelope_terms(b)
            entries = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0), (0, 0, 1))
            for m, (ref, scale) in zip(entries, want):
                ok = np.isfinite(ref)
                np.testing.assert_array_equal(np.isfinite(g[m]), ok)
                err = np.abs(g[m] - ref)[ok]
                assert np.all(err <= 8 * np.finfo(float).eps * scale[ok]), (t, samples, m)


# -- governing-equation residuals -------------------------------------------------


def test_pde_line1_closed_case():
    e = build_case("dromion")
    _, l1 = envelope_residuals(bundle(e.spec, ((-4, 4), (-4, 4)), 0.0, 48))
    assert l1.applicable
    assert l1.max_abs < 1e-6


def test_pde_line1_negative_control():
    e = build_case("dromion")
    _, l1 = envelope_residuals(bundle(e.spec, ((-4, 4), (-4, 4)), 0.0, 48, p0_offset=0.125))
    assert l1.max_abs > 1e-2


@pytest.mark.parametrize("name", [n for n in case_names() if build_case(n).spec.coeffs.a3])
def test_envelope_residual_is_at_rounding_on_the_catalog(name):
    # the line identities, read from the line entries, hold E within 1e-12 on
    # every a3 != 0 case at its reference times and 0.3, at 64^2 and 128^2:
    # 1.99e-13 at most, on double_instanton at t = 0.3
    e = build_case(name)
    for t in (*e.reference_times, 0.3):
        for samples in (64, 128):
            _, pde1 = envelope_residuals(bundle(e.spec, e.window, t, samples, e.valid_mask))
            assert pde1.samples > 0 and pde1.max_abs <= 1e-12, (t, samples, pde1.max_abs)


@pytest.mark.parametrize("order,accuracy", [(1, 2), (1, 4), (2, 2), (2, 4)])
def test_stencil_polynomial_exactness(order, accuracy):
    # the oracle's weights are exact for monomials up to degree order +
    # accuracy - 1, and verify's are its accuracy-2 rows
    weights, h = np.asarray(FD_WEIGHTS[order, accuracy]), 0.5
    if accuracy == 2:
        assert _FD_WEIGHTS[order] == FD_WEIGHTS[order, accuracy]
    half = (len(weights) - 1) // 2
    xs = np.arange(-half, half + 1) * h
    for deg in range(order + accuracy):
        samples = (1.0 + xs) ** deg
        want = math.perm(deg, order) * 1.0 ** (deg - order) if deg >= order else 0.0
        got = samples @ weights / h ** order
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))


@pytest.mark.parametrize("name", ["dromion", "solitoff"])
def test_pde_line2_convergence_order(name):
    e = build_case(name)
    coarse, fine, order = fd_phi_convergence(e.spec, window_grid(((-3, 3), (-3, 3)), 20), 0.0,
                                             2e-2, 2)
    assert abs(order - 2.0) <= 0.3
    assert fine.max_abs < coarse.max_abs


def test_pde_line2_fourth_order_stencil():
    e = build_case("dromion")
    _, _, order = fd_phi_convergence(e.spec, window_grid(((-3, 3), (-3, 3)), 16), 0.0,
                                     5e-2, 4)
    assert abs(order - 4.0) <= 0.3


@pytest.mark.parametrize("name", case_names())
def test_pde_phi_convergence_is_the_oracle_bit_for_bit(name):
    # verify's convergence pair is the oracle's stencil at accuracy 2 and the
    # check's own steps: both reports' statistics to the bit, and the printed
    # means and order are the oracle's, formatted as verify prints them
    e = build_case(name)
    grid = window_grid(e.window, 24, e.valid_mask)
    for t in (e.reference_times[0], 0.3):
        got = [pde_residuals(e.spec, grid, t, h) for h in (_PDE2_H, _PDE2_H / 2)]
        want = fd_phi_convergence(e.spec, grid, t, _PDE2_H, 2)
        stats = [[(r.mean_abs, r.max_abs, r.samples, r.dropped) for r in reports[:2]]
                 for reports in (got, want)]
        np.testing.assert_array_equal(*map(np.hstack, stats), strict=True)
        fields = dict(run_checks(Ingredients(e.spec, grid, t), {"pde2"})["pde2"][1])
        assert [fields[k] for k in ("mean_abs_h", "mean_abs_h2", "observed_order")] == [
            f"{want[0].mean_abs:.6e}", f"{want[1].mean_abs:.6e}", f"{want[2]:.3f}"]


@pytest.mark.parametrize("window", [((-3.141592654, 2.718281828), (-1.414213562, 4.445660920)),
                                    ((-0.5772156649, 1.618033989), (0.6931471806, 2.302585093))],
                         ids=["square", "oblong"])
def test_pde2_runs_on_the_window_grid_of_at_most_24_points(window):
    # the bundle's grid carries its window, and pde2 samples that window anew
    e = build_case("double_instanton")
    for res in (8, 71):
        checks = run_checks(Ingredients(e.spec, window_grid(window, res, e.valid_mask), 0.3),
                            {"pde2"})
        grid = window_grid(window, min(res, 24), e.valid_mask)
        want = [pde_residuals(e.spec, grid, 0.3, h).mean_abs for h in (_PDE2_H, _PDE2_H / 2)]
        fields = dict(checks["pde2"][1])
        assert [fields["mean_abs_h"], fields["mean_abs_h2"]] == [f"{v:.6e}" for v in want]


def test_pde_line2_breather_degenerate_time():
    e = build_case("breather")
    l2 = pde_residuals(e.spec, window_grid(e.window, 20), math.pi / 2)
    assert l2.max_abs < 1e-20


def test_pde_line2_drops_stencil_hits_near_pole():
    # no valid mask: the grid's diagonal lies at zeta = -0.9902, where U is
    # finite, but the h = 1e-2 stencil's lower zeta line, at -1.0002, falls
    # where p overflows, within about 5e-4 below the pole at zeta = -1
    e = build_case("double_instanton")
    y0 = 0.9902 * math.sqrt(2.0) - 1.0
    grid = window_grid(((-1.0, 1.0), (y0, y0 + 2.0)), 24)
    resid = _pde2_field(e.spec, grid, 0.0)
    np.testing.assert_array_equal(np.isfinite(resid), ~np.eye(24, dtype=bool))
    pj, qj = profile_jets3(e.spec, *rotate(grid.X, grid.Y), 0.0, (1, 0))
    assert np.isfinite(eval_intensity(e.spec, pj, qj)[0]).all()
    l2 = pde_residuals(e.spec, grid, 0.0)
    assert l2.masked == 0 and l2.dropped == 24
    # truncation is honest but large right beside the pole, where its
    # high derivatives blow up; the bulk of the window stays clean
    assert l2.mean_abs < 0.1


@pytest.mark.parametrize("name", ["dromion", "double_instanton", "periodic"])
def test_verify_residuals_fill_their_grids_block_by_block(name):
    # with the bundle's line entries read first, the envelope pass and the
    # bilinear2 check at 512^2 hold their residual grids and one block of
    # rows (3.1 and 2.7 MB, the envelope pass reading its line identities from
    # the line entries; 17.1 and 10.8 MB over all rows at once); one float grid
    # is 2.1 MB
    e = build_case(name)
    ing = Ingredients(e.spec, window_grid(e.window, 512, e.valid_mask), e.reference_times[0])
    for entry in ("pj", "qj", "p1", "q1", "rz", "se", "r", "s", "p0", "q0"):
        getattr(ing, entry)
    assert traced_peak(envelope_residuals, ing) <= 4e6
    assert traced_peak(bilinear_residuals, ing) <= 5e6


def _matrix_products(w2, w1, U, PHI, half):
    return (np.tensordot(w2, U[:, half], axes=(0, 0)), np.tensordot(w2, U[half, :], axes=(0, 0)),
            np.einsum("i,j,ij...->...", w1, w1, U), np.einsum("i,j,ij...->...", w1, w1, PHI))


@pytest.mark.parametrize("name", case_names())
def test_pde2_field_is_the_per_point_stencil_bit_for_bit(name, monkeypatch):
    # profiles once per stencil line, on the box (2, 0), and U and phi by
    # broadcasting, in row blocks, the stencils summed in a fixed order per
    # block: the residual keeps every bit of the oracle's per-point evaluation
    # from order-3 jets and is non-finite wherever a stencil sample is, across
    # the seams of seven blocks of 13 rows of 97 columns.  The stencil's
    # dyadic weights make every product exact, so the matrix products the
    # check first used give the same bits
    e = build_case(name)
    grid = window_grid(e.window, (97, 80))
    monkeypatch.setattr(ansatz, "_ROW_BLOCK", 13 * 97)
    assert len(ansatz.row_blocks(80, 97)) == 7
    for t in (e.reference_times[0], 0.3):
        want, ok = fd_pde2_field(e.spec, *rotate(grid.X, grid.Y), t, _PDE2_H, 2)
        got = _pde2_field(e.spec, grid, t)
        np.testing.assert_array_equal(got, want, strict=True)
        assert not np.isfinite(got[~ok]).any()
        old = fd_pde2_field(e.spec, *rotate(grid.X, grid.Y), t, _PDE2_H, 2, _matrix_products)[0]
        np.testing.assert_array_equal(got, old, strict=True)


@pytest.mark.parametrize("name", case_names())
def test_line_bundle_is_the_point_formulas_at_the_lattice_coordinates(name, monkeypatch):
    # the bundle evaluates each entry once per line and its readers take row
    # windows; the same formulas on a grid whose N^2 points hold the lattice
    # coordinates as plain arrays give every phi and bilinear2 render value,
    # in row blocks (131 rows: three), and the envelope field from line terms,
    # bit for bit.  Off the lattice the reference coordinates are the grid's
    # own.  The bilinear2, bilinear1 and pde1 reports are those of blocks of 3 rows
    e = build_case(name)
    for samples in (48, 131, (97, 80)):
        grid = window_grid(e.window, samples, e.valid_mask)
        ny, nx = grid.keep.shape
        if grid.zeta_lines.ndim == 1:
            i, j = np.ogrid[:nx, :nx]
            zeta, eta = grid.zeta_lines[j - i + nx - 1], grid.eta_lines[i + j]
        else:
            assert samples == (97, 80)
            zeta, eta = rotate(grid.X, grid.Y)
        points = SimpleNamespace(X=grid.X, Y=grid.Y, keep=grid.keep,
                                 zeta_lines=zeta, eta_lines=eta)
        for t in (e.reference_times[0], 0.3):
            ref = Ingredients(e.spec, points, t)
            with np.errstate(invalid="ignore", over="ignore", under="ignore",
                             divide="ignore"):
                want = {"phi": eval_phi(eval_f(e.spec, ref.pj, ref.qj), ref.p0, ref.q0),
                        "bilinear2": _bilinear2_field(e.spec, ref.rows())[0]}
            np.testing.assert_array_equal(_envelope_field(Ingredients(e.spec, grid, t)),
                                          _envelope_field(ref), strict=True)
            ing = Ingredients(e.spec, grid, t)
            reports = repr((bilinear_residuals(ing), envelope_residuals(ing)))
            monkeypatch.setattr(ansatz, "_ROW_BLOCK", 3 * nx)
            assert repr((bilinear_residuals(ing), envelope_residuals(ing))) == reports
            monkeypatch.undo()
            for which, values in want.items():
                mask = grid.keep & np.isfinite(values)
                got = sample_field(e.spec, which, e.window, t, nx, ny)
                np.testing.assert_array_equal(got.mask, mask)
                assert got.values.tobytes() == np.where(mask, values, 0.0).tobytes(), (
                    samples, t, which)


def test_envelope_field_is_the_u_form_from_plane_jets():
    # the residual from line terms against the u-form that conftest's
    # plane_pde1_field evaluates from jets in (zeta, eta, t): on every a3 != 0
    # case at its reference times and 0.3, on and off the lattice, on the
    # admissible draws and on non-solutions, where the residual is no longer
    # rounding, the same samples are finite and the two differ by at most
    # 1e-10: 5.5e-11 on double_instanton at 97 x 80 and t = 0, where the
    # oracle's own carrier jets read 5.5e-11 and the line identities 4.5e-13
    bundles = []
    for name in case_names():
        e = build_case(name)
        if e.spec.coeffs.a3 != 0.0:
            bundles += [bundle(e.spec, e.window, t, samples, e.valid_mask)
                        for t in (*e.reference_times, 0.3) for samples in (64, (97, 80))]
    draws = _admissible_draws()
    bundles += [bundle(spec, ((-8, 8), (-8, 8)), t, 48) for spec, t in draws]
    # the corruptions on dromion, a1 = a2, and on a draw with a1 != a2, which
    # tells the zeta terms from the eta terms
    for spec, t in ((build_case("dromion").spec, 0.0), draws[0]):
        bundles += [bundle(spec, ((-4, 4), (-4, 4)), t, 48, **hook)
                    for hook in ({"p0_offset": 0.125}, {"rz_offset": 0.1},
                                 {"amplitude_scale": 1.1})]
        gained = dataclasses.replace(spec, funcs=CoefficientFunctions(gamma=TimeFunction((0.5,))))
        bundles.append(bundle(gained, ((-8, 8), (-8, 8)), 0.3, 64))
    assert draws[0][0].coeffs.a1 != draws[0][0].coeffs.a2
    for ing in bundles:
        got, want = _envelope_field(ing), plane_pde1_field(ing.spec, ing.t, ing.rows())
        ok = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), ok)
        assert np.all(np.abs(got - want)[ok] <= 1e-10), (ing.spec, ing.t)


def test_residual_renders_match_report():
    e = build_case("dromion")
    grid = sample_field(e.spec, "bilinear2", e.window, 0.0, 32, 32)
    assert np.max(grid.values[grid.mask]) < 1e-12
    with pytest.raises(ValueError):
        sample_field(e.spec, "nope", e.window, 0.0, 8, 8)
    # at 48 samples the double_instanton mask drops 44 points near its pole
    for name in ("dromion", "double_instanton"):
        e = build_case(name)
        t = e.reference_times[0]
        ing = bundle(e.spec, e.window, t, 48, e.valid_mask)
        line2, pde2 = bilinear_residuals(ing), pde_residuals(e.spec, ing.grid, t)
        for which, rep in (("bilinear2", line2), ("pde2", pde2)):
            grid = sample_field(e.spec, which, e.window, t, 48, 48)
            assert np.max(grid.values[grid.mask]) == rep.max_abs, (name, which)
            assert np.count_nonzero(grid.mask) == rep.samples, (name, which)


# -- scans -------------------------------------------------------------------------


@pytest.mark.parametrize("name", case_names())
def test_scan_agrees_with_admissibility(name):
    e = build_case(name)
    t = e.reference_times[0]
    rep = check_admissibility(Ingredients(e.spec, window_grid(e.window, (48, 48), e.valid_mask), t))
    scan = singularity_scan(e.spec, e.window, t, 48)
    assert scan.min_abs_f == rep.min_abs_f
    assert scan.min_f_point == rep.min_f_point
    assert scan.sign_changes == rep.sign_changes
    assert scan == rep


def test_scan_dromion_positive():
    rep = singularity_scan(build_case("dromion").spec, ((-8, 8), (-8, 8)), 0.0, 64)
    assert rep.min_abs_f > 1.0
    assert rep.sign_changes == 0
    assert rep.pole_intervals_zeta == 0


def test_scan_resonant_reports_sign_changes():
    e = build_case("resonant")
    rep = singularity_scan(e.spec, e.window, 0.0, 96)
    assert rep.sign_changes > 0


@pytest.mark.parametrize("t", [0.3, 1.5707])
def test_scan_counts_tan_poles(t):
    # tan x cos t has its poles at pi/2 + k pi at every t, at t = 1.5707 too,
    # where cos t is 9.6e-5: the window -4:4:-4:4 spans +-pi/2 and +-3pi/2 on
    # both axes, and a bracket of +-1e-9 counts each of them and nothing between.
    # The count is arithmetic, so a range of 1e300 counts its 6e299 poles at once
    e = build_case("periodic")
    rep = singularity_scan(e.spec, ((-4, 4), (-4, 4)), t, 32)
    assert (rep.pole_intervals_zeta, rep.pole_intervals_eta) == (4, 4)
    tancos, poles = e.spec.p, [k * math.pi / 2 for k in (-3, -1, 1, 3)]
    for x in poles:
        assert tancos.pole_count(x - 1e-9, x + 1e-9, t) == 1
    for a, b in zip([-5.0] + poles, poles + [5.0]):
        assert tancos.pole_count(a + 1e-9, b - 1e-9, t) == 0
    assert tancos.pole_count(-1e300, 1e300, t) == pytest.approx(2e300 / math.pi, rel=1e-12)


def test_scan_counts_the_instanton_pole():
    e = build_case("double_instanton")
    rep = singularity_scan(e.spec, ((-4, 4), (-4, 4)), 0.0, 32)
    assert (rep.pole_intervals_zeta, rep.pole_intervals_eta) == (1, 0)
    p = e.spec.p
    assert p.pole_count(-1.0 - 1e-9, -1.0 + 1e-9, 0.0) == 1
    assert p.pole_count(-5.0, -1.0 - 1e-9, 0.0) == p.pole_count(-1.0 + 1e-9, 5.0, 0.0) == 0


@pytest.mark.parametrize("guarded", [False, True])
def test_one_pole_rule_reads_the_bundle_counts(guarded):
    # the rule reads the bundle's pole counts alone: a pole counted into a
    # dromion bundle before its first read fails the window scan and the
    # consistency check of the spec without a guard, and neither of a spec with
    # one, since a guard is how a spec cuts its poles out
    e = build_case("dromion")
    spec = (dataclasses.replace(e.spec, valid_mask=lambda z, h: np.ones(np.shape(z), bool))
            if guarded else e.spec)
    ing = bundle(spec, e.window, 0.0, 32, spec.valid_mask)
    ing.poles = (1, 0)
    rep, crep = check_admissibility(ing), consistency_c1_c2(ing)
    note = "" if guarded else "profile poles inside the window, which no guard cuts out: 1"
    assert (rep.verdict, rep.note, crep.note) == (
        "admissible" if guarded else "singular", note, note)
    assert rep.pole_intervals_zeta == 1
    assert crep.max_variation <= 1e-8 and crep.dropped == 0


@pytest.mark.parametrize("name", case_names())
def test_admissibility_is_the_one_window_scan(name):
    # the pole counts cover the grid's own zeta and eta, the sign changes
    # are the x-neighbour and y-neighbour pairs inside keep where the f that
    # the scan reads from the bundle changes sign, the worst point is the first
    # min |f| of that f in raster order (dromion's is a tie of two), and
    # singularity_scan is the same scan on the same grid
    e = build_case(name)
    t = e.reference_times[0]
    g = window_grid(e.window, (48, 48), e.valid_mask)
    zeta, eta = rotate(g.X, g.Y)
    ing = Ingredients(e.spec, g, t)
    rep = check_admissibility(ing)
    assert rep.pole_intervals_zeta == e.spec.p.pole_count(np.min(zeta), np.max(zeta), t)
    assert rep.pole_intervals_eta == e.spec.q.pole_count(np.min(eta), np.max(eta), t)
    assert singularity_scan(e.spec, e.window, t, 48) == rep

    f = eval_f(e.spec, ing.rows().pj, ing.rows().qj, order=0).value
    sign = np.where(g.keep & np.isfinite(f), np.sign(f), np.nan)    # NaN pairs never flip
    flips = np.count_nonzero(sign[:, 1:] * sign[:, :-1] < 0) + np.count_nonzero(
        sign[1:] * sign[:-1] < 0)
    assert flips == rep.sign_changes
    i, j = np.argwhere(g.keep & (np.abs(f) == rep.min_abs_f))[0]
    assert rep.min_f_point == (g.X[i, j], g.Y[i, j], t)
