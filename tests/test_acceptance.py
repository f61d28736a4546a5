"""Acceptance criteria for the whole package, one test per criterion.

Each criterion prints a single PASS/FAIL line on the real stdout so the
outcome is visible regardless of capture settings.  Tolerances are pinned
here; derived bounds state their oracle next to the assertion.
"""

import contextlib
import math
import os
import time

import numpy as np
import pytest

from dsfield.ansatz import eval_f, rotate, window_grid
from dsfield.auxiliary import Ingredients, consistency_c1_c2
from dsfield.calculus import Jet, layout
from dsfield.catalog import build_case, case_names
from dsfield.cli import main as cli_main
from dsfield.field import (
    analyze_extrema,
    decay_profile,
    estimate_period,
    sample_field,
)
from dsfield.verify import bilinear_residuals, envelope_residuals

from conftest import (
    admissible_spec,
    analysis_grid,
    bundle,
    csv_bytes,
    fd_phi_convergence,
    hirota_cross,
    hirota_d,
    negative_radicands,
    parse_csv,
    peak_at,
    point_reflection_defect,
    profile_jets3,
    random_spec,
    reflection_defect,
)


import conftest


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {number:2d} FAIL  {label}")
        raise
    conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {number:2d} PASS  {label}")


def test_criterion_1_bilinear_identity(rng):
    with criterion(1, "bilinear constraint identity, catalog + 100 random"
                      " + 100 admissible specs"):
        start = time.monotonic()
        for name in case_names():
            e = build_case(name)
            line2 = bilinear_residuals(bundle(e.spec, e.window, e.reference_times[0], 64,
                                              e.valid_mask))
            assert line2.max_abs < 1e-12, name
        # a random spec is checked where its amplitude radicands are not
        # negative, and its other samples are dropped
        for _ in range(100):
            spec = random_spec(rng)
            ing = bundle(spec, ((-8, 8), (-8, 8)), float(rng.uniform(-1, 1)), 64)
            line2 = bilinear_residuals(ing)
            assert line2.samples + line2.dropped == 64 * 64
            assert line2.dropped == negative_radicands(ing)
            if line2.samples:
                assert line2.max_abs < 1e-12
        # an admissible draw has real amplitude factors everywhere: every sample is
        # checked (the random draws above check 198,378 of their 409,600)
        adm = np.random.default_rng(1)
        for _ in range(100):
            ing = bundle(admissible_spec(adm), ((-8, 8), (-8, 8)), float(adm.uniform(-1, 1)), 64)
            line2 = bilinear_residuals(ing)
            assert line2.samples == 64 * 64 and line2.dropped == 0
            assert line2.max_abs < 1e-12
        assert time.monotonic() - start < 10.0


def test_criterion_2_dromion_closed_case():
    with criterion(2, "dromion closed-case envelope equation + negative control"):
        start = time.monotonic()
        e = build_case("dromion")
        window = ((-4, 4), (-4, 4))
        _, line1 = envelope_residuals(bundle(e.spec, window, 0.0, 48))
        assert line1.applicable
        assert line1.max_abs < 1e-6
        _, bad = envelope_residuals(bundle(e.spec, window, 0.0, 48, p0_offset=0.5 - 0.375))
        assert bad.max_abs > 1e-2
        assert time.monotonic() - start < 30.0


def test_criterion_3_phi_equation_convergence():
    # on the finite-difference oracle, whose accuracy-2 stencil at verify's own
    # steps is verify's pde2 bit for bit (test_verify)
    with criterion(3, "forcing-field constraint converges at stencil order"):
        for name in ("dromion", "solitoff"):
            e = build_case(name)
            for acc, h, nominal in ((2, 2e-2, 2.0), (4, 5e-2, 4.0)):
                _, _, order = fd_phi_convergence(e.spec, window_grid(((-3, 3), (-3, 3)), 20),
                                                 0.0, h, acc)
                assert abs(order - nominal) <= 0.3, (name, acc, order)


def test_criterion_4_breather_period():
    with criterion(4, "breather period pi and pointwise periodicity"):
        e = build_case("breather")
        res = estimate_period(e.spec, analysis_grid(e.spec, e.window, 32), (0.0, 2 * math.pi),
                              128, "global_max")
        assert res.estimated_period == pytest.approx(math.pi,
                                                     abs=2 * math.pi / 128)
        for t in (0.0, 0.7, 2.5):
            a = sample_field(e.spec, "U", e.window, t, 64, 64)
            b = sample_field(e.spec, "U", e.window, t + math.pi, 64, 64)
            assert float(np.max(np.abs(a.values - b.values))) < 1e-12


def test_criterion_5_periodic_pattern():
    with criterion(5, "periodic pattern point-reflection symmetry and period"):
        e = build_case("periodic")
        for t in (0.4, 1.1):
            ga = sample_field(e.spec, "U", e.window, t + math.pi, 96, 96)
            gb = sample_field(e.spec, "U", e.window, t, 96, 96)
            assert point_reflection_defect(ga, gb) < 1e-12
        res = estimate_period(e.spec, analysis_grid(e.spec, e.window, 32), (0.0, 2 * math.pi),
                              32, "global_max")
        assert res.estimated_period == pytest.approx(math.pi,
                                                     abs=res.period_resolution)


def test_criterion_6_double_instanton_decay():
    with criterion(6, "double-instanton peak decay and two bonded maxima"):
        e = build_case("double_instanton")
        # decay window [-12,12]^2: the structure drifts to eta ~ -13.7 by
        # t = 6, outside the default render window
        series = decay_profile(e.spec, analysis_grid(e.spec, ((-12, 12), (-12, 12)), 384),
                               (0.0, 3.0, 6.0))
        maxima = [m for _, m in series]
        for got, ref in zip(maxima, (0.6, 0.006, 1.5e-5)):
            assert abs(got - ref) <= 0.25 * ref, (got, ref)
        grid = sample_field(e.spec, "U", e.window, 0.0, 256, 256)
        assert len(analyze_extrema(grid)[2]) == 2


def test_criterion_7_dromion_structure():
    with criterion(7, "dromion: single peak, tail containment, reflection"):
        e = build_case("dromion")
        grid = sample_field(e.spec, "U", e.window, 0.0, 512, 512)
        assert len(analyze_extrema(grid)[2]) == 1

        peak, (px, py) = peak_at(e.spec, e.window, 0.0, 128)
        assert peak == pytest.approx(2.0 / (2.0 + math.sqrt(2.0)) ** 2, rel=1e-13)
        X, Y = np.meshgrid(grid.x, grid.y)
        outside = (np.hypot(X - px, Y - py) > 6.0) & grid.mask
        tail = float(np.max(grid.values[outside]))
        # containment bound from the grid oracle: the slowest decay runs
        # along the two ridge directions and reaches ~1.76e-3 at radius 6;
        # the 1e-6 level is first reached ~10.5 from the peak
        assert 1.4e-3 < tail < 2.1e-3
        # monotone beyond: the worst tail value at radius 8 is lower still
        far = (np.hypot(X - px, Y - py) > 8.0) & grid.mask
        assert float(np.max(grid.values[far])) < tail

        assert reflection_defect(grid) < 1e-12


def test_criterion_8_hirota_engine(rng):
    with criterion(8, "bilinear operator antisymmetry, eigen-identity, closed form"):
        for _ in range(1000):
            ent = rng.uniform(-3, 3, 6)
            a = lambda pt: Jet(ent, layout(2, 2))
            assert hirota_d(a, a, 1, 0, (0.0, 0.0)) == 0.0
            assert hirota_d(a, a, 0, 1, (0.0, 0.0)) == 0.0
        for _ in range(300):
            k1 = float(rng.uniform(-2, 2))
            k2 = k1 - float(rng.choice([-1, 1])) * float(rng.uniform(0.5, 2.0))
            x = float(rng.uniform(-1, 1))

            def ek(k):
                return lambda pt: Jet((math.exp(k * pt[0]),
                                       k * math.exp(k * pt[0]), 0.0,
                                       k * k * math.exp(k * pt[0]), 0.0, 0.0), layout(2, 2))

            for m in (1, 2):
                got = hirota_d(ek(k1), ek(k2), m, 0, (x, 0.0))
                want = (k1 - k2) ** m * math.exp((k1 + k2) * x)
                assert abs(got - want) <= 1e-13 * abs(want)
        # bilinear2's closed form 2 D_z D_e f.f = 4 det p_z q_e on every catalog case
        # at its reference times, at the valid points of a 5 x 5 interior lattice,
        # relative to the cancelling terms |f f_ze| + |f_z f_e|: measured, the
        # operator equals hirota_cross bit for bit (bound: two roundings) and
        # 2 det p_z q_e to 5.0e-16 (bound 1e-15)
        ze = layout(2, 2)
        for name in case_names():
            e = build_case(name)
            (x0, x1), (y0, y1) = e.window
            x, y = np.meshgrid(np.linspace(x0, x1, 7)[1:-1], np.linspace(y0, y1, 7)[1:-1])
            zeta, eta = rotate(x.ravel(), y.ravel())
            ok = e.valid_mask(zeta, eta)
            for t in e.reference_times:
                pj, qj = profile_jets3(e.spec, zeta[ok], eta[ok], t)
                tau = eval_f(e.spec, pj, qj)
                f = lambda pt: Jet([tau[m + (0,)] for m in ze.index], ze)
                got = hirota_d(f, f, 1, 1, None)
                scale = np.abs(tau.value * tau[1, 1, 0]) + np.abs(tau[1, 0, 0] * tau[0, 1, 0])
                closed = 2.0 * e.spec.coeffs.det * pj[1, 0] * qj[1, 0]
                assert np.all(np.abs(got - hirota_cross(tau)) <= 4.5e-16 * scale), (name, t)
                assert np.all(np.abs(got - closed) <= 1e-15 * scale), (name, t)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical renders and bit-exact CSV round-trip"):
        outs = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"{tag}.csv"
            pgm_path = tmp_path / f"{tag}.pgm"
            assert cli_main(["render", "--case", "dromion", "--t", "0",
                             "--out", str(csv_path), "--res", "96"]) == 0
            assert cli_main(["render", "--case", "dromion", "--t", "0",
                             "--out", str(pgm_path), "--format", "pgm16",
                             "--res", "96"]) == 0
            outs.append((csv_path.read_bytes(), pgm_path.read_bytes(),
                         (tmp_path / f"{tag}.pgm.txt").read_bytes()))
        assert outs[0] == outs[1]

        e = build_case("dromion")
        grid = sample_field(e.spec, "U", e.window, 0.0, 48, 48)
        x, y, v = parse_csv(csv_bytes(grid))
        assert np.array_equal(v, grid.values.ravel())


def test_criterion_10_consistency_diagnostics(tmp_path):
    with criterion(10, "consistency certifies gain-free case, flags gain"):
        e = build_case("dromion")
        clean = consistency_c1_c2(Ingredients(e.spec, window_grid(((-4, 4), (-4, 4)), 65), 0.0))
        assert clean.max_variation < 1e-12 and clean.dropped == 0

        cfg = tmp_path / "gained.cfg"
        base = open(os.path.join(os.path.dirname(__file__), os.pardir,
                                 "configs", "dromion.cfg")).read()
        cfg.write_text(base.replace("gamma = 0", "gamma = 0.5"))
        report = tmp_path / "report.txt"
        code = cli_main(["verify", "--spec", str(cfg), "--t", "0",
                         "--checks", "consistency", "--out", str(report)])
        assert code == 1
        text = report.read_text()
        variation = float(next(ln.split(": ")[1] for ln in text.splitlines()
                               if ln.startswith("check.consistency.c1_variation")))
        assert variation > 1e-3
