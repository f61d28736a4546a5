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

from dsfield.auxiliary import consistency_c1_c2, derive
from dsfield.calculus import Jet, Stencil
from dsfield.catalog import build_case, case_names
from dsfield.cli import main as cli_main
from dsfield.field import (
    analyze_extrema,
    decay_profile,
    estimate_period,
    parse_csv,
    point_reflection_defect,
    reflection_defect,
    refined_global_max,
    sample_field,
    to_csv,
)
from dsfield.verify import bilinear_residuals, hirota_d, pde_phi_convergence, pde_residuals

from conftest import perturbed, random_spec


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
    with criterion(1, "bilinear constraint identity, catalog + 100 random specs"):
        start = time.monotonic()
        for name in case_names():
            e = build_case(name)
            line2, _ = bilinear_residuals(e.spec, derive(e.spec), e.window,
                                          e.reference_times[0], 64,
                                          valid_mask=e.valid_mask,
                                          check_line1=False)
            assert line2.max_abs < 1e-12, name
        for _ in range(100):
            spec = random_spec(rng)
            line2, _ = bilinear_residuals(spec, None, ((-8, 8), (-8, 8)),
                                          float(rng.uniform(-1, 1)), 64,
                                          check_line1=False)
            assert line2.max_abs < 1e-12
        assert time.monotonic() - start < 10.0


def test_criterion_2_dromion_closed_case():
    with criterion(2, "dromion closed-case envelope equation + negative control"):
        start = time.monotonic()
        e = build_case("dromion")
        aux = derive(e.spec)
        window = ((-4, 4), (-4, 4))
        line1, _ = pde_residuals(e.spec, aux, window, 0.0, 48,
                                 Stencil(2, 2, 1e-3), checks=("line1",))
        assert line1.applicable
        assert line1.max_abs < 1e-6
        corrupted = perturbed(aux, p0_offset=0.5 - 0.375)
        bad, _ = pde_residuals(e.spec, corrupted, window, 0.0, 48,
                               checks=("line1",))
        assert bad.max_abs > 1e-2
        assert time.monotonic() - start < 30.0


def test_criterion_3_phi_equation_convergence():
    with criterion(3, "forcing-field constraint converges at stencil order"):
        for name in ("dromion", "solitoff"):
            e = build_case(name)
            for acc, h, nominal in ((2, 2e-2, 2.0), (4, 5e-2, 4.0)):
                _, _, order = pde_phi_convergence(e.spec, ((-3, 3), (-3, 3)),
                                                  0.0, 20, Stencil(2, acc, h))
                assert abs(order - nominal) <= 0.3, (name, acc, order)


@pytest.mark.slow
def test_criterion_4_breather_period():
    with criterion(4, "breather period pi and pointwise periodicity"):
        e = build_case("breather")
        res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 128,
                              "global_max", grid_n=32)
        assert res.estimated_period == pytest.approx(math.pi,
                                                     abs=2 * math.pi / 128)
        for t in (0.0, 0.7, 2.5):
            a = sample_field(e.spec, None, "U", e.window, t, 64, 64)
            b = sample_field(e.spec, None, "U", e.window, t + math.pi, 64, 64)
            assert float(np.max(np.abs(a.values - b.values))) < 1e-12


@pytest.mark.slow
def test_criterion_5_periodic_pattern():
    with criterion(5, "periodic pattern point-reflection symmetry and period"):
        e = build_case("periodic")
        for t in (0.4, 1.1):
            ga = sample_field(e.spec, None, "U", e.window, t + math.pi, 96, 96,
                              valid_mask=e.valid_mask)
            gb = sample_field(e.spec, None, "U", e.window, t, 96, 96,
                              valid_mask=e.valid_mask)
            assert point_reflection_defect(ga, gb) < 1e-12
        res = estimate_period(e.spec, e.window, (0.0, 2 * math.pi), 32,
                              "global_max", grid_n=32, valid_mask=e.valid_mask)
        assert res.estimated_period == pytest.approx(math.pi,
                                                     abs=res.period_resolution)


def test_criterion_6_double_instanton_decay():
    with criterion(6, "double-instanton peak decay and two bonded maxima"):
        e = build_case("double_instanton")
        # decay window [-12,12]^2: the structure drifts to eta ~ -13.7 by
        # t = 6, outside the default render window
        res = decay_profile(e.spec, ((-12, 12), (-12, 12)), (0.0, 3.0, 6.0),
                            grid_n=384, valid_mask=e.valid_mask)
        maxima = [m for _, m in res.decay_series]
        for got, ref in zip(maxima, (0.6, 0.006, 1.5e-5)):
            assert abs(got - ref) <= 0.25 * ref, (got, ref)
        grid = sample_field(e.spec, None, "U", e.window, 0.0, 256, 256,
                            valid_mask=e.valid_mask)
        assert len(analyze_extrema(grid).local_maxima) == 2


def test_criterion_7_dromion_structure():
    with criterion(7, "dromion: single peak, tail containment, reflection"):
        e = build_case("dromion")
        grid = sample_field(e.spec, None, "U", e.window, 0.0, 512, 512)
        assert len(analyze_extrema(grid).local_maxima) == 1

        peak, (px, py) = refined_global_max(e.spec, e.window, 0.0, 128, 128)
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
    with criterion(8, "bilinear operator antisymmetry and eigen-identity"):
        for _ in range(1000):
            ent = rng.uniform(-3, 3, 6)
            a = lambda pt: Jet(*ent)
            assert hirota_d(a, a, 1, 0, (0.0, 0.0)) == 0.0
            assert hirota_d(a, a, 0, 1, (0.0, 0.0)) == 0.0
        for _ in range(300):
            k1 = float(rng.uniform(-2, 2))
            k2 = k1 - float(rng.choice([-1, 1])) * float(rng.uniform(0.5, 2.0))
            x = float(rng.uniform(-1, 1))

            def ek(k):
                return lambda pt: Jet(math.exp(k * pt[0]),
                                      k * math.exp(k * pt[0]), 0.0,
                                      k * k * math.exp(k * pt[0]), 0.0, 0.0)

            for m in (1, 2):
                got = hirota_d(ek(k1), ek(k2), m, 0, (x, 0.0))
                want = (k1 - k2) ** m * math.exp((k1 + k2) * x)
                assert abs(got - want) <= 1e-13 * abs(want)


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
        grid = sample_field(e.spec, None, "U", e.window, 0.0, 48, 48)
        x, y, v = parse_csv(to_csv(grid))
        assert np.array_equal(v, grid.values.ravel())


def test_criterion_10_consistency_diagnostics(tmp_path):
    with criterion(10, "consistency certifies gain-free case, flags gain"):
        e = build_case("dromion")
        probes = np.linspace(-4, 4, 65)
        clean = consistency_c1_c2(e.spec, derive(e.spec), probes, probes, 0.0)
        assert clean.max_variation < 1e-12

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
