import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dsfield import profiles
from dsfield.ansatz import batches
from dsfield.cli import main, parse_time, parse_window
from dsfield.field import parse_csv
from dsfield.specfile import dumps_spec, load_spec, loads_spec, SpecFileError
from dsfield.catalog import build_case, case_names

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run(*argv):
    return main(list(argv))


# -- parsing ------------------------------------------------------------------


@pytest.mark.parametrize("text,value", [
    ("0", 0.0),
    ("1.5707963", 1.5707963),
    ("pi", math.pi),
    ("pi/4", math.pi / 4),
    ("2pi/3", 2 * math.pi / 3),
    ("3*pi/4", 3 * math.pi / 4),
    ("-pi", -math.pi),
    ("0.5pi", math.pi / 2),
])
def test_parse_time(text, value):
    assert parse_time(text) == pytest.approx(value, rel=1e-15)


def test_parse_time_rejects_garbage():
    from dsfield.cli import UsageError
    with pytest.raises(UsageError):
        parse_time("two pies")


@pytest.mark.parametrize("text", ["pi/0", "2pi/0.0", "nan", "inf", "-inf"])
def test_bad_time_is_usage_error(text, tmp_path, capsys):
    from dsfield.cli import UsageError
    with pytest.raises(UsageError):
        parse_time(text)
    out = tmp_path / "x.csv"
    assert run("render", "--case", "dromion", "--t", text,
               "--out", str(out), "--res", "16") == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_parse_window():
    assert parse_window("-1:2:-3:4.5") == ((-1.0, 2.0), (-3.0, 4.5))
    from dsfield.cli import UsageError
    with pytest.raises(UsageError):
        parse_window("1:2:3")
    with pytest.raises(UsageError):
        parse_window("2:1:0:1")


# -- spec files ----------------------------------------------------------------


def test_configs_round_trip_catalog():
    for name in case_names():
        spec = load_spec(os.path.join(CONFIGS, f"{name}.cfg"))
        entry = build_case(name)
        assert spec.coeffs == entry.spec.coeffs
        assert spec.p.family == entry.spec.p.family
        assert loads_spec(dumps_spec(spec)).coeffs == spec.coeffs


def test_spec_file_errors():
    with pytest.raises(SpecFileError, match="missing"):
        loads_spec("[coeffs]\na0=1\na1=1\na2=1\na3=1\n")
    with pytest.raises(SpecFileError, match="family"):
        loads_spec("[coeffs]\na0=1\na1=1\na2=1\na3=1\n"
                   "[p]\nfamily = wavelet\n[q]\nfamily = tancos\n")
    with pytest.raises(SpecFileError):
        loads_spec("[coeffs]\na0=1\na1=1\na2=1\na3=1\n"
                   "[p]\nfamily = expsum\nA=1\nK=1\nL=1\n"
                   "[q]\nfamily = tancos\n")
    # a sign is +1 or -1: inf used to crash with OverflowError, and 1.5
    # was truncated to +1
    base = "[coeffs]\na0=1\na1=1\na2=1\na3=2\n[p]\nfamily = tancos\n[q]\nfamily = tancos\n"
    for bad in ("inf", "1.5"):
        with pytest.raises(SpecFileError, match="delta1"):
            loads_spec(base + f"[signs]\ndelta1 = {bad}\n")
    spec = loads_spec(base + "[signs]\ndelta1 = -1.0\ndelta2 = +1\n")
    assert (spec.delta1, spec.delta2) == (-1, 1)


# -- subcommands ----------------------------------------------------------------


def test_catalog_lists_all(capsys):
    assert run("catalog") == 0
    out = capsys.readouterr().out
    for name in case_names():
        assert name in out


def test_render_writes_csv(tmp_path):
    out = tmp_path / "field.csv"
    assert run("render", "--case", "dromion", "--t", "0",
               "--out", str(out), "--res", "32") == 0
    data = out.read_bytes()
    assert data.startswith(b"x,y,U\n")


def test_render_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("render", "--case", "solitoff", "--t", "0", "--out", str(a), "--res", "48")
    run("render", "--case", "solitoff", "--t", "0", "--out", str(b), "--res", "48")
    assert a.read_bytes() == b.read_bytes()


def test_render_pgm_with_sidecar(tmp_path):
    out = tmp_path / "field.pgm"
    assert run("render", "--case", "dromion", "--t", "0", "--out", str(out),
               "--format", "pgm16", "--res", "32") == 0
    assert out.read_bytes().startswith(b"P5\n32 32\n65535\n")
    assert "scale_max" in (tmp_path / "field.pgm.txt").read_text()


def test_render_degenerate_breather_exits_3(tmp_path, capsys):
    out = tmp_path / "field.csv"
    code = run("render", "--case", "breather", "--t", "1.5707963",
               "--out", str(out), "--res", "16")
    assert code == 3
    assert "degenerate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("res", ["263", "512"])
def test_render_periodic_emits_no_numpy_warnings(tmp_path, res):
    # the tan poles make f's time jets non-finite off the valid box
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("render", "--case", "periodic", "--t", "0.3", "--res", res,
                   "--out", str(tmp_path / "u.csv")) == 0


def test_render_bilinear2_matches_verify_report(tmp_path):
    # the render normalizes g g* by the amplitude factors, as the report does
    csv, rep = tmp_path / "b2.csv", tmp_path / "r.txt"
    assert run("render", "--case", "dromion", "--which", "bilinear2", "--t", "0",
               "--res", "64", "--out", str(csv)) == 0
    assert run("verify", "--case", "dromion", "--t", "0", "--res", "64",
               "--checks", "bilinear2", "--out", str(rep)) == 0
    top = max(abs(v) for v in parse_csv(csv.read_bytes())[2])
    assert f"check.bilinear2.max_abs: {top:.6e}\n" in rep.read_text()


def test_render_breather_phi_at_half_pi_exits_3(tmp_path, capsys):
    out = tmp_path / "field.csv"
    assert run("render", "--case", "breather", "--t", "pi/2", "--which",
               "phi", "--out", str(out), "--res", "16") == 3
    assert "singular" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_follows_error_class_not_message(tmp_path, monkeypatch,
                                                   capsys):
    def fail(*args, **kwargs):
        raise ValueError("singular matrix in an unrelated step")

    monkeypatch.setattr("dsfield.cli.sample_field", fail)
    assert run("render", "--case", "dromion", "--t", "0",
               "--out", str(tmp_path / "x.csv"), "--res", "16") == 2
    assert "singular matrix" in capsys.readouterr().err


def test_render_unknown_case_exits_2(tmp_path, capsys):
    code = run("render", "--case", "worm", "--t", "0",
               "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "valid names" in capsys.readouterr().err


def test_case_and_spec_are_exclusive(tmp_path, capsys):
    code = run("render", "--case", "dromion",
               "--spec", os.path.join(CONFIGS, "dromion.cfg"),
               "--t", "0", "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_verify_dromion_bilinear2(tmp_path):
    out = tmp_path / "report.txt"
    code = run("verify", "--case", "dromion", "--t", "0",
               "--checks", "bilinear2", "--tol", "1e-10", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert "check.bilinear2.status: pass" in text
    assert "overall: pass" in text


def test_verify_full_suite_dromion(tmp_path):
    out = tmp_path / "report.txt"
    code = run("verify", "--case", "dromion", "--t", "0",
               "--checks", "bilinear2,bilinear1,pde2,pde1,consistency,admissibility",
               "--res", "32", "--out", str(out))
    assert code == 0
    text = out.read_text()
    for check in ("bilinear2", "bilinear1", "pde1", "pde2", "consistency",
                  "admissibility"):
        assert f"check.{check}.status: pass" in text


def test_verify_gain_fails_consistency(tmp_path, capsys):
    cfg = tmp_path / "gained.cfg"
    base = open(os.path.join(CONFIGS, "dromion.cfg")).read()
    cfg.write_text(base.replace("gamma = 0", "gamma = 0.5"))
    code = run("verify", "--spec", str(cfg), "--t", "0",
               "--checks", "consistency", "--out", str(tmp_path / "r.txt"))
    assert code == 1
    assert "checks failed: consistency" in capsys.readouterr().err
    assert "check.consistency.status: fail" in (tmp_path / "r.txt").read_text()


def test_verify_consistency_gate_fails_closed_on_an_undefined_variation(tmp_path, capsys):
    # a3 = 0.5 gives det < 0, so q1 and with it c2 are NaN on every probe
    # while c1 stays finite: the gate must fail, and the envelope checks are
    # skipped with the undefined variation in their notes, not run
    cfg = tmp_path / "a3.cfg"
    base = open(os.path.join(CONFIGS, "dromion.cfg")).read()
    cfg.write_text(base.replace("a3 = 2", "a3 = 0.5"))
    out = tmp_path / "r.txt"
    assert run("verify", "--spec", str(cfg), "--t", "0.3", "--checks", ALL,
               "--out", str(out)) == 1
    assert "checks failed: consistency, admissibility" in capsys.readouterr().err
    rep = dict(ln.split(": ", 1) for ln in out.read_text().splitlines())
    assert rep["check.consistency.c1_variation"] != "nan"
    assert rep["check.consistency.c2_variation"] == "nan"
    assert rep["check.consistency.status"] == "fail"
    for check in ("bilinear1", "pde1"):
        assert rep[f"check.{check}.status"] == "skipped", check
        assert "variation nan" in rep[f"check.{check}.notes"], check


@pytest.mark.parametrize("name,edit,t", [("dromion.cfg", ("a3 = 2", "a3 = 0.5"), "0.3"),
                                         ("periodic.cfg", ("", ""), "2")],
                         ids=["dromion-a3-0.5", "periodic-t-2"])
def test_verify_notes_name_an_undefined_consistency_variation(tmp_path, name, edit, t):
    # a NaN variation compares with no gate: the envelope checks say it is
    # undefined, not "nan > gate", and the consistency check names it
    cfg = tmp_path / name
    cfg.write_text(open(os.path.join(CONFIGS, name)).read().replace(*edit))
    out = tmp_path / "r.txt"
    assert run("verify", "--spec", str(cfg), "--t", t, "--checks", ALL,
               "--out", str(out)) == 1
    rep = dict(ln.split(": ", 1) for ln in out.read_text().splitlines())
    undefined = [k for k in ("c1_variation", "c2_variation")
                 if rep[f"check.consistency.{k}"] == "nan"]
    assert undefined and rep["check.consistency.status"] == "fail"
    assert rep["check.consistency.notes"] == "; ".join(f"{k} undefined (nan)"
                                                      for k in undefined)
    for check in ("bilinear1", "pde1"):
        assert rep[f"check.{check}.status"] == "skipped", check
        assert (rep[f"check.{check}.notes"]
                == "not applicable: undefined consistency (variation nan)"), check


def test_verify_resonant_skips_consistency(tmp_path):
    code = run("verify", "--case", "resonant", "--t", "0",
               "--checks", "consistency", "--out", str(tmp_path / "r.txt"))
    assert code == 0
    assert "skipped" in (tmp_path / "r.txt").read_text()


def test_verify_resonant_admissibility_fails(tmp_path):
    code = run("verify", "--case", "resonant", "--t", "0",
               "--checks", "admissibility", "--res", "48",
               "--out", str(tmp_path / "r.txt"))
    assert code == 1
    assert "verdict: singular" in (tmp_path / "r.txt").read_text()


@pytest.mark.parametrize("name", ["periodic", "double_instanton", "dromion"])
def test_verify_admissibility_counts_poles_without_a_second_scan(
        tmp_path, monkeypatch, name):
    import dsfield.verify as verify
    e = build_case(name)
    t = e.reference_times[0]
    scan = verify.singularity_scan(e.spec, e.window, t, 48, e.valid_mask)
    expected = len(scan.pole_intervals_zeta) + len(scan.pole_intervals_eta)

    def no_scan(*args, **kwargs):
        raise AssertionError("verify ran the 2-D singularity scan")
    monkeypatch.setattr(verify, "singularity_scan", no_scan)
    monkeypatch.setattr("dsfield.cli.singularity_scan", no_scan, raising=False)
    out = tmp_path / "r.txt"
    run("verify", "--case", name, "--t", repr(t), "--checks", "admissibility",
        "--res", "48", "--out", str(out))
    assert f"check.admissibility.pole_intervals: {expected}\n" in out.read_text()


@pytest.mark.parametrize("name", case_names())
def test_verify_admissibility_takes_pole_ranges_from_window_corners(
        tmp_path, monkeypatch, name):
    # the sweeps cover the zeta and eta ranges of the admissibility grid,
    # which is the only window grid built; the count equals that of sweeps
    # over the grid's own coordinates
    import dsfield.ansatz as ansatz
    from dsfield.ansatz import pole_sweep
    e = build_case(name)
    t = e.reference_times[-1]
    orig = ansatz.window_grid
    grids = []

    def counting(*args, **kwargs):
        grids.append(args)
        return orig(*args, **kwargs)

    g = orig(e.window, 40)
    expected = (len(pole_sweep(e.spec.p, g.zeta, t))
                + len(pole_sweep(e.spec.q, g.eta, t)))
    # every module's binding, so a grid built anywhere counts
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "dsfield" and getattr(mod, "window_grid", None) is orig:
            monkeypatch.setattr(mod, "window_grid", counting)
    out = tmp_path / "r.txt"
    run("verify", "--case", name, "--t", repr(t), "--checks", "admissibility",
        "--res", "40", "--out", str(out))
    assert len(grids) == 1
    assert f"check.admissibility.pole_intervals: {expected}\n" in out.read_text()


def test_verify_unknown_check_exits_2(capsys):
    assert run("verify", "--case", "dromion", "--t", "0",
               "--checks", "spectral") == 2


ALL = "bilinear2,bilinear1,pde2,pde1,consistency,admissibility"


@pytest.mark.parametrize("argv", [
    # a non-finite bound used to drop most samples as NaN, with warnings
    ("render", "--case", "dromion", "--t", "0", "--window=-inf:0:0:1", "--res", "16"),
    # a reversed scan used to print a negative resolution
    ("analyze", "--case", "breather", "--period", "1:0:32"),
    # an empty check list used to run nothing and print overall: pass
    ("verify", "--case", "dromion", "--t", "0", "--checks", ","),
    # a tolerance of nan or 0 used to fail every check, and inf to pass it
    ("verify", "--case", "dromion", "--t", "0", "--tol", "nan"),
    ("verify", "--case", "dromion", "--t", "0", "--tol", "0"),
    ("verify", "--case", "dromion", "--t", "0", "--tol-pde", "inf"),
    ("verify", "--case", "dromion", "--t", "0", "--tol-consistency=-1e-8"),
])
def test_bad_input_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert run(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_option_prefixes_are_not_aliases(tmp_path, capsys):
    # the retired verify --h would otherwise read as --help and exit 0
    # without a report
    out = tmp_path / "r.txt"
    assert run("verify", "--case", "dromion", "--t", "0", "--h", "1e-3",
               "--out", str(out)) == 2
    assert "unrecognized arguments: --h" in capsys.readouterr().err
    assert not out.exists()


def test_verify_evaluates_consistency_and_phases_once(tmp_path, monkeypatch):
    # one envelope pass for bilinear1 and pde1, gated on the one consistency
    # report that the consistency check prints
    import dsfield
    from dsfield.auxiliary import Auxiliaries
    calls = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    orig = dsfield.auxiliary.consistency_c1_c2
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "dsfield" and getattr(mod, "consistency_c1_c2", None) is orig:
            monkeypatch.setattr(mod, "consistency_c1_c2", counted("consistency", orig))
    for attr in ("phase_r", "phase_s"):
        monkeypatch.setattr(Auxiliaries, attr, counted(attr, getattr(Auxiliaries, attr)))
    assert run("verify", "--case", "breather", "--t", "0.3", "--res", "32",
               "--checks", ALL, "--out", str(tmp_path / "r.txt")) == 0
    assert calls == {"consistency": 1, "phase_r": 1, "phase_s": 1}


def test_verify_and_render_evaluate_each_profile_jet_once(tmp_path, monkeypatch):
    # one ingredient bundle per grid: a six-check verify evaluates each
    # profile's jet, and p1 and q1, on the --res grid once; the pole sweeps
    # read profile values alone; a phi render evaluates each profile on its
    # grid once
    from dsfield.auxiliary import Auxiliaries
    e = build_case("breather")
    on_grid, sweep_entries, amplitudes = [], [], []
    for cls in (type(e.spec.p), type(e.spec.q)):
        def counting(self, x, t, *args, jet3=cls.jet3, **kwargs):
            out = jet3(self, x, t, *args, **kwargs)
            if np.shape(x) == (64, 64):
                on_grid.append(type(self).__name__)
            if np.size(x) == 65537:
                sweep_entries.append(len(out.entries))
            return out
        monkeypatch.setattr(cls, "jet3", counting)
    for attr in ("p1_jet", "q1_jet"):
        def counting_amplitude(self, j, t, attr=attr, amp=getattr(Auxiliaries, attr)):
            if np.shape(j.value) == (64, 64):
                amplitudes.append(attr)
            return amp(self, j, t)
        monkeypatch.setattr(Auxiliaries, attr, counting_amplitude)
    assert run("verify", "--case", "breather", "--t", "0.3", "--res", "64",
               "--checks", ALL, "--out", str(tmp_path / "r.txt")) == 0
    assert sorted(on_grid) == ["BreatherPProfile", "BreatherQProfile"]
    assert sorted(amplitudes) == ["p1_jet", "q1_jet"]
    assert sweep_entries == [1, 1]
    on_grid.clear()
    assert run("render", "--case", "breather", "--t", "0.3", "--which", "phi",
               "--res", "64", "--out", str(tmp_path / "phi.csv")) == 0
    assert sorted(on_grid) == ["BreatherPProfile", "BreatherQProfile"]


def test_verify_tol_consistency_moves_the_gate(tmp_path):
    cfg = tmp_path / "gained.cfg"
    base = open(os.path.join(CONFIGS, "dromion.cfg")).read()
    cfg.write_text(base.replace("gamma = 0", "gamma = 0.5"))
    out = tmp_path / "r.txt"
    run("verify", "--spec", str(cfg), "--t", "0", "--res", "32", "--checks", ALL,
        "--tol-consistency", "1", "--out", str(out))
    rep = dict(ln.split(": ", 1) for ln in out.read_text().splitlines())
    assert rep["check.consistency.status"] == "pass"
    for check in ("bilinear1", "pde1"):
        assert rep[f"check.{check}.status"] != "skipped", check
        assert int(rep[f"check.{check}.samples"]) == 32 * 32, check


def test_verify_envelope_checks_share_the_res_grid(tmp_path):
    out = tmp_path / "r.txt"
    run("verify", "--case", "double_instanton", "--t", "0.3", "--res", "96",
        "--checks", ALL, "--out", str(out))
    rep = dict(ln.split(": ", 1) for ln in out.read_text().splitlines())
    assert rep["check.pde1.status"] == "pass"
    assert rep["check.pde1.samples"] == rep["check.bilinear1.samples"]


def test_analyze_peaks(capsys):
    assert run("analyze", "--case", "dromion", "--peaks", "--t", "0",
               "--res", "64") == 0
    out = capsys.readouterr().out
    assert "local_maxima: 1" in out


def test_analyze_period_breather(tmp_path):
    out = tmp_path / "a.txt"
    assert run("analyze", "--case", "breather", "--period", "0:2pi:32",
               "--res", "24", "--out", str(out)) == 0
    text = out.read_text()
    period = float(dict(ln.split(": ") for ln in text.strip().splitlines())["period"])
    assert period == pytest.approx(math.pi, abs=2 * math.pi / 32)


def test_analyze_decay(capsys):
    assert run("analyze", "--case", "dromion", "--decay", "0,1",
               "--res", "48") == 0
    out = capsys.readouterr().out
    assert "max_at_t_0" in out and "max_at_t_1" in out


def test_analyze_decay_labels_each_time_by_its_round_trip_repr(tmp_path):
    # times that agree to six digits keep three distinct keys
    out = tmp_path / "d.txt"
    assert run("analyze", "--case", "dromion", "--decay",
               "0.30000001,0.30000002,0.3", "--res", "32", "--out", str(out)) == 0
    rep = dict(ln.split(": ", 1) for ln in out.read_text().splitlines())
    labels = [k for k in rep if k.startswith("max_at_t_")]
    assert [float(k[len("max_at_t_"):]) for k in labels] == [0.30000001, 0.30000002, 0.3]


def test_each_reader_asks_its_profiles_for_the_entries_it_reads(tmp_path, monkeypatch):
    # U reads the box (1, 0) of each profile jet and U_t the box (1, 1), the
    # peak ascent (3, 0), a pole sweep the value, the verify bundle order 3,
    # and the pde2 stencils, phase nodes and consistency probes order 2; each
    # call is booked to its first caller outside the profiles
    e = build_case("breather")
    asked = {}
    for cls in (type(e.spec.p), type(e.spec.q)):
        def counting(self, x, t, order=3, jet3=cls.jet3):
            frame = sys._getframe(1)
            while frame.f_code.co_name in ("jet3", "profile_jets3"):
                frame = frame.f_back
            reader = frame.f_code.co_qualname
            if reader == "grid_intensity.<locals>.on_grid" and frame.f_back.f_locals["dt"]:
                reader += " dt"
            asked.setdefault(reader, set()).add(order)
            return jet3(self, x, t, order)
        monkeypatch.setattr(cls, "jet3", counting)
    grid, rate = "grid_intensity.<locals>.on_grid", "grid_intensity.<locals>.on_grid dt"
    common = ("--case", "breather", "--res", "24", "--out", str(tmp_path / "out"))
    for argv, want in [
        (("render", "--t", "0.3", "--which", "U"), {grid: {(1, 0)}}),
        (("analyze", "--t", "0.3", "--peaks"), {grid: {(1, 0)}}),
        (("analyze", "--period", "0:2pi:32", "--statistic", "L2"),
         {grid: {(1, 0)}, rate: {(1, 1)}}),
        (("analyze", "--period", "0:2pi:32", "--statistic", "global_max"),
         {grid: {(1, 0)}, "_log_intensity_jets": {(3, 0)}, "eval_intensity_dt": {(1, 1)}}),
    ]:
        asked.clear()
        assert run(*argv, *common) == 0
        assert asked == want, argv
    asked.clear()
    assert run("verify", "--t", "0.3", "--checks", ALL, *common) == 0
    assert asked == {"Ingredients.<lambda>": {3}, "pole_sweep": {0}, "_pde2_field": {2},
                     "_integrate_from_anchor": {2}, "consistency_c1_c2": {2}}
    assert not {grid, rate, "_log_intensity_jets", "eval_intensity_dt"} & set(asked)


@pytest.mark.parametrize("statistic", ["L2", "global_max"])
def test_period_solve_evaluates_u_t_only_in_its_steps(tmp_path, monkeypatch, statistic):
    # the scan and the reference probes read S alone; only the Gauss-Newton
    # iterations, at the probe times shifted by about the scan's period pi,
    # evaluate U_t, once each
    from dsfield import field
    seen = []

    def counting_dt(spec, zeta, eta, t, f=field.eval_intensity_dt):
        seen.append(np.min(t))
        return f(spec, zeta, eta, t)

    def counting_grid(spec, grid, t, dt=False, f=field.grid_intensity):
        if dt:
            seen.append(np.min(t))
        return f(spec, grid, t, dt)

    monkeypatch.setattr(field, "eval_intensity_dt", counting_dt)
    monkeypatch.setattr(field, "grid_intensity", counting_grid)
    out = tmp_path / "p.txt"
    assert run("analyze", "--case", "breather", "--res", "24", "--period", "0:2pi:32",
               "--statistic", statistic, "--out", str(out)) == 0
    assert "period_mismatch" in out.read_text()
    assert 1 <= len(seen) <= field._PERIOD_ITERATIONS
    assert min(seen) >= math.pi - 2 * math.pi / 32


@pytest.mark.parametrize("name", case_names())
def test_pde2_evaluates_each_profile_once_per_row_batch(name, tmp_path, monkeypatch):
    # the pde2 check evaluates p on all its shifted zeta lines at once,
    # shape (3, 1, rows, nx), and q on its eta lines, (1, 3, rows, nx), to
    # order 2: once per step size (h, h/2) on the <= 24^2 verify grid, and
    # once per row batch of a render
    calls = []
    for cls in vars(profiles).values():
        if (isinstance(cls, type) and issubclass(cls, profiles.ProfileFunction)
                and "jet3" in cls.__dict__):
            def counting(self, x, t, order=3, jet3=cls.jet3):
                if sys._getframe(1).f_code.co_name != "jet3":
                    calls.append((np.shape(x), order))
                return jet3(self, x, t, order)
            monkeypatch.setattr(cls, "jet3", counting)

    def lines(rows, n):
        return [((3, 1, rows, n), 2), ((1, 3, rows, n), 2)]

    out = str(tmp_path / "out")
    assert run("verify", "--case", name, "--t", "0.3", "--res", "64",
               "--checks", "pde2", "--out", out) == 0
    assert calls == 2 * lines(24, 24)
    calls.clear()
    assert run("render", "--case", name, "--t", "0.3", "--res", "64",
               "--which", "pde2", "--out", out) == 0
    steps = batches(64, 9 * 64)
    assert len(steps) > 1
    assert calls == [c for b in steps for c in lines(len(range(64)[b]), 64)]


def test_cli_import_needs_no_scipy():
    # numpy.polynomial costs about 0.1 s of import on its own
    code = ("import sys, dsfield.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_analyze_needs_exactly_one_mode(capsys):
    assert run("analyze", "--case", "dromion") == 2
    assert run("analyze", "--case", "dromion", "--peaks", "--decay", "0") == 2


def test_spec_file_equivalent_to_case(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("render", "--case", "dromion", "--t", "0", "--out", str(a),
        "--res", "32", "--window=-6:6:-6:6")
    run("render", "--spec", os.path.join(CONFIGS, "dromion.cfg"), "--t", "0",
        "--out", str(b), "--res", "32", "--window=-6:6:-6:6")
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exit_code():
    assert run("render", "--case", "dromion", "--t", "0",
               "--out", "/tmp/x.csv", "--res", "4") == 2
