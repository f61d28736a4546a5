import math
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dsfield
from dsfield import ansatz, profiles
from dsfield.ansatz import SeparationCoefficients, SolutionSpec, batches, rotate, window_grid
from dsfield.calculus import Jet
from dsfield.cli import build_parser, main, parse_time, parse_window
from dsfield.specfile import dumps_spec, load_spec, loads_spec, SpecFileError
from dsfield.catalog import build_case, case_names

from conftest import (
    CONFIGS,
    DECAYING_P,
    admissible_spec,
    decaying_p_text,
    parse_csv,
    traced_peak,
)

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
        assert load_spec(os.path.join(CONFIGS, f"{name}.cfg")) == build_case(name).spec, name
    for name in sorted(os.listdir(CONFIGS)):
        spec = load_spec(os.path.join(CONFIGS, name))
        assert loads_spec(dumps_spec(spec)) == spec, name


def test_spec_text_round_trips_every_catalog_spec_and_family():
    # a fixed family writes as its bare name and loads back as the table
    # value itself; an exponential sum writes its numbers
    coeffs = SeparationCoefficients(2.0, 1.0, 2.0, 2.0)
    specs = [build_case(name).spec for name in case_names()]
    specs += [SolutionSpec(coeffs, prof, prof) for prof in profiles.FAMILIES.values()]
    for spec in specs:
        text = dumps_spec(spec)
        back = loads_spec(text)
        assert back == spec and dumps_spec(back) == text
        for got, want in ((back.p, spec.p), (back.q, spec.q)):
            assert got.family == want.family
            assert f"family = {want.family}\n" in text
            if want.family in profiles.FAMILIES:
                assert got is want


def test_dumps_spec_refuses_a_profile_that_is_no_table_value():
    # equal formulas do not make a table value: only FAMILIES' own values and
    # exponential sums have a file form
    fixed = profiles.FAMILIES
    for prof in (profiles.CustomProfile(lambda xj, tj: xj * tj),
                 profiles.CustomProfile(fixed["tancos"].fn),
                 profiles.InstantonPProfile()):
        spec = SolutionSpec(SeparationCoefficients(2.0, 1.0, 2.0, 2.0), fixed["tancos"], prof)
        with pytest.raises(SpecFileError, match="profile family 'custom' has no file form"):
            dumps_spec(spec)


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


@pytest.mark.parametrize("cfg,anchor,line,named", [
    ("dromion.cfg", "[funcs]\n", "betta = 2\n", "unknown key 'betta' in [funcs]"),
    ("dromion.cfg", "[coeffs]\n", "a4 = 1\n", "unknown key 'a4' in [coeffs]"),
    ("dromion.cfg", "[signs]\n", "delta3 = 1\n", "unknown key 'delta3' in [signs]"),
    ("dromion.cfg", "[p]\n", "width = 1\n", "unknown key 'width' in [p]"),
    ("dromion.cfg", "delta2 = 1\n", "[extra]\nx = 1\n", "unknown section [extra]"),
    ("dromion.cfg", "[funcs]\n", "c0 = 1\n", "[funcs] c0 was removed"),
    ("dromion.cfg", "[funcs]\n", "c3 = 0\n", "[funcs] c3 was removed"),
    ("dromion.cfg", "[funcs]\n", "c4 = 0\n", "[funcs] c4 was removed"),
    ("periodic.cfg", "family = tancos\n", "K = 2\n", "[p] family tancos takes no key 'k'"),
], ids=["betta", "a4", "delta3", "p-width", "extra-section", "c0", "c3", "c4", "tancos-K"])
def test_spec_file_rejects_keys_outside_its_schema(tmp_path, capsys, cfg, anchor, line, named):
    # a misspelt or removed key, or an expsum key on a fixed family, used to
    # load silently and be ignored
    text = open(os.path.join(CONFIGS, cfg)).read().replace(anchor, anchor + line, 1)
    with pytest.raises(SpecFileError) as err:
        loads_spec(text)
    assert named in str(err.value)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    out = tmp_path / "r.txt"
    assert run("verify", "--spec", str(bad), "--t", "0", "--out", str(out)) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# -- subcommands ----------------------------------------------------------------


def test_catalog_lists_all(capsys):
    assert run("catalog") == 0
    out = capsys.readouterr().out
    families = {"dromion": ("expsum", "expsum"), "solitoff": ("expsum", "expsum"),
                "resonant": ("expsum", "expsum"), "breather": ("breather_p", "breather_q"),
                "periodic": ("tancos", "tancos"),
                "double_instanton": ("instanton_p", "instanton_q")}
    assert tuple(families) == case_names()
    lines = out.splitlines()
    for name, (p, q) in families.items():
        assert lines[lines.index(name) + 2] == f"  profiles: p={p} q={q}", name


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


def test_pgm_sidecar_counts_negative_values_written_as_zero(tmp_path):
    # 152 of breather phi's 1024 values at t = 0.4 are negative (min -15.59)
    phi, u = tmp_path / "phi.pgm", tmp_path / "u.pgm"
    assert run("render", "--case", "breather", "--which", "phi", "--t", "0.4",
               "--res", "32", "--format", "pgm16", "--out", str(phi)) == 0
    assert "clipped_below_zero: 152" in (tmp_path / "phi.pgm.txt").read_text().splitlines()
    assert run("render", "--case", "dromion", "--t", "0", "--res", "32",
               "--format", "pgm16", "--out", str(u)) == 0
    assert "clipped_below_zero" not in (tmp_path / "u.pgm.txt").read_text()


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


@pytest.mark.parametrize("argv", [
    ("render", "--case", "dromion", "--t", "0", "--res", "16"),
    ("verify", "--case", "dromion", "--t", "0", "--res", "16"),
    ("analyze", "--case", "dromion", "--peaks", "--res", "16"),
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.csv"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()
    assert not list(tmp_path.rglob(".dsfield-*"))


def test_render_failing_midway_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the CSV goes into its temp file block by block, 40 rows of 200 at
    # --res 200; a writer that fails on the second block, after the first
    # reached the temp file, leaves neither that file nor a partial --out
    from dsfield import field
    written, temp = [], []

    def failing(v, out, write=field._write_g17):
        if written:
            temp.extend(p.stat().st_size for p in tmp_path.glob(".dsfield-*"))
            raise OSError("No space left on device")
        written.append(v.size)
        write(v, out)

    monkeypatch.setattr(field, "_write_g17", failing)
    assert run("render", "--case", "dromion", "--t", "0", "--res", "200",
               "--out", str(tmp_path / "u.csv")) == 2
    assert "No space left" in capsys.readouterr().err
    assert written == [8000] and len(temp) == 1 and temp[0] > 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_output_files_take_the_mode_of_a_plain_open(tmp_path, umask):
    # the temp file behind each output is created owner-only; every output
    # file ends with the mode 0o666 less the umask, as an open() would give it
    case = ("--case", "dromion", "--t", "0", "--res", "16")
    old = os.umask(umask)
    try:
        assert run("render", *case, "--out", str(tmp_path / "u.csv")) == 0
        assert run("render", *case, "--format", "pgm16", "--out", str(tmp_path / "u.pgm")) == 0
        assert run("verify", *case, "--out", str(tmp_path / "r.txt")) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(("u.csv", "u.pgm", "u.pgm.txt", "r.txt"), 0o666 & ~umask)


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


@pytest.mark.parametrize("source,t,none_finite", [("decaying_p", "0.3", True),
                                                    ("dromion", "0", False)])
def test_verify_drops_the_samples_without_amplitude_factors(tmp_path, source, t, none_finite):
    # a decaying p has no finite amplitude factors on the window, so every
    # sample is dropped: the check tested nothing, and fails closed; neither
    # the bilinear2 nor the phi render has a sample to write
    where = ("--case", source)
    if source == "decaying_p":
        cfg = tmp_path / "decaying_p.cfg"
        cfg.write_text(decaying_p_text())
        where = ("--spec", str(cfg))
    out = tmp_path / "report.txt"
    assert run("verify", *where, "--t", t, "--res", "32",
               "--checks", "bilinear2", "--out", str(out)) == (1 if none_finite else 0)
    rep = dict(ln.split(": ", 1) for ln in out.read_text().splitlines())
    samples = int(rep["check.bilinear2.samples"])
    assert samples == (0 if none_finite else 32 * 32)
    assert int(rep["check.bilinear2.dropped"]) == 32 * 32 - samples
    if none_finite:
        assert rep["check.bilinear2.max_abs"] == "nan"
        assert rep["check.bilinear2.status"] == "fail"
        assert rep["check.bilinear2.notes"] == "no valid samples"
        for which in ("bilinear2", "phi"):
            pgm = tmp_path / f"{which}.pgm"
            assert run("render", *where, "--t", t, "--res", "32", "--which", which,
                       "--format", "pgm16", "--out", str(pgm)) == 3, which
            assert not pgm.exists()
    else:
        assert rep["check.bilinear2.status"] == "pass"
        assert "check.bilinear2.notes" not in rep


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


def _verify_report(tmp_path, *argv):
    out = tmp_path / "r.txt"
    code = run("verify", *argv, "--checks", ALL, "--out", str(out))
    return code, dict(ln.split(": ", 1) for ln in out.read_text().splitlines())


@pytest.mark.parametrize("t", ["0", "0.3", "2"])
def test_verify_time_varying_beta_config(tmp_path, t):
    # beta(t) = 1 + t/2 enters the phase gradients and the backgrounds
    code, rep = _verify_report(tmp_path, "--spec", os.path.join(CONFIGS, "dromion_beta.cfg"),
                               "--t", t, "--res", "64")
    assert code == 0
    for check in ALL.split(","):
        assert rep[f"check.{check}.status"] == "pass", check
    for check in ("bilinear1", "pde1"):
        assert float(rep[f"check.{check}.max_abs"]) < 1e-14, check


def test_verify_passes_every_check_on_admissible_random_specs(tmp_path):
    # 100 seeded solutions of the exponential-sum family, each written to a spec
    # file and verified at a time of its own on the default window
    rng = np.random.default_rng(3)
    path = tmp_path / "spec.cfg"
    for i in range(100):
        path.write_text(dumps_spec(admissible_spec(rng)))
        t = repr(float(rng.uniform(-1, 1)))
        code, rep = _verify_report(tmp_path, "--spec", str(path), "--t", t, "--res", "48")
        assert code == 0, (i, t)
        for check in ALL.split(","):
            assert rep[f"check.{check}.status"] == "pass", (i, t, check)


@pytest.mark.parametrize("res", ["64", "128"])
@pytest.mark.parametrize("t", ["2pi/3", "3pi/4", "pi"])
def test_verify_periodic_where_cos_t_is_negative(tmp_path, t, res):
    # p_z and q_e are negative together there; the branch s(t) = -1 makes
    # both amplitude factors real, so no sample is dropped and every check runs
    code, rep = _verify_report(tmp_path, "--case", "periodic", "--t", t, "--res", res)
    assert code == 0
    assert rep["check.bilinear2.dropped"] == "0"
    for check in ALL.split(","):
        assert rep[f"check.{check}.status"] == "pass", check
    if res == "128":
        for check in ("bilinear1", "pde1"):
            assert float(rep[f"check.{check}.max_abs"]) <= 1e-12, check


def test_verify_periodic_config_takes_no_division_guard(tmp_path):
    # beyond the tan poles |det q_e| exceeds 1e12 at 31 samples; the
    # amplitude factors no longer divide, so none of them is dropped
    code, rep = _verify_report(tmp_path, "--spec", os.path.join(CONFIGS, "periodic.cfg"),
                               "--window=-3:3:-3:3", "--res", "48", "--t", "0.3")
    assert code == 0
    assert rep["check.bilinear2.dropped"] == "0"
    assert [rep[f"check.{c}.max_abs"] for c in ("bilinear2", "bilinear1", "pde1")] == [
        "6.203448e-16", "7.125383e-14", "2.078045e-13"]


def test_verify_keeps_the_plus_branch_where_p_z_turns_negative_off_the_window(tmp_path):
    # p = e^zeta + e^(1 - zeta) has p_z < 0 at the anchor zeta = 0 but
    # p_z > 0 on this window (zeta >= sqrt 2), with det q_e > 0 everywhere:
    # the + branch is real on the whole window, so the branch keeps it
    text = open(os.path.join(CONFIGS, "dromion.cfg")).read().replace(
        "A = 1\nK = 1\nL = 1\ntheta = 1", "A = 1, 1\nK = 1, -1\nL = 0, 0\ntheta = 0, 1", 1)
    cfg = tmp_path / "sign_changing_p.cfg"
    cfg.write_text(text)
    argv = ("--spec", str(cfg), "--window=3:6:-2:1", "--t", "0.3")
    code, rep = _verify_report(tmp_path, *argv, "--res", "64")
    assert code == 0
    assert rep["check.bilinear2.dropped"] == "0"
    for check in ALL.split(","):
        assert rep[f"check.{check}.status"] == "pass", check
    for check in ("bilinear1", "pde1"):
        assert float(rep[f"check.{check}.max_abs"]) < 1e-14, check
    out = tmp_path / "phi.csv"
    assert run("render", *argv, "--res", "32", "--which", "phi", "--out", str(out)) == 0
    assert out.exists()


def test_verify_counts_dropped_samples_and_finite_probes(tmp_path):
    # on this window p = e^zeta + e^(1 - zeta) has p_z < 0 for zeta < 1/2,
    # where p1 is NaN: 465 of the 1024 samples, none of them masked.  The
    # three residual checks read the other 559, say what they dropped and
    # fail on it; the bilinear2 render masks what its report drops, and the
    # consistency check says how many of its probes counted
    text = open(os.path.join(CONFIGS, "dromion.cfg")).read().replace(
        "A = 1\nK = 1\nL = 1\ntheta = 1", "A = 1, 1\nK = 1, -1\nL = 0, 0\ntheta = 0, 1", 1)
    cfg = tmp_path / "sign_changing_p.cfg"
    cfg.write_text(text)
    argv = ("--spec", str(cfg), "--window=-2:4:-3:3", "--t", "0.3", "--res", "32")
    code, rep = _verify_report(tmp_path, *argv)
    assert code == 1 and rep["check.admissibility.verdict"] == "sign-violating"
    for check in ("bilinear2", "bilinear1", "pde1"):
        assert (rep[f"check.{check}.samples"], rep[f"check.{check}.masked"],
                rep[f"check.{check}.dropped"]) == ("559", "0", "465"), check
        assert rep[f"check.{check}.status"] == "fail", check
        assert rep[f"check.{check}.notes"] == "465 samples not finite inside the valid set"
    out = tmp_path / "b2.pgm"
    assert run("render", *argv, "--which", "bilinear2", "--format", "pgm16",
               "--out", str(out)) == 0
    assert "valid: 559" in (tmp_path / "b2.pgm.txt").read_text().splitlines()
    assert (rep["check.pde2.masked"], rep["check.pde2.dropped_h"],
            rep["check.pde2.dropped_h2"]) == ("0", "0", "0")
    assert (rep["check.consistency.probes"], rep["check.consistency.finite_probes"]) \
        == ("66", "50")


@pytest.mark.parametrize("name", ["dromion", "double_instanton"])
@pytest.mark.parametrize("fmt", ["csv", "pgm16"])
def test_u_render_memory_follows_the_values(tmp_path, name, fmt):
    # a 512^2 U render holds the 2.1 MB values, a boolean keep and mask
    # (0.26 MB each) and one row block's temporaries: no (N, N) zeta or
    # eta, and no |U| copy for the degenerate check
    argv = ["render", "--case", name, "--t", repr(build_case(name).reference_times[0]),
            "--which", "U", "--format", fmt, "--out", str(tmp_path / f"u.{fmt}")]
    assert main(argv + ["--res", "64"]) == 0                            # warm caches
    assert traced_peak(main, argv + ["--res", "512"]) <= 5e6


def test_verify_counts_masked_samples_apart_from_dropped_ones(tmp_path):
    # double_instanton's valid mask cuts its pole out of the window: those
    # samples are masked, not dropped (pde2 runs on a 24^2 grid)
    e = build_case("double_instanton")
    code, rep = _verify_report(tmp_path, "--case", "double_instanton", "--t", "0.3",
                               "--res", "48")
    masked = {n: np.count_nonzero(~window_grid(e.window, n, e.valid_mask).keep)
              for n in (24, 48)}
    assert code == 0 and masked == {24: 22, 48: 44}
    for check in ("bilinear2", "bilinear1", "pde1"):
        assert rep[f"check.{check}.masked"] == "44", check
        assert rep[f"check.{check}.dropped"] == "0", check
        assert rep[f"check.{check}.samples"] == str(48 * 48 - 44), check
    assert rep["check.pde2.masked"] == "22"


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
    # while c1 stays finite: the consistency check must fail, and every
    # check that reads q1 fails with it
    cfg = tmp_path / "a3.cfg"
    base = open(os.path.join(CONFIGS, "dromion.cfg")).read()
    cfg.write_text(base.replace("a3 = 2", "a3 = 0.5"))
    out = tmp_path / "r.txt"
    assert run("verify", "--spec", str(cfg), "--t", "0.3", "--checks", ALL,
               "--out", str(out)) == 1
    assert ("checks failed: bilinear2, bilinear1, pde1, consistency, admissibility"
            in capsys.readouterr().err)
    rep = dict(ln.split(": ", 1) for ln in out.read_text().splitlines())
    assert rep["check.consistency.c1_variation"] != "nan"
    assert rep["check.consistency.c2_variation"] == "nan"
    assert rep["check.consistency.status"] == "fail"


@pytest.mark.parametrize("name,edit,t", [("dromion.cfg", ("a3 = 2", "a3 = 0.5"), "0.3"),
                                         ("dromion.cfg", DECAYING_P, "0.3")],
                         ids=["dromion-a3-0.5", "dromion-decaying-p"])
def test_verify_notes_name_an_undefined_consistency_variation(tmp_path, name, edit, t):
    # a NaN variation compares with no threshold: the consistency check
    # names it undefined
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


@pytest.mark.parametrize("edit,t", [(("gamma = 0", "gamma = 0.5"), "0"),
                                    (("a3 = 2", "a3 = 0.5"), "0.3")],
                         ids=["gamma-0.5", "a3-0.5"])
def test_verify_envelope_checks_fail_a_non_solution(tmp_path, capsys, edit, t):
    # no check gates the envelope checks: a gain the ansatz cannot carry
    # fails them with its residual on every sample, and a q1 that is NaN
    # everywhere fails them on no sample at all
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(open(os.path.join(CONFIGS, "dromion.cfg")).read().replace(*edit))
    out = tmp_path / "r.txt"
    assert run("verify", "--spec", str(cfg), "--t", t, "--res", "32",
               "--checks", "bilinear1,pde1", "--out", str(out)) == 1
    assert "checks failed: bilinear1, pde1" in capsys.readouterr().err
    rep = dict(ln.split(": ", 1) for ln in out.read_text().splitlines())
    assert rep["overall"] == "fail"
    for check in ("bilinear1", "pde1"):
        assert rep[f"check.{check}.status"] == "fail", check
        if edit[0] == "gamma = 0":
            assert int(rep[f"check.{check}.samples"]) == 32 * 32, check
            assert float(rep[f"check.{check}.max_abs"]) > 0.2, check
        else:
            assert rep[f"check.{check}.samples"] == "0", check
            assert rep[f"check.{check}.notes"] == "no valid samples", check


def test_verify_envelope_checks_read_no_consistency_report(tmp_path, monkeypatch):
    from dsfield import auxiliary
    calls = []
    report = auxiliary.consistency_c1_c2

    def counting(*args):
        calls.append(args)
        return report(*args)

    monkeypatch.setattr(auxiliary, "consistency_c1_c2", counting)
    assert run("verify", "--case", "dromion", "--t", "0", "--res", "32",
               "--checks", "bilinear1,pde1", "--out", str(tmp_path / "r.txt")) == 0
    assert calls == []
    assert run("verify", "--case", "dromion", "--t", "0", "--res", "32",
               "--checks", ALL, "--out", str(tmp_path / "r.txt")) == 0
    assert len(calls) == 1


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
    zeta, eta = rotate(g.X, g.Y)
    expected = len(pole_sweep(e.spec.p, zeta, t)) + len(pole_sweep(e.spec.q, eta, t))
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
    # one ingredient bundle per grid, on its lines: a six-check verify
    # evaluates each profile's jet, and p1 and q1, once on the 127 line
    # coordinates of the --res 64 grid and no bundle entry on its 64^2
    # points; the pole sweeps read profile values alone, in blocks of at most
    # _ROW_BLOCK points that cover each profile's 65,537 sweep points once; a
    # phi render evaluates each profile once on its lines
    from dsfield.auxiliary import Auxiliaries
    e = build_case("breather")
    on_lines, on_points, amplitudes = [], [], []
    sweeps = {}
    for cls in {type(e.spec.p), type(e.spec.q)}:
        def counting(self, x, t, *args, jet3=cls.jet3, **kwargs):
            out = jet3(self, x, t, *args, **kwargs)
            if np.shape(x) == (127,):
                on_lines.append(self.family)
            if np.shape(x) == (64, 64):
                on_points.append(self.family)
            if sys._getframe(1).f_code.co_name == "pole_sweep":
                sweeps.setdefault(self.family, []).append((x, len(out.entries)))
            return out
        monkeypatch.setattr(cls, "jet3", counting)
    for attr in ("p1_jet", "q1_jet", "r_zeta_jet", "s_eta_jet", "phase_r", "phase_s",
                 "p0", "q0"):
        def counting_formula(self, *args, attr=attr, fn=getattr(Auxiliaries, attr)):
            shapes = {np.shape(a.value if isinstance(a, Jet) else a) for a in args}
            if (64, 64) in shapes:
                on_points.append(attr)
            if (127,) in shapes and attr in ("p1_jet", "q1_jet"):
                amplitudes.append(attr)
            return fn(self, *args)
        monkeypatch.setattr(Auxiliaries, attr, counting_formula)
    assert run("verify", "--case", "breather", "--t", "0.3", "--res", "64",
               "--checks", ALL, "--out", str(tmp_path / "r.txt")) == 0
    assert sorted(on_lines) == ["breather_p", "breather_q"]
    assert sorted(amplitudes) == ["p1_jet", "q1_jet"]
    assert sorted(sweeps) == ["breather_p", "breather_q"]
    for calls in sweeps.values():
        assert {entries for _, entries in calls} == {1}
        assert max(np.size(x) for x, _ in calls) <= ansatz._ROW_BLOCK
        xs = np.concatenate([x for x, _ in calls])
        assert np.array_equal(xs, np.linspace(xs[0], xs[-1], 65537))
    assert on_points == []
    on_lines.clear()
    assert run("render", "--case", "breather", "--t", "0.3", "--which", "phi",
               "--res", "64", "--out", str(tmp_path / "phi.csv")) == 0
    assert sorted(on_lines) == ["breather_p", "breather_q"]
    assert on_points == []


def test_verify_tol_consistency_sets_only_the_consistency_threshold(tmp_path):
    cfg = tmp_path / "gained.cfg"
    base = open(os.path.join(CONFIGS, "dromion.cfg")).read()
    cfg.write_text(base.replace("gamma = 0", "gamma = 0.5"))
    reports = []
    for extra in ((), ("--tol-consistency", "1")):
        out = tmp_path / "r.txt"
        run("verify", "--spec", str(cfg), "--t", "0", "--res", "32", "--checks", ALL,
            *extra, "--out", str(out))
        reports.append(dict(ln.split(": ", 1) for ln in out.read_text().splitlines()))
    default, loose = reports
    assert default["check.consistency.status"] == "fail"
    assert loose["check.consistency.status"] == "pass"
    assert loose["check.consistency.threshold"] == "1.0e+00"
    # every other line is the same at either threshold
    moved = {k for k in default if default[k] != loose[k]}
    assert moved == {"check.consistency.status", "check.consistency.threshold"}


# (case, t) -> (checks that fail, checks that are skipped) of six-check
# verify at --res 64; every other catalog case-time passes all six
CATALOG_VERDICTS = {
    ("resonant", 0.0): ({"pde2", "admissibility"}, {"bilinear1", "pde1", "consistency"}),
    ("resonant", 0.3): ({"admissibility"}, {"bilinear1", "pde1", "consistency"}),
    ("double_instanton", 6.0): ({"pde2"}, set()),
}


def test_verify_catalog_verdicts(tmp_path):
    seen = set()
    for name in case_names():
        for t in sorted({*build_case(name).reference_times, 0.3}):
            code, rep = _verify_report(tmp_path, "--case", name, "--t", repr(t), "--res", "64")
            statuses = {c: rep[f"check.{c}.status"] for c in ALL.split(",")}
            failed, skipped = CATALOG_VERDICTS.get((name, t), (set(), set()))
            assert {c for c, s in statuses.items() if s == "fail"} == failed, (name, t)
            assert {c for c, s in statuses.items() if s == "skipped"} == skipped, (name, t)
            assert code == (1 if failed else 0), (name, t)
            seen.add((name, t))
    assert len(seen) == 22 and set(CATALOG_VERDICTS) <= seen


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


def test_analyze_decay_rejects_a_repeated_time(tmp_path, capsys):
    # two spellings of one time would print one key twice
    out = tmp_path / "d.txt"
    assert run("analyze", "--case", "dromion", "--decay", "0.3,0.30000",
               "--res", "16", "--out", str(out)) == 2
    assert "repeats" in capsys.readouterr().err
    assert not out.exists()


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
    # the pde2 stencils, phase nodes and consistency probes order 2, and the
    # amplitude branch s(t) the box (1, 0) at the anchor; each call is
    # booked to its first caller outside the profiles
    e = build_case("breather")
    asked = {}
    for cls in {type(e.spec.p), type(e.spec.q)}:
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
         {grid: {(1, 0)}, "_log_intensity_jets": {(3, 0)}, "_statistic": {(1, 1)}}),
    ]:
        asked.clear()
        assert run(*argv, *common) == 0
        assert asked == want, argv
    asked.clear()
    assert run("verify", "--t", "0.3", "--checks", ALL, *common) == 0
    assert asked == {"Ingredients.<lambda>": {3}, "pole_sweep": {0},
                     "_pde2_field.<locals>.on_stencil": {2},
                     "_integrate_from_anchor": {2}, "consistency_c1_c2": {2},
                     "Auxiliaries.branch": {(1, 0)}}
    assert not {grid, rate, "_log_intensity_jets", "_statistic"} & set(asked)


@pytest.mark.parametrize("statistic", ["L2", "global_max"])
def test_period_solve_evaluates_u_t_only_in_its_steps(tmp_path, monkeypatch, statistic):
    # the scan reads S alone, and the probes' S comes from it; only the
    # Gauss-Newton iterations, at the probe times shifted by about the
    # scan's period pi, evaluate U_t, once each
    from dsfield import field
    seen = []

    def counting_jets(spec, zeta, eta, t, order=3, f=field.profile_jets3):
        if order == (1, 1):
            seen.append(np.min(t))
        return f(spec, zeta, eta, t, order)

    def counting_grid(spec, grid, t, dt=False, f=field.grid_intensity):
        if dt:
            seen.append(np.min(t))
        return f(spec, grid, t, dt)

    monkeypatch.setattr(field, "profile_jets3", counting_jets)
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
    # once per block of rows of a render (131 rows: three)
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
    assert run("render", "--case", name, "--t", "0.3", "--res", "131",
               "--which", "pde2", "--out", out) == 0
    steps = batches(131, 131, ansatz._ROW_BLOCK)
    assert len(steps) > 1
    assert calls == [c for b in steps for c in lines(len(range(131)[b]), 131)]


def test_cli_import_needs_no_scipy():
    # numpy.polynomial costs about 0.1 s of import on its own
    code = ("import sys, dsfield.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_parser_is_reused_without_leaking_state(capsys):
    # main parses with one parser per process; a call's options, a usage
    # error or --version leave nothing behind for the next call
    assert build_parser() is build_parser()
    calls = [
        ["verify", "--case", "dromion", "--t", "0.3", "--checks", "bilinear2,admissibility",
         "--tol", "1e-9", "--res", "24"],
        ["verify", "--case", "dromion", "--t", "0.3", "--res"],
        ["--version"],
        ["verify", "--case", "dromion", "--t", "0.3"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    seen = []
    for argv in calls:
        rc = main(list(argv))
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "dsfield.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        seen.append((rc, out, err))
    (rc1, custom, _), (rc2, _, usage), (rc3, version, _), (rc4, default, _) = seen
    assert (rc1, rc2, rc3, rc4) == (0, 2, 0, 0)
    assert "expected one argument" in usage and version.strip() == dsfield.__version__
    custom, default = (dict(line.split(": ", 1) for line in text.splitlines())
                       for text in (custom, default))
    assert (custom["res"], custom["check.bilinear2.threshold"]) == ("24", "1.0e-09")
    assert (default["res"], default["check.bilinear2.threshold"]) == ("64", "1.0e-10")
    assert [k for k in default if k.endswith(".status")] == [
        "check.bilinear2.status", "check.consistency.status", "check.admissibility.status"]


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
