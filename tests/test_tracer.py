"""The benchmark's span tracer must find every binding it wraps, and restore
them all, so that a refactor cannot silently break ``perfbench/run.py --trace``."""

import importlib.util
import os
import sys

import dsfield.cli  # noqa: F401  (the tracer needs every dsfield module loaded)
from dsfield import auxiliary, profiles

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    """Every attribute of the dsfield modules and of the classes the tracer patches."""
    owners = [m for n, m in sys.modules.items()
              if n == "dsfield" or n.startswith("dsfield.")]
    owners.append(auxiliary.Auxiliaries)
    owners += [c for c in vars(profiles).values()
               if isinstance(c, type) and issubclass(c, profiles.ProfileFunction)]
    return {(owner, key): val for owner in owners
            for key, val in list(vars(owner).items())}


def test_tracer_wraps_every_target_and_restores_it():
    tracer_mod = _load_tracer()
    before = _bindings()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for targets in tracer_mod.FUNCTIONS.values():
            for modname, attr in targets:
                mod = sys.modules[modname]
                assert getattr(mod, attr) is not before[(mod, attr)], (modname, attr)
        for methods in tracer_mod.AUX_METHODS.values():
            for attr in methods:
                cls = auxiliary.Auxiliaries
                assert vars(cls)[attr] is not before[(cls, attr)], attr
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, val in before.items() if after[key] is not val]
    assert changed == []


def test_traced_cli_runs_count_every_layer(tmp_path):
    # one traced verify (all checks), one traced phi render, one traced
    # decay analysis and a traced period scan under each statistic write the
    # same bytes as untraced runs, and every layer's counters move; the
    # elementary-function counter reads the first argument's ``.value``, the
    # sample counter reads nx and ny, and the bundle calls its formulas
    # through the class the tracer patches
    from dsfield import cli
    runs = (["verify", "--case", "breather", "--t", "0.3", "--res", "16", "--checks",
             "bilinear2,bilinear1,pde2,pde1,consistency,admissibility"],
            ["render", "--case", "dromion", "--t", "0.3", "--res", "16", "--which", "phi"],
            ["analyze", "--case", "double_instanton", "--decay", "0.3,1.1", "--res", "16"],
            *(["analyze", "--case", "breather", "--period", "0:2pi:32", "--res", "16",
               "--statistic", statistic] for statistic in ("L2", "global_max")))
    plain = []
    for k, argv in enumerate(runs):
        out = tmp_path / f"plain{k}.txt"
        plain.append((cli.main(argv + ["--out", str(out)]), out.read_bytes()))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for k, argv in enumerate(runs):
            out = tmp_path / f"traced{k}.txt"
            assert (cli.main(argv + ["--out", str(out)]), out.read_bytes()) == plain[k]
    finally:
        tracer.uninstall()
    for name in ("calculus.elementary", "ansatz.eval_f", "profiles.jet3", "auxiliary.phase",
                 "field.sample_field", "auxiliary.amplitude", "auxiliary.gradient",
                 "auxiliary.background"):
        assert tracer.stats[name]["calls"] > 0, name
        assert tracer.stats[name]["points"] > 0, name
    for name in ("field.estimate_period", "field.refined_global_max"):
        assert tracer.stats[name]["calls"] > 0, name
