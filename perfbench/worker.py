"""One benchmark worker: a fresh interpreter that runs jobs in-process.

Each job is one ``dsfield.cli.main(argv)`` call, which is the ``dsfield``
command minus interpreter start.  Only that call is timed; the output check
runs after it.  Modes:

* ``setup``: import the CLI, build its parser and generate the workload's
  inputs, print ``ready`` and exit (the parent times this);
* ``fixed``: run the first ``--rounds`` rounds of the job list, traced
  with ``--trace 1``.

Before the first job and after every job the worker times ``probe()``, a
fixed piece of work that does not touch ``dsfield``.  It tracks how fast
the machine runs at that moment; ``run.py`` scales each job's time by the
probes around it.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import jobs as joblist  # noqa: E402

# probe input: float formatting as in the CSV export (most of the probe's
# time) and vectorized transcendentals as in the profiles
_PROBE_X = np.linspace(-3.0, 3.0, 20000)


def probe() -> float:
    """Seconds taken by a fixed piece of work: 13-15 ms on an idle CPU."""
    t0 = time.perf_counter()
    "\n".join(map(repr, _PROBE_X.tolist()))
    np.exp(np.sin(_PROBE_X) * 3.0).sum()
    return time.perf_counter() - t0


def _import_cli():
    from dsfield import cli

    where = os.path.dirname(os.path.abspath(cli.__file__))
    if where != os.path.join(SRC, "dsfield"):
        raise SystemExit(f"dsfield was imported from {where}, not from {SRC}")
    return cli


def _setup(args):
    cli = _import_cli()
    cli.build_parser()
    from dsfield import build_case, case_names

    catalog = {name: build_case(name) for name in case_names()}
    plan = joblist.Plan(args.workload, args.seed, args.work, catalog)
    plan.round(0)
    return cli, catalog, plan


def _run_job(cli, job, catalog, tracer):
    if tracer is not None:
        tracer.job = job.id
    sink = io.StringIO()
    rc, crash = None, ""
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = cli.main(job.argv)
        except Exception:
            crash = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
    outcome = checks.check(job, rc, catalog)
    for path in (job.out, job.out + ".txt"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    return {"id": job.id, "kind": job.kind, "seconds": seconds, "rc": rc,
            "ok": outcome.ok and not crash, "reason": crash or outcome.reason,
            "errors": outcome.errors, "quality": outcome.quality,
            "sha256": outcome.sha256, "known": outcome.known}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "fixed"))
    ap.add_argument("--work", required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--result")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    cli, catalog, plan = _setup(args)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    probe()                                     # first call allocates
    probes = [probe()]
    start = time.perf_counter()
    for r in range(args.rounds):
        for job in plan.round(r):
            records.append(dict(_run_job(cli, job, catalog, tracer), round=r))
            probes.append(probe())

    result = {
        "versions": {"python": platform.python_version(),
                     "numpy": metadata.version("numpy"),
                     "scipy": metadata.version("scipy")},
        "jobs": records,
        "probes_s": probes,
        "rounds": args.rounds,
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.stats
        result["overhead_s"] = tracer.overhead_s
        result["spans"] = tracer.span_count
        if args.spans:
            tracer.save(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
