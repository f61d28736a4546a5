"""Benchmark of the dsfield command line on three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload render|verify|analyze|all --seed N \\
        --seconds S --trace 0|1

A closed loop with one client.  Each run starts fresh worker interpreters
(``worker.py``) with BLAS and OpenMP pinned to one thread; a worker runs the
seeded job list in-process through ``dsfield.cli.main(argv)`` and checks
every output.  ``setup_s`` is timed separately, as the median over several
fresh interpreters of the time to import the CLI, build its parser and
generate the workload's inputs.

``--trace 0`` runs as many whole rounds of the job list as the baseline code
fills ``--seconds`` with (a fixed count per workload, so every commit runs
the same jobs) and prints the end-to-end metrics.  On render and analyze
their job times are scaled to a machine of fixed speed, measured by a probe
the worker runs between jobs (see ``scaled_times``); the details line gives
them unscaled too.  ``--trace 1`` runs the
first round twice, untraced and then traced, each in a fresh worker, and
prints the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds details (tail percentile, output digests, environment).
``--workload all`` prints these two lines for each workload in turn.
Metric names and units come from ``BENCHMARK.json``; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
STATE = os.path.join(ROOT, ".perfbench")

SETUP_RUNS = 3          # fresh interpreters timed per run for setup_s
IMPORTTIME_RUNS = 3     # `python -X importtime` runs per traced run
TRACE_ROUNDS = 1        # rounds of the job list in a traced run
# A run of --seconds S runs round(S / ROUND_S) whole rounds, a count that
# does not depend on how fast the code is, so parent and change measure
# the same jobs.  On the baseline code (2-CPU x86-64 VM, one thread) a round
# takes about 7.9 s (render), 14 s (verify) and 7 s (analyze).
ROUND_S = {"render": 8.0, "verify": 11.5, "analyze": 6.7}
TAIL_BEYOND = 10        # jobs that must lie beyond the tail percentile
DIGITS_FLOOR = 1e-15    # rounding level: smaller errors count as this
RUN_LIMIT_S = 170.0     # every subprocess ends by then; a run must end within 180 s
MAX_SECONDS = 90.0      # longest job list a run accepts
# The worker times a fixed probe (worker.probe, 13-15 ms on an idle
# baseline CPU) before the first job and after each job.  On a shared host
# the speed of the machine shifts by up to 1.7x for tens of seconds at a
# time, which moves every job alike; dividing a job's time by the probes
# around it takes that shift out.  PROBE_REF_S only sets the scale: a
# scaled time is the time the job would take where the probe takes
# PROBE_REF_S.  The slowdown hits interpreter-bound code (the CSV export of
# render, the scalar jet calls of analyze) and the probe alike, but barely
# touches the large numpy arrays that verify spends its time in: scaled by
# the probe, verify's figures spread two to three times wider than
# unscaled, so verify is reported unscaled.
PROBE_REF_S = 0.015
SCALED = {"render": True, "verify": False, "analyze": True}

WORKLOADS = ("render", "verify", "analyze")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"the run took longer than {RUN_LIMIT_S:.0f} s")
    return left


def _env():
    env = dict(os.environ)
    env.update(PINNED)
    return env


def _worker_argv(args, mode, work, **extra):
    argv = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--mode", mode, "--work", work]
    for key, val in extra.items():
        argv += [f"--{key}", str(val)]
    return argv


def _time_setup(args, work, deadline) -> float:
    """Seconds from starting a fresh interpreter to its ``ready`` line."""
    os.makedirs(work)
    t0 = time.perf_counter()
    proc = subprocess.Popen(_worker_argv(args, "setup", work), env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        _, err = proc.communicate(timeout=_time_left(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup interpreter failed: {err.strip()[-400:]}")
    return seconds


def _run_worker(args, mode, work, deadline, **extra) -> dict:
    os.makedirs(work)
    result = os.path.join(work, "result.json")
    try:
        done = subprocess.run(_worker_argv(args, mode, work, result=result, **extra),
                              env=_env(), capture_output=True, text=True,
                              timeout=_time_left(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the run took longer than {RUN_LIMIT_S:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"worker failed: {done.stderr.strip()[-600:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _import_times(deadline) -> dict:
    """Median own import time of numpy, scipy and dsfield modules, seconds."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import dsfield.cli"
    samples = {"numpy": [], "scipy": [], "dsfield": []}
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              env=_env(), capture_output=True, text=True,
                              timeout=_time_left(deadline))
        if done.returncode != 0:
            raise BenchError(f"import failed: {done.stderr.strip()[-400:]}")
        own = dict.fromkeys(samples, 0)
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if not m:
                continue
            pkg = m.group(2).split(".")[0]
            if pkg in own:
                own[pkg] += int(m.group(1))
        for pkg, us in own.items():
            samples[pkg].append(us * 1e-6)
    return {pkg: statistics.median(v) for pkg, v in samples.items()}


def _source_digest() -> str:
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "dsfield"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# metrics


def _digits(err: float) -> float:
    return -math.log10(max(err, DIGITS_FLOOR))


def _accuracy(jobs) -> dict:
    """Digits per checked quantity, minimum over the jobs."""
    out = {}
    for job in jobs:
        for name, err in job["errors"].items():
            out[name] = min(out.get(name, math.inf), _digits(err))
    return out


def _tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND jobs beyond."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _rate(jobs) -> float:
    return len(jobs) / sum(j["seconds"] for j in jobs)


def scaled_times(res) -> list:
    """Job seconds scaled to a machine on which the probe takes PROBE_REF_S.

    ``probes_s[i]`` ran just before job ``i`` and ``probes_s[i + 1]`` just
    after it; their mean stands for the machine's speed while the job ran.
    (Wider windows of probes steadied the run-level figures less.)
    """
    p = res["probes_s"]
    return [job["seconds"] * PROBE_REF_S / (0.5 * (p[i] + p[i + 1]))
            for i, job in enumerate(res["jobs"])]


def end_to_end(res, setup, scaled) -> tuple[dict, dict]:
    jobs = res["jobs"]
    raw = [j["seconds"] for j in jobs]
    times = scaled_times(res) if scaled else raw
    failed = sum(1 for j in jobs if not j["ok"])
    tail, pct = _tail(times)
    acc = _accuracy(jobs)
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": (len(jobs) - failed) / len(jobs),
        "accuracy_digits": min(acc.values()),
    }
    details = {"tail_percentile": pct, "tail_jobs": len(jobs),
               "tail_jobs_beyond": min(TAIL_BEYOND, len(jobs) - 1),
               "rounds": res["rounds"], "scaled_by_probe": scaled,
               "unscaled": {"jobs_per_s": _rate(jobs),
                            "job_p50_s": statistics.median(raw),
                            "job_tail_s": _tail(raw)[0]},
               "probe_ref_s": PROBE_REF_S,
               "probe_median_s": statistics.median(res["probes_s"]),
               "accuracy_by_quantity": acc,
               "setup_samples_s": setup}
    return values, details


def _quality(jobs, key, pick):
    vals = [j["quality"][key] for j in jobs if key in j["quality"]]
    return pick(vals) if vals else 0.0


def per_layer(base, traced, imports, names) -> dict:
    layers = traced["layers"]
    jobs = traced["jobs"]
    special = {
        "verify.bilinear2.max_rel": lambda: _quality(jobs, "bilinear2_max_rel", max),
        "verify.pde1.max_abs": lambda: _quality(jobs, "pde1_max_abs", max),
        "verify.pde2.observed_order": lambda: _quality(jobs, "pde2_order", min),
        "field.period.abs_err": lambda: _quality(jobs, "period_abs_err", max),
        "trace.overhead_frac": lambda: _rate(base["jobs"]) / _rate(jobs) - 1.0,
        "trace.spans": lambda: traced["spans"],
    }
    for pkg, sec in imports.items():
        special[f"setup.import.{pkg}_s"] = lambda sec=sec: sec
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]()
            continue
        layer, _, stat = name.rpartition(".")
        st = layers.get(layer)
        if st is None:
            raise BenchError(f"no span for per-layer metric {name!r}")
        if stat == "distinct_frac":
            out[name] = st["distinct"] / st["points"] if st["points"] else 0.0
        else:
            out[name] = st[stat]
    return out


def _check_repeat(args, values) -> str:
    """Counts must repeat exactly across traced runs of the same source."""
    counts = {n: v for n, v in values.items()
              if n.rpartition(".")[2] in ("calls", "points", "nodes", "bytes")
              or n == "trace.spans"}
    path = os.path.join(STATE, f"counts-{args.workload}-{args.seed}.json")
    digest = _source_digest()
    problem = ""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            prev = json.load(fh)
        if prev["source"] == digest and prev["counts"] != counts:
            diff = sorted(k for k in counts if prev["counts"].get(k) != counts[k])
            problem = f"counts differ from the previous traced run: {diff}"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"source": digest, "counts": counts}, fh)
    return problem


# ---------------------------------------------------------------------------


def run(args, spec) -> int:
    """Run one workload; print its details line and its result line."""
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(STATE, exist_ok=True)
    work = os.path.join(STATE, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            imports = _import_times(deadline)
            base = _run_worker(args, "fixed", os.path.join(work, "base"), deadline,
                               rounds=TRACE_ROUNDS)
            traced = _run_worker(
                args, "fixed", os.path.join(work, "traced"), deadline,
                rounds=TRACE_ROUNDS, trace=1,
                spans=os.path.join(STATE, f"spans-{args.workload}.npz"))
            values = per_layer(base, traced, imports, list(units))
            problem = _check_repeat(args, values)
            runs = (base, traced)
            details = {"counts_repeat_problem": problem}
        else:
            setup = [_time_setup(args, os.path.join(work, f"setup{i}"), deadline)
                     for i in range(SETUP_RUNS)]
            seconds = min(args.seconds, MAX_SECONDS)
            rounds = max(1, round(seconds / ROUND_S[args.workload]))
            timed = _run_worker(args, "fixed", os.path.join(work, "timed"), deadline,
                                rounds=rounds)
            values, details = end_to_end(timed, setup, SCALED[args.workload])
            values = {name: values[name] for name in units}
            problem = ""
            runs = (timed,)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = [j for r in runs for j in r["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    round0 = hashlib.sha256("".join(f"{j['id']}:{j['sha256']}\n" for j in runs[-1]["jobs"]
                                    if j["round"] == 0).encode()).hexdigest()
    kinds = {}
    for j in runs[-1]["jobs"]:
        kinds[j["kind"]] = kinds.get(j["kind"], 0) + 1
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "job_kinds": kinds, "round0_outputs_sha256": round0,
        "failures": [f"job {j['id']} ({j['kind']}): {j['reason']}" for j in failed[:5]],
        "known_defect_jobs": sum(1 for j in jobs if j["known"]),
        "env": dict(PINNED, nproc=len(os.sched_getaffinity(0)), **runs[-1]["versions"]),
    })
    print(json.dumps(details))
    print(json.dumps({
        "correct": not failed and not problem,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }), flush=True)
    return 0


def _terminate(signum, frame):
    # unwinds through subprocess.run / the finally blocks, which kill and
    # reap the worker before this process exits
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dsfield", "cli.py")):
        print(f"error: no dsfield sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        rc = run(argparse.Namespace(**dict(vars(args), workload=workload)), spec)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
