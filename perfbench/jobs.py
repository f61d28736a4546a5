"""Seeded job lists for the three workloads.

A job list is a sequence of rounds.  Every round of a workload holds the
same job kinds in the same order.  Resolutions, scan lengths and formats
come from fixed strata that rotate over the cases from round to round, so
the cost of round ``r`` is nearly the same for every seed; the seed draws
the times, windows, spec files and a small resolution jitter.  This keeps
throughput and per-job statistics steady across seeds while every argv
stays distinct.

Each job carries the exit code and the output check the benchmark expects
from the baseline code.  Times keep away from the catalog's degenerate times
(+ k*pi); the one exception is a breather render at t = pi/2, which must
exit 3.  Full ``verify`` on resonant must exit 1: its window holds singular
cells by design.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

ALL_CHECKS = "bilinear2,bilinear1,pde2,pde1,consistency,admissibility"
CASES = ("dromion", "solitoff", "resonant", "breather", "periodic",
         "double_instanton")
WORKLOADS = ("render", "verify", "analyze")

# render format -> (job kind, file extension)
_FORMATS = {"csv": ("render_csv", "csv"), "pgm16": ("render_pgm", "pgm")}

# verify times of double_instanton, by round.  Its envelope residuals
# (1e-12..3e-11, falling with t) are the largest of all cases and set the
# workload's accuracy_digits, so they follow a schedule, not the seed.
_DI_VERIFY_TIMES = (0.3, 1.0, 1.7, 0.65, 1.35)

# margin kept between a drawn time and a degenerate time
_DEGENERATE_MARGIN = 0.15


@dataclass
class Job:
    id: int
    kind: str                   # render_csv, render_pgm, verify, phi, period, decay, peaks
    argv: list
    rc: int                     # expected exit code
    out: str                    # output file
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExpSum:
    """Parameters of one seeded exponential-sum spec file."""

    coeffs: tuple               # a0, a1, a2, a3
    p: tuple                    # ((A, K, L, theta), ...)
    q: tuple

    def text(self) -> str:
        def sec(name, terms):
            cols = list(zip(*terms))
            rows = [f"[{name}]", "family = expsum"]
            for key, vals in zip(("A", "K", "L", "theta"), cols):
                rows.append(f"{key} = " + ", ".join(f"{v:.17g}" for v in vals))
            return "\n".join(rows)

        a0, a1, a2, a3 = self.coeffs
        return "\n\n".join([
            f"[coeffs]\na0 = {a0:.17g}\na1 = {a1:.17g}\na2 = {a2:.17g}\na3 = {a3:.17g}",
            sec("p", self.p), sec("q", self.q)]) + "\n"


def _draw_expsum(rng: random.Random, terms: int) -> ExpSum:
    """Admissible spec: A, K > 0 and a0..a3 > 0 with a0*a3 > a1*a2."""
    while True:
        a = tuple(round(rng.uniform(0.5, 2.5), 6) for _ in range(4))
        if a[0] * a[3] > 1.2 * a[1] * a[2]:
            break

    def prof(sign):
        return tuple((round(rng.uniform(0.3, 1.5), 6),
                      round(rng.uniform(0.4, 1.3), 6),
                      round(sign * rng.uniform(0.0, 1.0), 6),
                      round(rng.uniform(-1.0, 1.0), 6))
                     for _ in range(terms))

    return ExpSum(a, prof(1.0), prof(-1.0))


def _amplitude_complex(case: str, t: float) -> bool:
    """periodic with cos t < 0: p_zeta < 0, so p1 = sqrt(c0 * p_zeta) is NaN.

    The baseline code then fails the consistency check (exit 1) and finds the
    phi window entirely singular (exit 3).  The intensity is unaffected.
    Both the baseline outcome and a repaired one are accepted.
    """
    return case == "periodic" and math.cos(t) < 0.0


class Plan:
    """Seeded job generator for one workload.

    ``Plan(...)`` writes the spec files into ``workdir`` (set-up work);
    ``round(r)`` returns round ``r``; rounds are drawn in order from one
    random stream, so round ``r`` depends only on the seed.
    """

    def __init__(self, workload: str, seed: int, workdir: str, catalog):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.workdir = workdir
        self.catalog = catalog          # name -> CatalogEntry
        self._rng = random.Random(f"{workload}:{seed}")
        self._rounds = []
        self._seen = set()
        self._next_id = 0
        self.specs = []
        if workload == "render":
            for terms in (1, 2, 3, 4):
                spec = _draw_expsum(self._rng, terms)
                path = os.path.join(workdir, f"spec{terms}.cfg")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(spec.text())
                self.specs.append((path, spec))

    # -- drawing helpers -------------------------------------------------

    def _time(self, case: str, r: int | None = None) -> str:
        """A time in [0, 3] away from the case's degenerate times.

        With a round number, periodic times alternate between cos t > 0 and
        cos t < 0 (see ``_amplitude_complex``): the baseline code's work and
        exit code differ between the two, so they are strata, not draws.
        """
        lo, hi = 0.0, 3.0
        if case == "periodic" and r is not None:
            lo, hi = ((0.0, math.pi / 2), (math.pi / 2, math.pi))[r % 2]
        bad = self.catalog[case].degenerate_times
        while True:
            t = self._rng.uniform(lo, hi)
            if all(abs(math.remainder(t - d, math.pi)) > _DEGENERATE_MARGIN
                   for d in bad):
                return f"{t:.6f}"

    def _window(self, case: str | None) -> str:
        """The case window (or the spec-file default) scaled by 0.9..1."""
        (x0, x1), (y0, y1) = (self.catalog[case].window if case
                              else ((-8.0, 8.0), (-8.0, 8.0)))
        sx, sy = self._rng.uniform(0.9, 1.0), self._rng.uniform(0.9, 1.0)
        return f"--window={x0 * sx:.4f}:{x1 * sx:.4f}:{y0 * sy:.4f}:{y1 * sy:.4f}"

    def _add(self, jobs, kind, argv, rc=0, out="", **info):
        key = tuple(a for a in argv if a != out)
        if key in self._seen:
            raise RuntimeError(f"generated a repeated argv: {argv}")
        self._seen.add(key)
        jobs.append(Job(self._next_id, kind, argv, rc, out, info))
        self._next_id += 1

    def _out(self, job_no: int, ext: str) -> str:
        return os.path.join(self.workdir, f"job{job_no}.{ext}")

    # -- rounds ------------------------------------------------------------

    def round(self, r: int) -> list:
        while len(self._rounds) <= r:
            build = getattr(self, f"_round_{self.workload}")
            self._rounds.append(build(len(self._rounds)))
        return self._rounds[r]

    def _res(self, level: int) -> int:
        """A resolution in level-3..level."""
        return level - self._rng.randrange(4)

    def _round_render(self, r: int) -> list:
        jobs = []
        csv_res = (263, 320, 384, 448, 512, 384)
        pgm_res = (512, 448, 384, 320, 263, 512)
        for i, case in enumerate(CASES):
            for fmt, level in (("csv", csv_res[(i + r) % 6]),
                               ("pgm16", pgm_res[(i + r) % 6])):
                kind, ext = _FORMATS[fmt]
                res = self._res(level)
                out = self._out(self._next_id, ext)
                self._add(jobs, kind,
                          ["render", "--case", case, "--which", "U",
                           "--t", self._time(case), self._window(case),
                           "--res", str(res), "--format", fmt, "--out", out],
                          out=out, case=case, res=res)
        spec_jobs = ((384, "csv"), (512, "csv"), (263, "pgm16"), (448, "pgm16"))
        for i, (path, spec) in enumerate(self.specs):
            level, fmt = spec_jobs[(i + r) % 4]
            kind, ext = _FORMATS[fmt]
            res = self._res(level)
            out = self._out(self._next_id, ext)
            self._add(jobs, kind,
                      ["render", "--spec", path, "--which", "U",
                       "--t", f"{self._rng.uniform(-1.0, 1.0):.6f}",
                       self._window(None), "--res", str(res), "--format", fmt,
                       "--out", out],
                      out=out, spec=spec, res=res)
        # one point more per round keeps the argv distinct; a drawn
        # resolution moved this job's cost fourfold, across job_p50_s
        res = 320 + r
        out = self._out(self._next_id, "csv")
        self._add(jobs, "degenerate",
                  ["render", "--case", "breather", "--which", "U", "--t", "pi/2",
                   "--res", str(res), "--out", out], rc=3, out=out)
        return jobs

    def _round_verify(self, r: int) -> list:
        jobs = []
        # resonant skips the phase checks and is cheap at any resolution,
        # so it gets its own stratum, up to 128
        heavy = [c for c in CASES if c != "resonant"]
        levels = (71, 80, 88, 100, 112)
        res_of = {c: self._res(levels[(i + r) % 5]) for i, c in enumerate(heavy)}
        res_of["resonant"] = self._res((71, 96, 128)[r % 3])
        for case in CASES:
            if case == "double_instanton":
                t = f"{_DI_VERIFY_TIMES[r % len(_DI_VERIFY_TIMES)]:.6f}"
            else:
                t = self._time(case, r)
            must, may = set(), set()
            if case == "resonant":
                # singular cells fail admissibility; near them the pde2
                # stencils lose their order at some times
                must, may = {"admissibility"}, {"pde2"}
            elif _amplitude_complex(case, float(t)):
                may = {"consistency"}
            out = self._out(self._next_id, "txt")
            self._add(jobs, "verify",
                      ["verify", "--case", case, "--t", t,
                       "--checks", ALL_CHECKS, "--res", str(res_of[case]),
                       "--out", out],
                      rc=1 if must else 0, out=out, case=case,
                      must_fail=must, may_fail=may)
        for k, level in enumerate((48, 64, 80)):
            case = heavy[(r + k) % 5]
            t = self._time(case, r)
            res = self._res(level)
            out = self._out(self._next_id, "csv")
            self._add(jobs, "phi",
                      ["render", "--case", case, "--which", "phi",
                       "--t", t, "--res", str(res), "--out", out],
                      out=out, case=case, res=res,
                      alt_rc=3 if _amplitude_complex(case, float(t)) else None)
        return jobs

    def _round_analyze(self, r: int) -> list:
        jobs = []
        levels = (96, 112, 128, 144, 160, 192)
        for i, case in enumerate(CASES):
            res = self._res(levels[(i + r) % 6])
            out = self._out(self._next_id, "txt")
            self._add(jobs, "peaks",
                      ["analyze", "--case", case, "--peaks", "--t", self._time(case),
                       self._window(case), "--res", str(res), "--out", out],
                      out=out, case=case, res=res)
        for level in (64, 96, 128):
            times = [self._rng.uniform(lo, lo + 1.5) for lo in (0.0, 2.0, 4.0)]
            out = self._out(self._next_id, "txt")
            self._add(jobs, "decay",
                      ["analyze", "--case", "double_instanton",
                       "--decay", ",".join(f"{t:.6f}" for t in times),
                       self._window("double_instanton"), "--res", str(self._res(level)),
                       "--out", out],
                      out=out)
        # The scan range must span exactly 2 pi, so its start is a pi form
        # k*pi/64.  Every scan follows a fixed schedule of starts.  The
        # period error of periodic swings with the start, from 2e-6 to 0.05
        # under L2 and to 0.11 under global_max, and would make
        # accuracy_digits depend on the seed rather than on the code; the
        # cost of a breather scan swings by up to a half (L2) and 12%
        # (global_max, one Nelder-Mead polish per time sample), and the L2
        # scans sit at the job_tail_s percentile.  The periodic schedule
        # starts at 39*pi/64, where the baseline code's refinement misses
        # pi by 0.047 (within the reported resolution), so that this defect
        # shows in every run.
        scans = [("breather", "L2", 32, 48, 8 * r + 4),
                 ("breather", "L2", 48, 32, 8 * r + 36),
                 ("periodic", "L2", 40, 32, 8 * r),
                  ("periodic", "L2", 64, 48, 8 * r + 39),
                  ("breather", "global_max", (32, 40)[r % 2], 32, 4 * r)]
        for case, stat, n, grid, k in scans:
            t0 = f"{k}pi/64" if k else "0"
            out = self._out(self._next_id, "txt")
            self._add(jobs, "period",
                      ["analyze", "--case", case,
                       "--period", f"{t0}:{k + 128}pi/64:{n}",
                       "--statistic", stat, "--res", str(grid), "--out", out],
                      out=out, case=case)
        return jobs
