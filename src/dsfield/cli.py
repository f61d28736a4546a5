"""Command-line driver: catalog listing, field rendering, verification,
and analytics over files.

Exit codes: 0 success (all requested checks pass), 1 verification failure,
2 usage error, 3 singular or degenerate input.  Every failure path prints a
one-line ``error: ...`` reason to stderr.  Output files are written
atomically (temp file + rename) and are byte-identical across runs for
identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import tempfile

from . import __version__
from .ansatz import DEGENERATE_LEVEL, max_abs, window_grid
from .auxiliary import Ingredients
from .catalog import build_case, case_names
from .field import (
    MIN_PERIOD_SAMPLES,
    SingularWindowError,
    analyze_extrema,
    decay_profile,
    estimate_period,
    sample_field,
    to_csv,
    to_pgm16,
)
from .specfile import SpecFileError, load_spec
from .verify import CHECKS, run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


class UsageError(Exception):
    pass


class DegenerateInput(Exception):
    pass


class CheckFailure(Exception):
    pass


# error class -> exit code; the first class that matches decides, so
# SingularWindowError, a ValueError, comes before ValueError.  An OSError
# is an output path that cannot be written, a MemoryError a --res too large.
_EXIT_CODES = ((UsageError, EXIT_USAGE), (DegenerateInput, EXIT_DEGENERATE),
               (SingularWindowError, EXIT_DEGENERATE),
               (CheckFailure, EXIT_VERIFY_FAILED), (ValueError, EXIT_USAGE),
               (OSError, EXIT_USAGE), (MemoryError, EXIT_USAGE))


_PI_FORM = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?P<coef>\d+(?:\.\d*)?)?\s*\*?\s*pi"
    r"\s*(?:/\s*(?P<div>\d+(?:\.\d*)?))?\s*$", re.IGNORECASE)


def parse_time(text: str) -> float:
    """Decimal literal or pi expression: ``pi``, ``pi/4``, ``2pi/3``, ``-pi``."""
    m = _PI_FORM.match(text)
    try:
        if m:
            val = math.pi * float(m.group("coef") or 1.0)
            if m.group("div"):
                val /= float(m.group("div"))
            val = -val if m.group("sign") == "-" else val
        else:
            val = float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse time {text!r}") from None
    if not math.isfinite(val):
        raise UsageError(f"time must be finite, got {text!r}")
    return val


def parse_window(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError(f"--window must be x0:x1:y0:y1, got {text!r}")
    try:
        x0, x1, y0, y1 = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"--window must be numeric, got {text!r}") from None
    if not all(map(math.isfinite, (x0, x1, y0, y1))):
        raise UsageError(f"--window bounds must be finite, got {text!r}")
    if not (x1 > x0 and y1 > y0):
        raise UsageError(f"--window bounds must be increasing, got {text!r}")
    reach = max(abs(x0), abs(x1)) + max(abs(y0), abs(y1))     # bounds |x -+ y|
    if not all(map(math.isfinite, (x1 - x0, y1 - y0, reach))):
        raise UsageError(f"--window spans must be finite, got {text!r}")
    return (x0, x1), (y0, y1)


def _atomic_write(path: str, write):
    """``write(fh)`` into a temp file renamed to ``path``, removed on any error;
    returns what ``write`` returns.  The file gets the mode a plain open would
    give it, 0o666 less the umask, not the temp file's owner-only 0o600."""
    parent = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".dsfield-")
    try:
        with os.fdopen(fd, "wb") as fh:
            out = write(fh)
        os.umask(umask := os.umask(0))          # reads the umask, which stays as it was
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
        return out
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_report(lines, out):
    """``key: value`` lines to the file ``out``, or to stdout without one."""
    text = "".join(f"{k}: {v}\n" for k, v in lines)
    if out:
        _atomic_write(out, lambda fh: fh.write(text.encode("utf-8")))
    else:
        sys.stdout.write(text)


def _resolve_spec(args):
    """(spec, window, label) from --case or --spec."""
    if bool(args.case) == bool(args.spec):
        raise UsageError("give exactly one of --case or --spec")
    if args.case:
        try:
            entry = build_case(args.case)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        spec, window, label = entry.spec, entry.window, entry.name
    else:
        try:
            spec = load_spec(args.spec)
        except (OSError, SpecFileError) as exc:
            raise UsageError(f"cannot load spec file: {exc}") from None
        window, label = ((-8.0, 8.0), (-8.0, 8.0)), args.spec
    if args.window:
        window = parse_window(args.window)
    return spec, window, label


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--case", help="catalog case name")
    p.add_argument("--spec", help="solution spec file (INI schema)")
    p.add_argument("--window", help="x0:x1:y0:y1 (defaults to the case window)")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_catalog(args) -> int:
    for name in case_names():
        e = build_case(name)
        c = e.spec.coeffs
        (x0, x1), (y0, y1) = e.window
        print(f"{name}")
        print(f"  coefficients: a0={c.a0:g} a1={c.a1:g} a2={c.a2:g} a3={c.a3:g}"
              f" (det={c.det:g})")
        print(f"  profiles: p={e.spec.p.family} q={e.spec.q.family}")
        print(f"  window: {x0:g}:{x1:g}:{y0:g}:{y1:g}")
        print(f"  reference times: {', '.join(f'{t:g}' for t in e.reference_times)}")
        if e.degenerate_times:
            print(f"  degenerate times: "
                  f"{', '.join(f'{t:g}' for t in e.degenerate_times)} (+ k*pi)")
        for note in e.notes:
            print(f"  note: {note}")
    return EXIT_OK


def _intensity_grid(spec, window, t, res, label):
    """The U grid of ``window`` at ``t``, refused where U vanishes to the degenerate level."""
    grid = sample_field(spec, "U", window, t, nx=res, ny=res)
    if max_abs(grid.values, grid.mask) < DEGENERATE_LEVEL:
        raise DegenerateInput(f"degenerate: intensity identically zero for {label} at t={t:g}")
    return grid


def _cmd_render(args) -> int:
    spec, window, label = _resolve_spec(args)
    t = parse_time(args.t)
    grid = (_intensity_grid(spec, window, t, args.res, label) if args.which == "U"
            else sample_field(spec, args.which, window, t, nx=args.res, ny=args.res))
    if args.format == "csv":
        _atomic_write(args.out, lambda fh: to_csv(grid, fh))
    else:
        sidecar = _atomic_write(args.out, lambda fh: to_pgm16(grid, fh))
        _atomic_write(args.out + ".txt", lambda fh: fh.write(sidecar.encode("ascii")))
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec, window, label = _resolve_spec(args)
    t = parse_time(args.t)
    requested = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in requested if c not in CHECKS]
    if unknown:
        raise UsageError(f"unknown checks {unknown}; valid: {', '.join(CHECKS)}")
    if not requested:
        raise UsageError(f"no checks requested; valid: {', '.join(CHECKS)}")
    # every check on the --res grid reads this one bundle
    ing = Ingredients(spec, window_grid(window, args.res, spec.valid_mask), t)

    lines = [("case", label), ("t", f"{t:.17g}"),
             ("window", ":".join(f"{v:.17g}" for v in (*window[0], *window[1]))),
             ("res", str(args.res))]
    checks = run_checks(ing, requested)
    for name, (status, fields, notes) in checks.items():
        lines += [(f"check.{name}.{key}", value) for key, value in fields]
        lines.append((f"check.{name}.status", status))
        if notes:
            lines.append((f"check.{name}.notes", notes))
    failed = [name for name, (status, _, _) in checks.items() if status == "fail"]
    lines.append(("overall", "fail" if failed else "pass"))
    _write_report(lines, args.out)
    if failed:
        raise CheckFailure(f"checks failed: {', '.join(failed)}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    spec, window, label = _resolve_spec(args)
    chosen = [name for name, flag in (("period", args.period),
                                      ("decay", args.decay),
                                      ("peaks", args.peaks)) if flag]
    if len(chosen) != 1:
        raise UsageError("give exactly one of --period, --decay, --peaks")
    # an option that the chosen mode does not read is refused, not ignored
    for option, value, mode in (("--t", args.t, "peaks"),
                                ("--statistic", args.statistic, "period")):
        if value is not None and chosen != [mode]:
            raise UsageError(f"{option} applies to --{mode} only")
    lines = [("case", label)]

    if args.period:
        parts = args.period.split(":")
        if len(parts) != 3:
            raise UsageError("--period wants t0:t1:n")
        t0, t1 = parse_time(parts[0]), parse_time(parts[1])
        if not t1 > t0:
            raise UsageError(f"--period wants t1 > t0, got {args.period!r}")
        if not math.isfinite(t1 - t0):
            raise UsageError(f"--period wants a finite span t1 - t0, got {args.period!r}")
        try:
            n_t = int(parts[2])
        except ValueError:
            raise UsageError(f"--period wants an integer count n, got {parts[2]!r}") from None
        if n_t < MIN_PERIOD_SAMPLES:
            raise UsageError(f"--period wants at least {MIN_PERIOD_SAMPLES} samples, got {n_t}")
        statistic = args.statistic or "global_max"
        grid = window_grid(window, args.res, spec.valid_mask)
        res = estimate_period(spec, grid, (t0, t1), n_t, statistic)
        lines += [
            ("statistic", statistic),
            ("period", "none" if res.estimated_period is None
             else f"{res.estimated_period:.17g}"),
            ("resolution", f"{res.period_resolution:.17g}"),
        ]
        if res.period_mismatch is not None:
            lines.append(("period_mismatch", f"{res.period_mismatch:.6e}"))
        elif res.best_candidate is not None:
            lines.append(("best_candidate", f"{res.best_candidate:.17g}"))
    elif args.decay:
        times = [parse_time(v) for v in args.decay.split(",")]
        if len(set(times)) != len(times):
            raise UsageError(f"--decay repeats a time: {args.decay!r}")
        grid = window_grid(window, args.res, spec.valid_mask)
        for t, mx in decay_profile(spec, grid, times):
            lines.append((f"max_at_t_{t!r}", f"{mx:.17g}"))
    else:
        t = parse_time("0" if args.t is None else args.t)
        top, (x, y), peaks = analyze_extrema(_intensity_grid(spec, window, t, args.res, label))
        lines += [
            ("t", f"{t:.17g}"),
            ("grid_max", f"{top:.17g}"),
            ("grid_max_at", f"{x:.17g},{y:.17g}"),
            ("local_maxima", str(len(peaks))),
        ]
        for i, pk in enumerate(peaks):
            lines.append((f"peak_{i}", f"{pk.value:.17g} at {pk.x:.17g},{pk.y:.17g}"))

    _write_report(lines, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # one per process (parse_args changes nothing in it); no prefix matching: a mistyped
    # or retired option is a usage error, not an alias (``verify --h`` is not ``--help``)
    parser = argparse.ArgumentParser(
        prog="dsfield", allow_abbrev=False,
        description="Evaluate, render and verify separable wave-envelope "
                    "solutions of the coupled (2+1)-dimensional system.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the built-in excitation cases")

    rp = sub.add_parser("render", help="sample a field and write it to a file",
                        allow_abbrev=False)
    _add_common(rp)
    rp.add_argument("--t", required=True, help="time (decimal or pi form)")
    rp.add_argument("--out", required=True)
    rp.add_argument("--format", choices=("csv", "pgm16"), default="csv")
    rp.add_argument("--which", choices=("U", "phi", "bilinear2", "pde2"),
                    default="U")
    rp.add_argument("--res", type=int, default=128)

    vp = sub.add_parser("verify", help="run residual checks, write a report",
                        allow_abbrev=False)
    _add_common(vp)
    vp.add_argument("--t", required=True)
    vp.add_argument("--checks", default="bilinear2,consistency,admissibility")
    vp.add_argument("--res", type=int, default=64)
    vp.add_argument("--out", default=None)

    ap = sub.add_parser("analyze", help="periods, peak decay, extrema counts",
                        allow_abbrev=False)
    _add_common(ap)
    ap.add_argument("--period", help="t0:t1:n scan range")
    ap.add_argument("--decay", help="comma-separated times")
    ap.add_argument("--peaks", action="store_true")
    ap.add_argument("--t", help="time of --peaks (default 0)")
    ap.add_argument("--statistic", choices=("global_max", "L2"),
                    help="time statistic of --period (default global_max)")
    ap.add_argument("--res", type=int, default=96)
    ap.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    # argparse reads a value such as -1e-3, -pi/2 or -8:8:-8:8 as an option; no option
    # starts with "-" and a digit, "." or "pi", so such a word joins the option before it
    words = []                                  # a copy: the caller's list stays as it was
    for word in sys.argv[1:] if argv is None else argv:
        if words and re.fullmatch(r"--[^=]+", words[-1]) and re.match(r"-[\d.]|-pi", word, re.I):
            words[-1] += "=" + word
        else:
            words.append(word)
    try:
        args = build_parser().parse_args(words)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"catalog": _cmd_catalog, "render": _cmd_render,
                "verify": _cmd_verify, "analyze": _cmd_analyze}
    try:
        if getattr(args, "res", None) is not None and args.res < 8:
            raise UsageError("resolution must be at least 8")
        return handlers[args.command](args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    raise SystemExit(main())
