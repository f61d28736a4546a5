"""Output checks for benchmark jobs.

Each check reads what one CLI call wrote and decides whether it is what the
baseline code produces: exit code, file format and size, report verdicts,
residual levels within 100x of the baseline levels, the period of the
time-periodic cases, a decreasing decay series, and for exponential-sum
solutions an independent numpy evaluation of U = 4*det*p_zeta*q_eta/f^2.
It also returns the errors that feed ``accuracy_digits`` and a sha256 of
the output bytes.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

SQRT2 = math.sqrt(2.0)

# 100x the residual levels of the baseline code: bilinear2 ~5.5e-16 relative,
# bilinear1 and pde1 <= ~4e-11
BILINEAR2_MAX = 5.5e-14
ENVELOPE_MAX = 4e-9

# cases whose profiles are exponential sums with f > 0 on the whole window
ADMISSIBLE_EXPSUM = ("dromion", "solitoff")
EXPSUM = ADMISSIBLE_EXPSUM + ("resonant",)

# CSV rows compared against the independent evaluation per render
SPOT_ROWS = 2048


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    errors: dict = field(default_factory=dict)    # quantity -> relative error
    quality: dict = field(default_factory=dict)   # per-layer residual levels
    sha256: str = ""
    known: str = ""             # accepted known defect this job showed


class CheckError(Exception):
    pass


def _need(cond, why):
    if not cond:
        raise CheckError(why)


def _arg(argv, name, default=None):
    for i, a in enumerate(argv):
        if a == name:
            return argv[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return default


def _window(job, catalog):
    text = _arg(job.argv, "--window")
    if text:
        x0, x1, y0, y1 = (float(v) for v in text.split(":"))
        return (x0, x1), (y0, y1)
    case = job.info.get("case")
    return catalog[case].window if case else ((-8.0, 8.0), (-8.0, 8.0))


def _grid(window, n):
    (x0, x1), (y0, y1) = window
    return np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, n))


def _keep(job, catalog, X, Y):
    case = job.info.get("case")
    if case is None:
        return np.ones(X.shape, dtype=bool)
    return np.asarray(catalog[case].valid_mask((X - Y) / SQRT2, (X + Y) / SQRT2),
                      dtype=bool)


def _expsum_params(job, catalog):
    """(coeffs, p terms, q terms) of an exponential-sum job, else None."""
    if "spec" in job.info:
        s = job.info["spec"]
        return s.coeffs, s.p, s.q
    case = job.info.get("case")
    if case not in EXPSUM:
        return None
    spec = catalog[case].spec
    c = spec.coeffs
    terms = [tuple(zip(pr.A, pr.K, pr.L, pr.theta)) for pr in (spec.p, spec.q)]
    return (c.a0, c.a1, c.a2, c.a3), terms[0], terms[1]


def expsum_intensity(params, x, y, t):
    """U = 4*det*p_zeta*q_eta/f^2 evaluated directly with numpy."""
    (a0, a1, a2, a3), pt, qt = params
    zeta, eta = (x - y) / SQRT2, (x + y) / SQRT2

    def profile(terms, s):
        v = np.zeros_like(s)
        d = np.zeros_like(s)
        for A, K, L, th in terms:
            e = A * np.exp(K * s + L * t + th)
            v += e
            d += K * e
        return v, d

    p, pz = profile(pt, zeta)
    q, qe = profile(qt, eta)
    f = a0 + a1 * p + a2 * q + a3 * p * q
    return 4.0 * (a0 * a3 - a1 * a2) * pz * qe / (f * f)


def _report(data: bytes) -> dict:
    out = {}
    for line in data.decode("utf-8").splitlines():
        key, _, val = line.partition(": ")
        out[key] = val
    return out


# ---------------------------------------------------------------------------
# per kind


def _check_csv(job, catalog, data, outcome, finite_only=False):
    lines = data.split(b"\n")
    _need(lines[0] == b"x,y,U" and lines[-1] == b"", "bad CSV framing")
    rows = len(lines) - 2
    X, Y = _grid(_window(job, catalog), job.info["res"])
    valid = int(np.count_nonzero(_keep(job, catalog, X, Y)))
    # U is finite wherever the window is valid; phi is masked where the
    # integrated phases are not (double_instanton across its pole)
    _need(0 < rows <= valid if finite_only else rows == valid,
          f"CSV has {rows} rows, window has {valid} valid points")
    pick = np.unique(np.linspace(1, rows, min(rows, SPOT_ROWS)).astype(int))
    vals = np.array([[float(v) for v in lines[i].split(b",")] for i in pick])
    _need(np.isfinite(vals).all(), "non-finite CSV values")
    params = _expsum_params(job, catalog)
    if params is None or finite_only:
        return
    ref = expsum_intensity(params, vals[:, 0], vals[:, 1], float(_arg(job.argv, "--t")))
    scale = float(np.max(np.abs(ref)))
    err = float(np.max(np.abs(vals[:, 2] - ref))) / scale
    _need(err < 1e-12, f"U differs from the numpy evaluation by {err:.3e} relative")
    outcome.errors["render.U"] = err


def _check_pgm(job, catalog, data, sidecar, outcome):
    res = job.info["res"]
    header = f"P5\n{res} {res}\n65535\n".encode("ascii")
    _need(data.startswith(header), "bad PGM header")
    _need(len(data) == len(header) + 2 * res * res, "bad PGM size")
    side = _report(sidecar)
    _need(side.get("format") == "pgm16" and side.get("nx") == str(res)
          and side.get("ny") == str(res), "bad PGM sidecar")
    scale_max = float(side["scale_max"])
    _need(math.isfinite(scale_max) and scale_max > 0, "bad scale_max")
    case = job.info.get("case")
    params = _expsum_params(job, catalog)
    if params is None or (case is not None and case not in ADMISSIBLE_EXPSUM):
        return
    X, Y = _grid(_window(job, catalog), res)
    ref = expsum_intensity(params, X, Y, float(_arg(job.argv, "--t")))
    keep = _keep(job, catalog, X, Y)
    top = float(np.max(ref[keep]))
    err = abs(scale_max - top) / top
    _need(err < 1e-12, f"scale_max differs from the numpy maximum by {err:.3e}")
    want = np.where(keep, np.rint(np.clip(ref / scale_max, 0.0, 1.0) * 65535.0), 0.0)
    got = np.frombuffer(data, dtype=">u2", offset=len(header)).reshape(res, res)
    _need(np.max(np.abs(got.astype(float) - want)) <= 1.0,
          "PGM pixels differ from the numpy evaluation")
    outcome.errors["render.scale_max"] = err


def _check_verify(job, rc, data, outcome):
    rep = _report(data)
    statuses = {k[len("check."):-len(".status")]: v for k, v in rep.items()
                if k.startswith("check.") and k.endswith(".status")}
    _need(len(statuses) == 6, f"report has {len(statuses)} checks, not 6")
    _need(set(statuses.values()) <= {"pass", "skipped", "fail"},
          f"check statuses {statuses}")
    failed = {k for k, s in statuses.items() if s == "fail"}
    must, may = job.info["must_fail"], job.info["may_fail"]
    _need(must <= failed <= must | may,
          f"failed checks {sorted(failed)}, expected {sorted(must)}"
          f" (and maybe {sorted(may)})")
    _need(rc == (1 if failed else 0), f"exit code {rc} for failed {sorted(failed)}")
    _need(rep.get("overall") == ("fail" if failed else "pass"), "wrong overall")
    if "admissibility" in must:
        _need(rep.get("check.admissibility.verdict") == "singular",
              "window is not reported singular")
    if failed - must:
        outcome.known = f"known defect: {sorted(failed - must)} fail"
    b2 = float(rep["check.bilinear2.max_abs"])
    _need(b2 <= BILINEAR2_MAX, f"bilinear2 {b2:.3e} above {BILINEAR2_MAX:.1e}")
    outcome.errors["verify.bilinear2"] = b2
    outcome.quality["bilinear2_max_rel"] = b2
    for name in ("bilinear1", "pde1"):
        if statuses[name] != "pass":
            continue
        v = float(rep[f"check.{name}.max_abs"])
        _need(v <= ENVELOPE_MAX, f"{name} {v:.3e} above {ENVELOPE_MAX:.1e}")
        outcome.errors[f"verify.{name}"] = v
        outcome.quality[f"{name}_max_abs"] = v
    outcome.quality["pde2_order"] = float(rep["check.pde2.observed_order"])


def _check_period(job, data, outcome):
    rep = _report(data)
    _need(rep.get("period", "none") != "none", "no period found")
    T, res = float(rep["period"]), float(rep["resolution"])
    err = abs(T - math.pi)
    _need(err <= res, f"period {T!r} is off pi by more than {res!r}")
    outcome.errors["analyze.period"] = err / math.pi
    outcome.quality["period_abs_err"] = err


def _check_decay(data):
    rep = _report(data)
    series = [float(v) for k, v in rep.items() if k.startswith("max_at_t_")]
    _need(len(series) == 3, "decay series is not 3 long")
    _need(all(math.isfinite(v) and v > 0 for v in series), "bad decay values")
    _need(all(a > b for a, b in zip(series, series[1:])),
          f"decay series {series} is not strictly decreasing")


def _check_peaks(job, catalog, data, outcome):
    rep = _report(data)
    top = float(rep["grid_max"])
    _need(math.isfinite(top) and top > 0, "bad grid_max")
    _need(int(rep["local_maxima"]) >= 1, "no local maxima")
    _need(float(rep["peak_0"].split(" at ")[0]) == top, "peak_0 is not grid_max")
    if job.info["case"] in ADMISSIBLE_EXPSUM:
        X, Y = _grid(_window(job, catalog), job.info["res"])
        ref = float(np.max(expsum_intensity(_expsum_params(job, catalog), X, Y,
                                            float(_arg(job.argv, "--t")))))
        err = abs(top - ref) / ref
        _need(err < 1e-12, f"grid_max differs from numpy by {err:.3e}")
        outcome.errors["analyze.grid_max"] = err


def check(job, rc, catalog) -> Outcome:
    """Compare one finished job with its expected outcome."""
    outcome = Outcome(ok=True)
    try:
        if job.kind == "verify":
            _need(rc in (0, 1), f"exit code {rc}")
        elif rc is not None and rc == job.info.get("alt_rc"):
            outcome.known = f"known defect: exit code {rc}"
        else:
            _need(rc == job.rc, f"exit code {rc}, expected {job.rc}")
        if rc == 3:
            _need(not os.path.exists(job.out), "a degenerate input wrote a file")
            return outcome
        with open(job.out, "rb") as fh:
            data = fh.read()
        sidecar = b""
        if job.kind == "render_pgm":
            with open(job.out + ".txt", "rb") as fh:
                sidecar = fh.read()
        outcome.sha256 = hashlib.sha256(data + sidecar).hexdigest()
        if job.kind == "render_csv":
            _check_csv(job, catalog, data, outcome)
        elif job.kind == "phi":
            _check_csv(job, catalog, data, outcome, finite_only=True)
        elif job.kind == "render_pgm":
            _check_pgm(job, catalog, data, sidecar, outcome)
        elif job.kind == "verify":
            _check_verify(job, rc, data, outcome)
        elif job.kind == "period":
            _check_period(job, data, outcome)
        elif job.kind == "decay":
            _check_decay(data)
        elif job.kind == "peaks":
            _check_peaks(job, catalog, data, outcome)
        else:
            raise CheckError(f"no check for job kind {job.kind!r}")
    except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
        outcome.ok = False
        outcome.reason = f"{type(exc).__name__}: {exc}"
    return outcome
