"""Timing wrappers around the public functions of the dsfield layers.

``Tracer.install()`` replaces every binding of each wrapped function in the
loaded ``dsfield`` modules (``field`` and ``verify`` import evaluators by
name, so patching only the home module would miss their call sites) and
wraps the methods of ``Auxiliaries`` and of each profile class.  Nothing
in the package's source changes.

A wrapper records one span (name, start, end, parent span, job id) in
memory and adds counts at the same boundary: calls, points evaluated,
distinct coordinates among them, quadrature nodes, exported bytes.  Self
time is a span's duration minus the time its child spans cover.  The
wrapper's own bookkeeping after the call is charged to neither the span
nor its parent; it is summed as ``overhead_s``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

_now = time.perf_counter

# span name -> [(module, attribute)], module-level functions
FUNCTIONS = {
    "calculus.elementary": [("dsfield.calculus", n) for n in
                            ("exp", "log", "sqrt", "sin", "cos", "tan", "powi")],
    "ansatz.eval_f": [("dsfield.ansatz", "eval_f")],
    "ansatz.eval_intensity": [("dsfield.ansatz", "eval_intensity")],
    "ansatz.eval_phi": [("dsfield.ansatz", "eval_phi")],
    "ansatz.check_admissibility": [("dsfield.ansatz", "check_admissibility")],
    "auxiliary.consistency": [("dsfield.auxiliary", "consistency_c1_c2")],
    "field.sample_field": [("dsfield.field", "sample_field")],
    "field.export": [("dsfield.field", "to_csv"), ("dsfield.field", "to_pgm16")],
    "field.refined_global_max": [("dsfield.field", "refined_global_max")],
    "field.estimate_period": [("dsfield.field", "estimate_period")],
    "field.decay_profile": [("dsfield.field", "decay_profile")],
    "field.analyze_extrema": [("dsfield.field", "analyze_extrema")],
    "verify.bilinear_residuals": [("dsfield.verify", "bilinear_residuals")],
    "verify.pde_residuals": [("dsfield.verify", "pde_residuals")],
    "verify.singularity_scan": [("dsfield.verify", "singularity_scan")],
    "catalog.build_case": [("dsfield.catalog", "build_case")],
    "specfile.load_spec": [("dsfield.specfile", "load_spec")],
    "cli.main": [("dsfield.cli", "main")],
}

# span name -> Auxiliaries methods
AUX_METHODS = {
    "auxiliary.phase": ("phase_r", "phase_s"),
    "auxiliary.gradient": ("r_zeta_jet", "s_eta_jet"),
    "auxiliary.amplitude": ("p1_jet", "q1_jet"),
    "auxiliary.background": ("p0", "q0"),
}

COUNTERS = ("calls", "points", "distinct", "nodes", "bytes")


def _distinct(x) -> int:
    return int(np.unique(x).size) if np.ndim(x) else 1


# count functions: (stats dict, args, kwargs, result) -> None


def _count_jet_value(st, args, kwargs, out):
    st["points"] += int(np.size(args[0].value))


def _count_line(st, args, kwargs, out):
    """Methods f(self, coordinate, t) on one line coordinate."""
    st["points"] += int(np.size(args[1]))
    st["distinct"] += _distinct(args[1])


def _count_phase(st, args, kwargs, out):
    _count_line(st, args, kwargs, out)
    st["nodes"] += int(np.size(args[1])) * (args[0].quad_n + 1)


def _count_plane(st, args, kwargs, out):
    """Evaluators f(spec, zeta, eta, t, ...)."""
    st["points"] += int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _count_sample(st, args, kwargs, out):
    nx = args[5] if len(args) > 5 else kwargs["nx"]
    ny = args[6] if len(args) > 6 else kwargs["ny"]
    st["points"] += int(nx) * int(ny)


def _count_export(st, args, kwargs, out):
    if isinstance(out, tuple):          # to_pgm16: (image, sidecar text)
        st["bytes"] += len(out[0]) + len(out[1].encode("utf-8"))
    else:
        st["bytes"] += len(out)


COUNT = {
    "calculus.elementary": _count_jet_value,
    "profiles.jet3": _count_line,
    "auxiliary.phase": _count_phase,
    "auxiliary.gradient": _count_line,
    "auxiliary.amplitude": _count_line,
    "auxiliary.background": _count_line,
    "ansatz.eval_f": _count_plane,
    "ansatz.eval_intensity": _count_plane,
    "ansatz.eval_phi": _count_plane,
    "field.sample_field": _count_sample,
    "field.export": _count_export,
}


class Tracer:
    def __init__(self):
        self.job = -1
        self.names = []
        self.stats = {}
        self.overhead_s = 0.0
        self._stack = []                # [child time] per open span
        self._ids = []                  # span id per open span
        self._spans = {k: array(t) for k, t in
                       (("name", "i"), ("start", "d"), ("end", "d"),
                        ("parent", "q"), ("job", "i"))}
        self._undo = []

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, name, fn):
        if name not in self.stats:
            self.names.append(name)
            self.stats[name] = dict.fromkeys(COUNTERS, 0)
            self.stats[name].update(self_s=0.0, total_s=0.0)
        code = self.names.index(name)
        st = self.stats[name]
        count = COUNT.get(name)
        stack, ids, spans = self._stack, self._ids, self._spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            sid = len(spans["name"])        # the id is reserved before children run
            spans["name"].append(code)
            spans["start"].append(0.0)
            spans["end"].append(0.0)
            spans["parent"].append(ids[-1] if ids else -1)
            spans["job"].append(self.job)
            stack.append(frame)
            ids.append(sid)
            out = None
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = _now()
                stack.pop()
                ids.pop()
                st["calls"] += 1
                st["total_s"] += t1 - t0
                st["self_s"] += (t1 - t0) - frame[0]
                if count is not None and out is not None:
                    count(st, args, kwargs, out)
                spans["start"][sid] = t0
                spans["end"][sid] = t1
                t2 = _now()
                self.overhead_s += t2 - t1
                if stack:
                    stack[-1][0] += t2 - t0

        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the dsfield layers; every dsfield module must be imported."""
        from dsfield import auxiliary, profiles

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dsfield" or n.startswith("dsfield.")]
        for name, targets in FUNCTIONS.items():
            for modname, attr in targets:
                orig = getattr(sys.modules[modname], attr)
                new = self._wrapper(name, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, new)
        for name, methods in AUX_METHODS.items():
            for attr in methods:
                self._patch(auxiliary.Auxiliaries, attr,
                            self._wrapper(name, auxiliary.Auxiliaries.__dict__[attr]))
        for cls in vars(profiles).values():
            if (isinstance(cls, type) and issubclass(cls, profiles.ProfileFunction)
                    and cls is not profiles.ProfileFunction and "jet3" in cls.__dict__):
                self._patch(cls, "jet3", self._wrapper("profiles.jet3",
                                                       cls.__dict__["jet3"]))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._spans["end"])

    def save(self, path):
        """Write the spans as numpy arrays (names indexed by ``names``)."""
        np.savez_compressed(path, names=np.array(self.names),
                            **{k: np.frombuffer(v, dtype=v.typecode)
                               for k, v in self._spans.items()})
