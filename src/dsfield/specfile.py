"""Load and save solution specs as INI-style text files.

Schema (all sections required except [funcs] and [signs], which default):

    [coeffs]                a0..a3 as floats
    [p] / [q]               family = expsum, with the comma lists
                            A, K, L, theta; or the bare name of a
                            fixed family of ``profiles.FAMILIES``
                            (breather_p, breather_q, tancos,
                            instanton_p, instanton_q), which takes
                            no key
    [funcs]                 beta (default 1), gamma (default 0): a float
                            constant or "poly: b0, b1, b2" for
                            b0 + b1*t + b2*t^2
    [signs]                 delta1, delta2 in {+1, -1}

Any other section or key is an error.  A profile writes only as an
exponential sum or as a value of ``FAMILIES`` itself; any other profile,
such as a caller's ``CustomProfile``, has no file form.
"""

from __future__ import annotations

import configparser
import io

from .ansatz import CoefficientFunctions, SeparationCoefficients, SolutionSpec
from .profiles import FAMILIES, ExpSumProfile, TimeFunction

__all__ = ["load_spec", "loads_spec", "dumps_spec", "SpecFileError"]


class SpecFileError(ValueError):
    pass


_EXPSUM = ("A", "K", "L", "theta")
_KEYS = {"coeffs": ("a0", "a1", "a2", "a3"), "funcs": ("beta", "gamma"),
         "signs": ("delta1", "delta2")}
_KEYS["p"] = _KEYS["q"] = ("family",) + tuple(k.lower() for k in _EXPSUM)


def _floats(raw: str) -> tuple:
    try:
        return tuple(float(v) for v in raw.replace(",", " ").split())
    except ValueError as exc:
        raise SpecFileError(f"expected numbers, got {raw!r}") from exc


def _profile(sec) -> object:
    family = sec.get("family", "").strip().lower()
    if family == "expsum":
        missing = [k.lower() for k in _EXPSUM if k not in sec]
        if missing:
            raise SpecFileError(f"expsum profile is missing {missing}")
        return ExpSumProfile(**{k: _floats(sec[k]) for k in _EXPSUM})
    if family in FAMILIES:
        extra = [k for k in sec if k != "family"]
        if extra:
            raise SpecFileError(f"[{sec.name}] family {family} takes no key {extra[0]!r}")
        return FAMILIES[family]
    raise SpecFileError(f"unknown profile family {family!r}")


def _timefn(raw: str) -> TimeFunction:
    raw = raw.strip()
    if raw.lower().startswith("poly:"):
        return TimeFunction(_floats(raw[5:]))
    try:
        return TimeFunction((float(raw),))
    except ValueError as exc:
        raise SpecFileError(f"bad coefficient function {raw!r}") from exc


def loads_spec(text: str) -> SolutionSpec:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise SpecFileError(f"unparseable spec file: {exc}") from exc
    for section in ("coeffs", "p", "q"):
        if section not in cp:
            raise SpecFileError(f"missing [{section}] section")
    for section in cp.sections():
        if section not in _KEYS:
            raise SpecFileError(f"unknown section [{section}]")
        for key in cp[section]:
            if section == "funcs" and key in ("c0", "c3", "c4"):
                raise SpecFileError(f"[funcs] {key} was removed: the amplitude branch "
                                    "comes from the profiles; beta and gamma remain")
            if key not in _KEYS[section]:
                raise SpecFileError(f"unknown key {key!r} in [{section}]")
    try:
        coeffs = SeparationCoefficients(*(float(cp["coeffs"][k]) for k in _KEYS["coeffs"]))
    except (KeyError, ValueError) as exc:
        raise SpecFileError(f"bad [coeffs] section: {exc}") from exc

    p = _profile(cp["p"])
    q = _profile(cp["q"])

    fk = cp["funcs"] if "funcs" in cp else {}
    funcs = CoefficientFunctions(**{k: _timefn(v) for k, v in fk.items()})
    sk = cp["signs"] if "signs" in cp else {}
    try:
        signs = [float(sk.get(k, "1")) for k in _KEYS["signs"]]
        if not all(d in (1.0, -1.0) for d in signs):
            raise ValueError(f"delta1 and delta2 must be +1 or -1, got {signs}")
        return SolutionSpec(coeffs, p, q, funcs, *map(int, signs))
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc


def load_spec(path) -> SolutionSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_spec(fh.read())


def _timefn_str(fn: TimeFunction) -> str:
    if fn.is_constant:
        return f"{fn.coeffs[0]:.17g}"
    return "poly: " + ", ".join(f"{c:.17g}" for c in fn.coeffs)


def dumps_spec(spec: SolutionSpec) -> str:
    cp = configparser.ConfigParser()
    cp["coeffs"] = {k: f"{getattr(spec.coeffs, k):.17g}" for k in _KEYS["coeffs"]}
    for name, prof in (("p", spec.p), ("q", spec.q)):
        if prof.family in FAMILIES:
            cp[name] = {"family": prof.family}
        elif isinstance(prof, ExpSumProfile):
            cp[name] = {"family": "expsum", **{
                k: ", ".join(f"{v:.17g}" for v in getattr(prof, k)) for k in _EXPSUM}}
        else:
            raise SpecFileError(f"profile family {prof.family!r} has no file form")
    cp["funcs"] = {k: _timefn_str(getattr(spec.funcs, k)) for k in _KEYS["funcs"]}
    cp["signs"] = {"delta1": str(spec.delta1), "delta2": str(spec.delta2)}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
