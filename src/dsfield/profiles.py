"""Separable profile families and scalar-in-time coefficient functions.

A profile is a real function of one spatial variable (its own rotated
coordinate) and time.  Each family evaluates to a jet to the order or box
its reader asks for: the verify ingredients, which differentiate profile
derivatives once more, read order 3; the pde2 stencils, phase nodes and
consistency probes order 2; U reads the box (1, 0), with U_t (1, 1); the
peak ascent (3, 0); a pole sweep the value alone, order 0.  The
exponential-sum family covers localized and line-type data; the remaining
families are the fixed forms behind the breather, periodic and instanton
catalog cases.  ``CustomProfile`` accepts any jet-valued callable for
exploration beyond the built-in forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import calculus as jc
from .calculus import Jet

__all__ = [
    "ProfileFunction",
    "ExpSumProfile",
    "BreatherPProfile",
    "BreatherQProfile",
    "TanCosProfile",
    "InstantonPProfile",
    "InstantonQProfile",
    "CustomProfile",
    "TimeFunction",
    "const_fn",
    "poly_fn",
]


class ProfileFunction:
    """Common interface: ``jet3(x, t, order)`` returns a jet in (x, t) to
    ``order``, 3 by default, or a box such as ``(1, 0)``; each entry is
    bitwise that of the order-3 jet."""

    family = "abstract"

    def jet3(self, x, t, order=3) -> Jet:
        raise NotImplementedError


@dataclass(frozen=True)
class ExpSumProfile(ProfileFunction):
    """Sum of exponentials sum_i A_i exp(K_i x + L_i t + theta_i)."""

    A: tuple
    K: tuple
    L: tuple
    theta: tuple
    family = "expsum"

    def __post_init__(self):
        n = len(self.A)
        if n < 1:
            raise ValueError("exponential sum needs at least one term")
        if not (len(self.K) == len(self.L) == len(self.theta) == n):
            raise ValueError("A, K, L, theta must have equal lengths")
        for seq in (self.A, self.K, self.L, self.theta):
            if not all(np.isfinite(v) for v in seq):
                raise ValueError("profile parameters must be finite")
        for name, seq in (("A", self.A), ("K", self.K), ("L", self.L), ("theta", self.theta)):
            object.__setattr__(self, name, tuple(float(v) for v in seq))

    def jet3(self, x, t, order=3) -> Jet:
        x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
        lay = jc.layout(2, order)
        total = None
        for a, k, l, th in zip(self.A, self.K, self.L, self.theta):
            e = a * np.exp(k * x + l * t + th)
            coeffs = (k ** i * l ** j for i, j in lay.index)
            term = Jet((0.0 if c == 0.0 else e if c == 1.0 else c * e for c in coeffs), lay)
            total = term if total is None else total + term
        return total


@dataclass(frozen=True)
class BreatherPProfile(ProfileFunction):
    """1 + exp(x * cos^2 t): spatial decay rate oscillates in time."""

    family = "breather_p"

    def jet3(self, x, t, order=3) -> Jet:
        xj, tj = jc.variables(x, t, order=order)
        c = jc.cos(tj)
        return 1.0 + jc.exp(xj * c * c)


@dataclass(frozen=True)
class BreatherQProfile(ProfileFunction):
    """exp(x + cos^2 t)."""

    family = "breather_q"

    def jet3(self, x, t, order=3) -> Jet:
        xj, tj = jc.variables(x, t, order=order)
        c = jc.cos(tj)
        return jc.exp(xj + c * c)


@dataclass(frozen=True)
class TanCosProfile(ProfileFunction):
    """1 + exp(tan(x) * cos(t) + 1), periodic in both arguments."""

    family = "tancos"

    def jet3(self, x, t, order=3) -> Jet:
        xj, tj = jc.variables(x, t, order=order)
        return 1.0 + jc.exp(jc.tan(xj) * jc.cos(tj) + 1.0)


# exp(x+2t+1) + exp(x+t+1), shared by both instanton profiles
_INSTANTON_BASE = ExpSumProfile(A=(1.0, 1.0), K=(1.0, 1.0), L=(2.0, 1.0), theta=(1.0, 1.0))


@dataclass(frozen=True)
class InstantonPProfile(ProfileFunction):
    """exp(x+2t+1) + exp(x+t+1) + exp(-(x^3+1)^-1 + 2t + 1).

    The third term has a pole at x = -1; evaluation there goes non-finite
    and callers mask a small neighbourhood of the pole.
    """

    family = "instanton_p"

    def jet3(self, x, t, order=3) -> Jet:
        xj, tj = jc.variables(x, t, order=order)
        w = jc.powi(xj * xj * xj + 1.0, -1)
        bump = jc.exp(-w + 2.0 * tj + 1.0)
        return _INSTANTON_BASE.jet3(x, t, order) + bump


@dataclass(frozen=True)
class InstantonQProfile(ProfileFunction):
    """exp(x+2t+1) + exp(x+t+1)."""

    family = "instanton_q"

    def jet3(self, x, t, order=3) -> Jet:
        return _INSTANTON_BASE.jet3(x, t, order)


@dataclass(frozen=True)
class CustomProfile(ProfileFunction):
    """Caller-supplied evaluator mapping seed jets (x, t) to a jet of them."""

    fn: Callable[[Jet, Jet], Jet]
    label: str = "custom"
    family = "custom"

    def jet3(self, x, t, order=3) -> Jet:
        xj, tj = jc.variables(np.asarray(x, dtype=float) if np.ndim(x) else float(x),
                              t, order=order)
        out = self.fn(xj, tj)
        if not isinstance(out, Jet) or out.layout is not xj.layout:
            raise TypeError("custom profile evaluator must return a jet in (x, t) "
                            "of its seeds' order")
        return out



# ---------------------------------------------------------------------------
# coefficient functions of time


@dataclass(frozen=True)
class TimeFunction:
    """Polynomial function of t exposed as jets (constants are degree 0)."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if not cs:
            cs = (0.0,)
        if not all(np.isfinite(c) for c in cs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)

    def __call__(self, t):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def jet(self, t, order: int = 2) -> Jet:
        """The function of t as a jet in (x, t) to ``order``; its derivatives
        that vanish identically are structural zeros."""
        t = np.asarray(t) if np.ndim(t) else np.float64(t)
        lay = jc.layout(2, order)
        d = [0.0] * (order + 1)
        for power, c in enumerate(self.coeffs):
            for k in range(min(power, order) + 1 if c else 0):
                d[k] += c * math.perm(power, k) * t ** (power - k)
        return Jet((d[j] if i == 0 else 0.0 for i, j in lay.index), lay)

    @property
    def is_constant(self) -> bool:
        return all(c == 0.0 for c in self.coeffs[1:])


def const_fn(v: float) -> TimeFunction:
    return TimeFunction((float(v),))


def poly_fn(coeffs: Sequence[float]) -> TimeFunction:
    return TimeFunction(tuple(coeffs))
