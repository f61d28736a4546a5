"""Truncated Taylor jets.

:class:`Jet` is the one derivative carrier of the package: the partial
derivatives of a function through a total order, a box of per-variable
orders or a union of boxes, in the graded order of a cached :func:`layout`.
Profiles are jets in (own spatial variable, t) to the order or box their
reader asks for, and f a jet in (zeta, eta, t) on the entries its reader
reads; the peak ascent reads its profile jets as arrays, f being bilinear.
Products follow the Leibniz rule from the layout's pair table, and every
elementary function is the one composition sum_k f^(k)(a0)/k! (a - a0)^k
with the Taylor coefficients of :func:`_tables` (Griewank & Walther,
*Evaluating Derivatives*, ch. 13), so there is no truncation error, only
rounding.

Entries may be scalars or numpy arrays; each broadcasts on its own, so
factors of t alone keep scalar entries.  An entry that is the Python float
0.0 is a structural zero, which sums and products skip.  Domain violations
and guarded divisions mark values NaN; non-finite data propagates through
every operation and is never silently repaired.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

# Relative threshold below which a divisor is treated as a genuine zero of
# the denominator field rather than roundoff: b is a zero divisor of a / b
# where |b| < DIV_GUARD * (1 + |a|), and of 1 / b where |b| < 2 * DIV_GUARD.
DIV_GUARD = 1e-12


def _quiet(fn):
    """Silence numpy warnings for operations where NaN/inf is the contract."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            return fn(*args, **kwargs)

    return wrapper

__all__ = [
    "DIV_GUARD",
    "guarded",
    "Jet",
    "Layout",
    "layout",
    "constant",
    "variables",
    "exp",
    "log",
    "sqrt",
    "sin",
    "cos",
    "tan",
    "powi",
]


def _mask_bad(bad, x):
    """NaN out entries of x flagged by the boolean mask ``bad``."""
    return np.where(bad, np.nan, x)


def guarded(den, num):
    """The divisor ``den`` of ``num`` under the one division guard: NaN where
    |den| < DIV_GUARD (1 + |num|).  A NaN den or num fails that test and
    passes through, so the quotient is NaN there all the same."""
    return _mask_bad(np.abs(den) < DIV_GUARD * (1.0 + np.abs(num)), den)


def _zero(e) -> bool:
    """True for a structural zero: a Python float 0.0.  Data are numpy
    scalars or arrays, so a sample that happens to be 0 still multiplies
    (and 0 * NaN stays NaN)."""
    return type(e) is float and e == 0.0


# ---------------------------------------------------------------------------
# layouts


class Layout:
    """The multi-indices of a jet's entries and the Leibniz table of products.

    ``index`` lists the multi-indices in graded order (by total order, then
    by decreasing exponent of the first variable, and so on), so the
    entries of a lower order are a prefix.  ``pairs[i]`` holds the terms
    (ia, ib, binomial) of entry i of a product, alpha = index[ia] running
    in decreasing lexicographic order.  Any index set closed under taking
    smaller multi-indices makes a layout.
    """

    def __init__(self, index):
        self.index = tuple(index)
        self.n = len(self.index[0])
        self.order = max(sum(m) for m in self.index)
        self.pos = {m: i for i, m in enumerate(self.index)}
        self.pairs = tuple(tuple(
            (self.pos[a], self.pos[tuple(g - e for g, e in zip(m, a))],
             float(math.prod(math.comb(g, e) for g, e in zip(m, a))))
            for a in sorted(itertools.product(*(range(g + 1) for g in m)), reverse=True))
            for m in self.index)


@functools.lru_cache(maxsize=None)
def layout(n: int, order) -> Layout:
    """The layout of the partial derivatives in ``n`` variables of total
    order <= ``order``; for a tuple ``order`` (a box), of order <=
    ``order[i]`` in variable i; for a tuple of boxes, at or below any of them."""
    total = not isinstance(order, tuple)
    boxes = ((order,) * n,) if total else order if isinstance(order[0], tuple) else (order,)
    index = {m for box in boxes for m in itertools.product(*(range(b + 1) for b in box))
             if not total or sum(m) <= order}
    return Layout(sorted(index, key=lambda m: (sum(m), [-e for e in m])))


@functools.lru_cache(maxsize=None)
def _gather(src: Layout, d: tuple, axes: tuple, dst: Layout) -> tuple:
    """Positions in ``src`` of the entries of :meth:`Jet.shift`; None marks
    a structural zero."""
    out = []
    for m in dst.index:
        if any(e for k, e in enumerate(m) if k not in axes):
            out.append(None)
            continue
        key = tuple(di + m[a] for di, a in zip(d, axes))
        if key not in src.pos:
            raise ValueError(f"derivative {key} exceeds jet order {src.order}")
        out.append(src.pos[key])
    return tuple(out)


# ---------------------------------------------------------------------------
# jets


class Jet:
    """Partial derivatives of one function, ``entries`` in ``layout`` order.

    ``jet[m]`` is the derivative of multi-index m; ``value`` is ``jet[0, ..]``.
    Jets of different layouts do not mix; :meth:`shift` converts.
    """

    __slots__ = ("entries", "layout")
    __array_ufunc__ = None          # numpy operands defer to the jet's operators

    def __init__(self, entries, layout: Layout):
        self.entries = tuple(entries)
        self.layout = layout

    @property
    def value(self):
        return self.entries[0]

    @property
    def order(self) -> int:
        return self.layout.order

    def __getitem__(self, m):
        try:
            return self.entries[self.layout.pos[m]]
        except KeyError:
            raise ValueError(f"derivative {m} exceeds jet order {self.order}") from None

    def shift(self, d=None, order=None, axes=None, n=None) -> "Jet":
        """The jet of the derivative of multi-index ``d`` (default none),
        to ``order`` (default: all that is known), with variable i renamed
        to variable ``axes[i]`` of an ``n``-variable layout (default: the
        same variables)."""
        src = self.layout
        d = tuple(d or (0,) * src.n)
        if d not in src.pos:
            raise ValueError(f"derivative {d} exceeds jet order {src.order}")
        axes = tuple(range(src.n) if axes is None else axes)
        dst = layout(n or src.n, src.order - sum(d) if order is None else order)
        return Jet([0.0 if i is None else self.entries[i]
                    for i in _gather(src, d, axes, dst)], dst)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet((self.entries[0] + other,) + self.entries[1:], self.layout)
        _same(self, other)
        return Jet([b if type(a) is float and a == 0.0 else
                    a if type(b) is float and b == 0.0 else a + b
                    for a, b in zip(self.entries, other.entries)], self.layout)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-e for e in self.entries], self.layout)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @_quiet
    def __mul__(self, other):
        return _product(self, other) if isinstance(other, Jet) else _scale(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            other = constant(other, self.layout)
        return self * _reciprocal(other, self.value)

    def __rtruediv__(self, other):
        return constant(other, self.layout) * _reciprocal(self, other)


def _same(a: Jet, b: Jet):
    if a.layout is not b.layout:
        raise TypeError("cannot combine jets of different layouts; shift() first")


def _scale(a: Jet, s) -> Jet:
    return Jet([e if type(e) is float and e == 0.0 else e * s for e in a.entries], a.layout)


def _nonzero(entries) -> int:
    """Bit mask of the entries that are not structural zeros."""
    return sum(1 << k for k, e in enumerate(entries) if type(e) is not float or e != 0.0)


@functools.lru_cache(maxsize=4096)
def _plan(lay: Layout, mx: int, my: int) -> tuple:
    """The Leibniz terms of a product of factors with nonzero entries mx and
    my: (entry, terms) for each entry that has any."""
    plan = ((g, tuple((i, j, c) for i, j, c in terms if mx >> i & 1 and my >> j & 1))
            for g, terms in enumerate(lay.pairs))
    return tuple((g, terms) for g, terms in plan if terms)


def _product(a: Jet, b: Jet) -> Jet:
    """The Leibniz product from the layout's pair table, skipping structural
    zeros; the terms of an entry add up in table order."""
    _same(a, b)
    x, y = a.entries, b.entries
    out = [0.0] * len(x)
    for g, terms in _plan(a.layout, _nonzero(x), _nonzero(y)):
        ts = [x[i] * y[j] if c == 1.0 else c * x[i] * y[j] for i, j, c in terms]
        out[g] = sum(ts[1:], ts[0])
    return Jet(out, a.layout)


def constant(value, layout: Layout) -> Jet:
    """The jet of a constant: ``value`` and structural zeros."""
    return Jet((value,) + (0.0,) * (len(layout.index) - 1), layout)


def variables(*values, order) -> tuple:
    """Seed jets of independent variables at ``values``, to ``order`` as in
    :func:`layout`; a box without a variable's first derivative holds it fixed."""
    lay = layout(len(values), order)
    seeds = []
    for i, v in enumerate(values):
        entries = [0.0] * len(lay.index)
        entries[0] = v if np.ndim(v) else np.float64(v)
        unit = lay.pos.get(tuple(int(k == i) for k in range(lay.n)))
        if unit is not None:
            entries[unit] = np.ones_like(v) if np.ndim(v) else 1.0
        seeds.append(Jet(entries, lay))
    return tuple(seeds)


def _compose(a: Jet, c) -> Jet:
    """sum_k c[k] (a - a(0))^k: the jet of f(a) from the Taylor coefficients
    c[k] = f^(k)(a(0))/k! (zero scalars skipped)."""
    d = Jet((0.0,) + a.entries[1:], a.layout)
    out, power = [c[0]] + [0.0] * (len(d.entries) - 1), d
    for k, ck in enumerate(c[1:]):
        power = _product(power, d) if k else d
        if _zero(ck):
            continue
        for i, e in enumerate(power.entries):
            if not _zero(e):
                out[i] = e * ck if _zero(out[i]) else out[i] + e * ck
    return Jet(out, a.layout)


# ---------------------------------------------------------------------------
# elementary functions


def _binom(a, k: int) -> float:
    """Generalized binomial coefficient a (a - 1) ... (a - k + 1) / k!."""
    return math.prod((a - j) / (j + 1) for j in range(k))


def _taylor(derivs) -> list:
    """Derivatives f^(k) to Taylor coefficients f^(k)/k!."""
    return [f if k < 2 else f / math.factorial(k) for k, f in enumerate(derivs)]


def _ipow(v, e: int):
    """v ** e for an integer e.  Outside e in {-1, 0, 1, 2} numpy is about 30
    times slower on a negative base, so the power is taken of |v| and an odd
    power gets v's sign back; a positive base keeps its bits."""
    if -1 <= e <= 2:
        return v ** e
    r = np.abs(v) ** e
    return np.copysign(r, v) if e % 2 else r


def _tables(name: str, v, n: int, k: int = 1) -> list:
    """Taylor coefficients f^(j)(v)/j!, j = 0..n, of an elementary map.

    Domain violations (and, for ``reciprocal``, a zero divisor) are NaN;
    ``powi`` is the power ``k`` >= 1.
    """
    if name == "exp":
        return _taylor([np.exp(v)] * (n + 1))
    if name in ("sin", "cos"):
        sv, cv = np.sin(v), np.cos(v)
        cycle = (sv, cv, -sv, -cv)
        return _taylor([cycle[(j + (name == "cos")) % 4] for j in range(n + 1)])
    if name == "tan":
        sv, cv = np.sin(v), np.cos(v)
        T = sv / guarded(cv, sv)
        derivs, poly = [T], [0, 1]          # tan^(j) = P_j(T), P_j+1 = (1 + T^2) P_j'
        for _ in range(n):
            dp = [i * c for i, c in enumerate(poly)][1:]
            poly = [a + b for a, b in zip(dp + [0, 0], [0, 0] + dp)]
            derivs.append(functools.reduce(lambda acc, c: acc * T + c,
                                           reversed(poly[:-1]), float(poly[-1])))
        return _taylor(derivs)
    if name == "log":
        s = _mask_bad(~(v > 0), v)
        return ([np.log(s), 1.0 / s]
                + [(-1.0) ** (j + 1) / (j * s ** j) for j in range(2, n + 1)])[:n + 1]
    if name == "sqrt":
        s = _mask_bad(v < 0, v)
        r = np.sqrt(s)
        return [r] + [_binom(0.5, j) / (r * s ** (j - 1)) for j in range(1, n + 1)]
    if name == "reciprocal":
        return [(-1.0) ** j * _ipow(v, -1 - j) for j in range(n + 1)]
    if name == "powi":
        return [_binom(k, j) * _ipow(v, k - j) if j <= k else 0.0 for j in range(n + 1)]
    raise ValueError(f"unknown elementary function {name!r}")


@_quiet
def _elementary(j: Jet, name: str, k: int = 1) -> Jet:
    return _compose(j, _tables(name, j.value, j.order, k))


@_quiet
def _reciprocal(b: Jet, num=1.0) -> Jet:
    """1 / b under the one division guard, :func:`guarded`, ``num`` being the
    numerator's value."""
    return _compose(b, _tables("reciprocal", guarded(b.value, num), b.order))


def exp(j):
    return _elementary(j, "exp")


def log(j):
    return _elementary(j, "log")


def sqrt(j):
    return _elementary(j, "sqrt")


def sin(j):
    return _elementary(j, "sin")


def cos(j):
    return _elementary(j, "cos")


def tan(j):
    return _elementary(j, "tan")


@_quiet
def powi(j, k: int):
    """Integer power; a negative power is that of the reciprocal 1 / j."""
    if k == 0:
        one = np.where(np.isfinite(j.value), 1.0, np.nan)
        return constant(one, j.layout)
    if k < 0:
        j, k = _reciprocal(j), -k
    return j if k == 1 else _elementary(j, "powi", k)
