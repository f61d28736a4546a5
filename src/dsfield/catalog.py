"""The six reference excitation cases, one table of values.

Each entry fixes a profile pair, mixing coefficients, a default render
window, reference times, and any evaluation guards (pole exclusions for the
tan-based and pole-carrying profiles).  ``build_case`` looks an entry up;
every call returns the same frozen value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import SeparationCoefficients, SolutionSpec
from .profiles import FAMILIES, ExpSumProfile

__all__ = ["CatalogEntry", "build_case", "case_names"]

# half-width of the rotated-coordinate box for the tan-based case, stopping
# short of the poles at +-pi/2
_TAN_LIMIT = math.pi / 2 - 0.1


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    spec: SolutionSpec
    reference_times: tuple
    window: tuple               # ((x0, x1), (y0, y1))
    notes: tuple
    degenerate_times: tuple = ()
    zeta_exclusions: tuple = ()      # (center, halfwidth) pairs
    zeta_limit: float | None = None  # |zeta| bound (tan poles)
    eta_limit: float | None = None

    def valid_mask(self, zeta, eta):
        """True where evaluation is meaningful for this entry."""
        ok = np.ones(np.broadcast(np.asarray(zeta), np.asarray(eta)).shape, dtype=bool)
        if self.zeta_limit is not None:
            ok &= np.abs(zeta) <= self.zeta_limit
        if self.eta_limit is not None:
            ok &= np.abs(eta) <= self.eta_limit
        for c, hw in self.zeta_exclusions:
            ok &= np.abs(np.asarray(zeta) - c) > hw
        return ok


_DROMION = ExpSumProfile(A=(1.0,), K=(1.0,), L=(1.0,), theta=(1.0,))
_HALF = _TAN_LIMIT * math.sqrt(2.0)    # half-width of periodic's window

# the cases by name, in listing order
_CASES = {e.name: e for e in (
    CatalogEntry(
        name="dromion",
        spec=SolutionSpec(SeparationCoefficients(1.0, 1.0, 1.0, 2.0), _DROMION, _DROMION),
        reference_times=(0.0,),
        window=((-8.0, 8.0), (-8.0, 8.0)),
        notes=(
            "single exponentially localized hump",
            "mirror symmetric across y = 0",
        ),
    ),
    CatalogEntry(
        name="solitoff",
        spec=SolutionSpec(
            SeparationCoefficients(2.0, 0.0, 2.0, 2.0),
            ExpSumProfile(A=(1.0, 1.0), K=(1.0, 2.0), L=(1.0, 1.0), theta=(1.0, 1.0)),
            ExpSumProfile(A=(1.0, 1.0), K=(1.0, 2.0), L=(-1.0, -1.0), theta=(1.0, 1.0))),
        reference_times=(0.0,),
        window=((-8.0, 8.0), (-8.0, 8.0)),
        notes=("half-line soliton terminating in the plane",),
    ),
    CatalogEntry(
        name="resonant",
        spec=SolutionSpec(
            SeparationCoefficients(2.0, -1.0, 2.0, 0.0),
            ExpSumProfile(A=(-1.0, 1.0), K=(-1.0, 2.0), L=(1.0, 1.0), theta=(1.0, 1.0)),
            ExpSumProfile(A=(-1.0, 1.0), K=(-1.0, 2.0), L=(-1.0, -1.0), theta=(1.0, 1.0))),
        reference_times=(0.0,),
        window=((-8.0, 8.0), (-8.0, 8.0)),
        notes=(
            "line soliton whose direction changes over time",
            "denominator crosses zero far from the ridge on this window;"
            " the singular cells are reported and masked, not hidden",
        ),
    ),
    CatalogEntry(
        name="breather",
        spec=SolutionSpec(SeparationCoefficients(2.0, 1.0, 2.0, 2.0),
                          FAMILIES["breather_p"], FAMILIES["breather_q"]),
        reference_times=(0.0, 0.7, 0.9, 3.0),
        window=((-8.0, 8.0), (-8.0, 8.0)),
        notes=(
            "localized hump whose amplitude oscillates with period pi",
            "intensity vanishes identically at t = pi/2 + k*pi",
        ),
        degenerate_times=(math.pi / 2,),
    ),
    CatalogEntry(
        name="periodic",
        spec=SolutionSpec(SeparationCoefficients(2.0, 1.0, 2.0, 2.0),
                          FAMILIES["tancos"], FAMILIES["tancos"]),
        reference_times=(0.0, math.pi / 4, math.pi / 3, 2 * math.pi / 3,
                         3 * math.pi / 4, math.pi),
        window=((-_HALF, _HALF), (-_HALF, _HALF)),
        notes=(
            "cellular pattern, periodic in time with period pi",
            "advance by half a period equals a point reflection of the plane",
            "rotated coordinates are confined inside the tan pole box",
        ),
        degenerate_times=(math.pi / 2,),
        zeta_limit=_TAN_LIMIT,
        eta_limit=_TAN_LIMIT,
    ),
    CatalogEntry(
        name="double_instanton",
        spec=SolutionSpec(SeparationCoefficients(2.0, 1.0, 2.0, 2.0),
                          FAMILIES["instanton_p"], FAMILIES["instanton_q"]),
        reference_times=(0.0, 3.0, 6.0),
        window=((-8.0, 8.0), (-8.0, 8.0)),
        notes=(
            "two bonded humps whose amplitude decays in time",
            "profile pole at zeta = -1 is masked to halfwidth 0.05",
        ),
        zeta_exclusions=((-1.0, 0.05),),
    ),
)}


def case_names() -> tuple:
    return tuple(_CASES)


def build_case(name: str) -> CatalogEntry:
    try:
        return _CASES[name]
    except KeyError:
        valid = ", ".join(_CASES)
        raise ValueError(f"unknown case {name!r}; valid names: {valid}") from None
