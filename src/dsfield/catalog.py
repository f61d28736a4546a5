"""Factory for the six reference excitation cases.

Each entry fixes a profile pair, mixing coefficients, a default render
window, reference times, and any evaluation guards (pole exclusions for the
tan-based and pole-carrying profiles).  Entries rebuild bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import SeparationCoefficients, SolutionSpec
from .profiles import (
    BreatherPProfile,
    BreatherQProfile,
    ExpSumProfile,
    InstantonPProfile,
    InstantonQProfile,
    TanCosProfile,
)

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


def _entry_dromion() -> CatalogEntry:
    prof = ExpSumProfile(A=(1.0,), K=(1.0,), L=(1.0,), theta=(1.0,))
    spec = SolutionSpec(SeparationCoefficients(1.0, 1.0, 1.0, 2.0), prof, prof)
    return CatalogEntry(
        name="dromion",
        spec=spec,
        reference_times=(0.0,),
        window=((-8.0, 8.0), (-8.0, 8.0)),
        notes=(
            "single exponentially localized hump",
            "mirror symmetric across y = 0",
        ),
    )


def _entry_solitoff() -> CatalogEntry:
    p = ExpSumProfile(A=(1.0, 1.0), K=(1.0, 2.0), L=(1.0, 1.0), theta=(1.0, 1.0))
    q = ExpSumProfile(A=(1.0, 1.0), K=(1.0, 2.0), L=(-1.0, -1.0), theta=(1.0, 1.0))
    spec = SolutionSpec(SeparationCoefficients(2.0, 0.0, 2.0, 2.0), p, q)
    return CatalogEntry(
        name="solitoff",
        spec=spec,
        reference_times=(0.0,),
        window=((-8.0, 8.0), (-8.0, 8.0)),
        notes=("half-line soliton terminating in the plane",),
    )


def _entry_resonant() -> CatalogEntry:
    p = ExpSumProfile(A=(-1.0, 1.0), K=(-1.0, 2.0), L=(1.0, 1.0), theta=(1.0, 1.0))
    q = ExpSumProfile(A=(-1.0, 1.0), K=(-1.0, 2.0), L=(-1.0, -1.0), theta=(1.0, 1.0))
    spec = SolutionSpec(SeparationCoefficients(2.0, -1.0, 2.0, 0.0), p, q)
    return CatalogEntry(
        name="resonant",
        spec=spec,
        reference_times=(0.0,),
        window=((-8.0, 8.0), (-8.0, 8.0)),
        notes=(
            "line soliton whose direction changes over time",
            "denominator crosses zero far from the ridge on this window;"
            " the singular cells are reported and masked, not hidden",
        ),
    )


def _entry_breather() -> CatalogEntry:
    spec = SolutionSpec(SeparationCoefficients(2.0, 1.0, 2.0, 2.0),
                        BreatherPProfile(), BreatherQProfile())
    return CatalogEntry(
        name="breather",
        spec=spec,
        reference_times=(0.0, 0.7, 0.9, 3.0),
        window=((-8.0, 8.0), (-8.0, 8.0)),
        notes=(
            "localized hump whose amplitude oscillates with period pi",
            "intensity vanishes identically at t = pi/2 + k*pi",
        ),
        degenerate_times=(math.pi / 2,),
    )


def _entry_periodic() -> CatalogEntry:
    spec = SolutionSpec(SeparationCoefficients(2.0, 1.0, 2.0, 2.0),
                        TanCosProfile(), TanCosProfile())
    half = _TAN_LIMIT * math.sqrt(2.0)
    return CatalogEntry(
        name="periodic",
        spec=spec,
        reference_times=(0.0, math.pi / 4, math.pi / 3, 2 * math.pi / 3,
                         3 * math.pi / 4, math.pi),
        window=((-half, half), (-half, half)),
        notes=(
            "cellular pattern, periodic in time with period pi",
            "advance by half a period equals a point reflection of the plane",
            "rotated coordinates are confined inside the tan pole box",
        ),
        degenerate_times=(math.pi / 2,),
        zeta_limit=_TAN_LIMIT,
        eta_limit=_TAN_LIMIT,
    )


def _entry_double_instanton() -> CatalogEntry:
    spec = SolutionSpec(SeparationCoefficients(2.0, 1.0, 2.0, 2.0),
                        InstantonPProfile(), InstantonQProfile())
    return CatalogEntry(
        name="double_instanton",
        spec=spec,
        reference_times=(0.0, 3.0, 6.0),
        window=((-8.0, 8.0), (-8.0, 8.0)),
        notes=(
            "two bonded humps whose amplitude decays in time",
            "profile pole at zeta = -1 is masked to halfwidth 0.05",
        ),
        zeta_exclusions=((-1.0, 0.05),),
    )


_BUILDERS = {
    "dromion": _entry_dromion,
    "solitoff": _entry_solitoff,
    "resonant": _entry_resonant,
    "breather": _entry_breather,
    "periodic": _entry_periodic,
    "double_instanton": _entry_double_instanton,
}


def case_names() -> tuple:
    return tuple(_BUILDERS)


def build_case(name: str) -> CatalogEntry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        valid = ", ".join(_BUILDERS)
        raise ValueError(f"unknown case {name!r}; valid names: {valid}") from None
    return builder()
