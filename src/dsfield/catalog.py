"""The six reference excitation cases, one table of values.

Each entry fixes a solution spec, a default render window, reference times
and notes.  Two specs carry an evaluation guard, the spec's ``valid_mask``:
periodic's confines the rotated coordinates inside the tan pole box, and
double_instanton's drops the pole of its p profile at zeta = -1.
``build_case`` looks an entry up; every call returns the same frozen value.
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

    def valid_mask(self, zeta, eta):
        """The spec's guard at (zeta, eta), broadcast to their shape; all True without one."""
        ok = np.ones(np.broadcast(np.asarray(zeta), np.asarray(eta)).shape, dtype=bool)
        return ok if self.spec.valid_mask is None else ok & self.spec.valid_mask(zeta, eta)


def _tan_box(zeta, eta):
    """periodic's guard: both rotated coordinates inside the tan pole box."""
    return (np.abs(zeta) <= _TAN_LIMIT) & (np.abs(eta) <= _TAN_LIMIT)


def _off_instanton_pole(zeta, eta):
    """double_instanton's guard: zeta more than 0.05 from the pole of p at -1."""
    return np.abs(zeta + 1.0) > 0.05


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
                          FAMILIES["tancos"], FAMILIES["tancos"], valid_mask=_tan_box),
        reference_times=(0.0, math.pi / 4, math.pi / 3, 2 * math.pi / 3,
                         3 * math.pi / 4, math.pi),
        window=((-_HALF, _HALF), (-_HALF, _HALF)),
        notes=(
            "cellular pattern, periodic in time with period pi",
            "advance by half a period equals a point reflection of the plane",
            "rotated coordinates are confined inside the tan pole box",
        ),
        degenerate_times=(math.pi / 2,),
    ),
    CatalogEntry(
        name="double_instanton",
        spec=SolutionSpec(SeparationCoefficients(2.0, 1.0, 2.0, 2.0),
                          FAMILIES["instanton_p"], FAMILIES["instanton_q"],
                          valid_mask=_off_instanton_pole),
        reference_times=(0.0, 3.0, 6.0),
        window=((-8.0, 8.0), (-8.0, 8.0)),
        notes=(
            "two bonded humps whose amplitude decays in time",
            "profile pole at zeta = -1 is masked to halfwidth 0.05",
        ),
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
