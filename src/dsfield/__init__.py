"""Separable wave-envelope toolkit for a coupled (2+1)-dimensional system.

The package top level holds the names of the library sketch in the README
and of the benchmark worker: a catalog case, the intensity and forcing
field over a window, and the bilinear and envelope-equation residuals of
one ingredient bundle.  Everything else is imported from its module
(``ansatz``, ``auxiliary``, ``calculus``, ``catalog``, ``field``,
``profiles``, ``specfile``, ``verify``, ``cli``).
"""

__version__ = "0.1.0"

from .auxiliary import Ingredients
from .catalog import build_case, case_names
from .field import sample_field
from .verify import bilinear_residuals, envelope_residuals

__all__ = ["Ingredients", "bilinear_residuals", "build_case", "case_names",
           "envelope_residuals", "sample_field"]
