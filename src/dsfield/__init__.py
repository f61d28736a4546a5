"""Separable wave-envelope toolkit for a coupled (2+1)-dimensional system.

Construct closed-form variable-separated solution data, evaluate the
intensity and forcing fields over windows, and verify the governing
equations numerically (bilinear identities, equation residuals,
admissibility scans).
"""

__version__ = "0.1.0"

from .ansatz import (
    AdmissibilityReport,
    CoefficientFunctions,
    CoordinatePoint,
    SeparationCoefficients,
    SolutionSpec,
    check_admissibility,
    eval_f,
    eval_intensity,
    eval_phi,
    rotate,
    unrotate,
)
from .auxiliary import (
    Auxiliaries,
    ConsistencyReport,
    Ingredients,
    consistency_c1_c2,
)
from .calculus import Jet, Stencil
from .catalog import CatalogEntry, build_case, case_names
from .field import (
    AnalyticsResult,
    FieldGrid,
    analyze_extrema,
    decay_profile,
    estimate_period,
    refined_global_max,
    sample_field,
    to_csv,
    to_pgm16,
    to_report,
)
from .profiles import (
    BreatherPProfile,
    BreatherQProfile,
    CustomProfile,
    ExpSumProfile,
    InstantonPProfile,
    InstantonQProfile,
    TanCosProfile,
    TimeFunction,
    const_fn,
    poly_fn,
)
from .specfile import dumps_spec, load_spec, loads_spec
from .verify import (
    ResidualReport,
    bilinear_residuals,
    envelope_residuals,
    hirota_cross,
    hirota_d,
    pde_phi_convergence,
    pde_residuals,
    singularity_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
