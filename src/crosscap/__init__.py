"""Normal forms and differential-geometric invariants for one-parameter
deformations of rank-1 surface germs (cross-caps and their S1 limits)."""

from .deformation import (
    AsymptoticReport,
    GaussProbeReport,
    LocusExpansion,
    SingularPointRecord,
    TraceTable,
    TrajectoryReport,
    asymptotic_limits,
    gauss_sign_probe,
    locus_expansion,
    singular_locus,
    trace,
    trajectory_geometry,
)
from .errors import (
    ConsistencyError,
    CrosscapError,
    DegeneracyError,
    DomainError,
    GenericityError,
    UsageError,
)
from .germs import (
    MODEL_CROSS_CAP,
    MODEL_S1_MINUS,
    MODEL_S1_PLUS,
    AdmissibilityReport,
    MapGerm,
    admissibility_check,
    null_vector,
    parse_expr,
    print_expr,
    rank_at,
)
from .invariants import (
    CurvatureParabola,
    FocalConic,
    FormBundle,
    FundamentalScalars,
    UmbrellaInvariants,
    curvature_parabola,
    focal_conic,
    form_bundle,
    umbrella_invariants,
    whitney_test,
)
from .jets import (
    Jet,
    branch_solve,
    implicit_solve,
    invert_coordinate,
    jet_recip,
    jet_sqrt,
)
from .normal_form import (
    Classification,
    CoefficientSet,
    DiffeoSpec,
    NormalFormData,
    apply_equivalence,
    classify,
    monomial_coefficients,
    normalize_parameter,
    random_diffeo,
    random_rotation,
    reduce,
    scalar_coefficients,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
