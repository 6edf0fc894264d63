"""Exact arithmetic for random products of quadratic plane birational maps.

The package composes the standard quadratic involution conjugated by
invertible integer matrices, tracks the induced action on classes over
all points of the plane with the exact integer intersection form, and
drives seeded random reduced-word walks whose degree growth, drift,
boundary convergence, and curve-pullback multiplicities are checked
against each other by independent routes.
"""

from .config import (
    RunConfig,
    build_generators,
    config_from_dict,
    config_to_dict,
    dump_json,
    generators_from_jsonable,
    generators_to_jsonable,
    load_config,
    load_json,
)
from .curves import (
    EquidistRow,
    LelongRow,
    PlaneCurve,
    PullbackCurveReport,
    equidist_diagnostic,
    guedj_bound_check,
    lelong_crosscheck,
    pullback_curve,
    write_equidist_csv,
)
from .errors import (
    BirwalkError,
    CurveContracted,
    DegenerateComposition,
    DegenerateConfiguration,
    DegreeCapExceeded,
    HeuristicGcdFailed,
    IncompatibleArtifacts,
    IndeterminatePoint,
    MissingInverse,
    NonExactDivision,
    SamplingExhausted,
)
from .genericity import (
    GenericityReport,
    Letter,
    Word,
    WordCheck,
    all_letters,
    check_genericity,
    reduced_word_count,
)
from .maps import (
    BirMap,
    GeneratorData,
    IDENTITY,
    IDENTITY_COMPONENTS,
    compose,
    compose_letter,
    generator_from_matrices,
    has_only_proper_base_points,
    sample_generators,
    sigma_map,
)
from .picard import (
    LetterOperator,
    PointRegistry,
    WeilClass,
)
from .poly import (
    HomPoly,
    format_poly,
    is_squarefree,
    jacobian_det,
    multiplicity_at,
    parse_poly,
)
from .walk import (
    StepRow,
    WalkReport,
    WalkState,
    boundary_compare,
    crosscheck_words,
    fit_geometric_rate,
    random_itinerary,
    reduced_middle_length,
    run_walk,
    transversality_ratio_series,
    write_rows_csv,
)

__version__ = "0.1.0"
