"""loja-lab: exact and empirical gradient-inequality analysis for polynomials.

Pipeline: parse a polynomial, detect simple normal crossings and compute the
exponent ``1 - 1/N`` with constructive constants, monomialize plane curves by
iterated blow-ups when the origin is not yet normal crossing, check
Morse-Bott conditions, integrate the negative gradient flow against the
predicted length bound and distance inequalities, and estimate exponents
empirically (including failure detection for non-analytic inputs).
"""

from .poly import (
    Function,
    ParseError,
    Polynomial,
    PolynomialLimitError,
    parse,
)
from .snc import (
    ExponentReport,
    MonomialFactorization,
    SncError,
    compute_constants,
    detect_snc,
    exponent_from_snc,
    verify_gradient_inequality,
)
from .blowup import (
    BlowupError,
    BlowupNode,
    ChartTree,
    ResolutionResult,
    TranslatedPointReport,
    combine_point_bounds,
    exponent_upper_bound,
    pull_back_and_bound,
    resolve,
    translated_chart_analysis,
)
from .morse import (
    MorseBottError,
    MorseBottReport,
    check_generalized_morse_bott,
    check_morse_bott,
    verify_gmb_gradient_inequality,
)
from .flow import (
    CoordinateSubspace,
    CriticalSet,
    FlowError,
    LengthBoundReport,
    Trajectory,
    dqds_identity_error,
    energy_monotonicity_violation,
    integrate_flow,
    speed_identity_error,
    verify_distance_inequalities,
    verify_length_bound,
)
from .estimate import (
    ConsistencyVerdict,
    EstimateError,
    ExponentEstimate,
    builtin_function,
    compare_with_resolution_bound,
    estimate_theta,
    haraux_counterexample_check,
)
from .reports import InequalityCheckReport, SCHEMA, dump_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
