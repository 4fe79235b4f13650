"""Weak-type (1,1) lower bounds for the radial averaging operators.

Builds the extremal two-piece power families, applies the operators in
closed form and by an independent quadrature oracle, maximizes the
weak-type ratio functionals over their feasible regions, and verifies the
resulting bounds, including the duality between the forward and adjoint
constructions and the uniform lower bound 1.34.
"""

from .families import (
    ConstraintViolation,
    FSpecParams,
    FStarSpecParams,
    GeneralFamilyParams,
    GeneralStarFamilyParams,
    build_general,
    build_general_star,
    build_spec,
    build_star_spec,
)
from .functionals import (
    AsymptoticPoint,
    DenominatorError,
    RatioReport,
    W,
    W_star,
    asymptotic_general,
    asymptotic_restricted,
    gill_bound,
)
from .operators import (
    OperatorKind,
    QuadratureError,
    SuperlevelResult,
    apply_closed_form,
    apply_quadrature_oracle,
    eigen_check,
    lambda_op,
    lambda_star_op,
    superlevel_measure,
)
from .optimize import (
    OptimumRecord,
    bound_134,
    d_opt,
    d_star_opt,
    duality_map,
    maximize_W,
    maximize_on_curve,
    push_check,
    x_infinity,
)
from .piecewise import (
    PiecewisePowerFunction,
    PowerPiece,
    evaluate,
    l1_norm,
    moment_integral,
    sign_change_points,
)
from .verify import CheckReport, SUITE_NAMES, run_suite

__version__ = "0.1.0"
