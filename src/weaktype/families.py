"""Extremal function families and their feasibility boundaries.

The general family stitches (2+m)/m + B*t**(m/2) on (a, b] against
-(2+m)/m + D*t**(m/2) on (c, d], with B and D chosen so the forward operator
maps the function to +1 on (a, b) and -1 on (c, d).  The restricted family
fixes a = 1 and c = b and constrains (b, d) to the open region where the
second piece changes sign and stays below 2 at d.  The adjoint families
mirror this construction with the kernel exponent -1 - m/2: the general one
stitches -m/(2+m) + D*t**(-1-m/2) on (d*, c*] against
m/(2+m) + B*t**(-1-m/2) on (b*, a*], mapped to -1 and +1 by the adjoint
operator, and the restricted one fixes a* = 1 and c* = b* on the unit-scale
side d_* < b_* < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .piecewise import PiecewisePowerFunction, PowerPiece

__all__ = [
    "ConstraintViolation",
    "ConstraintDiagnostic",
    "GeneralFamilyParams",
    "GeneralStarFamilyParams",
    "FSpecParams",
    "FStarSpecParams",
    "B_SP",
    "B_STAR_SP",
    "b_min",
    "b_max",
    "t_0",
    "d_min",
    "d_max",
    "b_star_min",
    "b_star_max",
    "t_0_star",
    "d_star_min",
    "d_star_max",
    "general_B",
    "general_D",
    "general_D_star",
    "spec_D",
    "star_spec_D",
    "build_general",
    "build_general_star",
    "build_spec",
    "build_star_spec",
    "validate",
    "validate_general",
    "validate_spec",
    "validate_star_spec",
]

# Endpoint of the forward m=1 curve scan where the curve optimum leaves the
# feasible region; its adjoint image under the duality map.
B_SP = 7.0 ** (2.0 / 3.0)
B_STAR_SP = (27.0 / (54.0 - 16.0 * (2.0 - 7.0 ** (1.0 / 3.0)) ** 3)) ** (2.0 / 3.0)


class ConstraintViolation(ValueError):
    """A family parameter violates a named feasibility inequality."""


@dataclass(frozen=True)
class ConstraintDiagnostic:
    """One inequality with its signed slack (positive means satisfied)."""

    name: str
    slack: float
    satisfied: bool


def _check_m(m: int) -> None:
    if not (isinstance(m, int) and m >= 1):
        raise ValueError(f"m must be an integer >= 1, got {m}")


# --- boundary functions ------------------------------------------------------

def b_min(m: int) -> float:
    return ((2.0 + 3.0 * m) / (2.0 + 2.0 * m)) ** (2.0 / m)


def b_max(m: int) -> float:
    return 2.0 ** (2.0 / m)


def t_0(b: float, m: int) -> float:
    """Sign change of the second restricted piece; equals d_min(b, m)."""
    return ((2.0 + m) / (2.0 * (1.0 + m))) ** (2.0 / m) * (
        2.0 * b ** (-m / 2.0) - 1.0
    ) ** (-2.0 / m)


def d_min(b: float, m: int) -> float:
    return t_0(b, m)


def d_max(b: float, m: int) -> float:
    return ((2.0 + 3.0 * m) / (2.0 * (1.0 + m) * (2.0 * b ** (-m / 2.0) - 1.0))) ** (
        2.0 / m
    )


def b_star_min(m: int) -> float:
    return 2.0 ** (-2.0 / (2.0 + m))


def b_star_max(m: int) -> float:
    return ((2.0 + 2.0 * m) / (4.0 + 3.0 * m)) ** (2.0 / (2.0 + m))


def t_0_star(b_star: float, m: int) -> float:
    """Sign change of the inner adjoint piece; equals d_star_max(b_star, m)."""
    return (2.0 * (1.0 + m) / m) ** (2.0 / (2.0 + m)) * (
        2.0 * b_star ** (1.0 + m / 2.0) - 1.0
    ) ** (2.0 / (2.0 + m))


def d_star_max(b_star: float, m: int) -> float:
    return t_0_star(b_star, m)


def d_star_min(b_star: float, m: int) -> float:
    return (
        (4.0 + 3.0 * m) / (2.0 * (1.0 + m) * (2.0 * b_star ** (1.0 + m / 2.0) - 1.0))
    ) ** (-2.0 / (2.0 + m))


# --- coefficients ------------------------------------------------------------

def general_B(a: float, m: int) -> float:
    return -2.0 * (1.0 + m) / (m * a ** (m / 2.0))


def general_D(a: float, b: float, c: float, m: int) -> float:
    lead = 2.0 * (1.0 + m) / (m * c ** (m / 2.0))
    return (
        lead
        + lead * (b / c) ** (1.0 + m / 2.0)
        + general_B(a, m) * (b / c) ** (1.0 + m)
    )


def _general_B_star(a_star: float, m: int) -> float:
    return -2.0 * (1.0 + m) * a_star ** (1.0 + m / 2.0) / (2.0 + m)


def general_D_star(a_star: float, b_star: float, c_star: float, m: int) -> float:
    """Coefficient of the inner adjoint piece: the adjoint twin of general_D."""
    lead = 2.0 * (1.0 + m) * c_star ** (1.0 + m / 2.0) / (2.0 + m)
    ratio = c_star / b_star
    return (
        lead * (1.0 + ratio ** (m / 2.0))
        + _general_B_star(a_star, m) * ratio ** (1.0 + m)
    )


def spec_D(b: float, m: int) -> float:
    return 2.0 * (1.0 + m) / m * (2.0 * b ** (-m / 2.0) - 1.0)


def star_spec_D(b_star: float, m: int) -> float:
    return 2.0 * (1.0 + m) / (2.0 + m) * (2.0 * b_star ** (1.0 + m / 2.0) - 1.0)


# --- parameter types ---------------------------------------------------------

def validate_general(
    m: int, a: float, b: float, c: float, d: float
) -> list[ConstraintDiagnostic]:
    """Slack of every ordering constraint of the general family."""
    _check_m(m)
    return [
        ConstraintDiagnostic("a > 0", a, a > 0.0),
        ConstraintDiagnostic("b > a", b - a, b > a),
        ConstraintDiagnostic("c >= b", c - b, c >= b),
        ConstraintDiagnostic("d > c", d - c, d > c),
    ]


def _validate_general_star(
    m: int, a_star: float, b_star: float, c_star: float, d_star: float
) -> list[ConstraintDiagnostic]:
    _check_m(m)
    return [
        ConstraintDiagnostic("d* > 0", d_star, d_star > 0.0),
        ConstraintDiagnostic("c* > d*", c_star - d_star, c_star > d_star),
        ConstraintDiagnostic("b* >= c*", b_star - c_star, b_star >= c_star),
        ConstraintDiagnostic("a* > b*", a_star - b_star, a_star > b_star),
    ]


def validate_spec(
    m: int, b: float, d: float, closure: bool = False
) -> list[ConstraintDiagnostic]:
    """Slack of every restricted-family constraint at (b, d).

    The derived interval constraints are canonical; the raw inequality chain
    on the second piece is kept as a redundant cross-check.  With ``closure``
    the relaxable inequalities become non-strict (the region's closure), but
    the coefficient positivity stays strict.
    """
    _check_m(m)
    out = [
        ConstraintDiagnostic("b > 0", b, b > 0.0),
        ConstraintDiagnostic("d > 0", d, d > 0.0),
    ]
    if b <= 0.0 or d <= 0.0:
        return out
    dd = spec_D(b, m)
    lo, hi = b_min(m), b_max(m)
    out.append(ConstraintDiagnostic("b > b_min" if not closure else "b >= b_min",
                                    b - lo, b >= lo if closure else b > lo))
    out.append(ConstraintDiagnostic("b < b_max", hi - b, b < hi))
    out.append(ConstraintDiagnostic("D(b, m) > 0", dd, dd > 0.0))
    if dd <= 0.0:
        return out
    at_b = -(2.0 + m) / m + dd * b ** (m / 2.0)
    at_d = -(2.0 + m) / m + dd * d ** (m / 2.0)
    relaxable = [
        ("d > d_min(b)", d - d_min(b, m)),
        ("d < d_max(b)", d_max(b, m) - d),
        ("second piece negative at b", -at_b),
        ("second piece positive at d", at_d),
        ("second piece below 2 at d", 2.0 - at_d),
    ]
    for name, slack in relaxable:
        ok = slack >= 0.0 if closure else slack > 0.0
        out.append(ConstraintDiagnostic(name, slack, ok))
    return out


def validate_star_spec(
    m: int, b_star: float, d_star: float, closure: bool = False
) -> list[ConstraintDiagnostic]:
    """Adjoint counterpart of validate_spec at (b*, d*)."""
    _check_m(m)
    out = [
        ConstraintDiagnostic("d* > 0", d_star, d_star > 0.0),
        ConstraintDiagnostic("b* > d*", b_star - d_star, b_star > d_star),
        ConstraintDiagnostic("b* < 1", 1.0 - b_star, b_star < 1.0),
    ]
    if d_star <= 0.0 or not d_star < b_star < 1.0:
        return out
    dd = star_spec_D(b_star, m)
    out.append(
        ConstraintDiagnostic("b* > b*_min", b_star - b_star_min(m),
                             b_star > b_star_min(m))
    )
    out.append(ConstraintDiagnostic("D*(b*, m) > 0", dd, dd > 0.0))
    if dd <= 0.0:
        return out
    at_b = -m / (2.0 + m) + dd * b_star ** (-1.0 - m / 2.0)
    at_d = -m / (2.0 + m) + dd * d_star ** (-1.0 - m / 2.0)
    relaxable = [
        ("b* < b*_max", b_star_max(m) - b_star),
        ("d* > d*_min(b*)", d_star - d_star_min(b_star, m)),
        ("d* < d*_max(b*)", d_star_max(b_star, m) - d_star),
        ("inner piece negative at b*", -at_b),
        ("inner piece positive at d*", at_d),
        ("inner piece below 2 at d*", 2.0 - at_d),
    ]
    for name, slack in relaxable:
        ok = slack >= 0.0 if closure else slack > 0.0
        out.append(ConstraintDiagnostic(name, slack, ok))
    return out


def _raise_on_failure(diagnostics) -> None:
    for diag in diagnostics:
        if not diag.satisfied:
            raise ConstraintViolation(
                f"constraint violated: {diag.name} (slack {diag.slack:.6g})"
            )


@dataclass(frozen=True)
class GeneralFamilyParams:
    """Parameters (m, a, b, c, d) of the general two-piece family, 0 < a < b <= c < d."""

    m: int
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        _raise_on_failure(validate_general(self.m, self.a, self.b, self.c, self.d))


@dataclass(frozen=True)
class GeneralStarFamilyParams:
    """Parameters (m, a*, b*, c*, d*) of the general adjoint family.

    Requires 0 < d* < c* <= b* < a*.
    """

    m: int
    a_star: float
    b_star: float
    c_star: float
    d_star: float

    def __post_init__(self) -> None:
        _raise_on_failure(
            _validate_general_star(
                self.m, self.a_star, self.b_star, self.c_star, self.d_star
            )
        )


@dataclass(frozen=True)
class FSpecParams:
    """A point (b, d) of the restricted feasible region for parameter m.

    The region is open; pass ``closure=True`` to admit boundary points, which
    the ratio functionals extend to continuously.
    """

    m: int
    b: float
    d: float
    closure: bool = False

    def __post_init__(self) -> None:
        _raise_on_failure(validate_spec(self.m, self.b, self.d, self.closure))


@dataclass(frozen=True)
class FStarSpecParams:
    """A point (b*, d*) of the adjoint restricted feasible region for parameter m."""

    m: int
    b_star: float
    d_star: float
    closure: bool = False

    def __post_init__(self) -> None:
        _raise_on_failure(
            validate_star_spec(self.m, self.b_star, self.d_star, self.closure)
        )


def validate(params) -> list[ConstraintDiagnostic]:
    """Signed slack of every feasibility inequality for the given parameters."""
    if isinstance(params, GeneralFamilyParams):
        return validate_general(params.m, params.a, params.b, params.c, params.d)
    if isinstance(params, GeneralStarFamilyParams):
        return _validate_general_star(
            params.m, params.a_star, params.b_star, params.c_star, params.d_star
        )
    if isinstance(params, FSpecParams):
        return validate_spec(params.m, params.b, params.d, params.closure)
    if isinstance(params, FStarSpecParams):
        return validate_star_spec(
            params.m, params.b_star, params.d_star, params.closure
        )
    raise TypeError(f"unsupported parameter type {type(params)!r}")


# --- constructors -------------------------------------------------------------

def build_general(params: GeneralFamilyParams) -> PiecewisePowerFunction:
    """The general two-piece function with its coupling coefficients."""
    m, a, b, c, d = params.m, params.a, params.b, params.c, params.d
    half = m / 2.0
    return PiecewisePowerFunction(
        (
            PowerPiece(a, b, (2.0 + m) / m, general_B(a, m), half),
            PowerPiece(c, d, -(2.0 + m) / m, general_D(a, b, c, m), half),
        )
    )


def build_general_star(params: GeneralStarFamilyParams) -> PiecewisePowerFunction:
    """The general adjoint two-piece function: -1 on (d*, c*), +1 on (b*, a*)."""
    m, a_s, b_s = params.m, params.a_star, params.b_star
    c_s, d_s = params.c_star, params.d_star
    neg = -1.0 - m / 2.0
    coeff_d = general_D_star(a_s, b_s, c_s, m)
    return PiecewisePowerFunction(
        (
            PowerPiece(d_s, c_s, -m / (2.0 + m), coeff_d, neg),
            PowerPiece(b_s, a_s, m / (2.0 + m), _general_B_star(a_s, m), neg),
        )
    )


def build_spec(params: FSpecParams) -> PiecewisePowerFunction:
    """The restricted function; its unique sign change on (b, d) is t_0(b, m)."""
    m, b, d = params.m, params.b, params.d
    half = m / 2.0
    return PiecewisePowerFunction(
        (
            PowerPiece(1.0, b, (2.0 + m) / m, -2.0 * (1.0 + m) / m, half),
            PowerPiece(b, d, -(2.0 + m) / m, spec_D(b, m), half),
        )
    )


def build_star_spec(params: FStarSpecParams) -> PiecewisePowerFunction:
    """The adjoint restricted function; sign change on (d*, b*) at t_0*(b*, m)."""
    m, bs, ds = params.m, params.b_star, params.d_star
    neg = -1.0 - m / 2.0
    return PiecewisePowerFunction(
        (
            PowerPiece(ds, bs, -m / (2.0 + m), star_spec_D(bs, m), neg),
            PowerPiece(bs, 1.0, m / (2.0 + m), -2.0 * (1.0 + m) / (2.0 + m), neg),
        )
    )
