"""Extremal function families and their feasibility boundaries.

The general family stitches (2+m)/m + B*t**(m/2) on (a, b] against
-(2+m)/m + D*t**(m/2) on (c, d], with B and D chosen so the forward operator
maps the function to +1 on (a, b) and -1 on (c, d).  The restricted family
fixes a = 1 and c = b and constrains (b, d) to the open region where the
second piece changes sign and stays below 2 at d.

The adjoint families are the forward ones with the kernel exponent k = m/2
replaced by k = -1 - m/2 and the intervals mirrored through 1: the general
one stitches m/(2+m) + B*t**(-1-m/2) on (b*, a*] against
-m/(2+m) + D*t**(-1-m/2) on (d*, c*], 0 < d* < c* <= b* < a*, mapped to +1
and -1 by the adjoint operator, and the restricted one fixes a* = 1 and
c* = b*.  Every constant follows from the substitution: (2+m)/m is
(1+k)/k, 2(1+m)/m is (1+2k)/k and b**(-m/2) is b**(-k).  So each quantity
is written once, as a private function of k; the forward name evaluates it
at k = m/2 and each *_star name at k = -1 - m/2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .operators import _adjoint_k, _check_m, _forward_k
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
    "d_min",
    "d_max",
    "b_star_min",
    "b_star_max",
    "d_star_min",
    "d_star_max",
    "build_general",
    "build_general_star",
    "build_spec",
    "build_star_spec",
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


# --- shared closed forms in the kernel exponent k -------------------------------
#
# Every constant is one quotient of exactly representable terms, (1 + k)/k
# rather than 1 + 1/k, so it is correctly rounded at both exponents.

def _orientation(k: float) -> float:
    """+1 for the forward exponent (k > -1/2), -1 for the adjoint one, whose
    intervals are the forward ones mirrored through 1."""
    return 1.0 if k > -0.5 else -1.0


def _b_near(k: float) -> float:
    """End of the restricted b-range nearer to 1 (b_min, b*_max)."""
    return ((1.0 + 3.0 * k) / (1.0 + 2.0 * k)) ** (1.0 / k)


def _b_far(k: float) -> float:
    """End of the restricted b-range farther from 1 (b_max, b*_min)."""
    return 2.0 ** (1.0 / k)


def _t_0(b, k: float):
    """Sign change of the second restricted piece (d_min, d*_max)."""
    return ((1.0 + k) / (1.0 + 2.0 * k)) ** (1.0 / k) * (
        2.0 * b ** (-k) - 1.0
    ) ** (-1.0 / k)


def _d_far(b: float, k: float) -> float:
    """End of the restricted d-range farther from 1 (d_max, d*_min)."""
    return ((1.0 + 3.0 * k) / ((1.0 + 2.0 * k) * (2.0 * b ** (-k) - 1.0))) ** (
        1.0 / k
    )


def _general_B(a: float, k: float) -> float:
    return -(1.0 + 2.0 * k) / (k * a ** k)


def _general_D(a: float, b: float, c: float, k: float) -> float:
    lead = (1.0 + 2.0 * k) / (k * c ** k)
    return lead + lead * (b / c) ** (1.0 + k) + _general_B(a, k) * (b / c) ** (
        1.0 + 2.0 * k
    )


def _spec_D(b: float, k: float) -> float:
    return (1.0 + 2.0 * k) / k * (2.0 * b ** (-k) - 1.0)


def _build(k: float, plus, minus, coeff_plus: float, coeff_minus: float):
    """(1+k)/k + coeff_plus t^k on the interval ``plus`` against
    -(1+k)/k + coeff_minus t^k on ``minus``, pieces in increasing t."""
    const = (1.0 + k) / k
    return PiecewisePowerFunction((
        PowerPiece(*sorted(plus), const, coeff_plus, k),
        PowerPiece(*sorted(minus), -const, coeff_minus, k),
    ))


# --- boundary functions ------------------------------------------------------

def b_min(m: int) -> float:
    return _b_near(_forward_k(m))


def b_max(m: int) -> float:
    return _b_far(_forward_k(m))


def d_min(b: float, m: int) -> float:
    """The sign change t_0 of the second restricted piece."""
    return _t_0(b, _forward_k(m))


def d_max(b: float, m: int) -> float:
    return _d_far(b, _forward_k(m))


def b_star_min(m: int) -> float:
    return _b_far(_adjoint_k(m))


def b_star_max(m: int) -> float:
    return _b_near(_adjoint_k(m))


def d_star_max(b_star: float, m: int) -> float:
    """The sign change t_0* of the inner adjoint piece."""
    return _t_0(b_star, _adjoint_k(m))


def d_star_min(b_star: float, m: int) -> float:
    return _d_far(b_star, _adjoint_k(m))


# --- parameter types ---------------------------------------------------------

def _validate_chain(
    m: int, names: tuple[str, ...], x0: float, x1: float, x2: float, x3: float
) -> list[ConstraintDiagnostic]:
    """Slack of the ordering chain 0 < x0 < x1 <= x2 < x3 over the ascending
    endpoints of a general family."""
    _check_m(m)
    n0, n1, n2, n3 = names
    return [
        ConstraintDiagnostic(n0, x0, x0 > 0.0),
        ConstraintDiagnostic(n1, x1 - x0, x1 > x0),
        ConstraintDiagnostic(n2, x2 - x1, x2 >= x1),
        ConstraintDiagnostic(n3, x3 - x2, x3 > x2),
    ]


# General-family ordering names over the ascending endpoints: (a, b, c, d)
# forward, (d*, c*, b*, a*) for the adjoint.
_GENERAL_NAMES = ("a > 0", "b > a", "c >= b", "d > c")
_GENERAL_STAR_NAMES = ("d* > 0", "c* > d*", "b* >= c*", "a* > b*")


# Restricted-family constraint names per direction, in the forward order.
_SPEC_NAMES = (
    "b > 0", "d > 0", "b > b_min", "b < b_max", "D(b, m) > 0",
    "d > d_min(b)", "d < d_max(b)", "second piece negative at b",
    "second piece positive at d", "second piece below 2 at d",
)
_STAR_SPEC_NAMES = (
    "b* > 0", "d* > 0", "b* < b*_max", "b* > b*_min",
    "D*(b*, m) > 0", "d* < d*_max(b*)", "d* > d*_min(b*)",
    "inner piece negative at b*", "inner piece positive at d*",
    "inner piece below 2 at d*",
)


def _validate_restricted(
    k: float, b: float, d: float, names: tuple[str, ...]
) -> list[ConstraintDiagnostic]:
    """Slack of every restricted-family constraint at (b, d), in the kernel
    exponent k; the orientation turns each forward slack into its mirror."""

    def diag(name: str, slack: float):
        return ConstraintDiagnostic(name, slack, slack > 0.0)

    pos_b, pos_d, near, far, coeff, *pieces = names
    out = [diag(pos_b, b), diag(pos_d, d)]
    if b <= 0.0 or d <= 0.0:
        return out
    s = _orientation(k)
    out += [diag(near, s * (b - _b_near(k))), diag(far, s * (_b_far(k) - b))]
    try:
        dd = _spec_D(b, k)
    except OverflowError:  # b**(-k) overflows only far beyond the near end
        return out
    out.append(diag(coeff, dd))
    if dd <= 0.0:
        return out
    d_range = (s * (d - _t_0(b, k)), s * (_d_far(b, k) - d))
    out += [diag(name, slack) for name, slack in zip(pieces, d_range)]
    try:
        d_k = d ** k
    except OverflowError:  # d**k overflows only far beyond the d-range
        return out
    const = (1.0 + k) / k
    at_b = -const + dd * b ** k
    at_d = -const + dd * d_k
    slacks = (-at_b, at_d, 2.0 - at_d)
    return out + [diag(name, slack) for name, slack in zip(pieces[2:], slacks)]


def validate_spec(m: int, b: float, d: float) -> list[ConstraintDiagnostic]:
    """Slack of every restricted-family constraint at (b, d).

    The derived interval constraints are canonical; the raw inequality chain
    on the second piece is kept as a redundant cross-check.
    """
    return _validate_restricted(_forward_k(m), b, d, _SPEC_NAMES)


def validate_star_spec(
    m: int, b_star: float, d_star: float
) -> list[ConstraintDiagnostic]:
    """Adjoint counterpart of validate_spec at (b*, d*): the same constraints
    at k = -1 - m/2, named for the mirrored intervals."""
    return _validate_restricted(_adjoint_k(m), b_star, d_star, _STAR_SPEC_NAMES)


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
        _raise_on_failure(_validate_chain(
            self.m, _GENERAL_NAMES, self.a, self.b, self.c, self.d
        ))


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
        _raise_on_failure(_validate_chain(
            self.m, _GENERAL_STAR_NAMES,
            self.d_star, self.c_star, self.b_star, self.a_star,
        ))


@dataclass(frozen=True)
class FSpecParams:
    """A point (b, d) of the open restricted feasible region for parameter m."""

    m: int
    b: float
    d: float

    def __post_init__(self) -> None:
        _raise_on_failure(validate_spec(self.m, self.b, self.d))


@dataclass(frozen=True)
class FStarSpecParams:
    """A point (b*, d*) of the adjoint restricted feasible region for parameter m."""

    m: int
    b_star: float
    d_star: float

    def __post_init__(self) -> None:
        _raise_on_failure(validate_star_spec(self.m, self.b_star, self.d_star))


# --- constructors -------------------------------------------------------------

def build_general(params: GeneralFamilyParams) -> PiecewisePowerFunction:
    """The general two-piece function with its coupling coefficients."""
    m, a, b, c, d = params.m, params.a, params.b, params.c, params.d
    k = _forward_k(m)
    return _build(k, (a, b), (c, d), _general_B(a, k), _general_D(a, b, c, k))


def build_general_star(params: GeneralStarFamilyParams) -> PiecewisePowerFunction:
    """The general adjoint two-piece function: -1 on (d*, c*), +1 on (b*, a*)."""
    m, a_s, b_s = params.m, params.a_star, params.b_star
    c_s, d_s = params.c_star, params.d_star
    k = _adjoint_k(m)
    return _build(k, (a_s, b_s), (c_s, d_s), _general_B(a_s, k),
                  _general_D(a_s, b_s, c_s, k))


def build_spec(params: FSpecParams) -> PiecewisePowerFunction:
    """The restricted function; its unique sign change on (b, d) is d_min(b, m)."""
    k, b = _forward_k(params.m), params.b
    return _build(k, (1.0, b), (b, params.d), _general_B(1.0, k), _spec_D(b, k))


def build_star_spec(params: FStarSpecParams) -> PiecewisePowerFunction:
    """The adjoint restricted function; its sign change on (d*, b*) is d_star_max."""
    k, bs = _adjoint_k(params.m), params.b_star
    return _build(k, (1.0, bs), (bs, params.d_star), _general_B(1.0, k),
                  _spec_D(bs, k))
