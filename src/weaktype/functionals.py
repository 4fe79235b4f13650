"""Closed-form weak-type ratio functionals.

For the restricted families the superlevel set of the transformed function is
a single interval and the L1 norm has an explicit primitive, so the ratio
|superlevel| / L1 collapses to the closed forms ``W`` and ``W_star``.
The general-family ratios add the mass-overshoot
corrections b_hat and d_hat, and take the L1 norm of the second piece from
``l1_norm``.  The large-m limits of these ratios live on the
(x, y, z) coordinates handled by ``asymptotic_restricted`` and
``asymptotic_general``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import families
from .families import (
    ConstraintViolation,
    GeneralFamilyParams,
    GeneralStarFamilyParams,
)
from .operators import OperatorKind, superlevel_measure
from .piecewise import PiecewisePowerFunction, PowerPiece, l1_norm

__all__ = [
    "DenominatorError",
    "RatioSource",
    "RatioReport",
    "AsymptoticPoint",
    "W",
    "W_star",
    "gill_bound",
    "general_ratio",
    "general_ratio_star",
    "oracle_ratio",
    "asymptotic_restricted",
    "asymptotic_general",
    "LOG_32",
    "LOG_2",
]

LOG_32 = math.log(1.5)
LOG_2 = math.log(2.0)


class DenominatorError(ValueError):
    """The closed-form denominator is not positive: infeasible input."""


class RatioSource(enum.Enum):
    CLOSED_FORM = "closed_form"
    ORACLE = "oracle"


@dataclass(frozen=True)
class RatioReport:
    """Superlevel measure, L1 norm, their ratio, and how they were obtained."""

    numerator: float
    denominator: float
    ratio: float
    source: RatioSource

    @classmethod
    def from_parts(
        cls, numerator: float, denominator: float, source: RatioSource
    ) -> "RatioReport":
        if denominator <= 0.0:
            raise DenominatorError(f"denominator must be positive, got {denominator}")
        return cls(numerator, denominator, numerator / denominator, source)


def w_denominator(b: float, d: float, m: int) -> float:
    """L1 norm of the restricted function with parameters (b, d)."""
    return (
        m / (2.0 + m)
        - (2.0 + m) / m * d
        - 2.0 * m / (2.0 + m) * b
        + 4.0 * (1.0 + m) / (m * (2.0 + m))
        * (2.0 * b ** (-m / 2.0) - 1.0)
        * d ** (1.0 + m / 2.0)
        + 2.0 * families.t_0(b, m)
    )


def W(b: float, d: float, m: int) -> float:
    """Closed-form ratio (d - 1) / L1 for the restricted family.

    Accepts any (b, d) in the closure of the feasible region; rejects only a
    nonpositive denominator.
    """
    denominator = w_denominator(b, d, m)
    if denominator <= 0.0:
        raise DenominatorError(
            f"nonpositive denominator {denominator} at (b={b}, d={d}, m={m})"
        )
    return (d - 1.0) / denominator


def w_star_denominator(b_star: float, d_star: float, m: int) -> float:
    """L1 norm of the adjoint restricted function with parameters (b*, d*)."""
    return (
        -(2.0 + m) / m
        + m / (2.0 + m) * d_star
        + 2.0 * (2.0 + m) / m * b_star
        + 4.0 * (1.0 + m) / (m * (2.0 + m))
        * (2.0 * b_star ** (1.0 + m / 2.0) - 1.0)
        * d_star ** (-m / 2.0)
        - 2.0 * families.t_0_star(b_star, m)
    )


def W_star(b_star: float, d_star: float, m: int) -> float:
    """Closed-form ratio (1 - d*) / L1 for the adjoint restricted family."""
    denominator = w_star_denominator(b_star, d_star, m)
    if denominator <= 0.0:
        raise DenominatorError(
            f"nonpositive denominator {denominator} at "
            f"(b*={b_star}, d*={d_star}, m={m})"
        )
    return (1.0 - d_star) / denominator


def gill_bound(m: float) -> float:
    """The previously conjectured value m * 2^(2/(2+m)) / ((2+m)(2 - 2^(2/(2+m)))).

    Defined for real m > 0; tends to 1/ln 2 as m -> 0+ and to 1 as m -> inf.
    """
    if m <= 0.0:
        raise ValueError(f"m must be positive, got {m}")
    root = 2.0 ** (2.0 / (2.0 + m))
    return m * root / ((2.0 + m) * (2.0 - root))


# --- general-family ratios ----------------------------------------------------

def general_ratio(params: GeneralFamilyParams) -> RatioReport:
    """Exact ratio for the general family with a = 1.

    The numerator extends the design intervals by the mass-overshoot
    endpoints b_hat (into the gap (b, c)) and d_hat (beyond d); the
    denominator is the exact L1 norm.
    """
    if params.a != 1.0:
        raise ValueError("general_ratio requires a = 1 (reduce by scaling)")
    m, b, c, d = params.m, params.b, params.c, params.d
    half = m / 2.0
    dd = families.general_D(1.0, b, c, m)

    overshoot_b = -1.0 - (2.0 + m) / m + 2.0 * (1.0 + m) / m * b ** half
    b_hat = min(max(b, b * overshoot_b ** (2.0 / (2.0 + m))), c)
    overshoot_d = abs(-1.0 - (2.0 + m) / m + dd * d ** half)
    d_hat = max(d, d * overshoot_d ** (2.0 / (2.0 + m)))

    numerator = (b_hat - 1.0) + (d_hat - c)
    second = PowerPiece(c, d, -(2.0 + m) / m, dd, half)
    denominator = (
        m / (2.0 + m)
        - (2.0 + m) / m * b
        + 4.0 * (1.0 + m) / (m * (2.0 + m)) * b ** (1.0 + half)
        + l1_norm(PiecewisePowerFunction((second,)))
    )
    return RatioReport.from_parts(numerator, denominator, RatioSource.CLOSED_FORM)


def general_ratio_star(params: GeneralStarFamilyParams) -> RatioReport:
    """Exact ratio for the general adjoint family with a* = 1."""
    if params.a_star != 1.0:
        raise ValueError("general_ratio_star requires a* = 1 (reduce by scaling)")
    m, b_star, c_star, d_star = params.m, params.b_star, params.c_star, params.d_star
    half = m / 2.0
    neg = -1.0 - half
    dd = families.general_D_star(1.0, b_star, c_star, m)

    overshoot_b = -1.0 - m / (2.0 + m) + 2.0 * (1.0 + m) / (2.0 + m) * b_star ** neg
    b_hat = max(c_star, min(b_star * overshoot_b ** (-2.0 / m), b_star))
    overshoot_d = abs(-1.0 - m / (2.0 + m) + dd * d_star ** neg)
    d_hat = min(d_star, d_star * overshoot_d ** (-2.0 / m))

    numerator = (1.0 - b_hat) + (c_star - d_hat)
    inner = PowerPiece(d_star, c_star, -m / (2.0 + m), dd, neg)
    denominator = (
        -(2.0 + m) / m
        + m / (2.0 + m) * b_star
        + 4.0 * (1.0 + m) / (m * (2.0 + m)) * b_star ** (-half)
        + l1_norm(PiecewisePowerFunction((inner,)))
    )
    return RatioReport.from_parts(numerator, denominator, RatioSource.CLOSED_FORM)


def oracle_ratio(
    op: OperatorKind, f: PiecewisePowerFunction, threshold: float = 1.0
) -> RatioReport:
    """Independent ratio: structural superlevel measure over the exact L1 norm."""
    measured = superlevel_measure(op, f, threshold)
    return RatioReport.from_parts(measured.measure, l1_norm(f), RatioSource.ORACLE)


# --- asymptotic (large-m) program ----------------------------------------------

@dataclass(frozen=True)
class AsymptoticPoint:
    """Coordinates of the large-m program: x > 0, y > 0, 2(2 - e^x) <= z <= 2."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if self.x <= 0.0 or self.y <= 0.0:
            raise ConstraintViolation(
                f"need x > 0 and y > 0, got ({self.x}, {self.y})"
            )
        lo = 2.0 * (2.0 - math.exp(self.x))
        if not (lo <= self.z <= 2.0):
            raise ConstraintViolation(
                f"need 2(2 - e^x) <= z <= 2, got z={self.z}, lower bound {lo}"
            )


def asymptotic_restricted(x: float, y: float) -> float:
    """Large-m ratio on the restricted branch.

    Requires x in [ln(3/2), ln 2) and e^-y <= 2(2 - e^x) <= 3 e^-y.
    """
    if not (LOG_32 <= x < LOG_2):
        raise ConstraintViolation(f"need ln(3/2) <= x < ln 2, got {x}")
    z = 2.0 * (2.0 - math.exp(x))
    if not (math.exp(-y) <= z <= 3.0 * math.exp(-y)):
        raise ConstraintViolation(
            f"need e^-y <= 2(2 - e^x) <= 3 e^-y, got z={z} at y={y}"
        )
    denominator = (
        2.0 * math.exp(x)
        - x
        - 4.0
        - y
        + z * (math.exp(y) + 1.0)
        - 2.0 * math.log(z)
    )
    return (x + y) / denominator


def _x_hat(x: float, z: float) -> float:
    base = math.log(2.0 * math.exp(x) - 2.0)
    shifted = base - math.log(2.0 - z) if z < 2.0 else math.inf
    return x + min(max(0.0, base), shifted)


def _y_hat(y: float, z: float) -> float:
    magnitude = abs(-2.0 + z * math.exp(y))
    return y + (math.log(magnitude) if magnitude > 1.0 else 0.0)


def _abs_exp_integral(y: float, z: float) -> float:
    """``\\int_0^y |-1 + z e^s| ds`` in closed form, split at s = -ln z."""
    if z >= 1.0:
        return -y + z * (math.exp(y) - 1.0)
    if z <= math.exp(-y):
        return y - z * (math.exp(y) - 1.0)
    return -2.0 * math.log(z) - y + z * (math.exp(y) + 1.0) - 2.0


def asymptotic_general(point: AsymptoticPoint) -> float:
    """Large-m ratio of the general family in (x, y, z) coordinates."""
    x, y, z = point.x, point.y, point.z
    numerator = _x_hat(x, z) + _y_hat(y, z)
    denominator = 2.0 * math.exp(x) - x - 2.0 + _abs_exp_integral(y, z)
    return numerator / denominator
