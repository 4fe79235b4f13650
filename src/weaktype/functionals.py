"""Closed-form weak-type ratio functionals.

For the restricted families the superlevel set of the transformed function is
a single interval and the L1 norm has an explicit primitive, so the ratio
|superlevel| / L1 collapses to the closed forms ``W`` and ``W_star``.
The general-family ratios add the mass-overshoot
corrections b_hat and d_hat, and take the L1 norm of the second piece from
``l1_norm``.  The large-m closed forms on the (x, y, z) coordinates live
here too: ``asymptotic_restricted``, and the general ratio
``_asymptotic_ratio`` over arrays of y and z, which ``asymptotic_general``
evaluates at one point and ``optimize.push_check`` slab by slab.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

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


def _asymptotic_terms(x: float, y, z):
    """x_hat, y_hat and int_0^y |-1 + z e^s| ds of the general ratio.

    ``x`` is a scalar; ``y`` is a scalar or an array broadcasting against
    ``z``, such as a column for a (y, z) slab.  exp(y) and exp(-y) are taken
    with math.exp element by element, so a slab agrees bit for bit with
    scalar-y calls.  The integral is split at s = -ln z.
    """
    scalar_exp = np.vectorize(math.exp, otypes=[float])
    ey = scalar_exp(y)
    e_neg_y = scalar_exp(np.negative(y))
    base = math.log(2.0 * math.exp(x) - 2.0)
    with np.errstate(divide="ignore"):
        shifted = base - np.log(2.0 - z)
    x_hat = x + np.minimum(np.maximum(0.0, base), shifted)
    magnitude = np.abs(-2.0 + z * ey)
    y_hat = y + np.where(magnitude > 1.0, np.log(np.maximum(magnitude, 1e-300)), 0.0)
    integral = np.where(
        z >= 1.0,
        -y + z * (ey - 1.0),
        np.where(
            z <= e_neg_y,
            y - z * (ey - 1.0),
            -2.0 * np.log(np.maximum(z, 1e-300)) - y + z * (ey + 1.0) - 2.0,
        ),
    )
    return x_hat, y_hat, integral


def _asymptotic_ratio(x: float, y, z):
    """Large-m ratio of the general family at fixed x over arrays of y and z."""
    x_hat, y_hat, integral = _asymptotic_terms(x, y, z)
    return (x_hat + y_hat) / (2.0 * math.exp(x) - x - 2.0 + integral)


def asymptotic_general(point: AsymptoticPoint) -> float:
    """Large-m ratio of the general family in (x, y, z) coordinates."""
    return float(_asymptotic_ratio(point.x, point.y, point.z))
