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

As in ``families``, the adjoint families are the forward ones at kernel
exponent k = -1 - m/2 instead of k = m/2, with the intervals mirrored
through 1.  So each ratio and denominator is written once as a private
function of k, and each *_star name evaluates it at k = -1 - m/2.  The
mirroring flips the sign of the design length (1 - d* for d - 1) and of the
terms of the L1 norm that come from the fixed piece on the far side of 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import families
from .families import (
    ConstraintViolation,
    GeneralFamilyParams,
    GeneralStarFamilyParams,
)
from .operators import OperatorKind, _adjoint_k, _forward_k, superlevel_measure
from .piecewise import PiecewisePowerFunction, PowerPiece, l1_norm

__all__ = [
    "DenominatorError",
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


@dataclass(frozen=True)
class RatioReport:
    """Superlevel measure, L1 norm and their ratio."""

    numerator: float
    denominator: float
    ratio: float

    @classmethod
    def from_parts(cls, numerator: float, denominator: float) -> "RatioReport":
        if not denominator > 0.0:
            raise DenominatorError(f"denominator must be positive, got {denominator}")
        return cls(numerator, denominator, numerator / denominator)


def _w_denominator(b, d, k: float):
    """L1 norm of the restricted function at kernel exponent k.

    The bracket is the forward norm written in k; the adjoint norm is its
    negative, since the adjoint intervals are mirrored through 1.
    """
    return families._orientation(k) * (
        k / (1.0 + k)
        - (1.0 + k) / k * d
        - 2.0 * k / (1.0 + k) * b
        + (1.0 + 2.0 * k) / (k * (1.0 + k))
        * (2.0 * b ** (-k) - 1.0)
        * d ** (1.0 + k)
        + 2.0 * families._t_0(b, k)
    )


def _W(b: float, d: float, k: float, denominator: float) -> float:
    """|d - 1| over the restricted L1 norm ``denominator`` at kernel exponent k."""
    if not denominator > 0.0:
        raise DenominatorError(
            f"nonpositive denominator {denominator} at (b={b}, d={d}, k={k})"
        )
    return families._orientation(k) * (d - 1.0) / denominator


def w_denominator(b: float, d: float, m: int) -> float:
    """L1 norm of the restricted function with parameters (b, d)."""
    return _w_denominator(b, d, m / 2.0)


def W(b: float, d: float, m: int) -> float:
    """Closed-form ratio (d - 1) / L1 for the restricted family.

    Accepts any (b, d) in the closure of the feasible region; rejects only a
    nonpositive denominator.
    """
    return _W(b, d, _forward_k(m), w_denominator(b, d, m))


def w_star_denominator(b_star: float, d_star: float, m: int) -> float:
    """L1 norm of the adjoint restricted function with parameters (b*, d*)."""
    return _w_denominator(b_star, d_star, -1.0 - m / 2.0)


def W_star(b_star: float, d_star: float, m: int) -> float:
    """Closed-form ratio (1 - d*) / L1 for the adjoint restricted family."""
    return _W(b_star, d_star, _adjoint_k(m), w_star_denominator(b_star, d_star, m))


def gill_bound(m: float) -> float:
    """The previously conjectured value m * 2^(2/(2+m)) / ((2+m)(2 - 2^(2/(2+m)))).

    Defined for real m > 0; tends to 1/ln 2 as m -> 0+ and to 1 as m -> inf.
    """
    if not m > 0.0:
        raise ValueError(f"m must be positive, got {m}")
    root = 2.0 ** (2.0 / (2.0 + m))
    return m * root / ((2.0 + m) * (2.0 - root))


# --- general-family ratios ----------------------------------------------------

def _general_ratio(b: float, c: float, d: float, k: float) -> RatioReport:
    """Exact ratio of the general family at unit scale, kernel exponent k.

    The numerator extends the design intervals by the mass-overshoot
    endpoints b_hat (into the gap between b and c) and d_hat (beyond d); the
    denominator is the exact L1 norm.
    """
    s = families._orientation(k)
    further, nearer = (max, min) if s > 0.0 else (min, max)
    const = (1.0 + k) / k
    dd = families._general_D(1.0, b, c, k)

    overshoot_b = -1.0 - const + (1.0 + 2.0 * k) / k * b ** k
    b_hat = nearer(further(b, b * overshoot_b ** (1.0 / (1.0 + k))), c)
    overshoot_d = abs(-1.0 - const + dd * d ** k)
    d_hat = further(d, d * overshoot_d ** (1.0 / (1.0 + k)))

    numerator = s * ((b_hat - 1.0) + (d_hat - c))
    second = PowerPiece(*sorted((c, d)), -const, dd, k)
    denominator = s * (
        k / (1.0 + k)
        - const * b
        + (1.0 + 2.0 * k) / (k * (1.0 + k)) * b ** (1.0 + k)
    ) + l1_norm(PiecewisePowerFunction((second,)))
    return RatioReport.from_parts(numerator, denominator)


def general_ratio(params: GeneralFamilyParams) -> RatioReport:
    """Exact ratio for the general family with a = 1."""
    if params.a != 1.0:
        raise ValueError("general_ratio requires a = 1 (reduce by scaling)")
    return _general_ratio(params.b, params.c, params.d, _forward_k(params.m))


def general_ratio_star(params: GeneralStarFamilyParams) -> RatioReport:
    """Exact ratio for the general adjoint family with a* = 1."""
    if params.a_star != 1.0:
        raise ValueError("general_ratio_star requires a* = 1 (reduce by scaling)")
    return _general_ratio(
        params.b_star, params.c_star, params.d_star, _adjoint_k(params.m)
    )


def oracle_ratio(op: OperatorKind, f: PiecewisePowerFunction) -> RatioReport:
    """Independent ratio: structural superlevel measure at level 1 over the
    exact L1 norm."""
    return RatioReport.from_parts(superlevel_measure(op, f).measure, l1_norm(f))


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
