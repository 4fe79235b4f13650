"""Closed-form weak-type ratio functionals.

For the restricted families the superlevel set of the transformed function is
a single interval and the L1 norm has an explicit primitive, so the ratio
|superlevel| / L1 collapses to the closed forms ``W`` and ``W_star``.
The general-family ratios add the mass-overshoot
corrections b_hat and d_hat, and take the L1 norm of the second piece from
``l1_norm``.  The large-m ratio on the (x, y, z) coordinates, numpy over
arrays of z, has one home: the generator ``_ratio_planes``, which builds the
terms free of y once on an (x, z) plane and yields the ratio plane for each
y in turn.  ``optimize.push_check`` sweeps its grid with it,
``_asymptotic_ratio`` is its first plane at a single y, and the public
restricted ratio ``asymptotic_restricted`` is that plane on z = 2(2 - e^x).

As in ``families``, the adjoint families are the forward ones at kernel
exponent k = -1 - m/2 instead of k = m/2, with the intervals mirrored
through 1.  So each ratio and denominator is written once as a private
function of k, and each *_star name evaluates it at k = -1 - m/2.  The
mirroring flips the sign of the design length (1 - d* for d - 1) and of the
terms of the L1 norm that come from the fixed piece on the far side of 1.
"""

from __future__ import annotations

import math
import sys
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
    "W",
    "W_star",
    "gill_bound",
    "general_ratio",
    "general_ratio_star",
    "oracle_ratio",
    "asymptotic_restricted",
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


def _w_denominator(b, d, k: float, x, t_0):
    """L1 norm of the restricted function at kernel exponent k, from
    x = ``families._coefficient(b, k)`` and the sign change t_0 at b.

    The bracket is the forward norm written in k; the adjoint norm is its
    negative, since the adjoint intervals are mirrored through 1.
    """
    return families._orientation(k) * (
        k / (1.0 + k)
        - (1.0 + k) / k * d
        - 2.0 * k / (1.0 + k) * b
        + (1.0 + 2.0 * k) / (k * (1.0 + k)) * x * d ** (1.0 + k)
        + 2.0 * t_0
    )


def _W(b: float, d: float, k: float, denominator: float) -> float:
    """|d - 1| over the restricted L1 norm ``denominator`` at kernel exponent k."""
    if not denominator > 0.0:
        raise DenominatorError(
            f"nonpositive denominator {denominator} at (b={b}, d={d}, k={k})"
        )
    return families._orientation(k) * (d - 1.0) / denominator


def _W_at(b: float, d: float, k: float, x: float, t_0: float) -> float:
    """``_W`` from the coefficient x and the sign change t_0 at b."""
    return _W(b, d, k, _w_denominator(b, d, k, x, t_0))


def W(b: float, d: float, m: int) -> float:
    """Closed-form ratio (d - 1) / L1 for the restricted family.

    Accepts any (b, d) in the closure of the feasible region; rejects only a
    nonpositive denominator.
    """
    k = _forward_k(m)
    x = families._coefficient(b, k)
    return _W_at(b, d, k, x, families._t_0(x, k))


def W_star(b_star: float, d_star: float, m: int) -> float:
    """Closed-form ratio (1 - d*) / L1 for the adjoint restricted family."""
    k = _adjoint_k(m)
    x = families._coefficient(b_star, k)
    return _W_at(b_star, d_star, k, x, families._t_0(x, k))


def gill_bound(m: float) -> float:
    """The previously conjectured value m * 2^(2/(2+m)) / ((2+m)(2 - 2^(2/(2+m)))).

    Defined for real finite m at least the smallest normal float
    (``sys.float_info.min``); tends to 1/ln 2 as m -> 0+ and to 1 as
    m -> inf.  The factor 2 - 2^(2/(2+m)) is taken as -2 expm1(-m ln 2 / (2+m)),
    which does not cancel as m -> 0+.  A subnormal m is rejected: there the
    product m ln 2 loses digits or rounds to 0.
    """
    if not m > 0.0:
        raise ValueError(f"m must be positive, got {m}")
    if m < sys.float_info.min:
        raise ValueError(
            f"m must be at least the smallest normal float {sys.float_info.min}, got {m}"
        )
    if m == math.inf:
        raise ValueError(f"m must be finite, got {m}")
    root = 2.0 ** (2.0 / (2.0 + m))
    return m * root / ((2.0 + m) * -2.0 * math.expm1(-m * LOG_2 / (2.0 + m)))


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

    overshoot_b = -1.0 - const - families._general_B(1.0, k) * b ** k
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

def asymptotic_restricted(x: float, y: float) -> float:
    """Large-m ratio on the restricted branch, the face z = 2(2 - e^x).

    Requires x in [ln(3/2), ln 2) and e^-y <= 2(2 - e^x) <= 3 e^-y.
    """
    if not (LOG_32 <= x < LOG_2):
        raise ConstraintViolation(f"need ln(3/2) <= x < ln 2, got {x}")
    z = 2.0 * (2.0 - math.exp(x))
    if not (math.exp(-y) <= z <= 3.0 * math.exp(-y)):
        raise ConstraintViolation(
            f"need e^-y <= 2(2 - e^x) <= 3 e^-y, got z={z} at y={y}"
        )
    return float(_asymptotic_ratio(x, y, z))


def _per_x(fn, x) -> np.ndarray:
    """``fn``, a ``math`` function, at each x.

    numpy's array exp differs from ``math.exp`` in the last bit at some x.
    """
    return np.reshape([fn(v) for v in np.ravel(x)], np.shape(x))


def _ratio_planes(x, z, ys):
    """Large-m ratio of the general family on the (x, z) plane, one plane per y.

    ``x`` is a scalar or a column broadcasting against ``z``.  The y-free
    terms are built once; each plane is then written in place over the same
    buffer, so read it before drawing the next.  The buffers follow the
    memory order of the y-free terms, and so of ``z``.  The ratio is
    (x_hat + y_hat) / (2e^x - x - 2 + int_0^y |-1 + z e^s| ds), every term
    elementwise.  The integral splits at s = -ln z: the split branch is
    written everywhere, then the z <= e^-y and z >= 1 branches over it.
    """
    z = np.asarray(z, dtype=float)
    ex = _per_x(math.exp, x)
    base = _per_x(math.log, 2.0 * ex - 2.0)
    # one expression, so that the generator's frame keeps no extra plane alive
    with np.errstate(divide="ignore"):
        x_hat = x + np.minimum(np.maximum(0.0, base), base - np.log(2.0 - z))
    constant = 2.0 * ex - x - 2.0  # the denominator less the integral
    neg_two_log_z = -2.0 * np.log(np.maximum(z, 1e-300))  # finite where z <= 0
    z_at_least_1 = z >= 1.0
    y_hat, integral = np.empty_like(x_hat), np.empty_like(x_hat)
    for y, ey, e_neg_y in zip(ys, np.exp(ys), np.exp(np.negative(ys))):
        np.multiply(z, ey + 1.0, out=y_hat)
        np.subtract(neg_two_log_z, y, out=integral)
        integral += y_hat
        integral -= 2.0
        np.multiply(z, ey - 1.0, out=y_hat)
        np.subtract(y, y_hat, out=integral, where=z <= e_neg_y)
        np.subtract(y_hat, y, out=integral, where=z_at_least_1)
        np.multiply(z, ey, out=y_hat)
        y_hat -= 2.0
        np.abs(y_hat, out=y_hat)
        np.maximum(y_hat, 1.0, out=y_hat)  # so the log is 0 where |z e^y - 2| <= 1
        np.log(y_hat, out=y_hat)
        y_hat += y
        y_hat += x_hat
        integral += constant
        y_hat /= integral
        yield y_hat


def _asymptotic_ratio(x: float, y: float, z):
    """Large-m ratio of the general family at fixed x and y over an array of z."""
    return next(_ratio_planes(x, z, [y]))[()]
