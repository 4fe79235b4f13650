"""Closed-form weak-type ratio functionals.

For the restricted families the superlevel set of the transformed function is
a single interval and the L1 norm has an explicit primitive, so the ratio
|superlevel| / L1 collapses to the closed forms ``W`` and ``W_star``.
The general-family ratios add the mass-overshoot
corrections b_hat and d_hat, and take the L1 norm of the second piece from
``l1_norm``.  The large-m ratio on the (x, y, z) coordinates, numpy over
arrays of z, has one home: the generator ``_ratio_planes``, which sorts the
(x, z) cells by z once, builds the terms free of y on them, and yields the
ratio for each y in turn as a flat plane in that order, with the
permutation.  Sorted, each branch of the ratio is a contiguous run of cells.
``optimize.push_check`` sweeps its grid with it, ``_asymptotic_ratio`` puts
its first plane at a single y back in the order of z, and the public
restricted ratio ``asymptotic_restricted`` is that ratio on z = 2(2 - e^x).

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
from .operators import (
    OperatorKind,
    SuperlevelResult,
    _adjoint_k,
    _forward_k,
    superlevel_measure,
)
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
    """Superlevel measure, L1 norm and their ratio.

    ``superlevel`` is the superlevel set whose measure is the numerator, where
    one was computed (``oracle_ratio``); the closed forms leave it None.
    """

    numerator: float
    denominator: float
    ratio: float
    superlevel: SuperlevelResult | None

    @classmethod
    def from_parts(
        cls, numerator: float, denominator: float,
        superlevel: SuperlevelResult | None = None,
    ) -> "RatioReport":
        if not denominator > 0.0:
            raise DenominatorError(f"denominator must be positive, got {denominator}")
        return cls(numerator, denominator, numerator / denominator, superlevel)


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
    exact L1 norm.  The report carries the superlevel set."""
    superlevel = superlevel_measure(op, f)
    return RatioReport.from_parts(superlevel.measure, l1_norm(f), superlevel)


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
    """Large-m ratio of the general family on the (x, z) cells, one plane per y.

    ``x`` is a scalar or a column broadcasting against ``z``, with fewer
    than 2**31 cells; every e^y is finite.  The broadcast cells are flattened
    once and sorted by z (stable), and each plane is yielded flat in that
    order with the int32 permutation ``order``: plane[j] is the cell at flat
    (x, z) index order[j].  The y-free terms are built once; each plane is
    then written in place over the same buffer, so read it before drawing
    the next.

    The ratio is (x_hat + y_hat) / (2e^x - x - 2 + int_0^y |-1 + z e^s| ds),
    every term elementwise.  With z ascending, each of the integral's three
    branches (z <= e^-y, the split at s = -ln z, z >= 1, which wins where
    both ends hold) is a contiguous run.  So is the band 1 <= t <= 3, where
    t = z e^y and y_hat's log(max(|t - 2|, 1)) is exactly 0: t ascends with
    z, and t - 2 is exact on [1, 4].  Below the band the log is of 2 - t,
    above it of t - 2, since fl(2 - t) = -fl(t - 2).
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(z))
    z = np.broadcast_to(np.asarray(z, dtype=float), shape).ravel()
    order = np.argsort(z, kind="stable").astype(np.int32)
    z = z[order]
    rows = order // (order.size // np.size(x))  # the entry of x of each cell
    ex = _per_x(math.exp, x)
    base = np.ravel(_per_x(math.log, 2.0 * ex - 2.0))[rows]
    x_hat = np.subtract(2.0, z)
    with np.errstate(divide="ignore"):
        np.log(x_hat, out=x_hat)
    np.subtract(base, x_hat, out=x_hat)
    np.maximum(0.0, base, out=base)
    np.minimum(base, x_hat, out=x_hat)
    del base
    x_hat += np.ravel(x)[rows]
    constant = np.ravel(2.0 * ex - x - 2.0)[rows]  # the denominator less the integral
    del rows
    # every split run lies in 0 < z < 1, so -2 ln z is kept there only
    positive, at_least_1 = int(z.searchsorted(0.0, "right")), int(z.searchsorted(1.0))
    neg_two_log_z = -2.0 * np.log(np.maximum(z[positive:at_least_1], 1e-300))
    y_hat, integral = np.empty_like(z), np.empty_like(z)
    for y, ey, e_neg_y in zip(ys, np.exp(ys), np.exp(np.negative(ys))):
        low = min(int(z.searchsorted(e_neg_y, "right")), at_least_1)
        below, split, above = slice(0, low), slice(low, at_least_1), slice(at_least_1, None)
        np.multiply(z[below], ey - 1.0, out=integral[below])
        np.subtract(y, integral[below], out=integral[below])
        np.subtract(neg_two_log_z[low - positive:], y, out=integral[split])
        np.multiply(z[split], ey + 1.0, out=y_hat[split])
        integral[split] += y_hat[split]
        integral[split] -= 2.0
        np.multiply(z[above], ey - 1.0, out=integral[above])
        integral[above] -= y
        integral += constant
        np.multiply(z, ey, out=y_hat)  # t
        start, stop = int(y_hat.searchsorted(1.0)), int(y_hat.searchsorted(3.0, "right"))
        under, over = y_hat[:start], y_hat[stop:]
        np.subtract(2.0, under, out=under)
        np.log(under, out=under)
        y_hat[start:stop] = 0.0
        over -= 2.0
        np.log(over, out=over)
        y_hat += y
        y_hat += x_hat
        y_hat /= integral
        yield y_hat, order


def _asymptotic_ratio(x: float, y: float, z):
    """Large-m ratio of the general family at fixed x and y over an array of
    z, in the order and shape of z."""
    plane, order = next(_ratio_planes(x, z, [y]))
    ratio = np.empty_like(plane)
    ratio[order] = plane
    return ratio.reshape(np.shape(z))[()]
