"""Exact calculus for piecewise power functions.

A piecewise power function is a finite list of pieces, each supported on a
half-open interval (t_lo, t_hi] and equal to c0 + c1*t**p there; the function
is zero off the union of the pieces.  Moment integrals, L1 norms, and sign
changes are all computed from closed-form antiderivatives of power functions,
never by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "PowerPiece",
    "PiecewisePowerFunction",
    "evaluate",
    "moment_integral",
    "l1_norm",
    "dilate",
]

# |exponent + 1| below this uses the logarithmic antiderivative branch.
LOG_BRANCH_TOL = 1e-13

# Roots this close (relative) to a piece boundary do not count as interior.
BOUNDARY_ROOT_RTOL = 1e-12


@dataclass(frozen=True)
class PowerPiece:
    """One piece: ``c0 + c1*t**p`` on ``(t_lo, t_hi]``, zero elsewhere.

    Requires ``0 <= t_lo < t_hi``; the half-open convention means the right
    endpoint belongs to the piece.
    """

    t_lo: float
    t_hi: float
    c0: float
    c1: float
    p: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.t_lo < self.t_hi):
            raise ValueError(
                f"piece requires 0 <= t_lo < t_hi, got ({self.t_lo}, {self.t_hi})"
            )

    def expression(self, t: float) -> float:
        """Defining expression ``c0 + c1*t**p``, ignoring the support."""
        return self.c0 + self.c1 * t ** self.p

    def contains(self, t: float) -> bool:
        return self.t_lo < t <= self.t_hi


@dataclass(frozen=True)
class PiecewisePowerFunction:
    """Finitely many pairwise disjoint pieces, sorted by left endpoint."""

    pieces: tuple[PowerPiece, ...]

    def __init__(self, pieces: Iterable[PowerPiece]):
        ordered = tuple(sorted(pieces, key=lambda pc: pc.t_lo))
        for left, right in zip(ordered, ordered[1:]):
            if right.t_lo < left.t_hi:
                raise ValueError(
                    f"pieces overlap: ({left.t_lo}, {left.t_hi}] and "
                    f"({right.t_lo}, {right.t_hi}]"
                )
        object.__setattr__(self, "pieces", ordered)

    def support(self) -> tuple[float, float]:
        """Smallest interval containing all pieces; (0, 0) when empty."""
        if not self.pieces:
            return (0.0, 0.0)
        return (self.pieces[0].t_lo, self.pieces[-1].t_hi)


def evaluate(f: PiecewisePowerFunction, t: float) -> float:
    """Value of ``f`` at ``t > 0``; zero when ``t`` lies in no piece.

    A shared endpoint belongs to the piece on its left, per the half-open
    ``(t_lo, t_hi]`` convention.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    for piece in f.pieces:
        if piece.contains(t):
            return piece.expression(t)
    return 0.0


def _power_integral(exponent: float, lo: float, hi: float) -> float:
    """Closed-form ``\\int_lo^hi t**exponent dt`` with the log branch at -1."""
    if not (0.0 <= lo < hi):
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    e1 = exponent + 1.0
    if abs(e1) < LOG_BRANCH_TOL:
        if lo == 0.0:
            raise ValueError("divergent integral: exponent -1 down to 0")
        return math.log(hi / lo)
    if lo == 0.0:
        if e1 < 0.0:
            raise ValueError(f"divergent integral: exponent {exponent} down to 0")
        return hi ** e1 / e1
    return (hi ** e1 - lo ** e1) / e1


def _piece_moment(piece: PowerPiece, weight: float, lo: float, hi: float) -> float:
    """``\\int_lo^hi (c0 + c1 t**p) t**weight dt`` for ``[lo, hi]`` inside the piece."""
    total = 0.0
    if piece.c0 != 0.0:
        total += piece.c0 * _power_integral(weight, lo, hi)
    if piece.c1 != 0.0:
        total += piece.c1 * _power_integral(piece.p + weight, lo, hi)
    return total


def moment_integral(
    f: PiecewisePowerFunction, weight_exponent: float, lo: float, hi: float
) -> float:
    """``\\int_lo^hi f(s) s**weight_exponent ds`` from closed-form antiderivatives."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    if lo < 0.0:
        raise ValueError(f"lo must be nonnegative, got {lo}")
    total = 0.0
    for piece in f.pieces:
        seg_lo = max(lo, piece.t_lo)
        seg_hi = min(hi, piece.t_hi)
        if seg_lo < seg_hi:
            total += _piece_moment(piece, weight_exponent, seg_lo, seg_hi)
    return total


def _interior_root(piece: PowerPiece) -> float | None:
    """Unique root of ``c0 + c1 t**p`` strictly inside the piece, if any.

    Roots within BOUNDARY_ROOT_RTOL (relative) of either endpoint are
    treated as boundary roots and excluded; an infinite right end is never
    near a root.
    """
    if piece.c1 == 0.0 or piece.p == 0.0 or piece.c0 == 0.0:
        return None
    ratio = -piece.c0 / piece.c1
    if ratio <= 0.0 or math.isinf(ratio):
        return None
    # work in log space: the root can overflow a direct power long before
    # it could lie inside the piece
    log_root = math.log(ratio) / piece.p
    lo_log = math.log(piece.t_lo) if piece.t_lo > 0.0 else -math.inf
    if not (lo_log < log_root < math.log(piece.t_hi)):
        return None
    root = math.exp(log_root)
    if not (piece.t_lo < root < piece.t_hi):
        return None
    if root - piece.t_lo <= BOUNDARY_ROOT_RTOL * piece.t_lo:
        return None
    if (
        math.isfinite(piece.t_hi)
        and piece.t_hi - root <= BOUNDARY_ROOT_RTOL * piece.t_hi
    ):
        return None
    return root


def l1_norm(f: PiecewisePowerFunction) -> float:
    """Exact L1 norm: split each piece at its sign change and add |integrals|."""
    total = 0.0
    for piece in f.pieces:
        breaks = [piece.t_lo]
        root = _interior_root(piece)
        if root is not None:
            breaks.append(root)
        breaks.append(piece.t_hi)
        for lo, hi in zip(breaks, breaks[1:]):
            total += abs(_piece_moment(piece, 0.0, lo, hi))
    return total


def dilate(f: PiecewisePowerFunction, lam: float) -> PiecewisePowerFunction:
    """The dilated function ``t -> f(t / lam)`` for ``lam > 0``."""
    if not lam > 0.0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    pieces = tuple(
        PowerPiece(lam * pc.t_lo, lam * pc.t_hi, pc.c0, pc.c1 * lam ** (-pc.p), pc.p)
        for pc in f.pieces
    )
    return PiecewisePowerFunction(pieces)
