"""The radial averaging-minus-identity operators and their independent oracle.

Both operators with parameter m act on f as

    T f(t) = (1+2k) * t**(-1-k) * integral_{s0}^t f(s) s**k ds  -  f(t)

with kernel exponent k = m/2 and s0 = 0 forward, and k = -1 - m/2 and
s0 = infinity for the adjoint, which is (1+m) * t**(m/2) * integral_t^inf
f(s) / s**(1+m/2) ds - f(t).  Both map t**alpha to (k - alpha) / (1 + alpha + k)
times itself wherever the integral converges.

Closed-form application uses the exact piecewise moment integrals.  The
independent oracle recomputes the same values by QUADPACK quadrature
(``scipy.integrate.quad``) with piece boundaries as mandatory panel breaks.
Superlevel sets are located structurally: on every maximal region (piece,
gap, or tail) the transformed function is a two-term power expression, so
each region is itself a ``PowerPiece``.  Its threshold crossings are the
interior roots (``piecewise._interior_root``) of the region shifted by the
threshold, and every genuine crossing is certified by Brent's method on the
quadrature oracle inside its region.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .piecewise import (
    PiecewisePowerFunction,
    PowerPiece,
    _interior_root,
    _piece_moment,
    evaluate,
    moment_integral,
)

__all__ = [
    "Kind",
    "OperatorKind",
    "QuadratureError",
    "SuperlevelResult",
    "lambda_op",
    "lambda_star_op",
    "apply_closed_form",
    "apply_quadrature_oracle",
    "superlevel_measure",
    "eigen_check",
    "eigenvalue",
]

# Values within this relative slack of the threshold count as attaining it;
# the extremal families sit exactly on the threshold up to rounding.
THRESHOLD_SLACK = 1e-9

# Closed-form crossings must agree with the oracle root to this tolerance.
CERTIFY_TOL = 1e-8


class Kind(enum.Enum):
    LAMBDA = "lambda"
    LAMBDA_STAR = "lambda_star"


def _check_m(m: int) -> None:
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")


@dataclass(frozen=True)
class OperatorKind:
    """Which operator (forward or adjoint) and its integer parameter m >= 1."""

    kind: Kind
    m: int

    def __post_init__(self) -> None:
        _check_m(self.m)

    @property
    def k(self) -> float:
        """Kernel exponent: m/2 forward, -1 - m/2 adjoint."""
        half = self.m / 2.0
        return half if self.kind is Kind.LAMBDA else -1.0 - half


def lambda_op(m: int) -> OperatorKind:
    return OperatorKind(Kind.LAMBDA, m)


def lambda_star_op(m: int) -> OperatorKind:
    return OperatorKind(Kind.LAMBDA_STAR, m)


class QuadratureError(RuntimeError):
    """QUADPACK reported that a panel integral did not converge."""


@dataclass(frozen=True)
class SuperlevelResult:
    """Lebesgue measure and interval decomposition of {t : |Tf(t)| >= thr}."""

    measure: float
    intervals: tuple[tuple[float, float], ...]


def eigenvalue(op: OperatorKind, alpha: float) -> float:
    """Eigenvalue of ``t**alpha`` under the operator.

    It is (k - alpha) / (1 + alpha + k) in the kernel exponent k:
    forward (m/2 - alpha) / (1 + alpha + m/2) for alpha > -1 - m/2, and
    adjoint its reciprocal (1 + alpha + m/2) / (m/2 - alpha) for alpha < m/2.
    """
    half = op.m / 2.0
    num, den = half - alpha, 1.0 + alpha + half
    if op.kind is Kind.LAMBDA:
        if alpha <= -1.0 - half:
            raise ValueError(f"alpha must exceed {-1 - half}, got {alpha}")
        return num / den
    if alpha >= half:
        raise ValueError(f"alpha must be below {half}, got {alpha}")
    return den / num


def _integration(op: OperatorKind, f: PiecewisePowerFunction, t: float):
    """(lo, hi, prefactor) with Tf(t) = prefactor * integral_lo^hi f(s) s**k ds - f(t).

    The prefactor is (1+2k) t**(-1-k) signed by the orientation of the
    integral (0 up to t, or infinity down to t), so it is positive.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    k = op.k
    if op.kind is Kind.LAMBDA:
        lo, hi, sign = 0.0, t, 1.0
    else:
        lo, hi, sign = t, f.support()[1], -1.0
    return lo, hi, sign * (1.0 + 2.0 * k) * t ** (-1.0 - k)


def apply_closed_form(op: OperatorKind, f: PiecewisePowerFunction, t: float) -> float:
    """Exact operator value at ``t > 0`` via closed-form moment integrals."""
    lo, hi, prefactor = _integration(op, f, t)
    integral = moment_integral(f, op.k, lo, hi) if lo < hi else 0.0
    return prefactor * integral - evaluate(f, t)


def _weighted_expression(s: float, piece: PowerPiece, weight: float) -> float:
    return piece.expression(s) * s ** weight


def apply_quadrature_oracle(
    op: OperatorKind, f: PiecewisePowerFunction, t: float, tol: float = 1e-10
) -> float:
    """Operator value recomputed by QUADPACK quadrature (``scipy.integrate.quad``).

    Piece boundaries inside the integration range are mandatory panel breaks.
    Each panel is integrated against the one piece containing its midpoint,
    so the integrand is smooth on every panel; gap panels contribute 0.
    ``tol`` bounds the absolute error of the returned value: every panel gets
    the absolute tolerance ``tol / (|prefactor| * panels)`` and no relative
    one.  Any QUADPACK warning raises QuadratureError.
    """
    from scipy.integrate import quad

    lo, hi, prefactor = _integration(op, f, t)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if lo >= hi or prefactor == 0.0:
        # an underflowed prefactor leaves no integral term to check
        return -evaluate(f, t)
    breaks = sorted(
        {lo, hi}
        | {b for pc in f.pieces for b in (pc.t_lo, pc.t_hi) if lo < b < hi}
    )
    panel_tol = tol / (abs(prefactor) * (len(breaks) - 1))
    integral = 0.0
    for a, b in zip(breaks, breaks[1:]):
        mid = 0.5 * (a + b)
        piece = next((pc for pc in f.pieces if pc.contains(mid)), None)
        if piece is None:
            continue
        value, _, _, *message = quad(
            _weighted_expression, a, b, args=(piece, op.k),
            epsabs=panel_tol, epsrel=0.0, full_output=1,
        )
        if message:
            raise QuadratureError(
                f"QUADPACK failed on [{a}, {b}]: {message[0]}"
            )
        integral += value
    return prefactor * integral - evaluate(f, t)


# --- structural superlevel sets -------------------------------------------
#
# A region is a maximal interval on which Tf is a single closed-form
# expression C + A * t**q, so it is a PowerPiece(lo, hi, C, A, q), with
# hi = inf for the forward tail; here q = -1 - k for the kernel exponent k.
# One walker sweeps the pieces of f in the direction the operator integrates
# (ascending from 0 forward, descending from the top of the support for the
# adjoint) and carries the mass of f(s) s**k swept so far:
#   * gaps, the forward tail and the adjoint head carry that mass: A * t**q;
#   * inside a piece c0 + c1*t**p, extending the piece expression to a global
#     power function leaves A * t**q plus the eigen-image of the expression.
# Pieces whose eigen-image keeps a second non-constant power term (possible
# only when p differs from the operator's kernel exponent and from 0) do not
# reduce to two terms and are rejected.  A crossing of the level +-thr is the
# interior root of the region shifted by that level, from the same
# piecewise._interior_root that splits pieces for l1_norm.


def _negligible(coeff: float, q: float, lo: float, hi: float, scale: float) -> bool:
    if coeff == 0.0:
        return True
    hi_eff = hi if math.isfinite(hi) else 2.0 * max(lo, 1.0)
    mag = max(abs(coeff) * lo ** q if lo > 0.0 else 0.0, abs(coeff) * hi_eff ** q)
    return mag <= 1e-11 * scale


def _piece_primitive(pc: PowerPiece, weight: float, t: float) -> float:
    """Antiderivative of the piece expression times s**weight, at t.

    It vanishes at 0 for the forward weight and at infinity for the adjoint
    one, so it is the expression's mass over (0, t] forward and minus its
    mass over [t, inf) for the adjoint.
    """
    e0 = weight + 1.0
    total = 0.0
    if pc.c0 != 0.0:
        total += pc.c0 * t ** e0 / e0
    if pc.c1 != 0.0:
        e1 = pc.p + e0
        total += pc.c1 * t ** e1 / e1
    return total


def _regions(op: OperatorKind, f: PiecewisePowerFunction) -> list[PowerPiece]:
    m = op.m
    forward = op.kind is Kind.LAMBDA
    k = op.k
    q = -1.0 - k
    sign = 1.0 if forward else -1.0
    lam0 = eigenvalue(op, 0.0)
    regions: list[PowerPiece] = []
    mass = 0.0  # integral of f(s) s**k between the sweep's start and position
    position = 0.0 if forward else f.support()[1]
    for pc in f.pieces if forward else reversed(f.pieces):
        near, far = (pc.t_lo, pc.t_hi) if forward else (pc.t_hi, pc.t_lo)
        if near != position:
            lo, hi = (position, near) if forward else (near, position)
            regions.append(PowerPiece(lo, hi, 0.0, (1.0 + m) * mass, q))
        if not sign * (pc.p - q) > 1e-12:
            raise ValueError(
                f"piece exponent {pc.p} is not "
                f"{'' if forward else 'tail-'}integrable against the weight"
            )
        # A * t**q is the swept mass less what the extended piece expression
        # would have put between the sweep's start and the piece
        coeff = (1.0 + m) * (mass - sign * _piece_primitive(pc, k, near))
        const = pc.c0 * lam0
        pow_coeff = pc.c1 * eigenvalue(op, pc.p)
        if pc.p == 0.0:
            const += pow_coeff
            pow_coeff = 0.0
        scale = max(1.0, abs(const))
        if _negligible(pow_coeff, pc.p, pc.t_lo, pc.t_hi, scale):
            regions.append(PowerPiece(pc.t_lo, pc.t_hi, const, coeff, q))
        elif _negligible(coeff, q, pc.t_lo, pc.t_hi, scale):
            regions.append(PowerPiece(pc.t_lo, pc.t_hi, const, pow_coeff, pc.p))
        else:
            raise ValueError(
                "piece does not reduce to a two-term power expression under "
                f"the {'forward' if forward else 'adjoint'} operator "
                f"(p={pc.p}, m={m})"
            )
        mass += _piece_moment(pc, k, pc.t_lo, pc.t_hi)
        position = far
    end = math.inf if forward else 0.0
    if position != end:
        lo, hi = (position, end) if forward else (end, position)
        regions.append(PowerPiece(lo, hi, 0.0, (1.0 + m) * mass, q))
    return regions if forward else regions[::-1]


def _region_intervals(
    region: PowerPiece, thr: float
) -> list[tuple[float, float, bool, bool]]:
    """Intervals of {|c0 + c1 t**p| >= thr} in (t_lo, t_hi).

    Returns (u, v, u_is_crossing, v_is_crossing); endpoints that are region
    boundaries are not crossings.
    """
    slack = THRESHOLD_SLACK * thr
    crossings: list[float] = []
    for target in (thr, -thr):
        # A crossing of target needs the power term to bridge the gap
        # between the constant and the target; a region without one, or
        # with a sub-slack gap (a plateau sitting on the threshold), has
        # no crossing.
        if region.c1 == 0.0 or abs(target - region.c0) <= slack:
            continue
        shifted = PowerPiece(
            region.t_lo, region.t_hi, region.c0 - target, region.c1, region.p
        )
        root = _interior_root(shifted)
        if root is not None:
            crossings.append(root)
    crossings.sort()
    points = [region.t_lo] + crossings + [region.t_hi]
    out: list[tuple[float, float, bool, bool]] = []
    for i, (u, v) in enumerate(zip(points, points[1:])):
        if math.isfinite(v):
            mid = math.sqrt(u * v) if u > 0.0 else 0.5 * v
        else:
            mid = 2.0 * u if u > 0.0 else 1.0
        if abs(region.expression(mid)) >= thr - slack:
            if not math.isfinite(v):
                raise ValueError("superlevel set is unbounded")
            out.append((u, v, 0 < i, i < len(points) - 2))
    return out


def _certify_crossing(
    op: OperatorKind,
    f: PiecewisePowerFunction,
    region: PowerPiece,
    t_cross: float,
    thr: float,
) -> None:
    """Locate the root of |Tf| - thr (via the quadrature oracle) near a crossing.

    The bracket of +-1e-3 * t_cross is shrunk to lie strictly inside the
    crossing's region: Tf jumps where f does, so a bracket reaching across a
    region boundary can miss the sign change.
    """
    from scipy.optimize import brentq

    def residual(t: float) -> float:
        return abs(apply_quadrature_oracle(op, f, t, tol=1e-12)) - thr

    delta = 1e-3 * t_cross
    lo = max(t_cross - delta, 0.5 * (region.t_lo + t_cross))
    hi = min(t_cross + delta, 0.5 * (t_cross + region.t_hi))
    try:
        certified = brentq(residual, lo, hi, xtol=1e-10 * t_cross)
    except ValueError as exc:
        raise RuntimeError(
            f"oracle does not bracket the crossing at t={t_cross}"
        ) from exc
    if abs(certified - t_cross) > CERTIFY_TOL * max(1.0, t_cross):
        raise RuntimeError(
            f"closed-form crossing {t_cross} disagrees with oracle "
            f"root {certified}"
        )


def superlevel_measure(
    op: OperatorKind,
    f: PiecewisePowerFunction,
    threshold: float = 1.0,
    certify: bool = True,
) -> SuperlevelResult:
    """Measure of {t : |Tf(t)| >= threshold} with its interval decomposition.

    Crossing endpoints are certified against the quadrature oracle unless
    ``certify`` is False.  Adjacent intervals meeting at region boundaries
    are merged.
    """
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if not f.pieces:
        return SuperlevelResult(0.0, ())
    raw: list[tuple[float, float]] = []
    for region in _regions(op, f):
        for u, v, u_cross, v_cross in _region_intervals(region, threshold):
            if certify and u_cross:
                _certify_crossing(op, f, region, u, threshold)
            if certify and v_cross:
                _certify_crossing(op, f, region, v, threshold)
            raw.append((u, v))
    raw.sort()
    merged: list[list[float]] = []
    for u, v in raw:
        if merged and u - merged[-1][1] <= 1e-12 * max(1.0, u):
            merged[-1][1] = v
        else:
            merged.append([u, v])
    intervals = tuple((u, v) for u, v in merged)
    measure = sum(v - u for u, v in intervals)
    return SuperlevelResult(measure, intervals)


def eigen_check(
    op: OperatorKind, alpha: float, t_samples: list[float]
) -> float:
    """Max deviation |T(t**alpha)(t) - lam * t**alpha| over the samples.

    t**alpha is cut off at twice the largest sample.  The forward operator
    integrates only below t, so the cut-off changes nothing there; the
    adjoint integrates up to infinity, so the exact mass past the cut-off,
    (1+2k)/(1+alpha+k) * t**(-1-k) * cut**(1+alpha+k), is added back.
    """
    if not t_samples:
        raise ValueError("need at least one sample point")
    if min(t_samples) <= 0.0:
        raise ValueError("sample points must be positive")
    lam = eigenvalue(op, alpha)
    k, cut = op.k, 2.0 * max(t_samples)
    f = PiecewisePowerFunction((PowerPiece(0.0, cut, 0.0, 1.0, alpha),))
    tail = 0.0  # the mass past the cut-off over t**(-1-k)
    if op.kind is Kind.LAMBDA_STAR:
        tail = (1.0 + 2.0 * k) / (1.0 + alpha + k) * cut ** (1.0 + alpha + k)
    worst = 0.0
    for t in t_samples:
        value = apply_closed_form(op, f, t) + tail * t ** (-1.0 - k)
        worst = max(worst, abs(value - lam * t ** alpha))
    return worst
