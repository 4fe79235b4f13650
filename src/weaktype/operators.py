"""The radial averaging-minus-identity operators and their independent oracle.

Both operators with parameter m act on f as

    T f(t) = (1+2k) * t**(-1-k) * integral_{s0}^t f(s) s**k ds  -  f(t)

with kernel exponent k = m/2 and s0 = 0 forward, and k = -1 - m/2 and
s0 = infinity for the adjoint, which is (1+m) * t**(m/2) * integral_t^inf
f(s) / s**(1+m/2) ds - f(t).  Both map t**alpha to (k - alpha) / (1 + alpha + k)
times itself wherever the integral converges.

Closed-form application uses the exact piecewise moment integrals.  The
independent oracle recomputes the same values by adaptive Gauss-Legendre
quadrature in u = ln s, one numpy batch over every (piece, t) panel, for t
a float or an array of them.  Superlevel sets are located structurally: on
every maximal region (piece, gap, or tail) the transformed function is a
two-term power expression, so each region is itself a ``PowerPiece``.  Its
threshold crossings are the interior roots (``piecewise._interior_root``) of
the region shifted by the threshold, and every genuine crossing is certified
by a sign change of the quadrature oracle inside its region.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

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

# Gauss-Legendre rules on [-1, 1] for the oracle's value (G20) and error
# estimate (G10), and the bisection rounds before a panel fails.
_G20 = np.polynomial.legendre.leggauss(20)
_G10 = np.polynomial.legendre.leggauss(10)
_NODES = np.concatenate([_G20[0], _G10[0]])
_MAX_ROUNDS = 30


class Kind(enum.Enum):
    LAMBDA = "lambda"
    LAMBDA_STAR = "lambda_star"


def _check_m(m: int) -> None:
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")


def _forward_k(m: int) -> float:
    """Kernel exponent m/2 of the forward operator; rejects a bad m."""
    _check_m(m)
    return m / 2.0


def _adjoint_k(m: int) -> float:
    """Kernel exponent -1 - m/2 of the adjoint operator; rejects a bad m."""
    _check_m(m)
    return -1.0 - m / 2.0


@dataclass(frozen=True)
class OperatorKind:
    """Which operator (forward or adjoint), its integer parameter m >= 1 and
    its kernel exponent k: m/2 forward, -1 - m/2 adjoint.  Construction
    checks m and fixes k, so reading k checks nothing again."""

    kind: Kind
    m: int
    k: float = field(init=False)

    def __post_init__(self) -> None:
        k = (_forward_k if self.kind is Kind.LAMBDA else _adjoint_k)(self.m)
        object.__setattr__(self, "k", k)


def lambda_op(m: int) -> OperatorKind:
    return OperatorKind(Kind.LAMBDA, m)


def lambda_star_op(m: int) -> OperatorKind:
    return OperatorKind(Kind.LAMBDA_STAR, m)


class QuadratureError(RuntimeError):
    """The oracle cannot meet its share of ``tol`` on the panel and t named:
    a term is not integrable at an end at 0 or infinity, the tail cut there
    leaves the float range, or bisection meets rounding or runs out of rounds.
    """


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
    m/2 is read off ``op.k``, exactly for every m up to 2**52.
    """
    half = op.k if op.kind is Kind.LAMBDA else -1.0 - op.k
    num, den = half - alpha, 1.0 + alpha + half
    if op.kind is Kind.LAMBDA:
        if alpha <= -1.0 - half:
            raise ValueError(f"alpha must exceed {-1 - half}, got {alpha}")
        return num / den
    if alpha >= half:
        raise ValueError(f"alpha must be below {half}, got {alpha}")
    return den / num


def apply_closed_form(op: OperatorKind, f: PiecewisePowerFunction, t: float) -> float:
    """Exact operator value at ``t > 0`` via closed-form moment integrals.

    Tf(t) = prefactor * integral_lo^hi f(s) s**k ds - f(t), where the
    prefactor is (1+2k) t**(-1-k) signed by the orientation of the integral
    (0 up to t, or infinity down to t), so it is positive.  Where t**(-1-k)
    overflows, it is carried into the moments (s = t u), so a finite value
    stays finite.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be positive, got {t}")
    k = op.k
    if op.kind is Kind.LAMBDA:
        lo, hi, sign = 0.0, t, 1.0
    else:
        lo, hi, sign = t, f.support()[1], -1.0
    # no piece meets (lo, hi): the integral is 0, and the prefactor, which
    # can overflow there, is not formed
    meeting = [pc for pc in f.pieces if pc.t_lo < hi and lo < pc.t_hi]
    if not meeting:
        return 0.0 - evaluate(f, t)
    try:
        scale = t ** (-1.0 - k)
    except OverflowError:
        # carry t^(-1-k) into the moments: s = t u maps the pieces that meet
        # (lo, hi) to c0 + c1 t^p u^p on (t_lo / t, t_hi / t]
        scaled = PiecewisePowerFunction(
            PowerPiece(pc.t_lo / t, pc.t_hi / t, pc.c0, pc.c1 * t ** pc.p, pc.p)
            for pc in meeting
        )
        integral = moment_integral(scaled, k, lo / t, hi / t)
        return sign * (1.0 + 2.0 * k) * integral - evaluate(f, t)
    prefactor = sign * (1.0 + 2.0 * k) * scale
    return prefactor * moment_integral(f, k, lo, hi) - evaluate(f, t)


@np.errstate(all="ignore")
def apply_quadrature_oracle(
    op: OperatorKind, f: PiecewisePowerFunction, t: float | np.ndarray,
    tol: float = 1e-10,
) -> float | np.ndarray:
    """Operator value recomputed by adaptive Gauss-Legendre quadrature.

    ``t`` is a float, which returns a float, or an array, which returns one
    of its shape.  Each (piece, t) panel is integrated in one numpy batch in
    u = ln s, where the integrand is c0 e^((k+1)u) + c1 e^((p+k+1)u), to its
    share ``tol / (|prefactor| * panels)`` of the absolute error.  An end at
    0 or infinity is cut where each power term's exact tail |c| s0**e / |e|
    is a quarter share.  G20 gets the other half, halved at each bisection,
    until |G20 - G10| fits; sums run per value, the same bits in any batch.
    """
    points = np.asarray(t, dtype=float)
    flat = points.ravel()
    bad = ~((flat > 0.0) & (flat < np.inf))
    if bad.any():
        raise ValueError(
            f"t must be positive, got {t if points.ndim == 0 else flat[bad.argmax()]}"
        )
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    pieces = [(pc.t_lo, pc.t_hi, pc.c0, pc.c1, pc.p) for pc in f.pieces]
    t_lo, t_hi, c0, c1, p = np.array(pieces, dtype=float).reshape(-1, 5).T
    col, forward = flat[:, None], op.kind is Kind.LAMBDA
    # apply_closed_form's range and prefactor on every t: (0, t) forward and
    # (t, inf) adjoint, which the pieces clip, and (1+2k) t**(-1-k) signed by
    # its orientation
    a = np.maximum(np.zeros_like(col) if forward else col, t_lo)
    b = np.minimum(col if forward else np.full_like(col, np.inf), t_hi)
    prefactor = (1.0 if forward else -1.0) * (1.0 + 2.0 * op.k) * flat ** (-1.0 - op.k)
    meets = a < b
    # where no piece meets the range the prefactor, which can overflow there,
    # is not used; an underflowed one leaves no integral term to check
    prefactor[~meets.any(axis=1)] = 0.0
    owner, piece = np.nonzero(meets & (prefactor != 0.0)[:, None])
    a, b = a[owner, piece], b[owner, piece]
    budget = tol / (np.abs(prefactor[owner]) * np.bincount(owner)[owner])
    coeffs = np.stack([c0[piece], c1[piece]])
    exps = op.k + 1.0 + np.stack([np.zeros_like(b), p[piece]])
    live, at0, atinf = coeffs != 0.0, a == 0.0, b == np.inf
    exps[~live] = 0.0  # a zero term stays zero however far out

    def fail(panel: int, why: str):
        raise QuadratureError(
            f"{why} at t={flat[owner[panel]]} on panel [{a[panel]}, {b[panel]}]"
        )

    ua, ub = np.log(a), np.log(b)
    if (at0 | atinf).any():
        bad = np.any(live & ((at0 & ~(exps > 0.0)) | (atinf & ~(exps < 0.0))), axis=0)
        if bad.any():
            fail(bad.argmax(), "a power term is not integrable at the panel end")
        # cut an end at 0 or infinity, not past the other; a zero term's is NaN
        cut = np.log(0.25 * budget * np.abs(exps / coeffs)) / exps
        ua = np.where(at0, np.fmin(ub, np.fmin.reduce(cut)), ua)
        ub = np.where(atinf, np.fmax(ua, np.fmax.reduce(cut)), ub)
        bad = (at0 & ~(np.exp(ua) > 0.0)) | (atinf & ~(np.exp(ub) < np.inf))
        if bad.any():
            fail(bad.argmax(), "the tail cut leaves the float range")
    src, mid, half = np.arange(a.size), 0.5 * (ua + ub), 0.5 * (ub - ua)
    share, integral = 0.5 * budget, np.zeros(flat.size)
    for _ in range(_MAX_ROUNDS):
        u = mid[:, None] + half[:, None] * _NODES
        terms = coeffs[:, src, None] * np.exp(exps[:, src, None] * u)
        values = terms.sum(axis=0)
        g20 = half * np.sum(values[:, :20] * _G20[1], axis=-1)
        g10 = half * np.sum(values[:, 20:] * _G10[1], axis=-1)
        error = np.abs(g20 - g10)
        done = error <= share
        integral += np.bincount(owner[src[done]], g20[done], flat.size)
        if done.all():
            break
        # bisection cannot help a NaN or an estimate already at rounding
        size = half * np.sum(abs(terms[..., :20]).sum(axis=0) * _G20[1], axis=-1)
        stuck = ~done & ~(error > np.finfo(float).eps * size)
        if stuck.any():
            fail(src[stuck.argmax()], "the estimate is at rounding, above its share")
        src, mid, share, half = src[~done], mid[~done], share[~done], 0.5 * half[~done]
        mid = np.concatenate([mid - half, mid + half])
        src, share, half = np.tile(src, 2), np.tile(0.5 * share, 2), np.tile(half, 2)
    else:
        fail(src[0], f"bisection does not converge in {_MAX_ROUNDS} rounds")
    result = prefactor * integral - np.array([evaluate(f, x) for x in flat.tolist()])
    return float(result[0]) if points.ndim == 0 else result.reshape(points.shape)


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
    """Check that |Tf| - thr on the quadrature oracle changes sign at a crossing.

    It takes t_cross -+ CERTIFY_TOL * max(1, t_cross) in one oracle call,
    each shrunk to lie strictly inside the region: Tf jumps where f does.  A
    sign change puts an oracle root that close to the closed-form crossing.
    """
    delta = CERTIFY_TOL * max(1.0, t_cross)
    lo = max(t_cross - delta, 0.5 * (region.t_lo + t_cross))
    hi = min(t_cross + delta, 0.5 * (t_cross + region.t_hi))
    residual = abs(apply_quadrature_oracle(op, f, np.array([lo, hi]), 1e-12)) - thr
    if not residual.min() <= 0.0 <= residual.max():
        raise RuntimeError(
            f"closed-form crossing {t_cross} disagrees with the oracle: "
            f"|Tf| - thr is {residual[0]} at {lo} and {residual[1]} at {hi}"
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
