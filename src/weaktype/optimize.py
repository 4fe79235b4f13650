"""Maximization, root finding, the optimal curves, duality, and uniform bounds.

This module searches the closed forms of ``functionals``; ``curve_supremum``
and ``UNIFORM_BOUND_CONSTANTS`` are the one home of their values.

All searches are deterministic.  A fixed feasibility-mapped grid feeds
``_nelder_mead``, scipy's Nelder-Mead on two coordinates repeated step for
step in Python floats: initial simplex x0 with each coordinate in turn times
1.05 (0.00025 where it is 0), reflection 1, expansion 2, contraction 0.5,
shrink 0.5, clipped to the feasible closure, xatol = fatol = 1e-10, at most
2000 iterations and, as in scipy given only maxiter, no cap on evaluations.
One-dimensional scans feed golden-section refinement, and every root is found
by bisection on an analytically sign-certified bracket.

Every objective point, and each side of ``duality_map``, raises b to the
power -k once: ``families._coefficient`` gives x = 2 b^(-k) - 1, and t_0,
d_max, the optimal curve and the L1 denominator are built from that x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from scipy.optimize import bisect

from . import families, functionals
from .families import FSpecParams
from .functionals import LOG_2, LOG_32, W
from .operators import _adjoint_k, _check_m, _forward_k

__all__ = [
    "ConvergenceError",
    "OptimumRecord",
    "DualityRecord",
    "UniformBoundConstants",
    "UniformBoundRecord",
    "AuxSupremumRecord",
    "PushCheckRecord",
    "UNIFORM_BOUND_CONSTANTS",
    "maximize_W",
    "d_opt",
    "d_star_opt",
    "duality_map",
    "maximize_on_curve",
    "x_infinity",
    "curve_supremum",
    "u0",
    "bound_poly",
    "bound_134",
    "push_check",
    "aux_suprema",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Largest m the searches accept: beyond it maximize_W drifts above the m -> inf
# limit curve_supremum() and maximize_on_curve's scan leaves the b-range.
_M_MAX = 1_000_000
_NM_TOL, _NM_MAX_ITERATIONS = 1e-10, 2000  # scipy's xatol = fatol, maxiter

# 2 e^{-1/2} - 1: the limiting coefficient 2 b^{-m/2} - 1 at b = e^{1/m}.
_THETA = 2.0 * math.exp(-0.5) - 1.0


@dataclass(frozen=True)
class OptimumRecord:
    m: int
    b: float
    d: float
    value: float
    evaluations: int


@dataclass(frozen=True)
class DualityRecord:
    """Image of b under the duality map with the residuals of its three claims."""

    b: float
    m: int
    b_star: float
    t0_star_residual: float
    d_star_opt_residual: float
    w_residual: float


def _golden_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; handles endpoint maxima.

    Stops once the bracket is narrower than 1e-12 relative, or after 200 steps.
    """
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(200):
        if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
    candidates = [(fn(lo), lo), (fn(hi), hi), (f1, x1), (f2, x2)]
    best_value, best_x = max(candidates, key=lambda item: item[0])
    return best_x, best_value


def _scan_then_refine(fn, grid: np.ndarray, values) -> tuple[float, float]:
    """Refine the first maximum of ``values``, fn scanned on ``grid``, by golden
    section between its two neighbours.

    The bracket ends are grid points taken as Python floats, so every
    refinement evaluation runs on floats, not numpy scalars.
    """
    points = grid.tolist()
    index = int(np.argmax(values))
    return _golden_max(fn, points[max(0, index - 1)], points[min(len(points) - 1, index + 1)])


class ConvergenceError(RuntimeError):
    """An optimizer stopped without meeting its convergence criteria."""


def _nelder_mead(fn, u: float, v: float):
    """Minimize fn(u, v) from (u, v) by scipy's two-coordinate Nelder-Mead
    steps, in its operation order, on Python floats.

    Each vertex is (value, u, v), and the three stay sorted by value; ties
    keep their order, as numpy's sort of three vertices does.  fn must not
    return NaN.  Returns ((u, v), value, evaluations, failure) for the best
    vertex, failure being None on convergence and otherwise scipy's reason.
    """
    # the first vertex, then each coordinate in turn times 1.05 (0.00025 at 0)
    du, dv = (1.05 * c if c != 0 else 0.00025 for c in (u, v))
    (f0, u0, v0), (f1, u1, v1), (f2, u2, v2) = sorted(
        ((fn(u, v), u, v), (fn(du, v), du, v), (fn(u, dv), u, dv)), key=itemgetter(0))
    evaluations = 3
    for _ in range(1, _NM_MAX_ITERATIONS):
        if (abs(u1 - u0) <= _NM_TOL and abs(v1 - v0) <= _NM_TOL
                and abs(u2 - u0) <= _NM_TOL and abs(v2 - v0) <= _NM_TOL
                and abs(f0 - f1) <= _NM_TOL and abs(f0 - f2) <= _NM_TOL):
            return (u0, v0), f0, evaluations, None
        cu, cv = (u0 + u1) / 2.0, (v0 + v1) / 2.0  # centroid of all but the worst
        # reflection (1 + t) c - t w at t = 1, expansion at t = 2, contraction
        # at t = 0.5 outside and 0.5 c + 0.5 w inside
        ur, vr = 2.0 * cu - u2, 2.0 * cv - v2
        fr = fn(ur, vr)
        evaluations += 1
        if fr < f0:
            ue, ve = 3.0 * cu - 2.0 * u2, 3.0 * cv - 2.0 * v2
            fe = fn(ue, ve)
            evaluations += 1
            new = (fe, ue, ve) if fe < fr else (fr, ur, vr)
        elif fr < f1:
            new = (fr, ur, vr)
        else:
            if fr < f2:
                uc, vc = 1.5 * cu - 0.5 * u2, 1.5 * cv - 0.5 * v2
                fc = fn(uc, vc)
                accept = fc <= fr
            else:
                uc, vc = 0.5 * cu + 0.5 * u2, 0.5 * cv + 0.5 * v2
                fc = fn(uc, vc)
                accept = fc < f2
            evaluations += 1
            if accept:
                new = (fc, uc, vc)
            else:  # shrink halfway toward the best vertex
                u1, v1 = u0 + 0.5 * (u1 - u0), v0 + 0.5 * (v1 - v0)
                f1 = fn(u1, v1)
                u2, v2 = u0 + 0.5 * (u2 - u0), v0 + 0.5 * (v2 - v0)
                f2 = fn(u2, v2)
                evaluations += 2
                (f0, u0, v0), (f1, u1, v1), (f2, u2, v2) = sorted(
                    ((f0, u0, v0), (f1, u1, v1), (f2, u2, v2)), key=itemgetter(0))
                continue
        # the new vertex replaces the worst, stably: it goes ahead only of
        # vertices with strictly larger values
        if new[0] >= f1:
            f2, u2, v2 = new
        elif new[0] >= f0:
            (f1, u1, v1), (f2, u2, v2) = new, (f1, u1, v1)
        else:
            (f0, u0, v0), (f1, u1, v1), (f2, u2, v2) = new, (f0, u0, v0), (f1, u1, v1)
    return (u0, v0), f0, evaluations, "Maximum number of iterations has been exceeded."


def _search_k(m: int) -> float:
    """The forward kernel exponent of an m that the searches accept."""
    k = _forward_k(m)
    if m > _M_MAX:
        raise ValueError(f"m must be at most {_M_MAX}, got {m}")
    return k


def _feasibility_map(k: float):
    """The map (u, v) -> (b, d, W's L1 denominator at (b, d)), scalars or
    broadcast arrays, from the unit square onto the feasible region at kernel
    exponent k.  d_min(b), d_max(b) and the denominator share one power of b."""
    lo_b = families._b_near(k)
    width = families._b_far(k) - lo_b

    def to_bd(u, v):
        b = lo_b + u * width * (1.0 - 1e-9)
        x = families._coefficient(b, k)
        d_lo = families._t_0(x, k)
        d = d_lo + v * (families._d_far(x, k) - d_lo)
        return b, d, functionals._w_denominator(b, d, k, x, d_lo)

    return to_bd


def _grid_values(to_bd, ticks: np.ndarray) -> np.ndarray:
    """W over the grid ticks x ticks mapped by ``to_bd``, one array evaluation.

    Row i holds b at ticks[i] of the b-range, column j holds d at ticks[j] of
    [d_min(b), d_max(b)].  A cell whose denominator is nonpositive or not
    finite reads -inf.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, d, denominator = to_bd(ticks[:, None], ticks)
        feasible = np.isfinite(denominator) & (denominator > 0.0)
        return np.where(feasible, (d - 1.0) / denominator, -math.inf)


def _unit(t: float) -> float:
    """min(max(t, 0.0), 1.0), without the builtins' call cost."""
    return 0.0 if t < 0.0 else 1.0 if t > 1.0 else t


def _w_objective(to_bd):
    """maximize_W's Nelder-Mead objective: -W at ``to_bd`` of (u, v), each
    clipped to [0, 1], and +inf where W raises DenominatorError."""

    def objective(u: float, v: float) -> float:
        _, d, denominator = to_bd(_unit(u), _unit(v))
        return -((d - 1.0) / denominator) if denominator > 0.0 else math.inf

    return objective


def maximize_W(m: int) -> OptimumRecord:
    """64 x 64 grid over the feasible region mapped to the unit square, then a
    two-coordinate Nelder-Mead simplex.

    The grid is evaluated as one array; ties on it break toward smaller b,
    then smaller d, and the winning cell is the first simplex vertex.  The
    refinement, on Python floats, clips (u, v) to the unit square, so the
    search never leaves the closure of the feasible region, and never ends
    worse than that first vertex; each point costs one power of b, and the
    value is the best vertex's own.  ``evaluations`` counts every grid cell
    and every Nelder-Mead evaluation.
    Deterministic for fixed inputs; raises ConvergenceError when Nelder-Mead
    does not converge, and ValueError for m above 10**6.
    """
    k = _search_k(m)
    to_bd = _feasibility_map(k)
    ticks = np.linspace(0.0, 1.0, 64)
    row, col = np.unravel_index(
        int(np.argmax(_grid_values(to_bd, ticks))), (ticks.size, ticks.size)
    )
    (u_best, v_best), f_best, nfev, failure = _nelder_mead(
        _w_objective(to_bd), float(ticks[row]), float(ticks[col]))
    if failure is not None:
        raise ConvergenceError(f"Nelder-Mead did not converge for m={m}: {failure}")
    evaluations = ticks.size ** 2 + nfev
    b, d, _ = to_bd(_unit(u_best), _unit(v_best))
    return OptimumRecord(m, b, d, -f_best, evaluations)


def _curve_point(b, k: float):
    """(d_opt, x, t_0) at b, a float or an array, for kernel exponent k:
    the optimal-curve coordinate with the coefficient x = 2 b^(-k) - 1 and
    the sign change t_0 it is built from.  b is not range-checked."""
    x = families._coefficient(b, k)
    t_0 = families._t_0(x, k)
    rhs = -k * x * b ** (1.0 + k) + 2.0 * (1.0 + k) * t_0
    return (rhs / ((1.0 + 2.0 * k) * x)) ** (1.0 / (1.0 + k)), x, t_0


def _checked_curve_point(b, k: float):
    """``_curve_point(b, k)`` once b, a float or an array, lies in the b-range.

    The range check is closed, with a 1e-12 relative allowance, at the end
    of the b-range nearer to 1 and open at the far end.
    """
    s = families._orientation(k)
    near, far = families._b_near(k), families._b_far(k)
    inside = (s * b >= s * near * (1.0 - s * 1e-12)) & (s * b < s * far)
    if inside is not True and not np.all(inside):  # a scalar skips np.all
        raise ValueError(f"b must lie between {near} (closed) and {far} (open), "
                         f"got {np.extract(np.logical_not(inside), b)[0]}")
    return _curve_point(b, k)


def d_opt(b: float, m: int) -> float:
    """The d-coordinate of the forward optimal curve at b in [b_min, b_max).

    Explicit solution of the stationarity equation of the restricted ratio in
    b at fixed d; always lies in [d_min(b), d_max(b)].
    """
    return _checked_curve_point(b, _forward_k(m))[0]


def _curve_scan_end(m: int) -> float:
    """Right end of the forward curve scan; for m >= 2 the curve leaves the
    feasible closure at b_max itself, so the scan stops just inside it."""
    return families.B_SP if m == 1 else families.b_max(m) * (1.0 - 1e-9)


def d_star_opt(b_star: float, m: int) -> float:
    """The d*-coordinate of the adjoint optimal curve at b* in (b*_min, b*_max].

    For m = 1 and b* below the adjoint split point the value drops below
    d*_min(b*); the defining equation is unchanged.
    """
    return _checked_curve_point(b_star, _adjoint_k(m))[0]


def duality_map(b: float, m: int) -> DualityRecord:
    """b* = t_0(b)/d_opt(b) and the residuals of the three duality identities.

    Here t_0 is d_min and t_0* is d_star_max.  The identities:
    t_0*(b*) = b/d_opt(b), d*_opt(b*) = 1/d_opt(b), and the adjoint ratio on
    its optimal curve at b* equals the forward ratio on its optimal curve at b.
    """
    k, k_star = _forward_k(m), _adjoint_k(m)
    d_at, x, t_0 = _checked_curve_point(b, k)
    b_star = t_0 / d_at
    d_star_at, x_star, t0_star = _checked_curve_point(b_star, k_star)
    t0_star_residual = abs(t0_star - b / d_at)
    d_star_opt_residual = abs(d_star_at - 1.0 / d_at)
    w_residual = abs(functionals._W_at(b_star, d_star_at, k_star, x_star, t0_star)
                     - functionals._W_at(b, d_at, k, x, t_0))
    return DualityRecord(
        b, m, b_star, t0_star_residual, d_star_opt_residual, w_residual
    )


def _w_on_curve(b: float, k: float) -> float:
    """maximize_on_curve's refinement objective, W(b, d_opt(b)) at kernel
    exponent k from one power of b; b is not range-checked."""
    d, x, t_0 = _curve_point(b, k)
    return functionals._W_at(b, d, k, x, t_0)


def maximize_on_curve(m: int) -> OptimumRecord:
    """Scan b -> W(b, d_opt(b)) at 400 points up to the curve scan end as one
    array, then golden-section on scalar W.  The first scan point with a
    nonpositive or NaN denominator raises DenominatorError; m above 10**6
    raises ValueError."""
    k = _search_k(m)
    grid = np.linspace(families.b_min(m), _curve_scan_end(m), 400)
    d, x, t_0 = _curve_point(grid, k)
    denominator = functionals._w_denominator(grid, d, k, x, t_0)
    if not (denominator > 0.0).all():  # scalar _W raises at the first such b
        i = int(np.argmin(denominator > 0.0))
        functionals._W(float(grid[i]), float(d[i]), k, float(denominator[i]))
    evaluations = grid.size

    def value(b: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return _w_on_curve(b, k)

    b_best, best = _scan_then_refine(value, grid, (d - 1.0) / denominator)
    return OptimumRecord(m, b_best, _curve_point(b_best, k)[0], best, evaluations)


def x_infinity(tol: float) -> float:
    """Root of e^x (1 - 2x) - (2 - e^x) ln(2(2 - e^x)) on [ln(3/2), ln 2).

    Bisection on an analytically sign-certified bracket [ln(3/2), ln 2 - 1e-12];
    h, the function above, is verified strictly decreasing on the bracket by
    sampled differences.  Bisection stops at bracket width min(tol, 1e-13),
    floored at 1e-15, so every tol >= 1e-13 gives the same root.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    def h(x: float) -> float:
        ex = math.exp(x)
        return ex * (1.0 - 2.0 * x) - (2.0 - ex) * math.log(2.0 * (2.0 - ex))

    lo, hi = LOG_32, LOG_2 - 1e-12
    samples = [h(x) for x in np.linspace(lo, hi, 64)]
    if any(b >= a for a, b in zip(samples, samples[1:])):
        raise RuntimeError("monotonicity check failed on the bracket")
    if not (samples[0] > 0.0 > samples[-1]):
        raise RuntimeError("bracket does not change sign")
    # bisect to at least 1e-13 bracket width even when asked for less
    return bisect(h, lo, hi, xtol=max(min(tol, 1e-13), 1e-15))


def curve_supremum() -> float:
    """The asymptotic curve supremum 1 / (e^{x_inf} - 1)."""
    return 1.0 / (math.exp(x_infinity(1e-13)) - 1.0)


# --- uniform lower bound machinery ---------------------------------------------

def u0(m: float) -> float:
    """Scaled log of the restricted sign change at b = e^{1/m}: m ln t_0(e^{1/m}, m)."""
    return 2.0 * math.log((2.0 + m) / (2.0 * (1.0 + m) * _THETA))


def bound_poly(m: float, quad_bound: float) -> float:
    """Quartic upper polynomial for the scaled denominator at (e^{1/m}, e^{3/m}).

    ``quad_bound`` bounds u0(m)^2 (1 + e^delta delta / 3) from above.
    """
    k = UNIFORM_BOUND_CONSTANTS.growth
    el = UNIFORM_BOUND_CONSTANTS.log_shift
    return (
        (2.0 * k + 2.0 * el - 10.0) * m ** 4
        + (10.0 * k + 6.0 * el + 2.0 * quad_bound - 45.0) * m ** 3
        + (23.0 * k + 4.0 * el + 6.0 * quad_bound - 87.0) * m ** 2
        + (24.0 * k + 4.0 * quad_bound - 96.0) * m
        + (9.0 * k - 36.0)
    )


def rational_lower_bound(m: float) -> float:
    """6 m (m+1) (m+3/2) (m+2) / bound_poly(m, 3.3)."""
    return 6.0 * m * (m + 1.0) * (m + 1.5) * (m + 2.0) / bound_poly(m, 3.3)


@dataclass(frozen=True)
class UniformBoundConstants:
    """The constants behind the uniform lower bound 1.34."""

    theta: float
    growth: float  # 4 theta e^{3/2}
    log_shift: float  # -4 ln(2 theta)


UNIFORM_BOUND_CONSTANTS = UniformBoundConstants(
    theta=_THETA,
    growth=4.0 * _THETA * math.exp(1.5),
    log_shift=-4.0 * math.log(2.0 * _THETA),
)


@dataclass(frozen=True)
class UniformBoundRecord:
    m: int
    pair_feasible: bool
    w_value: float
    u0: float
    rational_bound: float | None


def bound_134(m_values) -> list[UniformBoundRecord]:
    """Per-m report of the uniform lower bound at (b, d) = (e^{1/m}, e^{3/m}).

    For m <= 3 the exponential pair can violate the feasibility constraints,
    so the curve optimum stands in for the direct evaluation.  From m = 25 on
    the rational lower bound with quad_bound 3.3 is also reported.
    """
    out = []
    for m in m_values:
        _check_m(m)
        feasible = True
        try:
            FSpecParams(m, math.exp(1.0 / m), math.exp(3.0 / m))
        except families.ConstraintViolation:
            feasible = False
        if m <= 3:
            w_value = maximize_on_curve(m).value
        else:
            w_value = W(math.exp(1.0 / m), math.exp(3.0 / m), m)
        rational = rational_lower_bound(m) if m >= 25 else None
        out.append(UniformBoundRecord(m, feasible, w_value, u0(m), rational))
    return out


# --- push property of the asymptotic program -------------------------------------

@dataclass(frozen=True)
class PushCheckRecord:
    """Grid search for asymptotic ratios beating the curve supremum.

    The grid is capped at x <= 3 and y <= 5 (recorded as x_cap and y_cap);
    beyond the caps the ratio is checked to decrease along a sparse set of
    rays (ray_check_ok).  worst_point is the first maximum in (x, y, z)
    order.  A NaN ratio anywhere on the grid makes max_violation NaN, and a
    NaN at a ray end makes ray_check_ok False.
    """

    resolution: int
    curve_supremum: float
    max_violation: float
    worst_point: tuple[float, float, float]
    ray_check_ok: bool
    x_cap: float
    y_cap: float


# push_check's (x, z) planes peak at about 6 r^2 floats: 50 MB at r = 1024.
# They are row-major, as the z grid is once its column-major linspace (freed
# before the first plane) is copied.
_PUSH_MAX_RESOLUTION = 1024


def _first_max(planes) -> tuple[float, tuple[int, int, int]]:
    """Largest entry of (x, z) planes, one per y, and its (x, y, z) index.

    As ``np.argmax`` over the stacked (x, y, z) array: the first maximum in
    (x, y, z) order wins, and a NaN beats every number.  Each plane is read
    before the next is drawn, so the planes may share one buffer.
    """
    best, index = -math.inf, (0, 0, 0)
    for iy, plane in enumerate(planes):
        flat = int(np.argmax(plane))
        value = float(plane.flat[flat])
        ix, iz = divmod(flat, plane.shape[1])
        if math.isnan(value):
            better = not math.isnan(best) or ix < index[0]
        else:
            better = value > best or (value == best and ix < index[0])
        if better:
            best, index = value, (ix, iy, iz)
    return best, index


def push_check(grid_resolution: int) -> PushCheckRecord:
    """Max over the grid x <= 3, y <= 5 of (general asymptotic ratio - curve supremum).

    A nonpositive result (up to grid tolerance) means no admissible (x, y, z)
    beats the curve supremum.  Each x has its own z grid; the ratio is drawn
    one (x, z) plane per y from ``functionals._ratio_planes``, and the first
    maximum in (x, y, z) order wins ties.  The z grid is row-major, so every
    plane is, and ``_first_max`` reads each in place.
    """
    if not (isinstance(grid_resolution, int)
            and 16 <= grid_resolution <= _PUSH_MAX_RESOLUTION):  # bools are < 16
        raise ValueError(
            f"resolution must be an int in [16, {_PUSH_MAX_RESOLUTION}], "
            f"got {grid_resolution!r}"
        )
    supremum = curve_supremum()
    x_cap, y_cap = 3.0, 5.0
    xs = np.linspace(1e-6, x_cap, grid_resolution)
    ys = np.linspace(1e-6, y_cap, grid_resolution)
    z_lo = 2.0 * (2.0 - functionals._per_x(math.exp, xs))
    # row-major, so that every (x, z) plane is and argmax reads it in place
    zs = np.ascontiguousarray(np.linspace(z_lo, 2.0 - 1e-9, grid_resolution, axis=1))
    worst, (ix, iy, iz) = _first_max(functionals._ratio_planes(xs[:, None], zs, ys))
    ratio = functionals._asymptotic_ratio
    ray_zs = np.array([0.5, 1.0, 1.9])
    ray_ok = all(
        (ratio(x_cap * far, y_cap * far, ray_zs)
         <= ratio(x_cap * near, y_cap * near, ray_zs)).all()
        for near, far in ((1.0, 1.5), (1.5, 2.0), (2.0, 3.0))
    )
    return PushCheckRecord(
        grid_resolution, supremum, worst - supremum,
        (float(xs[ix]), float(ys[iy]), float(zs[ix, iz])), ray_ok,
        x_cap, y_cap,
    )


# --- auxiliary one-dimensional suprema -------------------------------------------

@dataclass(frozen=True)
class AuxSupremumRecord:
    name: str
    lo: float
    hi: float
    argmax: float
    supremum: float
    bound: float

    @property
    def within_bound(self) -> bool:
        return self.supremum <= self.bound


def _aux_y_branch(y, xp=math):
    return (y + xp.log(2.0 * xp.exp(y) - 2.0)) / (-y + 2.0 * (xp.exp(y) - 1.0))


def _aux_diagonal(x, xp=math):
    return x / (4.0 * xp.exp(x) - xp.exp(2.0 * x) - x - 3.0)


def _aux_curve_branch(x, xp=math):
    ex = xp.exp(x)
    return (2.0 * x - xp.log(2.0 - ex) + xp.log(2.0 * ex - 2.0)) / (
        2.0 * ex - 2.0 * x - 2.0 * LOG_2 - xp.log(2.0 - ex)
    )


def _aux_z_edge(z, xp=math):
    return (2.0 * LOG_32 + xp.log(2.0 / z)) / (
        4.0 - 2.0 * LOG_32 - xp.log(2.0 / z) - z
    )


def _aux_low_x_branch(x, xp=math):
    """Second branch paired with the y-branch bound; shares its 1.1 ceiling."""
    ex = xp.exp(x)
    return (2.0 * x + LOG_2 + xp.log(4.0 * (2.0 - ex) * ex - 2.0)) / (
        2.0 * ex - 2.0 * x - 2.0 - LOG_2 + 2.0 * (2.0 - ex) * (2.0 * ex - 1.0)
    )


_AUX_SPECS = (
    ("y-branch", _aux_y_branch, LOG_32, LOG_2, 1.1),
    ("diagonal", _aux_diagonal, 1e-9, LOG_32, 1.18),
    ("curve-branch", _aux_curve_branch, LOG_32, LOG_2 - 1e-9, 1.3),
    ("z-edge", _aux_z_edge, 1.0, 2.0, 1.1),
    ("low-x-branch", _aux_low_x_branch, 1e-9, LOG_32, 1.1),
)


def aux_suprema() -> list[AuxSupremumRecord]:
    """Maximize the five auxiliary one-variable ratios over their intervals.

    Each is scanned at 2000 points as one numpy array and refined by golden
    section on Python floats with the ``math`` module.  The scan only picks
    the bracket; the reported argmax and supremum come from the refinement,
    so they do not depend on numpy's vectorized exp and log, whose last bit
    can vary with the numpy build and the CPU.  The reported suprema respect
    the declared bounds 1.1, 1.18, 1.3, 1.1, 1.1, with the diagonal supremum
    equal to ln(3/2) / (3/4 - ln(3/2)) attained at the right endpoint.
    """
    out = []
    for name, fn, lo, hi, bound in _AUX_SPECS:
        grid = np.linspace(lo, hi, 2000)
        argmax, supremum = _scan_then_refine(fn, grid, fn(grid, np))
        out.append(AuxSupremumRecord(name, lo, hi, argmax, supremum, bound))
    return out

