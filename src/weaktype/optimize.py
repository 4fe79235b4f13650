"""Maximization, root finding, the optimal curves, duality, and uniform bounds.

This module searches the closed forms of ``functionals``; ``curve_supremum``
and ``UNIFORM_BOUND_CONSTANTS`` are the one home of their values.

All searches are deterministic: a fixed feasibility-mapped grid feeds a
Nelder-Mead refinement (reflection 1, expansion 2, contraction 0.5, shrink
0.5, clipped to the feasible closure), one-dimensional scans feed
golden-section refinement, and every root is found by bisection on an
analytically sign-certified bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import bisect, minimize

from . import families, functionals
from .families import FSpecParams
from .functionals import LOG_2, LOG_32, W, W_star
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


def _scan_then_refine(fn, lo: float, hi: float, samples: int) -> tuple[float, float]:
    """Scan fn at ``samples`` evenly spaced points of [lo, hi], then refine the
    first maximum by golden section between its two neighbours."""
    grid = np.linspace(lo, hi, samples)
    index = int(np.argmax([fn(x) for x in grid]))
    return _golden_max(fn, grid[max(0, index - 1)], grid[min(samples - 1, index + 1)])


class ConvergenceError(RuntimeError):
    """An optimizer stopped without meeting its convergence criteria."""


def _feasibility_map(m: int, u, v):
    """(b, d) at the unit-square point (u, v), as scalars or broadcast arrays."""
    lo_b, hi_b = families.b_min(m), families.b_max(m)
    b = lo_b + u * (hi_b - lo_b) * (1.0 - 1e-9)
    d_lo, d_hi = families.d_min(b, m), families.d_max(b, m)
    return b, d_lo + v * (d_hi - d_lo)


def _grid_values(m: int, ticks: np.ndarray) -> np.ndarray:
    """W over the feasibility-mapped grid ticks x ticks, one array evaluation.

    Row i holds b at ticks[i] of the b-range, column j holds d at ticks[j] of
    [d_min(b), d_max(b)].  A cell whose denominator is nonpositive or not
    finite reads -inf.
    """
    b, d = _feasibility_map(m, ticks[:, None], ticks)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denominator = functionals.w_denominator(b, d, m)
        feasible = np.isfinite(denominator) & (denominator > 0.0)
        return np.where(feasible, (d - 1.0) / denominator, -math.inf)


def maximize_W(m: int) -> OptimumRecord:
    """64 x 64 grid over the feasible region mapped to the unit square, then
    Nelder-Mead.

    The grid is evaluated as one array; ties on it break toward smaller b,
    then smaller d, and the winning cell is evaluated again by scalar W.  The
    refinement objective clips (u, v) to the unit square, so the search never
    leaves the closure of the feasible region.  ``evaluations`` counts every
    grid cell and every Nelder-Mead evaluation.  Deterministic for fixed
    inputs; raises ConvergenceError when Nelder-Mead does not converge.
    """
    _check_m(m)

    def bd_of(u: float, v: float) -> tuple[float, float]:
        return _feasibility_map(m, min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0))

    def value(u: float, v: float) -> float:
        b, d = bd_of(u, v)
        try:
            return W(b, d, m)
        except functionals.DenominatorError:
            return -math.inf

    ticks = np.linspace(0.0, 1.0, 64)
    row, col = np.unravel_index(
        int(np.argmax(_grid_values(m, ticks))), (ticks.size, ticks.size)
    )
    # numpy's array pow may differ from libm's in the last bit, so the
    # fallback below compares against the scalar value of the winning cell
    best = (value(ticks[row], ticks[col]), ticks[row], ticks[col])

    result = minimize(
        lambda uv: -value(uv[0], uv[1]),
        x0=np.array([best[1], best[2]]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 2000},
    )
    if not result.success:
        raise ConvergenceError(
            f"Nelder-Mead did not converge for m={m}: {result.message}"
        )
    evaluations = ticks.size ** 2 + result.nfev
    u_best, v_best = result.x
    b, d = bd_of(u_best, v_best)
    final = W(b, d, m)
    if final < best[0]:
        b, d = bd_of(best[1], best[2])
        final = W(b, d, m)
    return OptimumRecord(m, b, d, final, evaluations)


def _d_opt(b: float, k: float) -> float:
    """The optimal-curve coordinate at b for kernel exponent k.

    The range check is closed, with a 1e-12 relative allowance, at the end
    of the b-range nearer to 1 and open at the far end.
    """
    s = families._orientation(k)
    near, far = families._b_near(k), families._b_far(k)
    if not (s * b >= s * near * (1.0 - s * 1e-12) and s * b < s * far):
        raise ValueError(
            f"b must lie between {near} (closed) and {far} (open), got {b}"
        )
    coeff = 2.0 * b ** (-k) - 1.0
    rhs = -k * coeff * b ** (1.0 + k) + 2.0 * (1.0 + k) * families._t_0(b, k)
    return (rhs / ((1.0 + 2.0 * k) * coeff)) ** (1.0 / (1.0 + k))


def d_opt(b: float, m: int) -> float:
    """The d-coordinate of the forward optimal curve at b in [b_min, b_max).

    Explicit solution of the stationarity equation of the restricted ratio in
    b at fixed d; always lies in [d_min(b), d_max(b)].
    """
    return _d_opt(b, _forward_k(m))


def _curve_scan_end(m: int) -> float:
    """Right end of the forward curve scan; for m >= 2 the curve leaves the
    feasible closure at b_max itself, so the scan stops just inside it."""
    return families.B_SP if m == 1 else families.b_max(m) * (1.0 - 1e-9)


def d_star_opt(b_star: float, m: int) -> float:
    """The d*-coordinate of the adjoint optimal curve at b* in (b*_min, b*_max].

    For m = 1 and b* below the adjoint split point the value drops below
    d*_min(b*); the defining equation is unchanged.
    """
    return _d_opt(b_star, _adjoint_k(m))


def duality_map(b: float, m: int) -> DualityRecord:
    """b* = t_0(b)/d_opt(b) and the residuals of the three duality identities.

    Here t_0 is d_min and t_0* is d_star_max.  The identities:
    t_0*(b*) = b/d_opt(b), d*_opt(b*) = 1/d_opt(b), and the adjoint ratio on
    its optimal curve at b* equals the forward ratio on its optimal curve at b.
    """
    d_at = _d_opt(b, _forward_k(m))
    b_star = families.d_min(b, m) / d_at
    t0_star_residual = abs(families.d_star_max(b_star, m) - b / d_at)
    d_star_at = _d_opt(b_star, _adjoint_k(m))
    d_star_opt_residual = abs(d_star_at - 1.0 / d_at)
    w_residual = abs(W_star(b_star, d_star_at, m) - W(b, d_at, m))
    return DualityRecord(
        b, m, b_star, t0_star_residual, d_star_opt_residual, w_residual
    )


def maximize_on_curve(m: int) -> OptimumRecord:
    """Scan b -> W(b, d_opt(b)) at 400 points up to the curve scan end, then
    golden-section."""
    k = _forward_k(m)
    evaluations = 0

    def value(b: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return W(b, _d_opt(b, k), m)

    b_best, best = _scan_then_refine(
        value, families.b_min(m), _curve_scan_end(m), 400
    )
    return OptimumRecord(m, b_best, _d_opt(b_best, k), best, evaluations)


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
    rays (ray_check_ok).
    """

    resolution: int
    curve_supremum: float
    max_violation: float
    worst_point: tuple[float, float, float]
    ray_check_ok: bool
    x_cap: float
    y_cap: float


def push_check(grid_resolution: int) -> PushCheckRecord:
    """Max over the grid x <= 3, y <= 5 of (general asymptotic ratio - curve supremum).

    A nonpositive result (up to grid tolerance) means no admissible (x, y, z)
    beats the curve supremum.  Each x is one (y, z) slab; the first maximum
    in (x, y, z) order wins ties.
    """
    if grid_resolution < 16:
        raise ValueError(f"resolution must be at least 16, got {grid_resolution}")
    supremum = curve_supremum()
    ratio = functionals._asymptotic_ratio
    x_cap, y_cap = 3.0, 5.0
    worst = -math.inf
    worst_point = (0.0, 0.0, 0.0)
    xs = np.linspace(1e-6, x_cap, grid_resolution)
    ys = np.linspace(1e-6, y_cap, grid_resolution)
    for x in xs:
        z_lo = 2.0 * (2.0 - math.exp(x))
        zs = np.linspace(z_lo, 2.0 - 1e-9, grid_resolution)
        ratios = ratio(x, ys[:, None], zs)
        row, col = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
        if ratios[row, col] > worst:
            worst = float(ratios[row, col])
            worst_point = (float(x), float(ys[row]), float(zs[col]))
    ray_ok = True
    for scale_a, scale_b in ((1.0, 1.5), (1.5, 2.0), (2.0, 3.0)):
        for z in (0.5, 1.0, 1.9):
            a = ratio(x_cap * scale_a, y_cap * scale_a, np.array([z]))[0]
            b = ratio(x_cap * scale_b, y_cap * scale_b, np.array([z]))[0]
            if b > a:
                ray_ok = False
    return PushCheckRecord(
        grid_resolution, supremum, worst - supremum, worst_point, ray_ok,
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


def _aux_y_branch(y: float) -> float:
    return (y + math.log(2.0 * math.exp(y) - 2.0)) / (-y + 2.0 * (math.exp(y) - 1.0))


def _aux_diagonal(x: float) -> float:
    return x / (4.0 * math.exp(x) - math.exp(2.0 * x) - x - 3.0)


def _aux_curve_branch(x: float) -> float:
    ex = math.exp(x)
    return (2.0 * x - math.log(2.0 - ex) + math.log(2.0 * ex - 2.0)) / (
        2.0 * ex - 2.0 * x - 2.0 * LOG_2 - math.log(2.0 - ex)
    )


def _aux_z_edge(z: float) -> float:
    return (2.0 * LOG_32 + math.log(2.0 / z)) / (
        4.0 - 2.0 * LOG_32 - math.log(2.0 / z) - z
    )


def _aux_low_x_branch(x: float) -> float:
    """Second branch paired with the y-branch bound; shares its 1.1 ceiling."""
    ex = math.exp(x)
    return (2.0 * x + LOG_2 + math.log(4.0 * (2.0 - ex) * ex - 2.0)) / (
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

    Each is scanned at 2000 points and refined by golden section; the
    reported suprema respect the declared bounds 1.1, 1.18, 1.3, 1.1, 1.1, with
    the diagonal supremum equal to ln(3/2) / (3/4 - ln(3/2)) attained at the
    right endpoint.
    """
    out = []
    for name, fn, lo, hi, bound in _AUX_SPECS:
        argmax, supremum = _scan_then_refine(fn, lo, hi, 2000)
        out.append(AuxSupremumRecord(name, lo, hi, argmax, supremum, bound))
    return out

