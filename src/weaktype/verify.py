"""Named verification suites bundling the invariants of all modules.

Each suite runs deterministically under a caller-supplied seed and returns a
CheckReport; a report passes iff worst_residual <= tolerance.  Suites with a
single natural tolerance (eigen, plateau, plateau_adjoint, scaling, duality)
report raw residuals against it.  Composite suites mix magnitude checks
(contributing raw/required) with one-sided bound checks (contributing 0 when
satisfied, 1 + deficit when not) and declare a tolerance of 1.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import astuple, dataclass

import numpy as np

from . import families, functionals, operators, optimize
from .families import (
    FSpecParams,
    FStarSpecParams,
    GeneralFamilyParams,
    GeneralStarFamilyParams,
)
from .functionals import W, W_star, gill_bound
from .operators import _adjoint_k, _forward_k, lambda_op, lambda_star_op

__all__ = [
    "Status",
    "CheckReport",
    "SUITE_NAMES",
    "run_suite",
    "reports_to_json",
]


class Status(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"


@dataclass(frozen=True)
class CheckReport:
    name: str
    status: Status
    worst_residual: float
    tolerance: float
    seed: int
    details: tuple[tuple[str, float], ...]


class _Collector:
    """Accumulates normalized subresiduals and keeps the worst few."""

    def __init__(self) -> None:
        self.entries: list[tuple[str, float]] = []

    def metric(self, name: str, raw: float, required: float) -> None:
        self.entries.append((name, abs(raw) / required))

    def bound(self, name: str, ok: bool, deficit: float = 0.0) -> None:
        self.entries.append((name, 0.0 if ok else 1.0 + abs(deficit)))

    def truncation(self, name: str, value: float, reference: float) -> None:
        """A bound check: ``reference`` is ``value`` truncated to 3 decimals."""
        truncated = math.floor(value * 1000.0) / 1000.0
        self.bound(name, truncated == reference, truncated - reference)

    def report(self, name: str, seed: int, tolerance: float = 1.0) -> CheckReport:
        """Worst entry first; a NaN entry ranks above every number, so it fails."""
        ranked = sorted(self.entries, key=lambda e: (not math.isnan(e[1]), -e[1]))
        worst = ranked[0][1] if ranked else 0.0
        status = Status.PASS if worst <= tolerance else Status.FAIL
        return CheckReport(name, status, worst, tolerance, seed, tuple(ranked[:5]))


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _random_spec(rng: np.random.Generator, adjoint: bool = False):
    """A restricted-family point at fractions u, v in [0.02, 0.98] of the
    b-range and of the d-range at b; with ``adjoint``, a point (b*, d*).

    Both directions take one path in the kernel exponent k through the
    closed forms that b_min ... d_star_min wrap, with the ranges sorted
    because the adjoint ones run the other way."""
    m = int(rng.integers(1, 9))
    u = rng.uniform(0.02, 0.98)
    v = rng.uniform(0.02, 0.98)
    k = (_adjoint_k if adjoint else _forward_k)(m)
    lo, hi = sorted((families._b_near(k), families._b_far(k)))
    b = lo + u * (hi - lo)
    x = families._coefficient(b, k)
    lo, hi = sorted((families._t_0(x, k), families._d_far(x, k)))
    return (FStarSpecParams if adjoint else FSpecParams)(m, b, lo + v * (hi - lo))


# Uniform ranges of a, b/a, c/b (when c > b) and d/c for the general samplers.
_GENERAL_RANGES = {
    False: ((0.3, 3.0), (1.05, 2.0), (1.0, 2.0), (1.05, 2.5)),
    True: ((0.5, 3.0), (0.4, 0.95), (0.4, 0.99), (0.3, 0.9)),
}


def _random_general(rng: np.random.Generator, adjoint: bool = False):
    """A general family; with ``adjoint``, (a*, b*, c*, d*) in mirrored order.
    30% have c = b."""
    a_range, b_range, c_range, d_range = _GENERAL_RANGES[adjoint]
    m = int(rng.integers(1, 9))
    a = rng.uniform(*a_range)
    b = a * rng.uniform(*b_range)
    c = b if rng.uniform() < 0.3 else b * rng.uniform(*c_range)
    d = c * rng.uniform(*d_range)
    params = GeneralStarFamilyParams if adjoint else GeneralFamilyParams
    return params(m, a, b, c, d)


# --- suites ---------------------------------------------------------------------

def _suite_eigen(seed: int) -> CheckReport:
    collector = _Collector()
    for m in range(1, 9):
        # alpha comes within 0.5 of the integrability edge alpha = -1 - k
        for name, op, lo, hi in (
            ("forward", lambda_op(m), -1.0 - m / 2.0 + 0.5, 3.0),
            ("adjoint", lambda_star_op(m), -3.0, m / 2.0 - 0.5),
        ):
            for alpha in np.arange(lo, hi + 1e-9, 0.5):
                dev = operators.eigen_check(op, float(alpha), [0.5, 1.0, 2.0])
                collector.metric(f"{name} m={m} alpha={alpha}", dev, 1.0)
    return collector.report("eigen", seed, tolerance=1e-10)


def _suite_plateau(seed: int, adjoint: bool = False) -> CheckReport:
    """T f = +1 on (a, b) and -1 on (c, d) for general families; with
    ``adjoint``, the adjoint operator on (b*, a*) and (d*, c*)."""
    collector = _Collector()
    rng = _rng(seed, 2 if adjoint else 1)
    star = "*" if adjoint else ""
    make_op, build = (
        (lambda_star_op, families.build_general_star) if adjoint
        else (lambda_op, families.build_general)
    )
    for _ in range(40):
        params = _random_general(rng, adjoint)
        m, a, b, c, d = astuple(params)
        op, f = make_op(m), build(params)
        worst = 0.0
        for frac in np.linspace(0.02, 0.98, 20).tolist():
            for ends, level in (((a, b), 1.0), ((c, d), -1.0)):
                lo, hi = sorted(ends)
                t = lo + frac * (hi - lo)
                worst = max(worst, abs(operators.apply_closed_form(op, f, t) - level))
        collector.metric(
            f"m={m} a{star}={a:.3f} b{star}={b:.3f} c{star}={c:.3f} d{star}={d:.3f}",
            worst,
            1.0,
        )
    name = "plateau_adjoint" if adjoint else "plateau"
    return collector.report(name, seed, tolerance=1e-9)


def _suite_oracle(seed: int) -> CheckReport:
    collector = _Collector()
    rng = _rng(seed, 3)
    # closed form vs the Gauss-Legendre oracle, 50 sample points in one batch
    for _ in range(200):
        params = _random_spec(rng)
        f = families.build_spec(params)
        op = lambda_op(params.m)
        ts = rng.uniform(0.3, 1.5 * params.d, size=50)
        closed = [operators.apply_closed_form(op, f, float(t)) for t in ts]
        quad = operators.apply_quadrature_oracle(op, f, ts, tol=1e-10)
        worst = float(np.max(np.abs(np.subtract(closed, quad))))
        collector.metric(
            f"quadrature m={params.m} b={params.b:.3f} d={params.d:.3f}",
            worst,
            1e-8,
        )
    # closed-form ratio vs structural superlevel / exact L1, each direction
    for adjoint in (False, True):
        prefix, star = ("adjoint ", "*") if adjoint else ("", "")
        make_op, build, closed_ratio = (
            (lambda_star_op, families.build_star_spec, W_star) if adjoint
            else (lambda_op, families.build_spec, W)
        )
        for _ in range(300):
            params = _random_spec(rng, adjoint)
            m, b, d = astuple(params)
            op, f = make_op(m), build(params)
            label = f"m={m} b{star}={b:.3f} d{star}={d:.3f}"
            report = functionals.oracle_ratio(op, f)
            collector.metric(
                f"{prefix}ratio {label}", closed_ratio(b, d, m) - report.ratio, 1e-7
            )
            intervals = operators.superlevel_measure(op, f).intervals
            single = len(intervals) == 1 and all(
                abs(end - ref) <= 1e-9 * max(1.0, ref)
                for end, ref in zip(intervals[0], sorted((1.0, d)))
            )
            collector.bound(f"{prefix}single interval {label}", single)
    return collector.report("oracle", seed)


def _suite_scaling(seed: int) -> CheckReport:
    from .piecewise import dilate, l1_norm

    collector = _Collector()
    rng = _rng(seed, 4)
    for _ in range(30):
        params = _random_spec(rng)
        lam = float(rng.uniform(0.3, 3.0))
        threshold = float(rng.choice([0.7, 1.0]))
        f = families.build_spec(params)
        op = lambda_op(params.m)
        scaled = dilate(f, lam)
        base_measure = operators.superlevel_measure(op, f, threshold).measure
        scaled_measure = operators.superlevel_measure(op, scaled, threshold).measure
        collector.metric(
            f"superlevel m={params.m} lam={lam:.3f} thr={threshold}",
            (scaled_measure - lam * base_measure) / (lam * base_measure),
            1.0,
        )
        collector.metric(
            f"l1 m={params.m} lam={lam:.3f}",
            (l1_norm(scaled) - lam * l1_norm(f)) / (lam * l1_norm(f)),
            1.0,
        )
    return collector.report("scaling", seed, tolerance=1e-9)


def _increasing(values: np.ndarray) -> bool:
    return bool(np.all(values[:-1] < values[1:]))


def _suite_boundaries(seed: int) -> CheckReport:
    """Feasibility boundaries, the optimal curves and their sandwiches.

    Each bound check takes the boundary functions and d_opt/d*_opt on a whole
    array of b at once; every printed metric is a scalar evaluation.
    """
    from .piecewise import evaluate

    collector = _Collector()
    rng = _rng(seed, 5)
    for m in range(1, 21):
        lo, hi = families.b_min(m), families.b_max(m)
        bs = np.sort(lo + rng.uniform(0.01, 0.99, size=50) * (hi - lo))
        d_mins, d_maxs = families.d_min(bs, m), families.d_max(bs, m)
        collector.bound(f"d_min < d_max m={m}", bool(np.all(d_mins < d_maxs)))
        collector.bound(
            f"d_min, d_max increasing m={m}",
            _increasing(d_mins) and _increasing(d_maxs),
        )
        collector.metric(
            f"d_min(b_min) == b_min m={m}",
            families.d_min(lo, m) - lo,
            1e-9,
        )
        s_lo, s_hi = families.b_star_min(m), families.b_star_max(m)
        bss = np.sort(s_lo + rng.uniform(0.01, 0.99, size=50) * (s_hi - s_lo))
        collector.bound(
            f"d*_min, d*_max increasing m={m}",
            _increasing(families.d_star_min(bss, m))
            and _increasing(families.d_star_max(bss, m)),
        )
    collector.metric("b_min(1) == 1.5625", families.b_min(1) - 1.5625, 1e-12)
    collector.metric("b_max(1) == 4", families.b_max(1) - 4.0, 1e-12)
    collector.metric(
        "b*_min(1) == 2^(-2/3)", families.b_star_min(1) - 2.0 ** (-2.0 / 3.0), 1e-12
    )
    collector.metric(
        "b*_max(1) == (4/7)^(2/3)",
        families.b_star_max(1) - (4.0 / 7.0) ** (2.0 / 3.0),
        1e-12,
    )
    collector.metric("b*_sp value", families.B_STAR_SP - 0.63004, 1e-4)
    # sandwich and curve monotonicity
    for m in range(1, 11):
        lo, hi = families.b_min(m), families.b_max(m)
        bs = np.concatenate(
            ([lo], np.sort(lo + rng.uniform(0.0, 0.995, size=50) * (hi - lo)))
        )
        d_at = optimize.d_opt(bs, m)
        collector.bound(
            f"d_min <= d_opt <= d_max m={m}",
            bool(np.all((families.d_min(bs, m) - 1e-12 <= d_at)
                        & (d_at <= families.d_max(bs, m) + 1e-12))),
        )
        collector.bound(
            f"strict sandwich at b_min m={m}",
            families.d_min(lo, m) < optimize.d_opt(lo, m) < families.d_max(lo, m),
        )
        grid = np.linspace(lo, optimize._curve_scan_end(m), 40)
        d_opts = optimize.d_opt(grid, m)
        collector.bound(f"d_opt increasing m={m}", _increasing(d_opts))
        collector.bound(
            f"t_0/d_opt decreasing m={m}",
            _increasing(-families.d_min(grid, m) / d_opts),
        )
        s_lo, s_hi = families.b_star_min(m), families.b_star_max(m)
        star_lo = families.B_STAR_SP if m == 1 else s_lo + (s_hi - s_lo) * 1e-6
        b_stars = np.linspace(star_lo, s_hi, 40)
        ds_at = optimize.d_star_opt(b_stars, m)
        collector.bound(
            f"adjoint sandwich m={m}",
            bool(np.all((families.d_star_min(b_stars, m) - 1e-12 <= ds_at)
                        & (ds_at <= families.d_star_max(b_stars, m) + 1e-12))),
        )
    # adjoint limit at b*_min: the numerics side with 2^(2/m)
    for m in (1, 2, 3):
        b_star = families.b_star_min(m) * (1.0 + 1e-9)
        ratio = families.d_star_max(b_star, m) / optimize.d_star_opt(b_star, m)
        collector.metric(
            f"t_0*/d*_opt limit at b*_min m={m}",
            (ratio - 2.0 ** (2.0 / m)) / 2.0 ** (2.0 / m),
            1e-2,
        )
    # restricted family equals the general family at a=1, c=b
    for _ in range(10):
        params = _random_spec(rng)
        f_spec = families.build_spec(params)
        f_gen = families.build_general(
            GeneralFamilyParams(params.m, 1.0, params.b, params.b, params.d)
        )
        ts = rng.uniform(1.0 + 1e-9, params.d, size=100)
        worst = max(
            abs(evaluate(f_spec, float(t)) - evaluate(f_gen, float(t))) for t in ts
        )
        collector.metric(
            f"spec == general(a=1, c=b) m={params.m} b={params.b:.3f}",
            worst,
            1e-10,
        )
        # sign pattern: negative on (1, b); negative then positive around t_0
        t0 = families.d_min(params.b, params.m)
        spans = (
            (1.0 + 1e-6, params.b, -1.0),
            (params.b + 1e-9, t0 * (1 - 1e-9), -1.0),
            (t0 * (1 + 1e-9), params.d, 1.0),
        )
        pattern_ok = all(
            sign * evaluate(f_spec, t) > 0.0
            for lo_t, hi_t, sign in spans
            for t in np.linspace(lo_t, hi_t, 20).tolist()
        )
        collector.bound(f"sign pattern m={params.m} b={params.b:.3f}", pattern_ok)
    # curve bound auxiliary inequality
    ms = np.arange(1, 1001, dtype=float)
    left = (2.0 + ms) / ms * ((4.0 + 3.0 * ms) / (2.0 + 2.0 * ms)) ** (
        ms / (2.0 + ms)
    ) - (2.0 + ms) / ms
    right = ms / (2.0 + ms) * ((2.0 + 3.0 * ms) / (2.0 + 2.0 * ms)) ** (
        (2.0 + ms) / ms
    ) - ms / (2.0 + ms)
    collector.bound(
        "curve interval inequality m=1..1000",
        bool(np.all((left >= 0.5) & (0.5 >= right))),
    )
    return collector.report("boundaries", seed)


def _suite_duality(seed: int) -> CheckReport:
    collector = _Collector()
    rng = _rng(seed, 6)
    for m in range(1, 11):
        lo = families.b_min(m)
        hi = families.B_SP if m == 1 else families.b_max(m) * (1.0 - 1e-6)
        samples = np.concatenate(([lo, hi], lo + rng.uniform(0, 1, 48) * (hi - lo)))
        for b in samples:
            record = optimize.duality_map(float(b), m)
            worst = max(
                record.t0_star_residual,
                record.d_star_opt_residual,
                record.w_residual,
            )
            collector.metric(f"m={m} b={b:.4f}", worst, 1.0)
    return collector.report("duality", seed, tolerance=1e-8)


# The published table: b, d and W at the optimum, and the Gill bound, each
# truncated (not rounded) to 3 decimals.
_TABLE1 = {
    1: (2.157, 6.623, 1.383, 1.282),
    2: (1.566, 3.284, 1.375, 1.207),
    3: (1.374, 2.400, 1.373, 1.163),
    4: (1.279, 2.003, 1.371, 1.134),
}


def _suite_table1(seed: int) -> CheckReport:
    collector = _Collector()
    for m, (b_ref, d_ref, w_ref, gill_ref) in _TABLE1.items():
        record = optimize.maximize_W(m)
        collector.truncation(f"W optimum m={m}", record.value, w_ref)
        collector.truncation(f"b optimum m={m}", record.b, b_ref)
        collector.truncation(f"d optimum m={m}", record.d, d_ref)
        collector.truncation(f"gill m={m}", gill_bound(m), gill_ref)
    return collector.report("table1", seed)


def _suite_asymptotic(seed: int) -> CheckReport:
    collector = _Collector()
    x_inf = optimize.x_infinity(1e-10)
    collector.metric("x_infinity", x_inf - 0.54807758, 1e-7)
    sample = functionals.asymptotic_restricted(0.548, 1.164)
    collector.bound("sample value >= 1.37", sample >= 1.37, 1.37 - sample)
    supremum = optimize.curve_supremum()
    collector.bound("curve supremum >= 1.3699", supremum >= 1.3699)
    x, y = 0.548, 1.164
    m = 10 ** 4
    forward = W(math.exp(2.0 * x / m), math.exp(2.0 * (x + y) / m), m)
    collector.metric("finite-m consistency", forward - sample, 2e-3)
    adjoint = W_star(
        math.exp(-2.0 * x / (2.0 + m)), math.exp(-2.0 * (x + y) / (2.0 + m)), m
    )
    collector.metric("adjoint finite-m consistency", adjoint - sample, 2e-3)
    return collector.report("asymptotic", seed)


def _suite_bound134(seed: int) -> CheckReport:
    collector = _Collector()
    records = optimize.bound_134(range(1, 201))
    for record in records:
        if record.m >= 4:
            collector.bound(f"pair feasible m={record.m}", record.pair_feasible)
        if record.m >= 5:
            collector.bound(
                f"W >= 1.34 m={record.m}",
                record.w_value >= 1.34,
                1.34 - record.w_value,
            )
        if record.rational_bound is not None:
            collector.bound(
                f"rational bound m={record.m}",
                record.rational_bound >= 1.34,
                1.34 - record.rational_bound,
            )
    ms = np.arange(25, 10001, dtype=float)
    rational = optimize.rational_lower_bound(ms)
    collector.bound(
        "rational bound >= 1.34 for 25..10^4", bool((rational >= 1.34).all())
    )
    collector.bound("u0(25) <= 1.79", optimize.u0(25) <= 1.79)
    collector.bound("u0(25)/25 <= 0.072", optimize.u0(25) / 25.0 <= 0.072)
    ms_all = np.arange(1, 10001, dtype=float)
    for quad_bound in (0.0, 3.3, 10.0):
        values = optimize.bound_poly(ms_all, quad_bound)
        collector.bound(
            f"bound polynomial positive at {quad_bound}", bool((values > 0.0).all())
        )
    constants = optimize.UNIFORM_BOUND_CONSTANTS
    collector.truncation("theta", constants.theta, 0.213)
    collector.truncation("growth constant", constants.growth, 3.819)
    collector.truncation("log shift constant", constants.log_shift, 3.412)
    u_values = [optimize.u0(m) for m in range(4, 200)]
    collector.bound(
        "u0 in [1, 3] and decreasing",
        all(1.0 <= u <= 3.0 for u in u_values)
        and all(x > y for x, y in zip(u_values, u_values[1:])),
    )
    return collector.report("bound134", seed)


def _suite_aux_suprema(seed: int) -> CheckReport:
    collector = _Collector()
    records = optimize.aux_suprema()
    for record in records:
        collector.bound(
            f"{record.name} <= {record.bound}",
            record.within_bound,
            record.supremum - record.bound,
        )
    diagonal = records[1]
    exact = functionals.LOG_32 / (0.75 - functionals.LOG_32)
    collector.metric("diagonal exact value", diagonal.supremum - exact, 1e-9)
    collector.metric(
        "diagonal attained at right endpoint",
        diagonal.argmax - functionals.LOG_32,
        1e-6,
    )
    return collector.report("aux_suprema", seed)


def _suite_push(seed: int) -> CheckReport:
    collector = _Collector()
    record = optimize.push_check(128)
    collector.bound(
        "no grid point beats the curve supremum",
        record.max_violation <= 1e-6,
        record.max_violation,
    )
    collector.bound("ray decrease beyond the caps", record.ray_check_ok)
    return collector.report("push", seed)


_SUITES = {
    "eigen": _suite_eigen,
    "plateau": _suite_plateau,
    "plateau_adjoint": lambda seed: _suite_plateau(seed, adjoint=True),
    "oracle": _suite_oracle,
    "scaling": _suite_scaling,
    "boundaries": _suite_boundaries,
    "duality": _suite_duality,
    "table1": _suite_table1,
    "asymptotic": _suite_asymptotic,
    "bound134": _suite_bound134,
    "aux_suprema": _suite_aux_suprema,
    "push": _suite_push,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(names: list[str], seed: int) -> list[CheckReport]:
    """Run the named suites deterministically under the seed, in given order."""
    unknown = [name for name in names if name not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite names: {unknown}; choose from {SUITE_NAMES}")
    return [_SUITES[name](seed) for name in names]


def reports_to_json(reports: list[CheckReport], precision: int = 9) -> str:
    """Serialize reports with shortest round-trip numbers at the precision."""

    def shorten(value: float) -> float:
        return float(f"{value:.{precision}g}")

    payload = [
        {
            "name": report.name,
            "status": report.status.value,
            "worst_residual": shorten(report.worst_residual),
            "tolerance": shorten(report.tolerance),
            "seed": report.seed,
            "details": [
                {"input": name, "residual": shorten(res)}
                for name, res in report.details
            ],
        }
        for report in reports
    ]
    return json.dumps(payload, indent=2)
