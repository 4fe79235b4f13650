"""Acceptance suite: every quantitative exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest -s to see them inline) and
then asserts, so a red test always names its criterion.
"""

import math
import time

import numpy as np
import pytest

from weaktype import families, functionals, operators, optimize
from weaktype.families import (
    FSpecParams,
    FStarSpecParams,
    b_max,
    b_min,
    b_star_max,
    b_star_min,
    build_spec,
    build_star_spec,
    d_max,
    d_min,
    d_star_max,
    d_star_min,
)
from weaktype.functionals import W, W_star, asymptotic_restricted, gill_bound
from weaktype.operators import lambda_op, lambda_star_op, superlevel_measure
from weaktype.piecewise import l1_norm


def report(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {description}")


TABLE = {
    1: (2.157, 6.623, 1.383),
    2: (1.566, 3.284, 1.375),
    3: (1.374, 2.400, 1.373),
    4: (1.279, 2.003, 1.371),
}


def test_criterion_01_table_reproduction():
    start = time.perf_counter()
    records = {m: optimize.maximize_W(m) for m in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    for m, (b_ref, d_ref, w_ref) in TABLE.items():
        record = records[m]
        ok = ok and abs(record.value - w_ref) <= 0.002
        ok = ok and abs(record.b - b_ref) <= 0.05
        ok = ok and abs(record.d - d_ref) <= 0.05
    report(1, ok, f"ratio maxima for m=1..4 match the reference table "
                  f"({elapsed:.1f}s)")
    assert ok


def test_criterion_02_gill_column():
    refs = {1: 1.282, 2: 1.207, 3: 1.163, 4: 1.134}
    ok = all(
        math.floor(gill_bound(m) * 1000) / 1000 == ref for m, ref in refs.items()
    )
    report(2, ok, "closed-form conjectured-bound column matches to 3 decimals")
    assert ok


def test_criterion_03_adjoint_m1():
    value = W_star(0.649, 0.150, 1)
    ok = value >= 1.383
    report(3, ok, f"adjoint ratio at (0.649, 0.150) is {value:.6f} >= 1.383")
    assert ok


def test_criterion_04_asymptotic_root():
    x_inf = optimize.x_infinity(1e-10)
    sample = asymptotic_restricted(0.548, 1.164)
    ok = abs(x_inf - 0.54807758) <= 1e-7 and sample >= 1.37
    report(4, ok, f"x_inf = {x_inf:.9f}, sample value {sample:.6f} >= 1.37")
    assert ok


def _random_spec(rng):
    m = int(rng.integers(1, 9))
    u, v = rng.uniform(0.02, 0.98, 2)
    b = b_min(m) + u * (b_max(m) - b_min(m))
    d = d_min(b, m) + v * (d_max(b, m) - d_min(b, m))
    return FSpecParams(m, b, d)


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    intervals_ok = True
    for _ in range(300):
        params = _random_spec(rng)
        f = build_spec(params)
        measured = superlevel_measure(lambda_op(params.m), f)
        ratio = measured.measure / l1_norm(f)
        worst = max(worst, abs(W(params.b, params.d, params.m) - ratio))
        intervals_ok = intervals_ok and (
            len(measured.intervals) == 1
            and abs(measured.intervals[0][0] - 1.0) <= 1e-9
            and abs(measured.intervals[0][1] - params.d) <= 1e-9 * params.d
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and intervals_ok and elapsed < 60.0
    report(5, ok, f"300 random feasible points: |W - oracle| <= {worst:.2e}, "
                  f"single interval (1, d), {elapsed:.1f}s")
    assert ok


def test_criterion_06_adjoint_oracle_equivalence():
    rng = np.random.default_rng(1)
    worst = 0.0
    intervals_ok = True
    for _ in range(300):
        m = int(rng.integers(1, 9))
        u, v = rng.uniform(0.02, 0.98, 2)
        bs = b_star_min(m) + u * (b_star_max(m) - b_star_min(m))
        ds = d_star_min(bs, m) + v * (d_star_max(bs, m) - d_star_min(bs, m))
        f = build_star_spec(FStarSpecParams(m, bs, ds))
        measured = superlevel_measure(lambda_star_op(m), f)
        ratio = measured.measure / l1_norm(f)
        worst = max(worst, abs(W_star(bs, ds, m) - ratio))
        intervals_ok = intervals_ok and (
            len(measured.intervals) == 1
            and abs(measured.intervals[0][0] - ds) <= 1e-9
            and abs(measured.intervals[0][1] - 1.0) <= 1e-9
        )
    ok = worst <= 1e-7 and intervals_ok
    report(6, ok, f"300 random adjoint points: |W* - oracle| <= {worst:.2e}, "
                  f"single interval (d*, 1)")
    assert ok


def test_criterion_07_duality():
    rng = np.random.default_rng(2)
    worst = 0.0
    for m in range(1, 11):
        lo = b_min(m)
        hi = families.B_SP if m == 1 else b_max(m) * (1.0 - 1e-6)
        for b in np.concatenate(([lo, hi], lo + rng.uniform(0, 1, 48) * (hi - lo))):
            record = optimize.duality_map(float(b), m)
            worst = max(
                worst,
                record.t0_star_residual,
                record.d_star_opt_residual,
                record.w_residual,
            )
    ok = worst <= 1e-8
    report(7, ok, f"duality identities for m=1..10, 50 samples each: "
                  f"worst residual {worst:.2e}")
    assert ok


def test_criterion_08_uniform_bound():
    direct = [W(math.exp(1.0 / m), math.exp(3.0 / m), m) for m in range(5, 201)]
    ms = np.arange(25, 10001, dtype=float)
    rational = np.array([optimize.rational_lower_bound(m) for m in ms])
    poly_ok = all(
        optimize.bound_poly(m, quad_bound) > 0.0
        for quad_bound in (0.0, 3.3)
        for m in np.arange(1, 10001, dtype=float)
    )
    ok = (
        min(direct) >= 1.34
        and float(rational.min()) >= 1.34
        and optimize.u0(25) <= 1.79
        and poly_ok
    )
    report(8, ok, f"uniform bound: direct min {min(direct):.4f}, rational min "
                  f"{rational.min():.4f}, u0(25) = {optimize.u0(25):.4f}")
    assert ok


def test_criterion_09_eigenfunction_suite():
    worst = 0.0
    for m in range(1, 9):
        for alpha in np.arange(-1.0 - m / 2.0 + 0.5, 3.0 + 1e-9, 0.5):
            worst = max(
                worst,
                operators.eigen_check(lambda_op(m), float(alpha), [0.5, 1.0, 2.0]),
            )
        for alpha in np.arange(-3.0, m / 2.0 - 2.0 + 1e-9, 0.5):
            worst = max(
                worst,
                operators.eigen_check(
                    lambda_star_op(m), float(alpha), [0.5, 1.0, 2.0]
                ),
            )
    ok = worst <= 1e-10
    report(9, ok, f"eigenfunction deviations over alpha grids: {worst:.2e}")
    assert ok


def test_criterion_10_asymptotic_consistency():
    x, y = 0.548, 1.164
    m = 10 ** 4
    sample = asymptotic_restricted(x, y)
    forward = abs(W(math.exp(2 * x / m), math.exp(2 * (x + y) / m), m) - sample)
    adjoint = abs(
        W_star(math.exp(-2 * x / (2 + m)), math.exp(-2 * (x + y) / (2 + m)), m)
        - sample
    )
    ok = forward <= 2e-3 and adjoint <= 2e-3
    report(10, ok, f"finite-m consistency at m=10^4: forward {forward:.2e}, "
                   f"adjoint {adjoint:.2e}")
    assert ok


def test_criterion_11_auxiliary_suprema():
    records = optimize.aux_suprema()
    exact = math.log(1.5) / (0.75 - math.log(1.5))
    ok = (
        [r.bound for r in records] == [1.1, 1.18, 1.3, 1.1, 1.1]
        and all(r.within_bound for r in records)
        and abs(records[1].supremum - exact) <= 1e-9
        and abs(records[1].argmax - math.log(1.5)) <= 1e-6
    )
    report(11, ok, "five auxiliary suprema respect 1.1, 1.18 (exact value at "
                   "the right endpoint), 1.3, 1.1, 1.1")
    assert ok


def test_criterion_12_push_property():
    record = optimize.push_check(128)
    ok = record.max_violation <= 1e-6
    report(12, ok, f"no (x, y, z) on the 128-grid beats the curve supremum "
                   f"(max violation {record.max_violation:.2e})")
    assert ok
