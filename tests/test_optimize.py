import functools
import json
import math
import random
import re
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from weaktype import families, functionals, operators, optimize, verify
from weaktype.families import (
    B_SP,
    B_STAR_SP,
    b_max,
    b_min,
    b_star_max,
    b_star_min,
    d_max,
    d_min,
    d_star_max,
    d_star_min,
)
from weaktype.functionals import DenominatorError, W
from weaktype.optimize import (
    ConvergenceError,
    UNIFORM_BOUND_CONSTANTS,
    _curve_scan_end,
    _grid_values,
    aux_suprema,
    bound_134,
    bound_poly,
    curve_supremum,
    d_opt,
    d_star_opt,
    duality_map,
    maximize_W,
    maximize_on_curve,
    push_check,
    rational_lower_bound,
    u0,
    x_infinity,
)

TABLE = {
    1: (2.157, 6.623, 1.383),
    2: (1.566, 3.284, 1.375),
    3: (1.374, 2.400, 1.373),
    4: (1.279, 2.003, 1.371),
}


def _cell(m, u, v):
    """(b, d) of the grid cell (u, v), mapped as maximize_W maps it."""
    lo_b, hi_b = b_min(m), b_max(m)
    b = lo_b + u * (hi_b - lo_b) * (1.0 - 1e-9)
    d_lo, d_hi = d_min(b, m), d_max(b, m)
    return b, d_lo + v * (d_hi - d_lo)


def _scalar_W(m, u, v):
    try:
        return W(*_cell(m, u, v), m)
    except DenominatorError:
        return -math.inf


def _loop_grid(m, grid_resolution):
    """Reference: one scalar W per cell; the first strict maximum wins."""
    ticks = np.linspace(0.0, 1.0, grid_resolution)
    values = np.empty((grid_resolution, grid_resolution))
    best, best_cell = -math.inf, (0, 0)
    for i, u in enumerate(ticks):
        for j, v in enumerate(ticks):
            values[i, j] = candidate = _scalar_W(m, u, v)
            if candidate > best:
                best, best_cell = candidate, (i, j)
    return values, best_cell


_cached_loop_grid = functools.lru_cache(maxsize=None)(_loop_grid)


def _grid(m, ticks):
    """maximize_W's grid values at m over ticks x ticks."""
    return _grid_values(optimize._feasibility_map(optimize._forward_k(m)), ticks)


def _objective(m):
    """maximize_W's Nelder-Mead objective at m."""
    return optimize._w_objective(optimize._feasibility_map(optimize._forward_k(m)))


def _reference_maximize_W(m, grid_resolution, loop_grid=_cached_loop_grid):
    """maximize_W with its grid scanned by the scalar loop."""
    ticks = np.linspace(0.0, 1.0, grid_resolution)
    _, (i, j) = loop_grid(m, grid_resolution)
    evaluations = grid_resolution ** 2

    def value(u, v):
        nonlocal evaluations
        evaluations += 1
        return _scalar_W(m, min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0))

    result = minimize(
        lambda uv: -value(uv[0], uv[1]),
        x0=np.array([ticks[i], ticks[j]]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 2000},
    )
    best = _scalar_W(m, ticks[i], ticks[j])
    b, d = _cell(m, *np.clip(result.x, 0.0, 1.0))
    final = W(b, d, m)
    if final < best:
        b, d = _cell(m, ticks[i], ticks[j])
        final = W(b, d, m)
    return optimize.OptimumRecord(m, b, d, final, evaluations)


_GRID_MS = (*range(1, 9), 40, 80, 160, 200)
_GRID_CASES = [(m, resolution) for m in _GRID_MS for resolution in (2, 64, 200)]
# maximize_W scans the 64 x 64 grid
_RECORD_CASES = [(m, 64) for m in _GRID_MS]


class TestMaximizeW:
    def test_m1_matches_reference(self):
        record = maximize_W(1)
        assert record.value >= 1.383
        assert record.b == pytest.approx(2.157, abs=1e-2)
        assert record.d == pytest.approx(6.623, abs=1e-2)

    def test_m3_value(self):
        assert maximize_W(3).value >= 1.373

    def test_optimum_is_feasible(self):
        record = maximize_W(2)
        families.FSpecParams(2, record.b, record.d)


class TestMaximizeWGrid:
    @pytest.mark.parametrize("m,resolution", _GRID_CASES)
    def test_picks_the_loop_cell(self, m, resolution):
        grid = _grid(m, np.linspace(0.0, 1.0, resolution))
        _, cell = _cached_loop_grid(m, resolution)
        assert np.unravel_index(int(np.argmax(grid)), grid.shape) == cell

    @pytest.mark.parametrize("m,resolution", _GRID_CASES)
    def test_values_match_scalar_W(self, m, resolution):
        # array pow may differ from libm pow in the last bit, and W raises b
        # and d to powers near m/2, which scales a last-bit difference by m
        grid = _grid(m, np.linspace(0.0, 1.0, resolution))
        values, _ = _cached_loop_grid(m, resolution)
        rtol = 8.0 * (m + 2.0) * np.finfo(float).eps
        np.testing.assert_allclose(grid, values, rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("m,resolution", _RECORD_CASES)
    def test_record_matches_loop_reference(self, m, resolution):
        assert maximize_W(m) == _reference_maximize_W(m, resolution)

    def test_nonpositive_denominator_never_wins(self, monkeypatch):
        m, resolution = 2, 64
        ticks = np.linspace(0.0, 1.0, resolution)
        _, (i, j) = _loop_grid(m, resolution)
        b_win, d_win = _cell(m, ticks[i], ticks[j])
        true_denominator = functionals._w_denominator

        def patched(b, d, k, *terms):
            # cells with d near or above the unpatched winner's are infeasible:
            # a negative denominator for smaller b, NaN for the rest
            denominator = true_denominator(b, d, k, *terms)
            bad = np.where(b < b_win, -denominator, math.nan)
            return np.where(d < d_win * (1.0 - 1e-9), denominator, bad)

        monkeypatch.setattr(functionals, "_w_denominator", patched)
        b, d = np.broadcast_arrays(*_cell(m, ticks[:, None], ticks))
        grid = _grid(m, ticks)
        cut = d >= d_win * (1.0 - 1e-9)
        assert cut.any() and (b[cut] < b_win).any() and (b[cut] > b_win).any()
        assert (grid[cut] == -math.inf).all()
        assert np.isfinite(grid[~cut]).all()
        winner = np.unravel_index(int(np.argmax(grid)), grid.shape)
        assert not cut[winner]
        assert winner == _loop_grid(m, resolution)[1] != (i, j)
        # uncached: the cached loop grids were scanned without the patch
        reference = _reference_maximize_W(m, resolution, loop_grid=_loop_grid)
        assert maximize_W(m) == reference

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(optimize, "_NM_MAX_ITERATIONS", 5)
        with pytest.raises(
            ConvergenceError,
            match=r"^Nelder-Mead did not converge for m=2: "
            r"Maximum number of iterations has been exceeded\.$",
        ):
            maximize_W(2)


def _rosenbrock(x):
    a, b = 1.0 - x[0], x[1] - x[0] * x[0]
    return a * a + 100.0 * b * b


def _walled_rosenbrock(x):
    # +inf on a half-plane through the minimum's neighbourhood, as the
    # maximize_W objective reads a nonpositive denominator
    return math.inf if x[0] + 0.5 * x[1] > 1.4 else _rosenbrock(x)


def _noise():
    # ignores x, so no simplex converges: every step sees fresh values
    return lambda x, draw=random.Random(7).random: draw()


class TestNelderMead:
    """The module's simplex against scipy's, bit for bit."""

    @pytest.mark.parametrize(
        "make_fn,x0,converges",
        [
            (lambda: _rosenbrock, (-1.2, 1.0), True),
            (lambda: _rosenbrock, (-5.0, 10.0), True),
            (lambda: _rosenbrock, (100.0, -50.0), True),
            (lambda: _rosenbrock, (0.3, 0.2), True),
            (lambda: _rosenbrock, (0.0, 0.7), True),
            (lambda: _walled_rosenbrock, (-1.2, 1.0), True),
            (lambda: _walled_rosenbrock, (0.0, 0.0), True),
            (_noise, (0.3, 0.2), False),
        ],
        ids=["rosenbrock-a", "rosenbrock-b", "rosenbrock-c", "rosenbrock-d",
             "zero-coordinate", "inf-half-plane", "inf-half-plane-zero",
             "not-converging"],
    )
    def test_matches_scipy(self, make_fn, x0, converges):
        search_fn, evaluated = make_fn(), []

        def recorded(u, v):
            evaluated.append(((u, v), search_fn([u, v])))
            return evaluated[-1][1]

        x, value, evaluations, failure = optimize._nelder_mead(recorded, *x0)
        # the best vertex only ever gives way to a better one, so the search
        # ends no worse than its first vertex x0, where maximize_W puts its
        # grid winner; the noise revisits points, so the returned value must
        # be one the returned point was given
        assert (x, value) in evaluated
        assert evaluated[0][0] == x0 and value <= evaluated[0][1]
        fn = make_fn()
        reference = minimize(
            lambda v: fn([float(c) for c in v]),
            x0=np.array(x0),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 2000},
        )
        assert [c.hex() for c in x] == [float(c).hex() for c in reference.x]
        assert evaluations == reference.nfev
        assert (failure is None) == reference.success == converges
        if not converges:
            assert failure == reference.message

    def test_walled_start_reaches_the_wall(self):
        x, _, _, failure = optimize._nelder_mead(
            lambda u, v: _walled_rosenbrock([u, v]), -1.2, 1.0)
        assert failure is None
        assert x[0] + 0.5 * x[1] == pytest.approx(1.4, abs=1e-6)


_OBJECTIVE_MS = [1, 2, 3, 8, 160, 10**6]


class TestObjectives:
    """The searches' objectives, which share one power of b per point, against
    the public closed form W, bit for bit."""

    @staticmethod
    def _points(m, lo, hi, edges):
        draw = random.Random(m).uniform
        return edges + [draw(lo, hi) for _ in range(300)]

    @pytest.mark.parametrize("m", _OBJECTIVE_MS)
    def test_nelder_mead_objective_is_minus_W(self, m):
        objective = _objective(m)
        us = self._points(m, -0.1, 1.1, [-0.1, 0.0, 1.0, 1.1])
        vs = self._points(m + 1, -0.1, 1.1, [-0.1, 0.0, 1.0, 1.1])
        for u, v in [*zip(us, vs), *((u, v) for u in us[:4] for v in vs[:4])]:
            b, d = _cell(m, min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0))
            assert objective(u, v).hex() == (-W(b, d, m)).hex(), (u, v)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan])
    def test_nelder_mead_objective_is_inf_where_W_raises(self, monkeypatch, bad):
        m = 3
        true_denominator = functionals._w_denominator

        def patched(b, d, k, *terms):
            # nonpositive or NaN on the upper half of the d-range
            denominator = true_denominator(b, d, k, *terms)
            return bad * abs(denominator) if d > d_min(b, m) + 0.5 * (
                d_max(b, m) - d_min(b, m)) else denominator

        monkeypatch.setattr(functionals, "_w_denominator", patched)
        objective = _objective(m)
        raised = 0
        for u, v in zip(self._points(m, -0.1, 1.1, [0.0, 1.0]),
                        self._points(m + 1, -0.1, 1.1, [1.0, 0.0])):
            b, d = _cell(m, min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0))
            try:
                expected = -W(b, d, m)
            except DenominatorError:
                expected, raised = math.inf, raised + 1
            assert objective(u, v).hex() == expected.hex(), (u, v)
        assert 0 < raised < 302

    @pytest.mark.parametrize("m", _OBJECTIVE_MS)
    def test_curve_objective_is_W_on_the_curve(self, m):
        k = optimize._forward_k(m)
        lo, hi = b_min(m), _curve_scan_end(m)
        for b in self._points(m, lo, hi, [lo, hi]):
            assert optimize._w_on_curve(b, k).hex() == W(b, d_opt(b, m), m).hex(), b

    def test_curve_objective_raises_where_W_raises(self, monkeypatch):
        m = 3
        k = optimize._forward_k(m)
        lo, hi = b_min(m), _curve_scan_end(m)
        true_denominator = functionals._w_denominator

        def patched(b, d, k, *terms):
            # negative on the upper half of the b-range
            denominator = true_denominator(b, d, k, *terms)
            return -denominator if b > 0.5 * (lo + hi) else denominator

        monkeypatch.setattr(functionals, "_w_denominator", patched)
        for b in self._points(m, lo, hi, [lo, hi]):
            if b > 0.5 * (lo + hi):
                with pytest.raises(DenominatorError):
                    W(b, d_opt(b, m), m)
                with pytest.raises(DenominatorError):
                    optimize._w_on_curve(b, k)
            else:
                assert optimize._w_on_curve(b, k).hex() == W(b, d_opt(b, m), m).hex()


def test_optimizer_records_match_the_recorded_outputs():
    # float hex and evaluation counts of both searches at m = 1..200, as the
    # scipy Nelder-Mead and the scalar curve scan produced them
    recorded = json.loads(Path(__file__).with_name("optimizer_records.json").read_text())
    mismatches = []
    for row in recorded:
        for name in ("maximize_W", "maximize_on_curve"):
            record = getattr(optimize, name)(row["m"])
            got = [record.b.hex(), record.d.hex(), record.value.hex(), record.evaluations]
            if got != row[name]:
                mismatches.append((name, row["m"], got, row[name]))
    assert [row["m"] for row in recorded] == list(range(1, 201))
    assert mismatches == []


class TestDOpt:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_value_at_b_min(self, m):
        expected = b_min(m) * ((4.0 + 3.0 * m) / (2.0 + 2.0 * m)) ** (2.0 / (2.0 + m))
        assert d_opt(b_min(m), m) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_ratio_limit_at_b_max(self, m):
        b = b_max(m) * (1.0 - 1e-10)
        assert d_min(b, m) / d_opt(b, m) == pytest.approx(
            2.0 ** (-2.0 / (2.0 + m)), rel=1e-6
        )

    def test_m1_far_end_is_large(self):
        assert d_opt(B_SP, 1) > 430.0

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            d_opt(b_min(2) * 0.9, 2)
        with pytest.raises(ValueError):
            d_opt(b_max(2), 2)

    def test_array_domain_names_the_first_b_outside(self):
        inside = [b_min(2), 0.5 * (b_min(2) + b_max(2))]
        with pytest.raises(ValueError, match=re.escape(f"got {b_max(2)}")):
            d_opt(np.array([*inside, b_max(2), b_min(2) * 0.9]), 2)
        with pytest.raises(ValueError, match=re.escape(f"got {math.nan}")):
            d_opt(np.array([math.nan, *inside]), 2)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 10, 40, 160])
    def test_array_matches_scalar(self, m):
        # maximize_on_curve's scan grid; array pow may differ from libm pow in
        # the last bit, scaled near b_max by the condition number of
        # x = 2 b^(-k) - 1, as for the families' boundary functions
        k = optimize._forward_k(m)
        grid = np.linspace(b_min(m), _curve_scan_end(m), 400)
        scalar = np.array([d_opt(b, m) for b in grid.tolist()])
        x = np.array([2.0 * b ** (-k) - 1.0 for b in grid.tolist()])
        rtol = 4.0 * np.finfo(float).eps * (1.0 + np.abs((x + 1.0) / (k * x)))
        assert np.all(np.abs(d_opt(grid, m) - scalar) <= rtol * scalar)

    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_monotone_and_sandwiched(self, m):
        grid = np.linspace(b_min(m), _curve_scan_end(m), 60)
        values = [d_opt(float(b), m) for b in grid]
        ratios = [d_min(float(b), m) / v for b, v in zip(grid, values)]
        assert all(x < y for x, y in zip(values, values[1:]))
        assert all(x > y for x, y in zip(ratios, ratios[1:]))
        for b, v in zip(grid, values):
            assert d_min(float(b), m) - 1e-12 <= v <= d_max(float(b), m) + 1e-12


class TestDStarOpt:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_value_at_b_star_max(self, m):
        expected = b_star_max(m) * ((2.0 + 2.0 * m) / (2.0 + 3.0 * m)) ** (2.0 / m)
        assert d_star_opt(b_star_max(m), m) == pytest.approx(expected, rel=1e-12)

    def test_m1_split_point_touches_d_star_min(self):
        assert d_star_opt(B_STAR_SP, 1) == pytest.approx(
            d_star_min(B_STAR_SP, 1), rel=1e-10
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_ratio_limit_at_b_star_min(self, m):
        # the defining equation drives t_0*/d*_opt to 2^(2/m) at the left
        # edge (not to 2^(-2/(2+m))); convergence is slow, so check the
        # trend and the limiting value at modest accuracy
        far = b_star_min(m) * (1.0 + 1e-6)
        near = b_star_min(m) * (1.0 + 1e-10)
        target = 2.0 ** (2.0 / m)
        gap_far = abs(d_star_max(far, m) / d_star_opt(far, m) - target)
        gap_near = abs(d_star_max(near, m) / d_star_opt(near, m) - target)
        assert gap_near < gap_far
        assert gap_near <= 2e-3 * target
        other = 2.0 ** (-2.0 / (2.0 + m))
        assert abs(d_star_max(near, m) / d_star_opt(near, m) - other) > 0.5

    @pytest.mark.parametrize("m", [1, 2, 6, 40])
    def test_array_matches_scalar(self, m):
        # the boundaries suite's grid; array pow may differ from libm pow in
        # the last bit, scaled near b*_min by the condition number of
        # x = 2 b*^(-k) - 1, as for the families' boundary functions
        k = optimize._adjoint_k(m)
        lo, hi = b_star_min(m), b_star_max(m)
        grid = np.linspace(B_STAR_SP if m == 1 else lo + (hi - lo) * 1e-6, hi, 50)
        scalar = np.array([d_star_opt(b, m) for b in grid.tolist()])
        x = np.array([2.0 * b ** (-k) - 1.0 for b in grid.tolist()])
        rtol = 4.0 * np.finfo(float).eps * (1.0 + np.abs((x + 1.0) / (k * x)))
        assert np.all(np.abs(d_star_opt(grid, m) - scalar) <= rtol * scalar)

    def test_m1_below_split_goes_under_d_star_min(self):
        bs = 0.5 * (b_star_min(1) + B_STAR_SP)
        assert d_star_opt(bs, 1) < d_star_min(bs, 1)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            d_star_opt(b_star_min(2), 2)


class TestDualityMap:
    def test_residuals_vanish(self):
        record = duality_map(1.5, 2)
        assert record.t0_star_residual < 1e-9
        assert record.d_star_opt_residual < 1e-9
        assert record.w_residual < 1e-9

    def test_split_point_maps_to_adjoint_split_point(self):
        record = duality_map(B_SP, 1)
        assert record.b_star == pytest.approx(B_STAR_SP, abs=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_b_min_maps_to_b_star_max(self, m):
        record = duality_map(b_min(m), m)
        assert record.b_star == pytest.approx(b_star_max(m), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_image_stays_in_adjoint_interval(self, m):
        hi = B_SP if m == 1 else b_max(m) * (1.0 - 1e-6)
        for b in np.linspace(b_min(m), hi, 20):
            record = duality_map(float(b), m)
            assert b_star_min(m) < record.b_star <= b_star_max(m) * (1 + 1e-12)


class TestMaximizeOnCurve:
    def test_m1_reference(self):
        record = maximize_on_curve(1)
        assert record.value == pytest.approx(1.383, abs=1e-3)
        assert record.b == pytest.approx(2.157, abs=1e-2)

    def test_m4_reference(self):
        assert maximize_on_curve(4).value == pytest.approx(1.371, abs=1e-3)

    def test_agrees_with_grid_maximization(self):
        assert abs(maximize_on_curve(2).value - maximize_W(2).value) <= 1e-4

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_record_holds_python_floats(self, m):
        # the refinement runs on grid points taken as floats, not numpy scalars
        record = maximize_on_curve(m)
        assert type(record.b) is float
        assert type(record.d) is float
        assert type(record.value) is float

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_infeasible_scan_point_raises(self, monkeypatch, bad):
        m, index = 3, 137
        k = optimize._forward_k(m)
        grid = np.linspace(b_min(m), _curve_scan_end(m), 400)
        true_denominator = functionals._w_denominator

        def patched(b, d, k, *terms):
            # nonpositive or NaN from the index-th scan point on
            denominator = true_denominator(b, d, k, *terms)
            return np.where(b >= grid[index], bad * np.abs(denominator), denominator)

        monkeypatch.setattr(functionals, "_w_denominator", patched)
        first = re.escape(f"at (b={float(grid[index])}, d=")
        with pytest.raises(DenominatorError, match=first):
            maximize_on_curve(m)
        with pytest.raises(DenominatorError, match=first):
            W(float(grid[index]), d_opt(grid[index], m), m)


class TestXInfinity:
    def test_reference_root(self):
        assert x_infinity(1e-10) == pytest.approx(0.54807758, abs=1e-7)

    def test_bound_value(self):
        assert 1.0 / (math.exp(x_infinity(1e-10)) - 1.0) >= 1.3699

    def test_residual_at_root(self):
        x = x_infinity(1e-12)
        residual = math.exp(x) * (1.0 - 2.0 * x) - (2.0 - math.exp(x)) * math.log(
            2.0 * (2.0 - math.exp(x))
        )
        assert abs(residual) < 1e-10

    def test_curve_supremum(self):
        assert curve_supremum() == pytest.approx(1.3700052993, abs=1e-8)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_nonpositive_or_nan_tol_rejected(self, tol):
        with pytest.raises(ValueError, match=f"tol must be positive, got {tol}"):
            x_infinity(tol)


class TestUniformBound:
    def test_constants(self):
        assert UNIFORM_BOUND_CONSTANTS.theta == pytest.approx(0.213, abs=5e-4)
        assert UNIFORM_BOUND_CONSTANTS.growth == pytest.approx(3.819, abs=5e-4)
        assert UNIFORM_BOUND_CONSTANTS.log_shift == pytest.approx(3.412, abs=5e-4)

    def test_u0_values(self):
        assert u0(25) <= 1.79
        assert u0(25) / 25.0 <= 0.072
        values = [u0(m) for m in range(4, 300)]
        assert all(1.0 <= v <= 3.0 for v in values)
        assert all(x > y for x, y in zip(values, values[1:]))
        ratios = [u0(m) / m for m in range(4, 300)]
        assert all(x > y for x, y in zip(ratios, ratios[1:]))

    def test_m27_direct_value(self):
        assert W(math.exp(1.0 / 27.0), math.exp(3.0 / 27.0), 27) >= 1.35

    def test_exponential_pair_feasible_from_4(self):
        records = bound_134(range(1, 31))
        for record in records:
            if record.m >= 4:
                assert record.pair_feasible
            assert record.w_value >= 1.34
            if record.m >= 25:
                assert record.rational_bound is not None
                assert record.rational_bound >= 1.34

    def test_rational_bound_sweep(self):
        ms = np.arange(25, 10001, dtype=float)
        values = 6.0 * ms * (ms + 1.0) * (ms + 1.5) * (ms + 2.0) / np.array(
            [bound_poly(m, 3.3) for m in ms]
        )
        assert values.min() >= 1.34
        assert rational_lower_bound(25.0) == pytest.approx(values[0], rel=1e-12)

    def test_poly_positive(self):
        ms = np.arange(1, 10001, dtype=float)
        for quad_bound in (0.0, 3.3, 10.0):
            assert all(bound_poly(m, quad_bound) > 0.0 for m in ms)


class TestPushCheck:
    def test_no_violation_on_desk_grid(self):
        record = push_check(32)
        assert record.max_violation <= 1e-6
        assert record.ray_check_ok
        assert record.curve_supremum == pytest.approx(1.37000530, abs=1e-7)

    def test_constrained_slice_respects_supremum(self):
        from weaktype.functionals import _asymptotic_ratio

        supremum = curve_supremum()
        for x in np.linspace(0.41, 0.68, 12):
            z = 2.0 * (2.0 - math.exp(x))
            for scale in (1.0, 1.7, 2.6):
                y = -math.log(z) + math.log(scale)
                if y <= 0.0:
                    continue
                value = _asymptotic_ratio(float(x), float(y), z)
                assert value <= supremum + 1e-9

    @pytest.mark.parametrize("resolution", [16, 17, 32, 128])
    def test_slabs_match_scalar_loop(self, resolution):
        from weaktype.functionals import _asymptotic_ratio

        # reference: one z-vector per (x, y), first maximum wins
        worst, worst_point = -math.inf, (0.0, 0.0, 0.0)
        xs = np.linspace(1e-6, 3.0, resolution)
        ys = np.linspace(1e-6, 5.0, resolution)
        for x in xs:
            zs = np.linspace(2.0 * (2.0 - math.exp(x)), 2.0 - 1e-9, resolution)
            for y in ys:
                ratios = _asymptotic_ratio(x, y, zs)
                index = int(np.argmax(ratios))
                if ratios[index] > worst:
                    worst = float(ratios[index])
                    worst_point = (float(x), float(y), float(zs[index]))
        record = push_check(resolution)
        assert record.max_violation == worst - curve_supremum()
        assert record.worst_point == worst_point

    def test_recorded_output_at_production_resolution(self):
        record = push_check(128)
        assert record.max_violation == float.fromhex("-0x1.c77014c4a2000p-13")
        assert record.worst_point == (
            0.5433079055118111, 1.14173305511811, 0.5566147008365658
        )
        assert record.ray_check_ok is True

    def test_finer_grid_never_finds_excess(self):
        coarse = push_check(16)
        fine = push_check(48)
        assert max(0.0, coarse.max_violation) == 0.0
        assert max(0.0, fine.max_violation) == 0.0
        assert max(0.0, fine.max_violation) <= max(0.0, coarse.max_violation)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            push_check(8)

    @pytest.mark.parametrize(
        "resolution", [15, 1025, 10**9, 128.0, True, "128", None]
    )
    def test_bad_resolution_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            push_check(resolution)

    def test_nan_on_grid_fails_the_check(self, monkeypatch):
        ratio_planes = functionals._ratio_planes

        def one_nan(x, z, ys):
            for count, plane in enumerate(ratio_planes(x, z, ys), start=1):
                if count == 5:
                    plane[3, 7] = math.nan
                yield plane

        monkeypatch.setattr(functionals, "_ratio_planes", one_nan)
        record = push_check(16)
        assert math.isnan(record.max_violation)
        assert record.worst_point[:2] == (
            np.linspace(1e-6, 3.0, 16)[3], np.linspace(1e-6, 5.0, 16)[4]
        )
        (report,) = verify.run_suite(["push"], 0)
        assert report.status is verify.Status.FAIL

    def test_planes_follow_the_memory_order_of_z(self, monkeypatch):
        # push_check's z grid is row-major, so every plane is too and
        # _first_max's argmax reads it without a copy; planes in another order
        # would make every in-place step of the y sweep stride across memory
        ratio_planes, strides = functionals._ratio_planes, []

        def spy(x, z, ys):
            for plane in ratio_planes(x, z, ys):
                strides.append((z.strides, plane.strides))
                yield plane

        monkeypatch.setattr(functionals, "_ratio_planes", spy)
        push_check(32)
        grid = strides[:32]  # then the ray check's one-plane calls
        assert all(z == (8 * 32, 8) for z, _ in grid)
        assert all(plane == z for z, plane in grid)

    @pytest.mark.parametrize("resolution", [16, 17, 32])
    def test_planes_do_not_depend_on_the_memory_order_of_z(self, resolution):
        # push_check's z grid, as built column-major and as copied row-major
        xs = np.linspace(1e-6, 3.0, resolution)
        ys = np.linspace(1e-6, 5.0, resolution)
        z_lo = 2.0 * (2.0 - functionals._per_x(math.exp, xs))
        column_major = np.linspace(z_lo, 2.0 - 1e-9, resolution, axis=1)
        row_major = np.ascontiguousarray(column_major)
        assert column_major.flags.f_contiguous and row_major.flags.c_contiguous
        planes = zip(functionals._ratio_planes(xs[:, None], column_major, ys),
                     functionals._ratio_planes(xs[:, None], row_major, ys))
        for count, (column_plane, row_plane) in enumerate(planes, start=1):
            assert column_plane.tobytes(order="C") == row_plane.tobytes(order="C")
        assert count == resolution

    def test_nan_at_a_ray_end_fails_the_ray_check(self, monkeypatch):
        ratio = functionals._asymptotic_ratio

        def nan_far_out(x, y, z):
            value = ratio(x, y, z)
            return np.full_like(value, math.nan) if x > 8.0 else value

        monkeypatch.setattr(functionals, "_asymptotic_ratio", nan_far_out)
        assert push_check(16).ray_check_ok is False


class TestFirstMax:
    @staticmethod
    def _reference(stack):
        """np.argmax over the (x, y, z) array: first maximum, NaN highest."""
        ix, iy, iz = np.unravel_index(int(np.argmax(stack)), stack.shape)
        return stack[ix, iy, iz], (int(ix), int(iy), int(iz))

    @staticmethod
    def _first_max(stack):
        return optimize._first_max(stack[:, iy, :] for iy in range(stack.shape[1]))

    def test_ties_across_y_steps(self):
        stack = np.zeros((4, 5, 3))
        stack[2, 1, 2] = stack[2, 3, 0] = stack[1, 4, 1] = stack[3, 0, 0] = 1.0
        assert self._first_max(stack) == (1.0, (1, 4, 1)) == self._reference(stack)
        stack[1, 4, 1] = 0.5
        assert self._first_max(stack) == (1.0, (2, 1, 2)) == self._reference(stack)

    def test_equal_x_keeps_the_earlier_y(self):
        stack = np.zeros((3, 4, 3))
        stack[1, 3, 0] = stack[1, 2, 2] = 2.0
        assert self._first_max(stack) == (2.0, (1, 2, 2)) == self._reference(stack)

    def test_one_nan_beats_every_number(self):
        stack = np.zeros((4, 5, 3))
        stack[0, 0, 0] = 9.0
        stack[3, 4, 2] = math.nan
        value, index = self._first_max(stack)
        assert math.isnan(value) and index == (3, 4, 2)
        assert index == self._reference(stack)[1]

    def test_random_ties_match_argmax(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            stack = rng.integers(0, 3, size=(5, 6, 4)).astype(float)
            if rng.random() < 0.3:
                stack[tuple(rng.integers(0, n) for n in stack.shape)] = math.nan
            value, index = self._first_max(stack)
            expected_value, expected_index = self._reference(stack)
            assert index == expected_index
            assert value == expected_value or (
                math.isnan(value) and math.isnan(expected_value)
            )


class TestAuxSuprema:
    def test_five_bounds(self):
        records = aux_suprema()
        assert [r.bound for r in records] == [1.1, 1.18, 1.3, 1.1, 1.1]
        assert all(r.within_bound for r in records)

    def test_diagonal_exact_value(self):
        diagonal = aux_suprema()[1]
        exact = math.log(1.5) / (0.75 - math.log(1.5))
        assert exact <= 1.18
        assert diagonal.supremum == pytest.approx(exact, abs=1e-9)
        assert diagonal.argmax == pytest.approx(math.log(1.5), abs=1e-6)

    def test_y_branch_and_curve_branch(self):
        records = aux_suprema()
        assert records[0].supremum <= 1.1
        assert records[2].supremum <= 1.3

    def test_companion_low_x_branch(self):
        record = aux_suprema()[4]
        assert record.name == "low-x-branch"
        assert record.supremum <= 1.1

    @pytest.mark.parametrize("spec", optimize._AUX_SPECS, ids=itemgetter(0))
    def test_array_scan_picks_the_math_scan_index(self, spec):
        # the array scan only brackets the math refinement; numpy's vectorized
        # exp and log may round otherwise than libm, but must not move the index
        _, fn, lo, hi, _ = spec
        grid = np.linspace(lo, hi, 2000)
        per_point = [fn(x) for x in grid.tolist()]
        assert int(np.argmax(fn(grid, np))) == int(np.argmax(per_point))

    def test_fields_are_python_floats(self):
        for record in aux_suprema():
            fields = (record.lo, record.hi, record.argmax, record.supremum, record.bound)
            assert all(type(value) is float for value in fields), record


@pytest.mark.parametrize("search, most", [(maximize_W, 5), (maximize_on_curve, 3)],
                         ids=["maximize_W", "maximize_on_curve"])
def test_search_checks_m_only_while_setting_up(monkeypatch, search, most):
    # the objective works at one kernel exponent and never re-derives it from m
    calls = []
    monkeypatch.setattr(operators, "_check_m", calls.append)
    search(5)
    assert 1 <= len(calls) <= most


@pytest.mark.parametrize("m", [0, True])
@pytest.mark.parametrize(
    "call",
    [
        maximize_W,
        maximize_on_curve,
        lambda m: d_opt(2.0, m),
        lambda m: d_star_opt(0.7, m),
        lambda m: duality_map(2.0, m),
        lambda m: bound_134([4, m]),
    ],
    ids=["maximize_W", "maximize_on_curve", "d_opt", "d_star_opt", "duality_map",
         "bound_134"],
)
def test_bad_m_rejected(call, m):
    # m = 0 used to divide by zero and m = True to run as m = 1
    with pytest.raises(ValueError, match=f"m must be an integer >= 1, got {m!r}"):
        call(m)


@pytest.mark.parametrize("search", [maximize_W, maximize_on_curve],
                         ids=["maximize_W", "maximize_on_curve"])
def test_m_above_the_cap_rejected(search):
    # maximize_W(10**8) used to read 3.6e-8 above curve_supremum() and
    # maximize_on_curve(10**9) to fail in its range check
    with pytest.raises(ValueError, match="^m must be at most 1000000, got 1000001$"):
        search(10**6 + 1)
    assert search(10**6).value == pytest.approx(curve_supremum(), abs=1e-8)
