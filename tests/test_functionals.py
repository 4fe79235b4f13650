import math
import re
import sys

import mpmath
import numpy as np
import pytest

from weaktype import families, operators, optimize
from weaktype.families import (
    ConstraintViolation,
    FSpecParams,
    FStarSpecParams,
    GeneralFamilyParams,
    GeneralStarFamilyParams,
    b_min,
    build_general,
    build_general_star,
    build_spec,
    build_star_spec,
    d_max,
    d_min,
)
from weaktype.functionals import (
    LOG_2,
    LOG_32,
    DenominatorError,
    RatioReport,
    W,
    W_star,
    _asymptotic_ratio,
    asymptotic_restricted,
    general_ratio,
    general_ratio_star,
    gill_bound,
    oracle_ratio,
)
from weaktype.operators import Kind, lambda_op, lambda_star_op, superlevel_measure


def truncated(value: float, digits: int = 3) -> float:
    scale = 10 ** digits
    return math.floor(value * scale) / scale


class TestW:
    @pytest.mark.parametrize(
        "m,b,d,ref",
        [(1, 2.157, 6.623, 1.383), (2, 1.566, 3.284, 1.375),
         (3, 1.374, 2.400, 1.373), (4, 1.279, 2.003, 1.371)],
    )
    def test_reference_values(self, m, b, d, ref):
        assert truncated(W(b, d, m)) == ref

    def test_on_boundary_curve_point(self):
        b = b_min(2)
        value = W(b, optimize.d_opt(b, 2), 2)
        assert math.isfinite(value) and value > 0.0

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(DenominatorError):
            W(3.0, 1.5, 2)


class TestWStar:
    def test_near_optimal_adjoint_value(self):
        assert W_star(0.649, 0.150, 1) >= 1.383

    def test_on_adjoint_boundary_curve_point(self):
        from weaktype.families import b_star_max

        bs = b_star_max(3)
        value = W_star(bs, optimize.d_star_opt(bs, 3), 3)
        assert math.isfinite(value) and value > 0.0

    def test_duality_instance(self):
        m, b = 2, 1.4
        d_at = optimize.d_opt(b, m)
        forward = W(b, d_at, m)
        adjoint = W_star(d_min(b, m) / d_at, 1.0 / d_at, m)
        assert adjoint == pytest.approx(forward, abs=1e-12)


class TestGillBound:
    def test_reference_column(self):
        assert [truncated(gill_bound(m)) for m in (1, 2, 3, 4)] == [
            1.282, 1.207, 1.163, 1.134,
        ]

    def test_m1_closed_form(self):
        exact = 2.0 ** (2.0 / 3.0) / (3.0 * (2.0 - 2.0 ** (2.0 / 3.0)))
        assert gill_bound(1) == pytest.approx(exact, rel=1e-14)
        assert gill_bound(1) == pytest.approx(1.28, abs=5e-3)

    def test_small_m_limit(self):
        assert gill_bound(1e-6) == pytest.approx(1.4427, abs=1e-3)

    @pytest.mark.parametrize("m", [1e-8, 1e-12, 1e-300])
    def test_small_m_against_mpmath(self, m):
        # 2 - 2^(2/(2+m)) loses about -log10(m) digits; 340 leave 40 at 1e-300
        with mpmath.workdps(340):
            mp_m = mpmath.mpf(m)
            root = mpmath.mpf(2) ** (2 / (2 + mp_m))
            exact = float(mp_m * root / ((2 + mp_m) * (2 - root)))
        assert gill_bound(m) == pytest.approx(exact, rel=1e-14)

    def test_infinite_m_rejected(self):
        with pytest.raises(ValueError, match="m must be finite, got inf"):
            gill_bound(math.inf)

    @pytest.mark.parametrize("m", [1e-320, 5e-324])
    def test_subnormal_m_rejected(self, m):
        message = f"m must be at least the smallest normal float {sys.float_info.min}, got {m}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gill_bound(m)

    def test_smallest_normal_m_reaches_the_limit(self):
        limit = 1.0 / math.log(2.0)
        assert abs(gill_bound(sys.float_info.min) - limit) <= math.ulp(limit)


class TestGeneralRatio:
    def test_collapses_to_W_on_restricted_points(self):
        params = FSpecParams(2, 1.566, 3.284)
        report = general_ratio(
            GeneralFamilyParams(2, 1.0, params.b, params.b, params.d)
        )
        assert report.ratio == pytest.approx(W(params.b, params.d, 2), abs=1e-12)

    def test_matches_oracle_with_gap(self):
        params = GeneralFamilyParams(1, 1.0, 1.1, 3.0, 3.5)
        report = general_ratio(params)
        from weaktype.families import build_general

        oracle = oracle_ratio(lambda_op(1), build_general(params))
        assert report.ratio == pytest.approx(oracle.ratio, abs=1e-8)

    def test_matches_oracle_with_crossing_near_piece_boundary(self):
        # the crossing at 5.38548 lies 1.9e-3 beyond d = 5.38357, where Tf
        # jumps; both certification points must stay in the crossing's region
        params = GeneralFamilyParams(
            3, 1.0, 1.8328294285440396, 3.2852571327372413, 5.383574343756783
        )
        from weaktype.families import build_general

        oracle = oracle_ratio(lambda_op(3), build_general(params))
        assert general_ratio(params).ratio == pytest.approx(oracle.ratio, abs=1e-8)

    def test_no_overshoot_at_unit_excess(self):
        # d placed exactly where the mass term hits -1: d_hat collapses to d
        m, b, c = 1, 1.1, 3.0
        dd = families._general_D(1.0, b, c, m / 2.0)
        d = ((1.0 + (2.0 + m) / m) / dd) ** (2.0 / m)
        assert d > c
        report = general_ratio(GeneralFamilyParams(m, 1.0, b, c, d))
        b_hat_part = report.numerator - (d - c)
        assert b_hat_part == pytest.approx(b - 1.0, abs=1e-9)

    def test_requires_unit_scale(self):
        with pytest.raises(ValueError):
            general_ratio(GeneralFamilyParams(1, 2.0, 3.0, 4.0, 5.0))


class TestGeneralRatioStar:
    def test_collapses_to_W_star_on_restricted_points(self):
        params = FStarSpecParams(2, 0.75, 0.45)
        report = general_ratio_star(
            GeneralStarFamilyParams(2, 1.0, params.b_star, params.b_star, params.d_star)
        )
        assert report.ratio == pytest.approx(
            W_star(params.b_star, params.d_star, 2), abs=1e-12
        )

    def test_matches_oracle_with_gap(self):
        params = GeneralStarFamilyParams(2, 1.0, 0.8, 0.6, 0.3)
        report = general_ratio_star(params)
        f = build_general_star(params)
        oracle = oracle_ratio(lambda_star_op(2), f)
        assert report.ratio == pytest.approx(oracle.ratio, abs=1e-8)

    def test_no_overshoot_at_unit_excess(self):
        # d* placed exactly where the mass term hits -1: d*_hat collapses to d*
        m, b_star, c_star = 1, 0.8, 0.6
        neg = -1.0 - m / 2.0
        lead = 2.0 * (1.0 + m) * c_star ** (1.0 + m / 2.0) / (2.0 + m)
        dd = lead * (1.0 + (c_star / b_star) ** (m / 2.0) * (1.0 - b_star ** neg))
        d_star = ((1.0 + m / (2.0 + m) + 1.0) / dd) ** (-1.0 / (1.0 + m / 2.0))
        assert d_star < c_star
        report = general_ratio_star(
            GeneralStarFamilyParams(m, 1.0, b_star, c_star, d_star)
        )
        d_hat_part = report.numerator - (1.0 - b_star)
        assert d_hat_part == pytest.approx(c_star - d_star, abs=1e-9)

    def test_bad_ordering_rejected(self):
        with pytest.raises(ConstraintViolation):
            GeneralStarFamilyParams(2, 1.0, 0.6, 0.8, 0.3)


class TestOracleRatio:
    def test_restricted_family_agreement(self):
        params = FSpecParams(3, 1.4, 2.2)
        report = oracle_ratio(lambda_op(3), build_spec(params))
        assert report.ratio == pytest.approx(W(1.4, 2.2, 3), abs=1e-10)

    def test_adjoint_family_agreement(self):
        params = FStarSpecParams(1, 0.649, 0.150)
        report = oracle_ratio(lambda_star_op(1), build_star_spec(params))
        assert report.ratio == pytest.approx(W_star(0.649, 0.150, 1), abs=1e-10)

    def test_report_carries_the_superlevel_set(self):
        f = build_spec(FSpecParams(3, 1.4, 2.2))
        report = oracle_ratio(lambda_op(3), f)
        assert report.superlevel == superlevel_measure(lambda_op(3), f)
        assert report.numerator == report.superlevel.measure
        assert general_ratio(GeneralFamilyParams(3, 1.0, 1.4, 1.4, 2.2)).superlevel is None


class TestAsymptoticRestricted:
    def test_sample_point(self):
        assert asymptotic_restricted(0.548, 1.164) >= 1.37

    def test_on_curve_reduction(self):
        x = 0.55
        z = 2.0 * (2.0 - math.exp(x))
        y = x - math.log(z)
        reduced = (2.0 * x - math.log(z)) / (math.exp(x) - 2.0 * x - math.log(z))
        assert asymptotic_restricted(x, y) == pytest.approx(reduced, rel=1e-13)

    def test_value_at_root(self):
        x_inf = optimize.x_infinity(1e-12)
        z = 2.0 * (2.0 - math.exp(x_inf))
        y = x_inf - math.log(z)
        assert asymptotic_restricted(x_inf, y) == pytest.approx(
            1.0 / (math.exp(x_inf) - 1.0), rel=1e-9
        )

    def test_constraint_violations(self):
        with pytest.raises(ConstraintViolation):
            asymptotic_restricted(0.2, 1.0)
        with pytest.raises(ConstraintViolation):
            asymptotic_restricted(0.548, 5.0)


class TestAsymptoticGeneral:
    def test_matches_restricted_on_constrained_slice(self):
        # asymptotic_restricted is the array ratio on the face z = 2(2 - e^x);
        # the scalar case formulas below are the independent route
        rng = np.random.default_rng(0)
        for x, u in rng.uniform(size=(1000, 2)).tolist():
            x = LOG_32 + x * (LOG_2 - LOG_32)
            z = 2.0 * (2.0 - math.exp(x))
            y = -math.log(z) + u * math.log(3.0)  # e^-y <= z <= 3 e^-y
            assert asymptotic_restricted(x, y) == pytest.approx(
                _reference_ratio(x, y, z), rel=1e-13, abs=0.0
            ), (x, y)

    def test_restricted_sample_matches_mpmath(self):
        # the restricted closed form (x + y) / (2e^x - x - 4 - y + z(e^y + 1)
        # - 2 ln z) at the published sample, in 50 digits
        x, y = 0.548, 1.164
        with mpmath.workdps(50):
            mx, my = mpmath.mpf(x), mpmath.mpf(y)
            z = 2 * (2 - mpmath.exp(mx))
            exact = float((mx + my) / (
                2 * mpmath.exp(mx) - mx - 4 - my + z * (mpmath.exp(my) + 1)
                - 2 * mpmath.log(z)
            ))
        value = asymptotic_restricted(x, y)
        assert abs(value - exact) <= 2.0 * sys.float_info.epsilon * exact

    def test_small_z_branch(self):
        x, y = 0.65, 0.4
        z = 0.5 * math.exp(-y)
        expected_num = (
            x + math.log(2.0 * math.exp(x) - 2.0) - math.log(2.0 - z)
            + y + math.log(2.0 - z * math.exp(y))
        )
        expected_den = 2.0 * math.exp(x) - x - 2.0 + y - z * (math.exp(y) - 1.0)
        assert _asymptotic_ratio(x, y, z) == pytest.approx(
            expected_num / expected_den, rel=1e-13
        )

    def test_low_x_keeps_x_unchanged(self):
        x, y = 0.3, 1.0
        z = 2.0 * (2.0 - math.exp(x))  # >= 1 here
        value = _asymptotic_ratio(x, y, z + 0.01)
        num = x + y + math.log((z + 0.01) * math.exp(y) - 2.0)
        den = 2.0 * math.exp(x) - x - 2.0 - y + (z + 0.01) * (math.exp(y) - 1.0)
        assert value == pytest.approx(num / den, rel=1e-13)


# Scalar case formulas of the general asymptotic ratio, one math call per
# term; a reference for the array implementation in functionals.

def _reference_x_hat(x: float, z: float) -> float:
    base = math.log(2.0 * math.exp(x) - 2.0)
    shifted = base - math.log(2.0 - z) if z < 2.0 else math.inf
    return x + min(max(0.0, base), shifted)


def _reference_y_hat(y: float, z: float) -> float:
    magnitude = abs(-2.0 + z * math.exp(y))
    return y + (math.log(magnitude) if magnitude > 1.0 else 0.0)


def _reference_abs_exp_integral(y: float, z: float) -> float:
    if z >= 1.0:
        return -y + z * (math.exp(y) - 1.0)
    if z <= math.exp(-y):
        return y - z * (math.exp(y) - 1.0)
    return -2.0 * math.log(z) - y + z * (math.exp(y) + 1.0) - 2.0


def _reference_ratio(x: float, y: float, z: float) -> float:
    numerator = _reference_x_hat(x, z) + _reference_y_hat(y, z)
    denominator = 2.0 * math.exp(x) - x - 2.0 + _reference_abs_exp_integral(y, z)
    return numerator / denominator


class TestCaseSeams:
    """The scalar case formulas agree where their cases meet."""

    def test_x_hat_seams(self):
        # at x = ln(3/2) only z >= 1 is admissible and both cases give x
        for z in (1.0, 1.5, 2.0):
            assert _reference_x_hat(LOG_32, z) == pytest.approx(LOG_32, abs=1e-12)
        # z = 1 for x >= ln(3/2): the shifted branch loses its shift
        x = 0.6
        base = math.log(2.0 * math.exp(x) - 2.0)
        assert _reference_x_hat(x, 1.0) == pytest.approx(x + base, abs=1e-12)

    def test_y_hat_seams(self):
        y = 0.9
        assert _reference_y_hat(y, math.exp(-y)) == pytest.approx(y, abs=1e-12)
        assert _reference_y_hat(y, 3.0 * math.exp(-y)) == pytest.approx(y, abs=1e-12)

    def test_integral_seams(self):
        def split(y, z):
            return -2.0 * math.log(z) - y + z * (math.exp(y) + 1.0) - 2.0

        y = 0.8
        # z = 1: both the monotone and the split branch agree
        integral = _reference_abs_exp_integral(y, 1.0)
        assert integral == pytest.approx(-y + (math.exp(y) - 1.0), abs=1e-12)
        assert integral == pytest.approx(split(y, 1.0), abs=1e-12)
        z = math.exp(-y)
        integral = _reference_abs_exp_integral(y, z)
        assert integral == pytest.approx(split(y, z), abs=1e-12)
        assert integral == pytest.approx(y - z * (math.exp(y) - 1.0), abs=1e-12)


# The points of TestCaseSeams, as (x, y, z)
_SEAM_POINTS = {
    "x_hat x=ln(3/2) z=1": (LOG_32, 1.0, 1.0),
    "x_hat x=ln(3/2) z=1.5": (LOG_32, 1.0, 1.5),
    "x_hat x=ln(3/2) z=2": (LOG_32, 1.0, 2.0),
    "x_hat z=1": (0.6, 1.0, 1.0),
    "y_hat z=e^-y": (0.6, 0.9, math.exp(-0.9)),
    "y_hat z=3e^-y": (0.6, 0.9, 3.0 * math.exp(-0.9)),
    "integral z=1": (0.6, 0.8, 1.0),
    "integral z=e^-y": (0.6, 0.8, math.exp(-0.8)),
}


def _integral_case(y: float, z: float) -> str:
    if z >= 1.0:
        return "z >= 1"
    return "z <= e^-y" if z <= math.exp(-y) else "split"


def _random_point(rng, region: str) -> tuple[float, float, float]:
    """A random admissible (x, y, z) in the push grid's box, in the region."""
    while True:
        x = float(rng.uniform(LOG_2 if region == "x > ln 2" else 1e-6, 3.0))
        y = float(rng.uniform(1e-6, 5.0))
        lo, hi = 2.0 * (2.0 - math.exp(x)), 2.0
        if region == "z >= 1":
            lo = max(lo, 1.0)
        elif region == "z <= e^-y":
            hi = math.exp(-y)
        elif region == "split":
            lo, hi = max(lo, math.exp(-y)), 1.0
        elif region == "z = 2 - 1e-9":
            lo = hi = 2.0 - 1e-9
        if lo <= hi:
            return x, y, float(rng.uniform(lo, hi))


class TestAsymptoticRatioReference:
    """The array implementation against the scalar case formulas."""

    @pytest.mark.parametrize(
        "region", ["z >= 1", "z <= e^-y", "split", "z = 2 - 1e-9", "x > ln 2"]
    )
    def test_random_points_match_scalar_reference(self, region):
        rng = np.random.default_rng([5, len(region)])
        cases, negative_z = set(), 0
        for _ in range(400):
            x, y, z = _random_point(rng, region)
            cases.add(_integral_case(y, z))
            negative_z += z < 0.0
            expected = _reference_ratio(x, y, z)
            value = _asymptotic_ratio(x, y, z)
            assert value == pytest.approx(expected, rel=1e-15, abs=0.0)
        if region == "x > ln 2":
            assert cases == {"z >= 1", "z <= e^-y", "split"} and negative_z > 0
        elif region != "z = 2 - 1e-9":
            assert cases == {region}

    @pytest.mark.parametrize("point", _SEAM_POINTS.values(), ids=_SEAM_POINTS.keys())
    def test_case_seams_match_scalar_reference(self, point):
        expected = _reference_ratio(*point)
        assert _asymptotic_ratio(*point) == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestOracleEquivalenceSweep:
    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_forward(self, m):
        rng = np.random.default_rng(m)
        from weaktype.families import b_max

        for _ in range(25):
            u, v = rng.uniform(0.03, 0.97, 2)
            b = b_min(m) + u * (b_max(m) - b_min(m))
            d = d_min(b, m) + v * (d_max(b, m) - d_min(b, m))
            report = oracle_ratio(lambda_op(m), build_spec(FSpecParams(m, b, d)))
            assert abs(W(b, d, m) - report.ratio) <= 1e-7

    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_adjoint(self, m):
        rng = np.random.default_rng(100 + m)
        from weaktype.families import b_star_max, b_star_min, d_star_max, d_star_min

        for _ in range(25):
            u, v = rng.uniform(0.03, 0.97, 2)
            bs = b_star_min(m) + u * (b_star_max(m) - b_star_min(m))
            ds = d_star_min(bs, m) + v * (d_star_max(bs, m) - d_star_min(bs, m))
            report = oracle_ratio(
                lambda_star_op(m), build_star_spec(FStarSpecParams(m, bs, ds))
            )
            assert abs(W_star(bs, ds, m) - report.ratio) <= 1e-7


def _random_general_pair(rng):
    """A forward and an adjoint general family at unit scale; 70% have a gap."""
    m = int(rng.integers(1, 9))
    b = float(rng.uniform(1.05, 2.0))
    c = b if rng.uniform() < 0.3 else b * float(rng.uniform(1.0, 2.0))
    d = c * float(rng.uniform(1.05, 2.5))
    bs = float(rng.uniform(0.4, 0.95))
    cs = bs if rng.uniform() < 0.3 else bs * float(rng.uniform(0.4, 0.99))
    ds = cs * float(rng.uniform(0.3, 0.9))
    return GeneralFamilyParams(m, 1.0, b, c, d), GeneralStarFamilyParams(
        m, 1.0, bs, cs, ds
    )


class TestGeneralOracleSweep:
    def test_closed_forms_match_certified_oracle(self, monkeypatch):
        certified = []
        real_certify = operators._certify_crossing

        def counting(op, f, region, t_cross, thr):
            certified.append(op.kind)
            return real_certify(op, f, region, t_cross, thr)

        monkeypatch.setattr(operators, "_certify_crossing", counting)
        rng = np.random.default_rng(20240)
        gaps = {Kind.LAMBDA: 0, Kind.LAMBDA_STAR: 0}
        overshoots = dict(gaps)
        off_boundary = dict(gaps)
        for _ in range(150):
            params, star = _random_general_pair(rng)
            cases = (
                (lambda_op(params.m), build_general(params), general_ratio(params),
                 (1.0, params.b, params.c, params.d),
                 (params.b - 1.0) + (params.d - params.c)),
                (lambda_star_op(star.m), build_general_star(star),
                 general_ratio_star(star),
                 (star.d_star, star.c_star, star.b_star, 1.0),
                 (1.0 - star.b_star) + (star.c_star - star.d_star)),
            )
            for op, f, closed, edges, design in cases:
                assert abs(closed.ratio - oracle_ratio(op, f).ratio) <= 1e-8
                gaps[op.kind] += edges[1] < edges[2]
                overshoots[op.kind] += closed.numerator > design * (1.0 + 1e-12)
                intervals = superlevel_measure(op, f, certify=False).intervals
                ends = [u for interval in intervals for u in interval]
                off_boundary[op.kind] += any(
                    min(abs(u - edge) for edge in edges) > 1e-9 * u for u in ends
                )
        for kind in (Kind.LAMBDA, Kind.LAMBDA_STAR):
            assert gaps[kind] > 0 and overshoots[kind] > 0
            assert off_boundary[kind] > 0
            assert certified.count(kind) >= off_boundary[kind]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: W(math.nan, 2.0, 1), DenominatorError, "nonpositive denominator nan"),
        (lambda: W_star(0.7, math.nan, 1), DenominatorError,
         "nonpositive denominator nan"),
        (lambda: RatioReport.from_parts(1.0, math.nan), DenominatorError,
         "denominator must be positive, got nan"),
        (lambda: gill_bound(math.nan), ValueError, "m must be positive, got nan"),
    ],
    ids=["W", "W_star", "from_parts", "gill_bound"],
)
def test_nan_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()
