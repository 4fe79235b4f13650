import math
import re

import numpy as np
import pytest

from weaktype import functionals, operators
from weaktype.families import (
    FSpecParams,
    FStarSpecParams,
    GeneralFamilyParams,
    GeneralStarFamilyParams,
    build_general,
    build_general_star,
    build_spec,
    build_star_spec,
    d_max,
    d_min,
)
from weaktype.operators import (
    OperatorKind,
    Kind,
    QuadratureError,
    apply_closed_form,
    apply_quadrature_oracle,
    eigen_check,
    eigenvalue,
    lambda_op,
    lambda_star_op,
    superlevel_measure,
)
from weaktype.piecewise import PiecewisePowerFunction, PowerPiece, dilate, l1_norm


def mid_spec(m: int) -> FSpecParams:
    from weaktype.families import b_min, b_max

    b = 0.5 * (b_min(m) + b_max(m))
    d = 0.5 * (d_min(b, m) + d_max(b, m))
    return FSpecParams(m, b, d)


class TestOperatorKind:
    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            OperatorKind(Kind.LAMBDA, 0)

    def test_factories(self):
        assert lambda_op(3).kind is Kind.LAMBDA
        assert lambda_star_op(3).kind is Kind.LAMBDA_STAR

    def test_kernel_exponent(self):
        assert lambda_op(3).k == 1.5
        assert lambda_star_op(3).k == -2.5

    @pytest.mark.parametrize("m", range(1, 41))
    def test_kernel_exponent_matches_the_k_helpers(self, m):
        assert lambda_op(m).k.hex() == operators._forward_k(m).hex()
        assert lambda_star_op(m).k.hex() == operators._adjoint_k(m).hex()

    def test_closed_form_checks_m_only_at_construction(self, monkeypatch):
        forward, adjoint = lambda_op(3), lambda_star_op(3)
        f = build_spec(mid_spec(3))
        f_star = build_star_spec(FStarSpecParams(3, 0.7639275686137361, 0.2986008480383443))
        calls = []
        monkeypatch.setattr(operators, "_check_m", calls.append)
        for t in np.linspace(0.25, 4.0, 50):
            apply_closed_form(forward, f, t)
            apply_closed_form(adjoint, f_star, t)
            eigenvalue(forward, t)
            eigenvalue(adjoint, -t)
        assert calls == []

    @pytest.mark.parametrize("m", [np.int64(3), True, 2.0, 0])
    def test_non_integer_or_small_m_rejected(self, m):
        message = f"m must be an integer >= 1, got {m!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lambda_op(m)


class TestClosedForm:
    def test_constant_maps_to_one(self):
        # the constant (2+m)/m is mapped to the constant 1
        f = PiecewisePowerFunction((PowerPiece(0.0, 10.0, 2.0, 0.0, 0.0),))
        assert apply_closed_form(lambda_op(2), f, 5.0) == pytest.approx(1.0, abs=1e-12)

    def test_kernel_power_vanishes(self):
        f = PiecewisePowerFunction((PowerPiece(0.0, 10.0, 0.0, 1.0, 1.0),))
        assert apply_closed_form(lambda_op(2), f, 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_restricted_family_plateaus(self):
        params = mid_spec(3)
        f = build_spec(params)
        op = lambda_op(3)
        for t in np.linspace(1.0 + 1e-6, params.b - 1e-6, 7):
            assert apply_closed_form(op, f, float(t)) == pytest.approx(1.0, abs=1e-10)
        for t in np.linspace(params.b + 1e-6, params.d - 1e-6, 7):
            assert apply_closed_form(op, f, float(t)) == pytest.approx(-1.0, abs=1e-10)

    def test_nonpositive_t_rejected(self):
        f = PiecewisePowerFunction((PowerPiece(0.0, 1.0, 1.0, 0.0, 0.0),))
        with pytest.raises(ValueError):
            apply_closed_form(lambda_op(1), f, 0.0)

    @pytest.mark.parametrize("m", [1, 2, 8, 40])
    @pytest.mark.parametrize("t", [1e-300, 5e-324])
    def test_finite_where_the_prefactor_overflows(self, m, t):
        # f = 1 on (0, 1): Tf = k / (1 + k) at every t < 1, while the
        # prefactor t^(-1-k) is past the largest float
        f = PiecewisePowerFunction((PowerPiece(0.0, 1.0, 1.0, 0.0, 0.0),))
        k = m / 2.0
        with pytest.raises(OverflowError):
            t ** (-1.0 - k)
        assert apply_closed_form(lambda_op(m), f, t) == pytest.approx(
            k / (1.0 + k), rel=4 * np.finfo(float).eps, abs=0.0)

    def test_finite_where_the_adjoint_prefactor_overflows(self):
        # f = 1 on (0, 1e200) under the adjoint, m = 8: t^4 overflows at
        # t = 1e100, and Tf = 5/4 up to the cut-off tail, far below rounding
        f = PiecewisePowerFunction((PowerPiece(0.0, 1e200, 1.0, 0.0, 0.0),))
        assert apply_closed_form(lambda_star_op(8), f, 1e100) == pytest.approx(
            1.25, rel=4 * np.finfo(float).eps, abs=0.0)

    def test_power_piece_where_the_prefactor_overflows(self):
        # f = 1 + 2 s^(3/2) on (0, 1) under m = 1: the power term adds
        # 2 (1 + 2k) t^(3/2) / (3/2 + k + 1) - 2 t^(3/2), which underflows
        f = PiecewisePowerFunction((PowerPiece(0.0, 1.0, 1.0, 2.0, 1.5),))
        assert apply_closed_form(lambda_op(1), f, 1e-300) == pytest.approx(
            1.0 / 3.0, rel=4 * np.finfo(float).eps, abs=0.0)


class TestQuadratureOracle:
    def test_constant_integrand(self):
        f = PiecewisePowerFunction((PowerPiece(0.0, 100.0, 1.0, 0.0, 0.0),))
        op = lambda_op(1)
        closed = apply_closed_form(op, f, 50.0)
        quad = apply_quadrature_oracle(op, f, 50.0)
        assert quad == pytest.approx(closed, abs=1e-8)

    def test_restricted_family_midpoint(self):
        params = mid_spec(4)
        f = build_spec(params)
        op = lambda_op(4)
        t = params.d / 2.0
        assert apply_quadrature_oracle(op, f, t) == pytest.approx(
            apply_closed_form(op, f, t), abs=1e-8
        )

    def test_adjoint_family_plateau(self):
        params = FStarSpecParams(1, 0.649, 0.150)
        f = build_star_spec(params)
        t = (params.b_star + 1.0) / 2.0
        assert apply_quadrature_oracle(lambda_star_op(1), f, t) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_singular_integrand_converges(self):
        # p = -1.4 is integrable against sqrt(s); the panel from 0 is cut
        # where the exact tail of s**-0.9 is a quarter of its share
        f = PiecewisePowerFunction((PowerPiece(0.0, 1.0, 0.0, 1.0, -1.4),))
        op = lambda_op(1)
        assert apply_quadrature_oracle(op, f, 0.5) == pytest.approx(
            apply_closed_form(op, f, 0.5), abs=1e-8
        )

    def test_singular_integrand_signals_failure(self):
        # at p = -1.49 the integrand s**-0.99 is too close to non-integrable:
        # the cut where its tail is small enough underflows; it must say so,
        # not guess
        f = PiecewisePowerFunction((PowerPiece(0.0, 1.0, 0.0, 1.0, -1.49),))
        with pytest.raises(QuadratureError):
            apply_quadrature_oracle(lambda_op(1), f, 0.5)

    def test_underflowed_prefactor_far_beyond_support(self):
        # (1+m) * t**(-1-m/2) underflows to 0 at t = 1e100 for m = 8
        f = PiecewisePowerFunction((PowerPiece(1.0, 2.0, 1.0, 0.0, 0.0),))
        op = lambda_op(8)
        assert apply_quadrature_oracle(op, f, 1e100) == apply_closed_form(op, f, 1e100)

    def test_adjoint_family_inside_tolerance(self):
        # a restricted adjoint family on which a loose oracle misses 1e-8
        f = build_star_spec(FStarSpecParams(3, 0.7639275686137361, 0.2986008480383443))
        op = lambda_star_op(3)
        closed = apply_closed_form(op, f, 0.651304)
        assert abs(closed - apply_quadrature_oracle(op, f, 0.651304)) <= 1e-8


class TestSuperlevel:
    def test_zero_function(self):
        f = PiecewisePowerFunction((PowerPiece(1.0, 2.0, 0.0, 0.0, 0.0),))
        result = superlevel_measure(lambda_op(1), f)
        assert result.measure == 0.0
        assert result.intervals == ()

    def test_restricted_family_single_interval(self):
        params = mid_spec(2)
        f = build_spec(params)
        result = superlevel_measure(lambda_op(2), f)
        assert len(result.intervals) == 1
        lo, hi = result.intervals[0]
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(params.d, rel=1e-12)
        assert result.measure == pytest.approx(params.d - 1.0, rel=1e-12)

    def test_general_family_with_overshoot(self):
        # b > b_min(1) makes the first piece's mass push |Tf| above 1 in the
        # gap (b, c); the measure gains the closed-form overshoot endpoints
        params = GeneralFamilyParams(1, 1.0, 2.0, 3.0, 3.3)
        f = build_general(params)
        result = superlevel_measure(lambda_op(1), f, certify=True)
        report = functionals.general_ratio(params)
        assert result.measure == pytest.approx(report.numerator, rel=1e-9)
        assert len(result.intervals) == 2

    def test_adjoint_restricted_family(self):
        params = FStarSpecParams(1, 0.649, 0.150)
        f = build_star_spec(params)
        result = superlevel_measure(lambda_star_op(1), f)
        assert len(result.intervals) == 1
        assert result.measure == pytest.approx(1.0 - params.d_star, rel=1e-12)

    def test_adjoint_general_family_with_overshoot(self):
        # b* < b*_max(1) pushes |T f| above 1 on part of the gap (c*, b*)
        params = GeneralStarFamilyParams(1, 1.0, 0.6, 0.24, 0.1)
        f = build_general_star(params)
        result = superlevel_measure(lambda_star_op(1), f, certify=True)
        report = functionals.general_ratio_star(params)
        assert result.measure == pytest.approx(report.numerator, rel=1e-9)
        assert len(result.intervals) == 2

    def test_full_gap_overshoot_merges_intervals(self):
        # a deeper overshoot covers the whole gap and the head extension,
        # leaving one merged interval
        params = GeneralStarFamilyParams(1, 1.0, 0.55, 0.35, 0.2)
        f = build_general_star(params)
        result = superlevel_measure(lambda_star_op(1), f, certify=True)
        report = functionals.general_ratio_star(params)
        assert result.measure == pytest.approx(report.numerator, rel=1e-9)
        assert len(result.intervals) == 1

    def test_threshold_must_be_positive(self):
        f = PiecewisePowerFunction((PowerPiece(1.0, 2.0, 1.0, 0.0, 0.0),))
        with pytest.raises(ValueError):
            superlevel_measure(lambda_op(1), f, threshold=0.0)


class TestScalingInvariance:
    def test_measure_and_norm_scale_linearly(self):
        params = mid_spec(3)
        f = build_spec(params)
        op = lambda_op(3)
        base = superlevel_measure(op, f).measure
        for lam in (0.5, 2.0, 3.7):
            scaled = dilate(f, lam)
            assert superlevel_measure(op, scaled).measure == pytest.approx(
                lam * base, rel=1e-9
            )
            assert l1_norm(scaled) == pytest.approx(lam * l1_norm(f), rel=1e-9)


class TestOffSupportDecay:
    def test_mass_formula_beyond_support(self):
        params = GeneralFamilyParams(2, 1.0, 1.3, 1.6, 2.5)
        f = build_general(params)
        op = lambda_op(2)
        values = [
            apply_closed_form(op, f, t) * t ** (1.0 + 1.0)
            for t in np.linspace(params.d * 1.01, params.d * 3.0, 9)
        ]
        assert max(values) - min(values) == pytest.approx(0.0, abs=1e-9)


class TestEigenCheck:
    def test_forward_alpha_zero(self):
        # eigenvalue (m/2 - 0)/(1 + m/2) = 1/2 at m = 2
        assert eigen_check(lambda_op(2), 0.0, [0.5, 1.0, 2.0]) < 1e-10

    def test_forward_kernel(self):
        assert eigen_check(lambda_op(2), 1.0, [0.5, 1.0, 2.0]) < 1e-10

    def test_adjoint_kernel(self):
        assert eigen_check(lambda_star_op(1), -1.5, [0.5, 1.0, 2.0]) < 1e-10

    def test_out_of_range_alpha_rejected(self):
        with pytest.raises(ValueError):
            eigen_check(lambda_op(2), -2.5, [1.0])
        with pytest.raises(ValueError):
            eigen_check(lambda_star_op(2), 1.5, [1.0])

    def test_adjoint_tail_accounted_exactly(self):
        # a cut-off at 1e6 without the tail's mass leaves 7.2e-11 here
        assert eigen_check(lambda_star_op(8), 2.0, [2.0]) < 1e-13


class TestClosedFormVsOracleSweep:
    def test_agreement_across_random_families(self):
        rng = np.random.default_rng(7)
        from weaktype.families import b_min, b_max

        for _ in range(20):
            m = int(rng.integers(1, 9))
            u, v = rng.uniform(0.05, 0.95, 2)
            b = b_min(m) + u * (b_max(m) - b_min(m))
            d = d_min(b, m) + v * (d_max(b, m) - d_min(b, m))
            f = build_spec(FSpecParams(m, b, d))
            op = lambda_op(m)
            for t in rng.uniform(0.3, 1.5 * d, size=10):
                closed = apply_closed_form(op, f, float(t))
                quad = apply_quadrature_oracle(op, f, float(t))
                assert abs(closed - quad) < 1e-8

    def test_adjoint_agreement_across_random_families(self):
        rng = np.random.default_rng(8)
        from weaktype.families import b_star_max, b_star_min, d_star_max, d_star_min

        for _ in range(20):
            m = int(rng.integers(1, 9))
            u, v = rng.uniform(0.05, 0.95, 2)
            bs = b_star_min(m) + u * (b_star_max(m) - b_star_min(m))
            ds = d_star_min(bs, m) + v * (d_star_max(bs, m) - d_star_min(bs, m))
            f = build_star_spec(FStarSpecParams(m, bs, ds))
            op = lambda_star_op(m)
            for t in rng.uniform(0.5 * ds, 1.5, size=10):
                closed = apply_closed_form(op, f, float(t))
                quad = apply_quadrature_oracle(op, f, float(t))
                assert abs(closed - quad) < 1e-8


@pytest.mark.parametrize("op", [lambda_op(1), lambda_star_op(1)], ids=["lambda", "star"])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda op, f: apply_closed_form(op, f, math.nan), "t must be positive"),
        (lambda op, f: apply_quadrature_oracle(op, f, math.nan), "t must be positive"),
        (lambda op, f: apply_quadrature_oracle(op, f, 0.5, tol=math.nan),
         "tol must be positive"),
        (lambda op, f: superlevel_measure(op, f, math.nan),
         "threshold must be positive"),
    ],
    ids=["closed_form-t", "oracle-t", "oracle-tol", "superlevel-threshold"],
)
def test_nan_is_rejected(op, call, message):
    # a NaN input is a ValueError, never a NaN value, an empty set or a
    # QuadratureError
    f = PiecewisePowerFunction((PowerPiece(0.25, 1.0, 1.0, 0.0, 0.0),))
    with pytest.raises(ValueError, match=f"{message}, got nan"):
        call(op, f)


@pytest.mark.parametrize(
    "route", [apply_closed_form, apply_quadrature_oracle], ids=["closed_form", "oracle"]
)
def test_infinite_t_is_rejected(route):
    # the adjoint range (inf, 1] is empty, and its infinite prefactor times 0
    # read NaN
    f = build_star_spec(FStarSpecParams(1, 0.65, 0.3))
    with pytest.raises(ValueError, match=re.escape("t must be positive, got inf")):
        route(lambda_star_op(1), f, math.inf)


@pytest.mark.parametrize(
    "route", [apply_closed_form, apply_quadrature_oracle], ids=["closed_form", "oracle"]
)
def test_range_without_pieces_is_minus_f(route):
    # no piece meets (0, 1e-308), where the prefactor 2 t^(-3/2) overflows: the
    # closed form raised OverflowError and the oracle read NaN; Tf is 0 there
    g = build_spec(FSpecParams(1, 2.157, 6.623))
    value = route(lambda_op(1), g, 1e-308)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    if route is apply_quadrature_oracle:
        batch = route(lambda_op(1), g, np.array([1e-308, 3.0]))
        assert batch.tolist() == [0.0, route(lambda_op(1), g, 3.0)]

