import math
import re

import numpy as np
import pytest

import weaktype
from weaktype import families
from weaktype.families import (
    B_SP,
    B_STAR_SP,
    ConstraintViolation,
    FSpecParams,
    FStarSpecParams,
    GeneralFamilyParams,
    GeneralStarFamilyParams,
    b_max,
    b_min,
    b_star_max,
    b_star_min,
    build_general,
    build_general_star,
    build_spec,
    build_star_spec,
    d_max,
    d_min,
    d_star_max,
    d_star_min,
    validate_spec,
    validate_star_spec,
)
from weaktype.operators import apply_closed_form, lambda_op, lambda_star_op
from weaktype.piecewise import _interior_root, evaluate


class TestBuildGeneral:
    def test_reduces_to_restricted_at_a1_cb(self):
        general = build_general(GeneralFamilyParams(1, 1.0, 2.157, 2.157, 6.623))
        restricted = build_spec(FSpecParams(1, 2.157, 6.623))
        for t in np.linspace(1.01, 6.6, 50):
            assert evaluate(general, float(t)) == pytest.approx(
                evaluate(restricted, float(t)), rel=1e-12, abs=1e-12
            )

    def test_forward_image_is_one_on_first_interval(self):
        params = GeneralFamilyParams(2, 0.7, 1.2, 1.9, 3.1)
        f = build_general(params)
        op = lambda_op(2)
        for t in np.linspace(0.71, 1.19, 9):
            assert apply_closed_form(op, f, float(t)) == pytest.approx(1.0, abs=1e-9)

    def test_leading_coefficient_at_unit_scale(self):
        assert families._general_B(1.0, 3 / 2.0) == pytest.approx(-2.0 * 4.0 / 3.0)

    def test_bad_ordering_rejected(self):
        with pytest.raises(ConstraintViolation):
            GeneralFamilyParams(1, 1.0, 0.9, 2.0, 3.0)
        with pytest.raises(ConstraintViolation):
            GeneralFamilyParams(1, 1.0, 2.0, 1.5, 3.0)


class TestBuildGeneralStar:
    def test_reduces_to_restricted_at_a1_cb(self):
        params = GeneralStarFamilyParams(1, 1.0, 0.649, 0.649, 0.15)
        general = build_general_star(params)
        restricted = build_star_spec(FStarSpecParams(1, 0.649, 0.15))
        for t in np.linspace(0.151, 0.999, 50):
            assert evaluate(general, float(t)) == pytest.approx(
                evaluate(restricted, float(t)), rel=1e-12, abs=1e-12
            )

    def test_adjoint_image_is_minus_one_then_one(self):
        params = GeneralStarFamilyParams(2, 2.3, 1.4, 0.9, 0.5)
        f = build_general_star(params)
        op = lambda_star_op(2)
        for t in np.linspace(0.51, 0.89, 9):
            assert apply_closed_form(op, f, float(t)) == pytest.approx(-1.0, abs=1e-9)
        for t in np.linspace(1.41, 2.29, 9):
            assert apply_closed_form(op, f, float(t)) == pytest.approx(1.0, abs=1e-9)

    def test_coefficient_at_unit_scale_without_gap(self):
        # a* = 1, c* = b*: the inner coefficient is the restricted one
        k, bs = -1.0 - 3 / 2.0, 0.7
        assert families._general_D(1.0, bs, bs, k) == pytest.approx(
            families._spec_D(bs, k), rel=1e-13
        )

    def test_bad_ordering_rejected(self):
        with pytest.raises(ConstraintViolation):
            GeneralStarFamilyParams(1, 1.0, 1.2, 0.5, 0.3)
        with pytest.raises(ConstraintViolation):
            GeneralStarFamilyParams(1, 1.0, 0.5, 0.6, 0.3)
        with pytest.raises(ConstraintViolation):
            GeneralStarFamilyParams(1, 1.0, 0.6, 0.5, 0.5)
        with pytest.raises(ConstraintViolation):
            GeneralStarFamilyParams(1, 1.0, 0.6, 0.5, 0.0)

    def test_validate_accepts_params(self):
        diagnostics = families._validate_chain(
            2, families._GENERAL_STAR_NAMES, 0.3, 0.6, 0.8, 1.0
        )
        assert [diag.name for diag in diagnostics] == [
            "d* > 0", "c* > d*", "b* >= c*", "a* > b*"
        ]
        assert all(diag.satisfied for diag in diagnostics)


class TestBuildSpec:
    @pytest.mark.parametrize(
        "m,b,d,root",
        [(1, 2.157, 6.623, 4.29782), (2, 1.566, 3.284, 2.40552)],
    )
    def test_sign_change_matches_reference(self, m, b, d, root):
        f = build_spec(FSpecParams(m, b, d))
        first, second = f.pieces
        assert _interior_root(first) is None
        found = _interior_root(second)
        assert found == pytest.approx(root, abs=1e-5)
        assert found == pytest.approx(d_min(b, m), rel=1e-13)

    def test_second_piece_vanishes_at_b_min(self):
        m = 2
        b = b_min(m) * (1.0 + 1e-11)
        value = -(2.0 + m) / m + families._spec_D(b, m / 2.0) * b ** (m / 2.0)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_rejected(self):
        with pytest.raises(ConstraintViolation):
            FSpecParams(1, 1.0, 2.0)


class TestBuildStarSpec:
    def test_near_optimal_adjoint_point(self):
        params = FStarSpecParams(1, 0.649, 0.150)
        f = build_star_spec(params)
        op = lambda_star_op(1)
        for t in np.linspace(0.151, 0.648, 9):
            assert apply_closed_form(op, f, float(t)) == pytest.approx(-1.0, abs=1e-9)
        for t in np.linspace(0.6491, 0.999, 9):
            assert apply_closed_form(op, f, float(t)) == pytest.approx(1.0, abs=1e-9)

    def test_inner_piece_vanishes_at_b_star_max(self):
        m = 2
        bs = b_star_max(m) * (1.0 - 1e-11)
        k = -1.0 - m / 2.0
        value = -m / (2.0 + m) + families._spec_D(bs, k) * bs ** k
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_midpoint_parameters_feasible(self):
        m = 3
        bs = 0.5 * (b_star_min(m) + b_star_max(m))
        ds = 0.5 * (d_star_min(bs, m) + d_star_max(bs, m))
        assert all(diag.satisfied for diag in validate_star_spec(m, bs, ds))


class TestBoundaries:
    def test_m1_interval(self):
        assert b_min(1) == pytest.approx(1.5625, abs=1e-14)
        assert b_max(1) == pytest.approx(4.0, abs=1e-14)
        assert B_SP == pytest.approx(7.0 ** (2.0 / 3.0), abs=1e-14)

    def test_m1_adjoint_interval(self):
        assert b_star_min(1) == pytest.approx(2.0 ** (-2.0 / 3.0), abs=1e-14)
        assert b_star_max(1) == pytest.approx((4.0 / 7.0) ** (2.0 / 3.0), abs=1e-14)
        assert B_STAR_SP == pytest.approx(0.63004, abs=1e-5)
        assert b_star_min(1) < 0.63 < B_STAR_SP < 0.68 < b_star_max(1)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 20])
    def test_d_min_at_b_min_closes_the_corner(self, m):
        assert d_min(b_min(m), m) == pytest.approx(b_min(m), rel=1e-12)

    def test_adjoint_split_point_value(self):
        assert B_STAR_SP == pytest.approx(
            (27.0 / (54.0 - 16.0 * (2.0 - 7.0 ** (1.0 / 3.0)) ** 3)) ** (2.0 / 3.0)
        )
        assert B_SP == pytest.approx(7.0 ** (2.0 / 3.0))


class TestValidate:
    def test_feasible_point_all_positive(self):
        diagnostics = validate_spec(1, 2.157, 6.623)
        assert all(diag.satisfied for diag in diagnostics)
        assert all(diag.slack > 0 for diag in diagnostics)

    def test_b_below_b_min_flagged(self):
        diagnostics = validate_spec(1, 1.0, 2.0)
        failing = [diag.name for diag in diagnostics if not diag.satisfied]
        assert "b > b_min" in failing

    def test_d_above_d_max_flagged(self):
        diagnostics = validate_spec(2, 1.566, d_max(1.566, 2) * 1.01)
        failing = [diag.name for diag in diagnostics if not diag.satisfied]
        assert "d < d_max(b)" in failing

    @pytest.mark.parametrize("m", [np.int64(3), True, 2.0, 0])
    @pytest.mark.parametrize(
        "params,args",
        [
            (FSpecParams, (2.157, 6.623)),
            (FStarSpecParams, (0.649, 0.150)),
            (GeneralFamilyParams, (0.7, 1.2, 1.9, 3.1)),
            (GeneralStarFamilyParams, (2.3, 1.4, 0.9, 0.5)),
        ],
    )
    def test_non_integer_or_small_m_rejected(self, params, args, m):
        message = f"m must be an integer >= 1, got {m!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            params(m, *args)

    @pytest.mark.parametrize(
        "params,b,name",
        [(FSpecParams, 1e-20, "b > b_min"), (FStarSpecParams, 1e100, "b* < b*_max")],
    )
    def test_b_far_beyond_near_end_rejected(self, params, b, name):
        # b**(-k) overflows there, so D is not computed; the near end fails
        with pytest.raises(ConstraintViolation, match=re.escape(name)):
            params(40, b, 0.5)

    @pytest.mark.parametrize(
        "params,validator,m,b,d,name",
        [
            (FSpecParams, validate_spec, 40, 1.03, 1e30, "d < d_max(b)"),
            (FStarSpecParams, validate_star_spec, 8, 0.9, 1e-80, "d* > d*_min(b*)"),
        ],
    )
    def test_d_far_beyond_its_range_rejected(self, params, validator, m, b, d, name):
        # d**k overflows there, so the piece values at d are not computed; the
        # diagnostics stop after the d-range, whose far end fails
        diagnostics = validator(m, b, d)
        assert [diag.name for diag in diagnostics if not diag.satisfied] == [name]
        assert name in [diag.name for diag in diagnostics[-2:]]
        with pytest.raises(ConstraintViolation, match=re.escape(name)):
            params(m, b, d)


# One sample call of each public name that derives the kernel exponent from m.
_M_TAKERS = {
    "b_min": (), "b_max": (), "d_min": (2.0,), "d_max": (2.0,),
    "b_star_min": (), "b_star_max": (), "d_star_min": (0.7,), "d_star_max": (0.7,),
    "W": (2.0, 5.0), "W_star": (0.649, 0.150),
}


@pytest.mark.parametrize("m", [0, -3, True, 1.5])
@pytest.mark.parametrize("name", _M_TAKERS)
def test_bad_m_rejected(name, m):
    message = f"m must be an integer >= 1, got {m!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(weaktype, name)(*_M_TAKERS[name], m)
