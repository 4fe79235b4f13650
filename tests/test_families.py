import math
import re

import numpy as np
import pytest

import weaktype
from weaktype import families, operators
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

    def test_infinite_far_end_rejected(self):
        # l1_norm used to read nan and general_ratio to raise DenominatorError
        with pytest.raises(ConstraintViolation, match=re.escape("d < inf")):
            GeneralFamilyParams(1, 1.0, 2.0, 3.0, math.inf)

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
            families._spec_D(families._coefficient(bs, k), k), rel=1e-13
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

    def test_infinite_far_end_rejected(self):
        # build_general_star used to divide by zero at a* = inf
        with pytest.raises(ConstraintViolation, match=re.escape("a* < inf")):
            GeneralStarFamilyParams(1, math.inf, 0.5, 0.4, 0.3)

    def test_validate_accepts_params(self):
        slacks = list(families._validate_chain(
            2, families._GENERAL_STAR_NAMES, 0.3, 0.6, 0.8, 1.0
        ))
        assert [name for name, _ in slacks] == [
            "d* > 0", "c* > d*", "b* >= c*", "a* > b*", "a* < inf"
        ]
        assert all(slack > 0.0 for _, slack in slacks)


def _ref_chain(names, x0, x1, x2, x3):
    """The general-family ordering 0 < x0 < x1 <= x2 < x3 < inf stated link by
    link, comparisons for the verdicts and differences for the slacks: the
    ConstraintViolation message at the first link that fails, or None."""
    links = [
        (x0, x0 > 0.0),
        (x1 - x0, x1 > x0),
        (x2 - x1, x2 >= x1),
        (x3 - x2, x3 > x2),
        (math.inf if math.isfinite(x3) else -math.inf, math.isfinite(x3)),
    ]
    for name, (slack, ok) in zip(names, links):
        if not ok:
            return f"constraint violated: {name} (slack {slack:.6g})"
    return None


_SPECIAL = [math.nan, 0.0, -0.0, -1.0, 5e-324, 1e-300, 1e20, 1e100, 1e300,
            math.inf, -math.inf]


@pytest.mark.parametrize(
    "params,names,ascending",
    [(GeneralFamilyParams, families._GENERAL_NAMES, lambda xs: xs),
     (GeneralStarFamilyParams, families._GENERAL_STAR_NAMES, lambda xs: xs[::-1])],
    ids=["forward", "adjoint"],
)
def test_general_chain_matches_the_ordering_rule(params, names, ascending):
    # construction raises at the first failing link of the ordering, with its
    # slack, and accepts exactly the ordered points, c = b included
    rng = np.random.default_rng(31)
    outcomes = set()
    for m in (1, 2, 7, 40):
        for _ in range(1500):
            xs = sorted(rng.uniform(0.05, 5.0, 4).tolist())
            if rng.uniform() < 0.3:
                xs[2] = xs[1]
            if rng.uniform() < 0.2:
                rng.shuffle(xs)
            xs = [float(rng.choice(_SPECIAL)) if rng.uniform() < 0.1 else x
                  for x in xs]
            if rng.uniform() < 0.05:
                xs[2] = xs[1]
            expected = _ref_chain(names, *xs)
            args = ascending(xs)  # GeneralStarFamilyParams takes a*, b*, c*, d*
            if expected is None:
                params(m, *args)
                outcomes.add("c = b" if xs[2] == xs[1] else "feasible")
                continue
            with pytest.raises(ConstraintViolation) as raised:
                params(m, *args)
            assert str(raised.value) == expected
            outcomes.add(expected.split(" (")[0].removeprefix("constraint violated: "))
    assert outcomes == {"feasible", "c = b", *names}


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
        k = m / 2.0
        dd = families._spec_D(families._coefficient(b, k), k)
        value = -(2.0 + m) / m + dd * b ** k
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
        dd = families._spec_D(families._coefficient(bs, k), k)
        value = -m / (2.0 + m) + dd * bs ** k
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_midpoint_parameters_feasible(self):
        m = 3
        bs = 0.5 * (b_star_min(m) + b_star_max(m))
        ds = 0.5 * (d_star_min(bs, m) + d_star_max(bs, m))
        FStarSpecParams(m, bs, ds)
        slacks = list(families._validate_restricted(
            -1.0 - m / 2.0, bs, ds, families._STAR_SPEC_NAMES))
        assert len(slacks) == 10
        assert all(slack > 0.0 for _, slack in slacks)


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

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 20, 40])
    @pytest.mark.parametrize(
        "fn, adjoint",
        [(d_min, False), (d_max, False), (d_star_min, True), (d_star_max, True)],
        ids=["d_min", "d_max", "d_star_min", "d_star_max"],
    )
    def test_array_matches_scalar(self, fn, adjoint, m):
        # The boundaries suite calls these on arrays of b.  Array pow may
        # differ from libm pow in the last bit, and the cancellation in
        # x = 2 b^(-k) - 1 near the far end of the b-range scales that by the
        # condition number 1 + |(x + 1) / (k x)|.
        if adjoint:
            k = -1.0 - m / 2.0
            grid = np.linspace(b_star_min(m) * (1.0 + 1e-6), b_star_max(m), 200)
        else:
            k = m / 2.0
            grid = np.linspace(b_min(m), b_max(m) * (1.0 - 1e-6), 200)
        scalar = np.array([fn(b, m) for b in grid.tolist()])
        x = np.array([2.0 * b ** (-k) - 1.0 for b in grid.tolist()])
        rtol = 4.0 * np.finfo(float).eps * (1.0 + np.abs((x + 1.0) / (k * x)))
        assert np.all(np.abs(fn(grid, m) - scalar) <= rtol * scalar)

    @pytest.mark.parametrize(
        "fn, b, m, message",
        [
            (d_min, 3.0, 2, "D(b, m) > 0 (slack -1)"),
            (d_max, 3.0, 2, "D(b, m) > 0 (slack -1)"),
            (d_min, 3.0, 3, "D(b, m) > 0 (slack -1.64027)"),
            (d_min, b_max(2), 2, "D(b, m) > 0 (slack 0)"),
            (d_star_max, 0.1, 2, "D*(b*, m) > 0 (slack -1.47)"),
            (d_star_min, 0.1, 2, "D*(b*, m) > 0 (slack -1.47)"),
            (d_max, math.nan, 2, "b > 0 (slack nan)"),
            (d_min, 0.0, 2, "b > 0 (slack 0)"),
            (d_star_max, -1.0, 3, "b* > 0 (slack -1)"),
            (d_min, np.array([1.5, 1.8, 3.0, 2.5]), 2, "D(b, m) > 0 (slack -1)"),
            (d_star_min, np.array([0.7, 0.8, -1.0, 0.0]), 2, "b* > 0 (slack -1)"),
            (d_max, np.array([1.5, math.nan]), 2, "b > 0 (slack nan)"),
        ],
    )
    def test_past_the_far_end_rejected(self, fn, b, m, message):
        # x = 2 b^(-k) - 1 is not > 0 there: these returned negative, complex
        # or ZeroDivisionError; an array reports its first bad element
        with pytest.raises(ConstraintViolation,
                           match=f"^constraint violated: {re.escape(message)}$"):
            fn(b, m)

    @pytest.mark.parametrize(
        "fn, b, m, message",
        [
            (d_star_min, math.inf, 2, "b* < b*_max (slack -inf)"),
            (d_star_max, math.inf, 2, "b* < b*_max (slack -inf)"),
            (d_min, 1e-20, 40, "b > b_min (slack -1.02006)"),
            (d_max, 1e-20, 40, "b > b_min (slack -1.02006)"),
            (d_max, np.float64(1e-20), 40, "b > b_min (slack -1.02006)"),
            (d_star_min, np.float64(math.inf), 2, "b* < b*_max (slack -inf)"),
            (d_min, np.array([1.03, 1e-20, 1.025]), 40, "b > b_min (slack -1.02006)"),
            (d_star_max, np.array([0.75, math.inf]), 2, "b* < b*_max (slack -inf)"),
        ],
    )
    def test_far_past_the_near_end_rejected(self, fn, b, m, message):
        # b^(-k) overflows there, so x is inf: these raised ZeroDivisionError
        # or OverflowError, returned inf, or warned on arrays
        with pytest.raises(ConstraintViolation,
                           match=f"^constraint violated: {re.escape(message)}$"):
            fn(b, m)

    def test_near_side_keeps_its_value(self):
        # b below b_min has x > 0: the closed forms stay finite and unchecked
        for fn, b, m, k in [(d_min, 1.0, 2, 1.0), (d_max, 1.0, 2, 1.0),
                            (d_star_max, 0.95, 2, -2.0), (d_star_min, 0.95, 2, -2.0)]:
            x = families._coefficient(b, k)
            far = fn in (d_max, d_star_min)
            assert fn(b, m) == (families._d_far(x, k) if far else families._t_0(x, k))


def _walk_to_first_failure(k, b, d, names):
    """The restricted walk's (name, slack) pairs as construction reads them:
    up to and including the first slack that is not > 0."""
    out = []
    for name, slack in families._validate_restricted(k, b, d, names):
        out.append((name, slack))
        if not slack > 0.0:
            break
    return out


class TestValidate:
    def test_feasible_point_all_positive(self):
        slacks = list(families._validate_restricted(
            0.5, 2.157, 6.623, families._SPEC_NAMES))
        assert [name for name, _ in slacks] == list(families._SPEC_NAMES)
        assert all(slack > 0.0 for _, slack in slacks)
        FSpecParams(1, 2.157, 6.623)

    def test_b_below_b_min_flagged(self):
        with pytest.raises(ConstraintViolation, match=re.escape("b > b_min")):
            FSpecParams(1, 1.0, 2.0)

    def test_d_above_d_max_flagged(self):
        with pytest.raises(ConstraintViolation, match=re.escape("d < d_max(b)")):
            FSpecParams(2, 1.566, d_max(1.566, 2) * 1.01)

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
        "params,k_of,m,b,d,name",
        [
            (FSpecParams, operators._forward_k, 40, 1.03, 1e30, "d < d_max(b)"),
            (FStarSpecParams, operators._adjoint_k, 8, 0.9, 1e-80, "d* > d*_min(b*)"),
        ],
        ids=["forward", "adjoint"],
    )
    def test_d_far_beyond_its_range_rejected(self, params, k_of, m, b, d, name):
        # d**k overflows there; the walk stops at the d-range, whose far end
        # fails, before the piece values at d
        names = families._STAR_SPEC_NAMES if params is FStarSpecParams else families._SPEC_NAMES
        walk = _walk_to_first_failure(k_of(m), b, d, names)
        assert [pair[0] for pair in walk] == list(names[:7])
        assert walk[-1][0] == name
        with pytest.raises(ConstraintViolation, match=re.escape(name)):
            params(m, b, d)

    @pytest.mark.parametrize(
        "params,k_of",
        [(FSpecParams, operators._forward_k),
         (FStarSpecParams, operators._adjoint_k)],
        ids=["forward", "adjoint"],
    )
    def test_params_raise_the_first_unsatisfied_diagnostic(self, params, k_of):
        # construction fails at the walk's first unsatisfied slack, with its
        # name and slack, and accepts where all ten are satisfied; the walk
        # raises nothing else when read only that far
        rng = np.random.default_rng(29)
        special = [math.nan, 0.0, -1.0, 1e-300, 1e300, math.inf]
        names = families._STAR_SPEC_NAMES if params is FStarSpecParams else families._SPEC_NAMES
        outcomes = set()
        for m in (1, 2, 3, 8, 40, 160):
            k = k_of(m)
            lo, hi = sorted((families._b_near(k), families._b_far(k)))
            points = [(b, d) for b in special for d in special]
            for _ in range(150):
                u = rng.uniform(-0.2, 1.2)
                b = lo + u * (hi - lo)
                # the d-range at the nearest b inside the b-range
                x = families._coefficient(lo + min(max(u, 0.01), 0.99) * (hi - lo), k)
                d_lo, d_hi = sorted((families._t_0(x, k), families._d_far(x, k)))
                points.append((b, d_lo + rng.uniform(-0.2, 1.2) * (d_hi - d_lo)))
                points.append((b, float(rng.choice(special))))
            for b, d in points:
                walk = _walk_to_first_failure(k, b, d, names)
                name, slack = walk[-1]
                if slack > 0.0:
                    assert len(walk) == len(names)
                    params(m, b, d)
                    outcomes.add("feasible")
                    continue
                with pytest.raises(ConstraintViolation) as raised:
                    params(m, b, d)
                assert str(raised.value) == (
                    f"constraint violated: {name} (slack {slack:.6g})")
                outcomes.add(name)
        # D fails only beyond the far end of b, which fails before it; the
        # piece checks are redundant with the d-range
        pos_b, pos_d, near, far, _, *d_range = names
        assert outcomes >= {"feasible", pos_b, pos_d, near, far, *d_range[:2]}


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
