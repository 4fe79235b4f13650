import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from weaktype import families, functionals
from weaktype.families import FSpecParams, build_spec, d_min
from weaktype.piecewise import (
    PiecewisePowerFunction,
    PowerPiece,
    _interior_root,
    dilate,
    evaluate,
    l1_norm,
    moment_integral,
)


def single(piece: PowerPiece) -> PiecewisePowerFunction:
    return PiecewisePowerFunction((piece,))


class TestEvaluate:
    def test_outside_support_is_zero(self):
        f = single(PowerPiece(1.0, 2.0, 3.0, -4.0, 0.5))
        assert evaluate(f, 4.0) == 0.0

    def test_first_restricted_piece_left_limit(self):
        # m=1, a=1: c0 = 3, c1 = -4, p = 1/2; the limit at 1+ is -1
        f = single(PowerPiece(1.0, 2.157, 3.0, -4.0, 0.5))
        assert evaluate(f, 1.0 + 1e-12) == pytest.approx(-1.0, abs=1e-10)
        # t = 1 itself lies outside the half-open piece
        assert evaluate(f, 1.0) == 0.0

    def test_pure_power_at_right_endpoint(self):
        f = single(PowerPiece(1.0, 4.0, 0.0, 1.0, 0.5))
        assert evaluate(f, 4.0) == pytest.approx(2.0)

    def test_shared_endpoint_belongs_to_left_piece(self):
        f = PiecewisePowerFunction(
            (PowerPiece(1.0, 2.0, 5.0, 0.0, 0.0), PowerPiece(2.0, 3.0, 7.0, 0.0, 0.0))
        )
        assert evaluate(f, 2.0) == 5.0

    def test_nonpositive_t_rejected(self):
        f = single(PowerPiece(1.0, 2.0, 1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            evaluate(f, 0.0)
        with pytest.raises(ValueError):
            evaluate(f, -1.0)


class TestConstruction:
    def test_overlapping_pieces_rejected(self):
        with pytest.raises(ValueError):
            PiecewisePowerFunction(
                (PowerPiece(1.0, 3.0, 1.0, 0.0, 0.0), PowerPiece(2.0, 4.0, 1.0, 0.0, 0.0))
            )

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            PowerPiece(2.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PowerPiece(-1.0, 1.0, 0.0, 0.0, 0.0)

    def test_pieces_sorted_on_construction(self):
        f = PiecewisePowerFunction(
            (PowerPiece(2.0, 3.0, 1.0, 0.0, 0.0), PowerPiece(0.5, 1.0, 1.0, 0.0, 0.0))
        )
        assert f.pieces[0].t_lo == 0.5
        assert f.support() == (0.5, 3.0)


class TestMomentIntegral:
    def test_zero_function(self):
        f = single(PowerPiece(1.0, 2.0, 0.0, 0.0, 0.0))
        assert moment_integral(f, 0.5, 0.0, 3.0) == 0.0

    def test_first_piece_weighted_mass_vanishes(self):
        # the extension of the first restricted piece to (0, 1] has zero
        # weighted mass: int_0^1 (3 - 4 sqrt(s)) sqrt(s) ds = 0 for m = 1
        f = single(PowerPiece(0.0, 1.0, 3.0, -4.0, 0.5))
        assert moment_integral(f, 0.5, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_restricted_piece_below_support(self):
        f = single(PowerPiece(1.0, 2.157, 3.0, -4.0, 0.5))
        assert moment_integral(f, 0.5, 0.0, 1.0) == 0.0

    def test_log_branch(self):
        f = single(PowerPiece(1.0, 2.0, 1.0, 0.0, 0.0))
        value = moment_integral(f, -1.0, 1.0, 2.0)
        oracle, _ = quad(lambda s: 1.0 / s, 1.0, 2.0, epsabs=1e-12, epsrel=0.0)
        assert value == pytest.approx(math.log(2.0), abs=1e-14)
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_bad_bounds_rejected(self):
        f = single(PowerPiece(1.0, 2.0, 1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            moment_integral(f, 0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            moment_integral(f, 0.0, -1.0, 1.0)


class TestL1Norm:
    def test_zero_function(self):
        f = single(PowerPiece(1.0, 2.0, 0.0, 0.0, 0.0))
        assert l1_norm(f) == 0.0

    def test_sign_change_split_against_grid_quadrature(self):
        # c0 = -3, c1 = 2, p = 1/2: sign change at (3/2)^2 = 2.25 inside (1, 4)
        piece = PowerPiece(1.0, 4.0, -3.0, 2.0, 0.5)
        f = single(piece)
        ts = np.linspace(1.0, 4.0, 1_000_001)
        mids = 0.5 * (ts[:-1] + ts[1:])
        oracle = float(np.sum(np.abs(piece.c0 + piece.c1 * mids ** piece.p)) * (ts[1] - ts[0]))
        assert l1_norm(f) == pytest.approx(oracle, abs=1e-8)

    def test_restricted_family_matches_ratio_denominator(self):
        params = FSpecParams(1, 2.157, 6.623)
        f = build_spec(params)
        x = families._coefficient(2.157, 0.5)
        assert l1_norm(f) == pytest.approx(
            functionals._w_denominator(2.157, 6.623, 0.5, x, families._t_0(x, 0.5)),
            abs=1e-9,
        )


class TestSignChanges:
    def test_monotone_piece_has_none(self):
        assert _interior_root(PowerPiece(1.0, 2.0, 1.0, 1.0, 0.5)) is None

    def test_restricted_family_root_matches_table(self):
        first, second = build_spec(FSpecParams(1, 2.157, 6.623)).pieces
        assert _interior_root(first) is None
        root = _interior_root(second)
        assert root == pytest.approx(d_min(2.157, 1), rel=1e-14)
        assert root == pytest.approx(4.29782, abs=1e-5)

    def test_boundary_root_excluded(self):
        assert _interior_root(PowerPiece(1.0, 4.0, -1.0, 1.0, 1.0)) is None

    def test_infinite_right_end_is_never_near_a_root(self):
        # -1 + 4 t**-2 on (1, inf) vanishes at t = 2
        assert _interior_root(PowerPiece(1.0, math.inf, -1.0, 4.0, -2.0)) == 2.0


EXPONENTS = sorted(
    {m / 2.0 for m in range(1, 11)}
    | {-1.0 - m / 2.0 for m in range(1, 11)}
    | {0.0}
)


@st.composite
def pieces(draw):
    t_lo = draw(st.floats(min_value=0.1, max_value=3.0))
    width = draw(st.floats(min_value=0.1, max_value=5.0))
    c0 = draw(st.floats(min_value=-5.0, max_value=5.0))
    c1 = draw(st.floats(min_value=-5.0, max_value=5.0))
    p = draw(st.sampled_from(EXPONENTS))
    return PowerPiece(t_lo, t_lo + width, c0, c1, p)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(pieces(), st.sampled_from(EXPONENTS))
    def test_moment_matches_adaptive_quadrature(self, piece, weight):
        f = single(piece)
        value = moment_integral(f, weight, piece.t_lo, piece.t_hi)
        # 30-digit tanh-sinh quadrature: the moment can cancel far below the
        # size of its terms, where QUADPACK cannot meet a 1e-13 request and
        # warns (-3 s^4 + 4 s^-4 on (0.5, 2.25] sums to -0.716)
        with mpmath.workdps(30):
            oracle = float(mpmath.quad(
                lambda s: piece.expression(s) * s ** weight,
                [piece.t_lo, piece.t_hi],
            ))
        assert value == pytest.approx(oracle, rel=1e-10, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(pieces(), st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_l1_dominates_subinterval_moments(self, piece, u, v):
        f = single(piece)
        lo = piece.t_lo + min(u, v) * (piece.t_hi - piece.t_lo)
        hi = piece.t_lo + max(u, v) * (piece.t_hi - piece.t_lo)
        if lo < hi:
            assert l1_norm(f) >= abs(moment_integral(f, 0.0, lo, hi)) - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(pieces())
    def test_sign_changes_match_sampling(self, piece):
        f = single(piece)
        closed_form = 0 if _interior_root(piece) is None else 1
        ts = np.linspace(piece.t_lo * (1 + 1e-9) + 1e-12, piece.t_hi, 1000)
        values = [evaluate(f, float(t)) for t in ts]
        sampled = sum(
            1
            for x, y in zip(values, values[1:])
            if (x < -1e-12 and y > 1e-12) or (x > 1e-12 and y < -1e-12)
        )
        assert sampled == closed_form

    @settings(max_examples=50, deadline=None)
    @given(pieces(), st.floats(min_value=0.25, max_value=4.0))
    def test_dilation_scales_l1(self, piece, lam):
        f = single(piece)
        scaled = dilate(f, lam)
        assert l1_norm(scaled) == pytest.approx(lam * l1_norm(f), rel=1e-9, abs=1e-12)
        t = 0.5 * (piece.t_lo + piece.t_hi)
        assert evaluate(scaled, lam * t) == pytest.approx(evaluate(f, t), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: evaluate(f, math.nan), "t must be positive, got nan"),
        (lambda f: dilate(f, math.nan), "dilation factor must be positive, got nan"),
    ],
    ids=["evaluate", "dilate"],
)
def test_nan_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(single(PowerPiece(1.0, 2.0, 1.0, 1.0, 0.5)))
