"""The shared closed forms in the kernel exponent k against the direction-specific
formulas they replaced, kept here verbatim as a test-only reference.

Every forward quantity is the shared form at k = m/2 and must agree bit for
bit.  Every adjoint quantity is the shared form at k = -1 - m/2; its rounding
may differ, so it must agree to 1e-13 relative, and the two quantities with
cancelling terms (W_star and general_D_star) must stay as accurate against a
50-digit mpmath reference as the formulas they replaced.
"""

import sys

import numpy as np
import pytest

from weaktype import families, functionals, optimize
from weaktype.families import (
    FSpecParams,
    FStarSpecParams,
    GeneralFamilyParams,
    GeneralStarFamilyParams,
)
from weaktype.functionals import RatioReport
from weaktype.piecewise import PiecewisePowerFunction, PowerPiece, l1_norm


# --- reference: the forward and adjoint formulas before they were merged ---------

def _ref_b_min(m):
    return ((2.0 + 3.0 * m) / (2.0 + 2.0 * m)) ** (2.0 / m)


def _ref_b_max(m):
    return 2.0 ** (2.0 / m)


def _ref_t_0(b, m):
    return ((2.0 + m) / (2.0 * (1.0 + m))) ** (2.0 / m) * (
        2.0 * b ** (-m / 2.0) - 1.0
    ) ** (-2.0 / m)


def _ref_d_max(b, m):
    return ((2.0 + 3.0 * m) / (2.0 * (1.0 + m) * (2.0 * b ** (-m / 2.0) - 1.0))) ** (
        2.0 / m
    )


def _ref_b_star_min(m):
    return 2.0 ** (-2.0 / (2.0 + m))


def _ref_b_star_max(m):
    return ((2.0 + 2.0 * m) / (4.0 + 3.0 * m)) ** (2.0 / (2.0 + m))


def _ref_t_0_star(b_star, m):
    return (2.0 * (1.0 + m) / m) ** (2.0 / (2.0 + m)) * (
        2.0 * b_star ** (1.0 + m / 2.0) - 1.0
    ) ** (2.0 / (2.0 + m))


def _ref_d_star_min(b_star, m):
    return (
        (4.0 + 3.0 * m) / (2.0 * (1.0 + m) * (2.0 * b_star ** (1.0 + m / 2.0) - 1.0))
    ) ** (-2.0 / (2.0 + m))


def _ref_general_B(a, m):
    return -2.0 * (1.0 + m) / (m * a ** (m / 2.0))


def _ref_general_D(a, b, c, m):
    lead = 2.0 * (1.0 + m) / (m * c ** (m / 2.0))
    return (
        lead
        + lead * (b / c) ** (1.0 + m / 2.0)
        + _ref_general_B(a, m) * (b / c) ** (1.0 + m)
    )


def _ref_general_B_star(a_star, m):
    return -2.0 * (1.0 + m) * a_star ** (1.0 + m / 2.0) / (2.0 + m)


def _ref_general_D_star(a_star, b_star, c_star, m):
    lead = 2.0 * (1.0 + m) * c_star ** (1.0 + m / 2.0) / (2.0 + m)
    ratio = c_star / b_star
    return (
        lead * (1.0 + ratio ** (m / 2.0))
        + _ref_general_B_star(a_star, m) * ratio ** (1.0 + m)
    )


def _ref_spec_D(b, m):
    return 2.0 * (1.0 + m) / m * (2.0 * b ** (-m / 2.0) - 1.0)


def _ref_star_spec_D(b_star, m):
    return 2.0 * (1.0 + m) / (2.0 + m) * (2.0 * b_star ** (1.0 + m / 2.0) - 1.0)


def _ref_build_general(m, a, b, c, d):
    half = m / 2.0
    return PiecewisePowerFunction(
        (
            PowerPiece(a, b, (2.0 + m) / m, _ref_general_B(a, m), half),
            PowerPiece(c, d, -(2.0 + m) / m, _ref_general_D(a, b, c, m), half),
        )
    )


def _ref_build_general_star(m, a_s, b_s, c_s, d_s):
    neg = -1.0 - m / 2.0
    coeff_d = _ref_general_D_star(a_s, b_s, c_s, m)
    return PiecewisePowerFunction(
        (
            PowerPiece(d_s, c_s, -m / (2.0 + m), coeff_d, neg),
            PowerPiece(b_s, a_s, m / (2.0 + m), _ref_general_B_star(a_s, m), neg),
        )
    )


def _ref_build_spec(m, b, d):
    half = m / 2.0
    return PiecewisePowerFunction(
        (
            PowerPiece(1.0, b, (2.0 + m) / m, -2.0 * (1.0 + m) / m, half),
            PowerPiece(b, d, -(2.0 + m) / m, _ref_spec_D(b, m), half),
        )
    )


def _ref_build_star_spec(m, bs, ds):
    neg = -1.0 - m / 2.0
    return PiecewisePowerFunction(
        (
            PowerPiece(ds, bs, -m / (2.0 + m), _ref_star_spec_D(bs, m), neg),
            PowerPiece(bs, 1.0, m / (2.0 + m), -2.0 * (1.0 + m) / (2.0 + m), neg),
        )
    )


def _ref_w_denominator(b, d, m):
    return (
        m / (2.0 + m)
        - (2.0 + m) / m * d
        - 2.0 * m / (2.0 + m) * b
        + 4.0 * (1.0 + m) / (m * (2.0 + m))
        * (2.0 * b ** (-m / 2.0) - 1.0)
        * d ** (1.0 + m / 2.0)
        + 2.0 * _ref_t_0(b, m)
    )


def _ref_W(b, d, m):
    return (d - 1.0) / _ref_w_denominator(b, d, m)


def _ref_w_star_denominator(b_star, d_star, m):
    return (
        -(2.0 + m) / m
        + m / (2.0 + m) * d_star
        + 2.0 * (2.0 + m) / m * b_star
        + 4.0 * (1.0 + m) / (m * (2.0 + m))
        * (2.0 * b_star ** (1.0 + m / 2.0) - 1.0)
        * d_star ** (-m / 2.0)
        - 2.0 * _ref_t_0_star(b_star, m)
    )


def _ref_W_star(b_star, d_star, m):
    return (1.0 - d_star) / _ref_w_star_denominator(b_star, d_star, m)


def _ref_general_ratio(m, b, c, d):
    half = m / 2.0
    dd = _ref_general_D(1.0, b, c, m)

    overshoot_b = -1.0 - (2.0 + m) / m + 2.0 * (1.0 + m) / m * b ** half
    b_hat = min(max(b, b * overshoot_b ** (2.0 / (2.0 + m))), c)
    overshoot_d = abs(-1.0 - (2.0 + m) / m + dd * d ** half)
    d_hat = max(d, d * overshoot_d ** (2.0 / (2.0 + m)))

    numerator = (b_hat - 1.0) + (d_hat - c)
    second = PowerPiece(c, d, -(2.0 + m) / m, dd, half)
    denominator = (
        m / (2.0 + m)
        - (2.0 + m) / m * b
        + 4.0 * (1.0 + m) / (m * (2.0 + m)) * b ** (1.0 + half)
        + l1_norm(PiecewisePowerFunction((second,)))
    )
    return RatioReport.from_parts(numerator, denominator)


def _ref_general_ratio_star(m, b_star, c_star, d_star):
    half = m / 2.0
    neg = -1.0 - half
    dd = _ref_general_D_star(1.0, b_star, c_star, m)

    overshoot_b = -1.0 - m / (2.0 + m) + 2.0 * (1.0 + m) / (2.0 + m) * b_star ** neg
    b_hat = max(c_star, min(b_star * overshoot_b ** (-2.0 / m), b_star))
    overshoot_d = abs(-1.0 - m / (2.0 + m) + dd * d_star ** neg)
    d_hat = min(d_star, d_star * overshoot_d ** (-2.0 / m))

    numerator = (1.0 - b_hat) + (c_star - d_hat)
    inner = PowerPiece(d_star, c_star, -m / (2.0 + m), dd, neg)
    denominator = (
        -(2.0 + m) / m
        + m / (2.0 + m) * b_star
        + 4.0 * (1.0 + m) / (m * (2.0 + m)) * b_star ** (-half)
        + l1_norm(PiecewisePowerFunction((inner,)))
    )
    return RatioReport.from_parts(numerator, denominator)


def _ref_d_opt(b, m):
    coeff = 2.0 * b ** (-m / 2.0) - 1.0
    rhs = -m * coeff * b ** (1.0 + m / 2.0) + 2.0 * (2.0 + m) * _ref_t_0(b, m)
    return (rhs / (2.0 * (1.0 + m) * coeff)) ** (2.0 / (2.0 + m))


def _ref_d_star_opt(b_star, m):
    coeff = 2.0 * b_star ** (1.0 + m / 2.0) - 1.0
    rhs = -(2.0 + m) * coeff * b_star ** (-m / 2.0) + 2.0 * m * _ref_t_0_star(
        b_star, m
    )
    return (rhs / (2.0 * (1.0 + m) * coeff)) ** (-2.0 / m)


# --- seeded points, m = 1..40 ------------------------------------------------------

def _restricted_points(seed, count=2000):
    """(m, b, d, b*, d*) at random fractions of the restricted ranges."""
    rng = np.random.default_rng([seed, 8])
    out = []
    for _ in range(count):
        m = int(rng.integers(1, 41))
        u, v, us, vs = (float(x) for x in rng.uniform(0.02, 0.98, 4))
        b = _ref_b_min(m) + u * (_ref_b_max(m) - _ref_b_min(m))
        d = _ref_t_0(b, m) + v * (_ref_d_max(b, m) - _ref_t_0(b, m))
        bs = _ref_b_star_min(m) + us * (_ref_b_star_max(m) - _ref_b_star_min(m))
        lo = _ref_d_star_min(bs, m)
        ds = lo + vs * (_ref_t_0_star(bs, m) - lo)
        out.append((m, b, d, bs, ds))
    return out


def _general_points(seed, count=2000):
    """(m, a, b, c, d, a*, b*, c*, d*); 70% have a gap between the pieces."""
    rng = np.random.default_rng([seed, 9])
    out = []
    for _ in range(count):
        m = int(rng.integers(1, 41))
        a = float(rng.uniform(0.3, 3.0))
        b = a * float(rng.uniform(1.05, 2.0))
        c = b if rng.uniform() < 0.3 else b * float(rng.uniform(1.0, 2.0))
        d = c * float(rng.uniform(1.05, 2.5))
        a_s = float(rng.uniform(0.5, 3.0))
        b_s = a_s * float(rng.uniform(0.4, 0.95))
        c_s = b_s if rng.uniform() < 0.3 else b_s * float(rng.uniform(0.4, 0.99))
        d_s = c_s * float(rng.uniform(0.3, 0.9))
        out.append((m, a, b, c, d, a_s, b_s, c_s, d_s))
    return out


def _pieces(f):
    return [(p.t_lo, p.t_hi, p.c0, p.c1, p.p) for p in f.pieces]


def _report(r):
    return (r.numerator, r.denominator, r.ratio)


def _close(value, reference, rel=1e-13, scale=None):
    """|value - reference| <= rel * (scale, or |reference| when scale is None)."""
    return abs(value - reference) <= rel * (abs(reference) if scale is None else scale)


def _w_denominator(b, d, k):
    """functionals._w_denominator with x and t_0 at b from the families."""
    x = families._coefficient(b, k)
    return functionals._w_denominator(b, d, k, x, families._t_0(x, k))


# --- forward: bit for bit ----------------------------------------------------------

@pytest.mark.parametrize("seed", range(2))
def test_forward_restricted_bitwise(seed):
    for m, b, d, _, _ in _restricted_points(seed):
        assert families.b_min(m) == _ref_b_min(m)
        assert families.b_max(m) == _ref_b_max(m)
        assert families.d_min(b, m) == _ref_t_0(b, m)
        assert families.d_max(b, m) == _ref_d_max(b, m)
        x = families._coefficient(b, m / 2.0)
        assert families._spec_D(x, m / 2.0) == _ref_spec_D(b, m)
        assert _w_denominator(b, d, m / 2.0) == _ref_w_denominator(b, d, m)
        assert functionals.W(b, d, m) == _ref_W(b, d, m)
        assert optimize.d_opt(b, m) == _ref_d_opt(b, m)
        assert _pieces(families.build_spec(FSpecParams(m, b, d))) == _pieces(
            _ref_build_spec(m, b, d)
        )


def test_forward_w_denominator_arrays_bitwise():
    points = _restricted_points(2)
    for m in range(1, 41):
        b = np.array([p[1] for p in points if p[0] == m])
        d = np.array([p[2] for p in points if p[0] == m])
        grid_b, grid_d = b[:, None], d[None, :]
        with np.errstate(invalid="ignore"):
            got = _w_denominator(grid_b, grid_d, m / 2.0)
            want = _ref_w_denominator(grid_b, grid_d, m)
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("seed", range(2))
def test_forward_general_bitwise(seed):
    for m, a, b, c, d, *_ in _general_points(seed):
        assert families._general_B(a, m / 2.0) == _ref_general_B(a, m)
        assert families._general_D(a, b, c, m / 2.0) == _ref_general_D(a, b, c, m)
        built = families.build_general(GeneralFamilyParams(m, a, b, c, d))
        assert _pieces(built) == _pieces(_ref_build_general(m, a, b, c, d))
        unit = GeneralFamilyParams(m, 1.0, b / a, c / a, d / a)
        assert _report(functionals.general_ratio(unit)) == _report(
            _ref_general_ratio(m, b / a, c / a, d / a)
        )


# --- adjoint: to 1e-13 -------------------------------------------------------------

@pytest.mark.parametrize("seed", range(2))
def test_adjoint_restricted_matches_reference(seed):
    for m, _, _, bs, ds in _restricted_points(seed):
        k = -1.0 - m / 2.0
        pairs = [
            (families.b_star_min(m), _ref_b_star_min(m)),
            (families.b_star_max(m), _ref_b_star_max(m)),
            (families.d_star_max(bs, m), _ref_t_0_star(bs, m)),
            (families.d_star_min(bs, m), _ref_d_star_min(bs, m)),
            (families._spec_D(families._coefficient(bs, k), k), _ref_star_spec_D(bs, m)),
            (_w_denominator(bs, ds, k),
             _ref_w_star_denominator(bs, ds, m)),
            (functionals.W_star(bs, ds, m), _ref_W_star(bs, ds, m)),
            (optimize.d_star_opt(bs, m), _ref_d_star_opt(bs, m)),
        ]
        built = families.build_star_spec(FStarSpecParams(m, bs, ds))
        for got, want in zip(_pieces(built), _pieces(_ref_build_star_spec(m, bs, ds))):
            pairs.extend(zip(got, want))
        for got, want in pairs:
            assert _close(got, want), (m, bs, ds, got, want)


def _general_D_star(a_star, b_star, c_star, m):
    """The shared coefficient of the inner adjoint piece."""
    return families._general_D(a_star, b_star, c_star, -1.0 - m / 2.0)


@pytest.mark.parametrize("seed", range(2))
def test_adjoint_general_matches_reference(seed):
    for m, *_, a_s, b_s, c_s, d_s in _general_points(seed):
        # the terms of general_D_star cancel, so its error is measured against
        # the coefficient scale 2(1+m)/(2+m), times a*^(1+m/2) for a* != 1
        scale = 2.0 * (1.0 + m) / (2.0 + m) * a_s ** (1.0 + m / 2.0)
        got = _general_D_star(a_s, b_s, c_s, m)
        assert _close(got, _ref_general_D_star(a_s, b_s, c_s, m), scale=scale)
        built = families.build_general_star(
            GeneralStarFamilyParams(m, a_s, b_s, c_s, d_s)
        )
        reference = _ref_build_general_star(m, a_s, b_s, c_s, d_s)
        for got_piece, want_piece in zip(_pieces(built), _pieces(reference)):
            *fields, got_coeff, got_exp = got_piece
            *ref_fields, want_coeff, want_exp = want_piece
            assert fields == ref_fields and got_exp == want_exp
            assert _close(got_coeff, want_coeff, scale=scale)


@pytest.mark.parametrize("seed", range(2))
def test_adjoint_general_ratio_matches_reference(seed, monkeypatch):
    # general_D_star cancels, so its rounding is checked on its absolute scale
    # above; here the reference ratio takes the shared coefficient, which
    # checks the ratio's own terms to 1e-13 relative
    monkeypatch.setattr(
        sys.modules[__name__], "_ref_general_D_star", _general_D_star
    )
    for m, *_, a_s, b_s, c_s, d_s in _general_points(seed):
        unit = (b_s / a_s, c_s / a_s, d_s / a_s)
        got = functionals.general_ratio_star(GeneralStarFamilyParams(m, 1.0, *unit))
        want = _ref_general_ratio_star(m, *unit)
        for value, reference in zip(_report(got), _report(want)):
            assert _close(value, reference), (m, unit, value, reference)


# --- accuracy against 50-digit mpmath ------------------------------------------------

def _mp_W_star(mp, b_star, d_star, m):
    m, b, d = mp(m), mp(b_star), mp(d_star)
    x = 2 * b ** (1 + m / 2) - 1
    t0 = (2 * (1 + m) / m) ** (2 / (2 + m)) * x ** (2 / (2 + m))
    denominator = (
        -(2 + m) / m + m / (2 + m) * d + 2 * (2 + m) / m * b
        + 4 * (1 + m) / (m * (2 + m)) * x * d ** (-m / 2) - 2 * t0
    )
    return (1 - d) / denominator


def _mp_general_D_star(mp, a_star, b_star, c_star, m):
    m, a, b, c = mp(m), mp(a_star), mp(b_star), mp(c_star)
    lead = 2 * (1 + m) * c ** (1 + m / 2) / (2 + m)
    ratio = c / b
    coeff_b = -2 * (1 + m) * a ** (1 + m / 2) / (2 + m)
    return lead * (1 + ratio ** (m / 2)) + coeff_b * ratio ** (1 + m)


def test_adjoint_accuracy_against_mpmath():
    """Worst error over 2,000 points each, within 4x that of the reference."""
    mpmath = pytest.importorskip("mpmath")
    worst = {"W_star": [0.0, 0.0], "general_D_star": [0.0, 0.0]}
    with mpmath.workdps(50):
        for m, _, _, bs, ds in _restricted_points(3):
            exact = _mp_W_star(mpmath.mpf, bs, ds, m)
            for slot, value in enumerate(
                (functionals.W_star(bs, ds, m), _ref_W_star(bs, ds, m))
            ):
                error = float(abs((value - exact) / exact))
                worst["W_star"][slot] = max(worst["W_star"][slot], error)
        for m, *_, a_s, b_s, c_s, _ in _general_points(3):
            exact = _mp_general_D_star(mpmath.mpf, a_s, b_s, c_s, m)
            scale = 2.0 * (1.0 + m) / (2.0 + m) * a_s ** (1.0 + m / 2.0)
            for slot, value in enumerate(
                (_general_D_star(a_s, b_s, c_s, m),
                 _ref_general_D_star(a_s, b_s, c_s, m))
            ):
                error = float(abs(value - exact)) / scale
                worst["general_D_star"][slot] = max(
                    worst["general_D_star"][slot], error
                )
    for name, (shared, reference) in worst.items():
        assert shared <= 4.0 * reference, (name, shared, reference)
