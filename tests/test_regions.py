"""The superlevel region walker against the two direction-specific walkers it
replaced, kept here verbatim as a test-only reference.

Every region field must agree bit for bit, and rejected pieces must raise the
same exception with the same message.  The walker returns each region as a
PowerPiece(lo, hi, C, A, q); the reference walkers return the record below.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from weaktype import families
from weaktype.families import (
    FSpecParams,
    FStarSpecParams,
    GeneralFamilyParams,
    GeneralStarFamilyParams,
)
from weaktype.operators import (
    Kind,
    _negligible,
    _regions,
    lambda_op,
    lambda_star_op,
)
from weaktype.piecewise import PiecewisePowerFunction, PowerPiece, _power_integral


# --- reference: the forward and adjoint walkers before they were merged ---------

@dataclass(frozen=True)
class _Region:
    lo: float
    hi: float  # math.inf for the forward tail
    coeff: float  # A
    q: float
    const: float  # C


def _ref_regions_lambda(op, f):
    m = op.m
    q = -1.0 - m / 2.0
    lam0 = m / (2.0 + m)
    regions = []
    accumulated = 0.0
    position = 0.0
    for pc in f.pieces:
        if pc.t_lo > position:
            regions.append(
                _Region(position, pc.t_lo, (1.0 + m) * accumulated, q, 0.0)
            )
        if pc.p <= q + 1e-12:
            raise ValueError(
                f"piece exponent {pc.p} is not integrable against the weight"
            )
        ext_lo = _ref_piece_extension_moment(pc, m / 2.0, pc.t_lo)
        coeff = (1.0 + m) * (accumulated - ext_lo)
        const = pc.c0 * lam0
        lam_p = (m / 2.0 - pc.p) / (1.0 + pc.p + m / 2.0)
        pow_coeff = pc.c1 * lam_p
        if pc.p == 0.0:
            const += pow_coeff
            pow_coeff = 0.0
        scale = max(1.0, abs(const))
        if _negligible(pow_coeff, pc.p, pc.t_lo, pc.t_hi, scale):
            regions.append(_Region(pc.t_lo, pc.t_hi, coeff, q, const))
        elif _negligible(coeff, q, pc.t_lo, pc.t_hi, scale):
            regions.append(_Region(pc.t_lo, pc.t_hi, pow_coeff, pc.p, const))
        else:
            raise ValueError(
                "piece does not reduce to a two-term power expression under "
                f"the forward operator (p={pc.p}, m={m})"
            )
        accumulated += _ref_piece_moment_over(pc, m / 2.0)
        position = pc.t_hi
    regions.append(_Region(position, math.inf, (1.0 + m) * accumulated, q, 0.0))
    return regions


def _ref_regions_lambda_star(op, f):
    m = op.m
    q = m / 2.0
    lam0 = (2.0 + m) / m
    regions = []
    tail = 0.0
    position = f.support()[1]
    for pc in reversed(f.pieces):
        if pc.t_hi < position:
            regions.append(_Region(pc.t_hi, position, (1.0 + m) * tail, q, 0.0))
        if pc.p >= q - 1e-12:
            raise ValueError(
                f"piece exponent {pc.p} is not tail-integrable against the weight"
            )
        ext_hi = _ref_piece_extension_tail(pc, m, pc.t_hi)
        coeff = (1.0 + m) * (tail - ext_hi)
        const = pc.c0 * lam0
        lam_p = (1.0 + pc.p + m / 2.0) / (m / 2.0 - pc.p)
        pow_coeff = pc.c1 * lam_p
        if pc.p == 0.0:
            const += pow_coeff
            pow_coeff = 0.0
        scale = max(1.0, abs(const))
        if _negligible(pow_coeff, pc.p, pc.t_lo, pc.t_hi, scale):
            regions.append(_Region(pc.t_lo, pc.t_hi, coeff, q, const))
        elif _negligible(coeff, q, pc.t_lo, pc.t_hi, scale):
            regions.append(_Region(pc.t_lo, pc.t_hi, pow_coeff, pc.p, const))
        else:
            raise ValueError(
                "piece does not reduce to a two-term power expression under "
                f"the adjoint operator (p={pc.p}, m={m})"
            )
        tail += _ref_piece_moment_over(pc, -1.0 - m / 2.0)
        position = pc.t_lo
    if position > 0.0:
        regions.append(_Region(0.0, position, (1.0 + m) * tail, q, 0.0))
    return sorted(regions, key=lambda r: r.lo)


def _ref_piece_moment_over(pc, weight):
    total = 0.0
    if pc.c0 != 0.0:
        total += pc.c0 * _power_integral(weight, pc.t_lo, pc.t_hi)
    if pc.c1 != 0.0:
        total += pc.c1 * _power_integral(pc.p + weight, pc.t_lo, pc.t_hi)
    return total


def _ref_piece_extension_moment(pc, weight, upto):
    total = 0.0
    if pc.c0 != 0.0:
        total += pc.c0 * upto ** (weight + 1.0) / (weight + 1.0)
    if pc.c1 != 0.0:
        e1 = pc.p + weight + 1.0
        total += pc.c1 * upto ** e1 / e1
    return total


def _ref_piece_extension_tail(pc, m, from_t):
    half = m / 2.0
    total = 0.0
    if pc.c0 != 0.0:
        total += pc.c0 * from_t ** (-half) / half
    if pc.c1 != 0.0:
        total += pc.c1 * from_t ** (pc.p - half) / (half - pc.p)
    return total


# --- comparison -------------------------------------------------------------------

def _fields(region):
    """(lo, hi, A, q, C) of a reference record or of a PowerPiece region."""
    if isinstance(region, PowerPiece):
        return region.t_lo, region.t_hi, region.c1, region.p, region.c0
    return region.lo, region.hi, region.coeff, region.q, region.const


def _outcome(walker, op, f):
    """Every region field as float hex (bitwise), or the exception raised."""
    try:
        regions = walker(op, f)
    except Exception as exc:  # the exception itself is the outcome
        return type(exc), str(exc)
    return [tuple(float(x).hex() for x in _fields(r)) for r in regions]


def _assert_same(op, f):
    reference = (
        _ref_regions_lambda if op.kind is Kind.LAMBDA else _ref_regions_lambda_star
    )
    expected = _outcome(reference, op, f)
    assert _outcome(_regions, op, f) == expected, (op, f)
    return expected


def _both(m, f):
    return [_assert_same(lambda_op(m), f), _assert_same(lambda_star_op(m), f)]


def _uv(rng):
    return rng.uniform(0.02, 0.98, 2)


@pytest.mark.parametrize("seed", range(4))
def test_restricted_families(seed):
    rng = np.random.default_rng([seed, 1])
    for _ in range(500):
        m = int(rng.integers(1, 41))
        u, v = _uv(rng)
        b = families.b_min(m) + u * (families.b_max(m) - families.b_min(m))
        d = families.d_min(b, m) + v * (families.d_max(b, m) - families.d_min(b, m))
        forward = families.build_spec(FSpecParams(m, float(b), float(d)))
        assert isinstance(_assert_same(lambda_op(m), forward), list)
        u, v = _uv(rng)
        s_lo, s_hi = families.b_star_min(m), families.b_star_max(m)
        bs = s_lo + u * (s_hi - s_lo)
        ds = families.d_star_min(bs, m) + v * (
            families.d_star_max(bs, m) - families.d_star_min(bs, m)
        )
        adjoint = families.build_star_spec(FStarSpecParams(m, float(bs), float(ds)))
        assert isinstance(_assert_same(lambda_star_op(m), adjoint), list)


@pytest.mark.parametrize("seed", range(4))
def test_general_families(seed):
    rng = np.random.default_rng([seed, 2])
    for _ in range(500):
        m = int(rng.integers(1, 41))
        a = float(rng.uniform(0.3, 3.0))
        b = a * float(rng.uniform(1.05, 2.0))
        c = b if rng.uniform() < 0.3 else b * float(rng.uniform(1.0, 2.0))
        d = c * float(rng.uniform(1.05, 2.5))
        forward = families.build_general(GeneralFamilyParams(m, a, b, c, d))
        assert isinstance(_assert_same(lambda_op(m), forward), list)
        a_s = float(rng.uniform(0.5, 3.0))
        b_s = a_s * float(rng.uniform(0.4, 0.95))
        c_s = b_s if rng.uniform() < 0.3 else b_s * float(rng.uniform(0.4, 0.99))
        d_s = c_s * float(rng.uniform(0.3, 0.9))
        adjoint = families.build_general_star(
            GeneralStarFamilyParams(m, a_s, b_s, c_s, d_s)
        )
        assert isinstance(_assert_same(lambda_star_op(m), adjoint), list)


def _random_piece(rng, m, t_lo, t_hi):
    half = m / 2.0
    p = float(rng.choice([0.0, half, -1.0 - half]))
    c0, c1 = rng.uniform(-3.0, 3.0, 2)
    which = rng.uniform()
    if which < 0.25:
        c0 = 0.0
    elif which < 0.5:
        c1 = 0.0
    return PowerPiece(t_lo, t_hi, float(c0), float(c1), p)


@pytest.mark.parametrize("seed", range(4))
def test_arbitrary_two_piece_functions(seed):
    rng = np.random.default_rng([seed, 3])
    outcomes = []
    for _ in range(1000):
        m = int(rng.integers(1, 41))
        t0 = 0.0 if rng.uniform() < 0.3 else float(rng.uniform(0.1, 2.0))
        t1 = t0 + float(rng.uniform(0.1, 2.0))
        t2 = t1 if rng.uniform() < 0.3 else t1 + float(rng.uniform(0.0, 2.0))
        t3 = t2 + float(rng.uniform(0.1, 2.0))
        f = PiecewisePowerFunction(
            (_random_piece(rng, m, t0, t1), _random_piece(rng, m, t2, t3))
        )
        outcomes.extend(_both(m, f))
    # both accepted and rejected functions occur
    assert any(isinstance(o, list) for o in outcomes)
    assert any(isinstance(o, tuple) for o in outcomes)


@pytest.mark.parametrize("kind", ["forward", "adjoint"])
def test_rejected_pieces_raise_alike(kind):
    m = 3
    op = lambda_op(m) if kind == "forward" else lambda_star_op(m)
    rejected = [
        # exponents past the integrability edge of one direction: -1-m/2 and
        # below forward, m/2 and above adjoint
        PiecewisePowerFunction((PowerPiece(1.0, 2.0, 0.0, 1.0, -1.0 - m / 2.0),)),
        PiecewisePowerFunction((PowerPiece(1.0, 2.0, 0.0, 1.0, m / 2.0),)),
        PiecewisePowerFunction((PowerPiece(1.0, 2.0, 1.0, 1.0, -4.0),)),
        PiecewisePowerFunction((PowerPiece(1.0, 2.0, 1.0, 1.0, 2.0),)),
        # a third power term: p is neither 0 nor the kernel exponent
        PiecewisePowerFunction(
            (PowerPiece(0.5, 1.0, 1.0, 0.0, 0.0), PowerPiece(1.0, 2.0, 1.0, 1.0, 0.3))
        ),
        PiecewisePowerFunction(
            (PowerPiece(1.0, 2.0, 1.0, 1.0, 0.3), PowerPiece(2.0, 3.0, 1.0, 0.0, 0.0))
        ),
    ]
    raised = 0
    for f in rejected:
        outcome = _assert_same(op, f)
        raised += isinstance(outcome, tuple) and outcome[0] is ValueError
    # each direction accepts only the other direction's kernel exponent
    assert raised == len(rejected) - 1


def test_arbitrary_exponents_at_the_origin():
    # a first piece starting at 0 carries no swept mass, so any integrable
    # exponent reduces to two terms in the forward direction
    rng = np.random.default_rng(11)
    for _ in range(500):
        m = int(rng.integers(1, 41))
        p = float(rng.uniform(-0.9 - m / 2.0, 3.0))
        f = PiecewisePowerFunction(
            (PowerPiece(0.0, float(rng.uniform(0.5, 2.0)), float(rng.normal()),
                        float(rng.normal()), p),)
        )
        _both(m, f)


@pytest.mark.parametrize("kind", ["forward", "adjoint"])
def test_integrability_slack(kind):
    # a piece exponent 1e-13 inside the edge q = -1 - k counts as on it; one
    # 1e-9 inside passes the check
    m = 3
    op = lambda_op(m) if kind == "forward" else lambda_star_op(m)
    q = -1.0 - op.k
    inward = 1.0 if kind == "forward" else -1.0
    message = "not integrable" if kind == "forward" else "not tail-integrable"

    def walk(t_lo, p):
        return _regions(op, PiecewisePowerFunction((PowerPiece(t_lo, 1.0, 0.0, 1.0, p),)))

    for t_lo in (0.0, 0.5):
        with pytest.raises(ValueError, match=message):
            walk(t_lo, q + inward * 1e-13)
    for t_lo in (0.0, 0.5):
        p = q + inward * 1e-9
        if kind == "forward" and t_lo == 0.0:
            # no swept mass: the piece reduces to its own eigen-image
            assert [r.p for r in walk(t_lo, p)] == [p, q]
        else:
            with pytest.raises(ValueError, match="two-term power expression"):
                walk(t_lo, p)
