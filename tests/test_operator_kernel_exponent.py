"""The operator layer and the restricted validators, written once in the kernel
exponent k, against the two-branch code they replaced, kept here verbatim as a
test-only reference.

apply_closed_form, apply_quadrature_oracle and eigenvalue must agree bit for
bit in both directions, and forward eigen_check too.  The forward restricted
diagnostics must agree as float hex, and the adjoint verdicts must agree.
"""

import numpy as np
import pytest

from weaktype import families
from weaktype.families import (
    ConstraintDiagnostic,
    ConstraintViolation,
    FSpecParams,
    FStarSpecParams,
    GeneralFamilyParams,
    GeneralStarFamilyParams,
    build_general,
    build_general_star,
    build_spec,
    build_star_spec,
)
from weaktype.operators import (
    Kind,
    QuadratureError,
    apply_closed_form,
    apply_quadrature_oracle,
    eigen_check,
    eigenvalue,
    lambda_op,
    lambda_star_op,
)
from weaktype.piecewise import (
    PiecewisePowerFunction,
    PowerPiece,
    evaluate,
    moment_integral,
)


# --- reference: the two-branch code before the merge ------------------------------

def _ref_eigenvalue(op, alpha):
    half = op.m / 2.0
    if op.kind is Kind.LAMBDA:
        if alpha <= -1.0 - half:
            raise ValueError(f"alpha must exceed {-1 - half}, got {alpha}")
        return (half - alpha) / (1.0 + alpha + half)
    if alpha >= half:
        raise ValueError(f"alpha must be below {half}, got {alpha}")
    return (1.0 + alpha + half) / (half - alpha)


def _ref_apply_closed_form(op, f, t):
    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    m = op.m
    if op.kind is Kind.LAMBDA:
        integral = moment_integral(f, m / 2.0, 0.0, t) if f.pieces else 0.0
        return (1.0 + m) * t ** (-1.0 - m / 2.0) * integral - evaluate(f, t)
    sup_hi = f.support()[1]
    integral = moment_integral(f, -1.0 - m / 2.0, t, sup_hi) if t < sup_hi else 0.0
    return (1.0 + m) * t ** (m / 2.0) * integral - evaluate(f, t)


def _ref_weighted_expression(s, piece, weight):
    return piece.expression(s) * s ** weight


def _ref_apply_quadrature_oracle(op, f, t, tol=1e-10):
    from scipy.integrate import quad

    if t <= 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    m = op.m
    if op.kind is Kind.LAMBDA:
        lo, hi = 0.0, t
        weight = m / 2.0
        prefactor = (1.0 + m) * t ** (-1.0 - m / 2.0)
    else:
        lo, hi = t, f.support()[1]
        weight = -1.0 - m / 2.0
        prefactor = (1.0 + m) * t ** (m / 2.0)
    if lo >= hi or prefactor == 0.0:
        return -evaluate(f, t)
    breaks = sorted(
        {lo, hi}
        | {b for pc in f.pieces for b in (pc.t_lo, pc.t_hi) if lo < b < hi}
    )
    panel_tol = tol / (abs(prefactor) * (len(breaks) - 1))
    integral = 0.0
    for a, b in zip(breaks, breaks[1:]):
        mid = 0.5 * (a + b)
        piece = next((pc for pc in f.pieces if pc.contains(mid)), None)
        if piece is None:
            continue
        value, _, _, *message = quad(
            _ref_weighted_expression, a, b, args=(piece, weight),
            epsabs=panel_tol, epsrel=0.0, full_output=1,
        )
        if message:
            raise QuadratureError(
                f"QUADPACK failed on [{a}, {b}]: {message[0]}"
            )
        integral += value
    return prefactor * integral - evaluate(f, t)


def _ref_eigen_check(op, alpha, t_samples):
    if not t_samples:
        raise ValueError("need at least one sample point")
    if min(t_samples) <= 0.0:
        raise ValueError("sample points must be positive")
    lam = _ref_eigenvalue(op, alpha)
    if op.kind is Kind.LAMBDA:
        t_hi = 2.0 * max(t_samples)
    else:
        t_hi = 1e6
        if max(t_samples) > 1e-3 * t_hi:
            raise ValueError(
                f"adjoint samples must not exceed {1e-3 * t_hi}"
            )
    f = PiecewisePowerFunction((PowerPiece(0.0, t_hi, 0.0, 1.0, alpha),))
    worst = 0.0
    for t in t_samples:
        deviation = abs(_ref_apply_closed_form(op, f, t) - lam * t ** alpha)
        worst = max(worst, deviation)
    return worst


def _ref_validate_spec(m, b, d, closure=False):
    out = [
        ConstraintDiagnostic("b > 0", b, b > 0.0),
        ConstraintDiagnostic("d > 0", d, d > 0.0),
    ]
    if b <= 0.0 or d <= 0.0:
        return out
    dd = families._spec_D(b, m / 2.0)
    lo, hi = families.b_min(m), families.b_max(m)
    out.append(ConstraintDiagnostic("b > b_min" if not closure else "b >= b_min",
                                    b - lo, b >= lo if closure else b > lo))
    out.append(ConstraintDiagnostic("b < b_max", hi - b, b < hi))
    out.append(ConstraintDiagnostic("D(b, m) > 0", dd, dd > 0.0))
    if dd <= 0.0:
        return out
    at_b = -(2.0 + m) / m + dd * b ** (m / 2.0)
    at_d = -(2.0 + m) / m + dd * d ** (m / 2.0)
    relaxable = [
        ("d > d_min(b)", d - families.d_min(b, m)),
        ("d < d_max(b)", families.d_max(b, m) - d),
        ("second piece negative at b", -at_b),
        ("second piece positive at d", at_d),
        ("second piece below 2 at d", 2.0 - at_d),
    ]
    for name, slack in relaxable:
        ok = slack >= 0.0 if closure else slack > 0.0
        out.append(ConstraintDiagnostic(name, slack, ok))
    return out


def _ref_validate_star_spec(m, b_star, d_star, closure=False):
    out = [
        ConstraintDiagnostic("d* > 0", d_star, d_star > 0.0),
        ConstraintDiagnostic("b* > d*", b_star - d_star, b_star > d_star),
        ConstraintDiagnostic("b* < 1", 1.0 - b_star, b_star < 1.0),
    ]
    if d_star <= 0.0 or not d_star < b_star < 1.0:
        return out
    dd = families._spec_D(b_star, -1.0 - m / 2.0)
    b_star_min = families.b_star_min(m)
    out.append(
        ConstraintDiagnostic("b* > b*_min", b_star - b_star_min, b_star > b_star_min)
    )
    out.append(ConstraintDiagnostic("D*(b*, m) > 0", dd, dd > 0.0))
    if dd <= 0.0:
        return out
    at_b = -m / (2.0 + m) + dd * b_star ** (-1.0 - m / 2.0)
    at_d = -m / (2.0 + m) + dd * d_star ** (-1.0 - m / 2.0)
    relaxable = [
        ("b* < b*_max", families.b_star_max(m) - b_star),
        ("d* > d*_min(b*)", d_star - families.d_star_min(b_star, m)),
        ("d* < d*_max(b*)", families.d_star_max(b_star, m) - d_star),
        ("inner piece negative at b*", -at_b),
        ("inner piece positive at d*", at_d),
        ("inner piece below 2 at d*", 2.0 - at_d),
    ]
    for name, slack in relaxable:
        ok = slack >= 0.0 if closure else slack > 0.0
        out.append(ConstraintDiagnostic(name, slack, ok))
    return out


# --- seeded functions and points ---------------------------------------------------

def _outcome(fn, *args):
    """The result's bits, or the exception's type and message."""
    try:
        return fn(*args).hex()
    except (ValueError, QuadratureError) as exc:
        return type(exc).__name__, str(exc)


def _families(seed, count):
    """(op, f): seeded restricted and general families in both directions, m in
    1..8, plus the empty function."""
    rng = np.random.default_rng([seed, 10])
    out = []
    for _ in range(count):
        m = int(rng.integers(1, 9))
        u, v = (float(x) for x in rng.uniform(0.05, 0.95, 2))
        b = families.b_min(m) + u * (families.b_max(m) - families.b_min(m))
        d = families.d_min(b, m) + v * (families.d_max(b, m) - families.d_min(b, m))
        bs_lo, bs_hi = families.b_star_min(m), families.b_star_max(m)
        bs = bs_lo + u * (bs_hi - bs_lo)
        ds = families.d_star_min(bs, m) + v * (
            families.d_star_max(bs, m) - families.d_star_min(bs, m)
        )
        a = float(rng.uniform(0.5, 2.0))
        gb = a * float(rng.uniform(1.05, 2.0))
        gc = gb if rng.uniform() < 0.3 else gb * float(rng.uniform(1.0, 2.0))
        gd = gc * float(rng.uniform(1.05, 2.5))
        a_s = float(rng.uniform(0.5, 2.0))
        b_s = a_s * float(rng.uniform(0.4, 0.95))
        c_s = b_s if rng.uniform() < 0.3 else b_s * float(rng.uniform(0.4, 0.99))
        d_s = c_s * float(rng.uniform(0.3, 0.9))
        out += [
            (lambda_op(m), build_spec(FSpecParams(m, b, d))),
            (lambda_star_op(m), build_star_spec(FStarSpecParams(m, bs, ds))),
            (lambda_op(m), build_general(GeneralFamilyParams(m, a, gb, gc, gd))),
            (lambda_star_op(m),
             build_general_star(GeneralStarFamilyParams(m, a_s, b_s, c_s, d_s))),
        ]
    empty = PiecewisePowerFunction(())
    return out + [(lambda_op(3), empty), (lambda_star_op(3), empty)]


def _sample_points(f, rng):
    """t inside each piece, at each piece end and beyond the support."""
    points = [1.0]
    for pc in f.pieces:
        points += [pc.t_hi, float(rng.uniform(pc.t_lo, pc.t_hi))]
        if pc.t_lo > 0.0:
            points.append(pc.t_lo)
    if f.pieces:
        lo, hi = f.support()
        points += [1.5 * hi, 10.0 * hi]
        if lo > 0.0:
            points.append(0.5 * lo)
    return points


# --- operators: bit for bit --------------------------------------------------------

@pytest.mark.parametrize("seed", range(2))
def test_closed_form_bitwise(seed):
    rng = np.random.default_rng([seed, 11])
    for op, f in _families(seed, 40):
        for t in _sample_points(f, rng):
            assert _outcome(apply_closed_form, op, f, t) == _outcome(
                _ref_apply_closed_form, op, f, t
            )


def test_quadrature_oracle_bitwise():
    rng = np.random.default_rng(12)
    for op, f in _families(2, 6):
        for t in _sample_points(f, rng):
            assert _outcome(apply_quadrature_oracle, op, f, t) == _outcome(
                _ref_apply_quadrature_oracle, op, f, t
            )


def test_eigenvalue_bitwise():
    for m in range(1, 41):
        for op in (lambda_op(m), lambda_star_op(m)):
            for alpha in np.arange(-25.0, 25.0, 0.125):
                alpha = float(alpha)
                assert _outcome(eigenvalue, op, alpha) == _outcome(
                    _ref_eigenvalue, op, alpha
                )


def test_eigen_check_forward_bitwise_adjoint_tail_exact():
    for m in range(1, 9):
        forward, adjoint = lambda_op(m), lambda_star_op(m)
        for alpha in np.arange(-0.5 - m / 2.0, 3.0 + 1e-9, 0.5):
            for samples in ([0.5, 1.0, 2.0], [3.0], [1e-3, 40.0]):
                assert eigen_check(forward, float(alpha), samples) == (
                    _ref_eigen_check(forward, float(alpha), samples)
                )
        for alpha in np.arange(-3.0, m / 2.0 - 2.0 + 1e-9, 0.5):
            reference = _ref_eigen_check(adjoint, float(alpha), [0.5, 1.0, 2.0])
            assert reference < 1e-10
            assert eigen_check(adjoint, float(alpha), [0.5, 1.0, 2.0]) < 1e-13


# --- restricted validators ---------------------------------------------------------

def _ends_and_fractions(lo, hi, rng):
    """Both ends, and points inside and outside [lo, hi]."""
    fractions = rng.uniform(-0.3, 1.3, 4)
    return [lo, hi] + [lo + float(u) * (hi - lo) for u in fractions]


def _validator_points(seed, forward):
    """(m, b, d) at, inside and outside the ends of the restricted region."""
    rng = np.random.default_rng([seed, 13, forward])
    out = []
    for m in range(1, 41):
        if forward:
            k = m / 2.0
            b_lo, b_hi = families.b_min(m), families.b_max(m)
            d_lo, d_hi = families.d_min, families.d_max
        else:
            k = -1.0 - m / 2.0
            b_lo, b_hi = families.b_star_min(m), families.b_star_max(m)
            d_lo, d_hi = families.d_star_min, families.d_star_max
        for b in _ends_and_fractions(b_lo, b_hi, rng) + [-0.5, 0.0]:
            d_ends = None
            if b > 0.0 and families._spec_D(b, k) > 0.0:
                d_ends = d_lo(b, m), d_hi(b, m)
            ds = (_ends_and_fractions(*d_ends, rng) if d_ends
                  else [float(x) for x in rng.uniform(0.1, 5.0, 3)])
            out += [(m, b, d) for d in ds + [0.0, -1.0, 1e-80 if forward else 1e30]]
        if not forward:
            out.append((m, 1e100, 0.5))
    return out


def _listing(diagnostics):
    return [(diag.name, diag.slack.hex(), diag.satisfied) for diag in diagnostics]


def _verdict(diagnostics):
    return all(diag.satisfied for diag in diagnostics)


@pytest.mark.parametrize("seed", range(3))
def test_forward_diagnostics_match_as_hex(seed):
    for m, b, d in _validator_points(seed, forward=True):
        assert _listing(families.validate_spec(m, b, d)) == _listing(
            _ref_validate_spec(m, b, d)
        )


@pytest.mark.parametrize("seed", range(3))
def test_adjoint_verdicts_match(seed):
    for m, b, d in _validator_points(seed, forward=False):
        verdict = _verdict(families.validate_star_spec(m, b, d))
        assert verdict == _verdict(_ref_validate_star_spec(m, b, d))


def test_adjoint_corner_rejected_by_the_builder():
    # at b* = b*_max, d* = t_0*(b*_max) the inner piece is empty; the open
    # region excludes the corner, so the params reject it before the builder
    for m in range(1, 41):
        b = families.b_star_max(m)
        d = families.d_star_max(b, m)
        with pytest.raises(ConstraintViolation, match=r"b\* < b\*_max"):
            build_star_spec(FStarSpecParams(m, b, d))
