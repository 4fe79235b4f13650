"""Threshold crossings of superlevel regions against the direct power solve
they replaced, kept here as a test-only reference.

Each region is a PowerPiece c0 + c1 t**p; its crossings of +-thr now come from
``piecewise._interior_root`` in log space.  The reference solves
(target - c0) / c1 = t**p as ``ratio ** (1/p)`` with its own overflow handler
and end checks.  Over seeded general families in both directions, both must
find the same crossings, none gained or lost, each within 8 eps relative.
"""

import math

import numpy as np
import pytest

from weaktype import families
from weaktype.families import GeneralFamilyParams, GeneralStarFamilyParams
from weaktype.operators import (
    THRESHOLD_SLACK,
    _region_intervals,
    _regions,
    lambda_op,
    lambda_star_op,
)

EPS = np.finfo(float).eps


def _ref_region_intervals(region, thr):
    """The region interval finder before it shared the power-root solver."""
    lo, hi = region.t_lo, region.t_hi
    slack = THRESHOLD_SLACK * thr
    crossings = []
    if region.c1 != 0.0 and region.p != 0.0:
        for target in (thr, -thr):
            if abs(target - region.c0) <= slack:
                continue
            ratio = (target - region.c0) / region.c1
            if ratio > 0.0 and math.isfinite(ratio):
                try:
                    t_cross = ratio ** (1.0 / region.p)
                except OverflowError:
                    continue
                near_lo = lo > 0.0 and abs(t_cross - lo) <= 1e-12 * lo
                near_hi = math.isfinite(hi) and abs(t_cross - hi) <= 1e-12 * hi
                if lo < t_cross < hi and not near_lo and not near_hi:
                    crossings.append(t_cross)
    crossings.sort()
    points = [lo] + crossings + [hi]
    out = []
    for i, (u, v) in enumerate(zip(points, points[1:])):
        if math.isfinite(v):
            mid = math.sqrt(u * v) if u > 0.0 else 0.5 * v
        else:
            mid = 2.0 * u if u > 0.0 else 1.0
        if abs(region.c1 * mid ** region.p + region.c0) >= thr - slack:
            if not math.isfinite(v):
                raise ValueError("superlevel set is unbounded")
            out.append((u, v, 0 < i, i < len(points) - 2))
    return out


def _random_families(rng):
    m = int(rng.integers(1, 41))
    a = float(rng.uniform(0.3, 3.0))
    b = a * float(rng.uniform(1.05, 2.0))
    c = b if rng.uniform() < 0.3 else b * float(rng.uniform(1.0, 2.0))
    d = c * float(rng.uniform(1.05, 2.5))
    a_s = float(rng.uniform(0.5, 3.0))
    b_s = a_s * float(rng.uniform(0.4, 0.95))
    c_s = b_s if rng.uniform() < 0.3 else b_s * float(rng.uniform(0.4, 0.99))
    d_s = c_s * float(rng.uniform(0.3, 0.9))
    return (
        (lambda_op(m), families.build_general(GeneralFamilyParams(m, a, b, c, d))),
        (lambda_star_op(m), families.build_general_star(
            GeneralStarFamilyParams(m, a_s, b_s, c_s, d_s))),
    )


@pytest.mark.parametrize("seed", range(4))
def test_crossings_match_the_direct_power_solve(seed):
    rng = np.random.default_rng([seed, 4])
    crossings = 0
    for _ in range(500):
        for op, f in _random_families(rng):
            for region in _regions(op, f):
                for thr in (0.7, 1.0, 1.3):
                    new = _region_intervals(region, thr)
                    ref = _ref_region_intervals(region, thr)
                    assert len(new) == len(ref), (region, thr)
                    for interval, expected in zip(new, ref):
                        # the same crossing flags on every interval end
                        assert interval[2:] == expected[2:], (region, thr)
                        for t, t_ref, cross in zip(
                            interval[:2], expected[:2], interval[2:]
                        ):
                            if cross:
                                assert abs(t - t_ref) <= 8 * EPS * t_ref
                                crossings += 1
                            else:
                                assert t == t_ref
    # most regions of most families cross some threshold
    assert crossings > 2000
