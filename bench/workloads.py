"""Inputs, work items and output checks of the three benchmark workloads.

Each workload is a closed loop with one client: the next item starts when the
previous one has finished.  A workload turns the seed into a list of passes
(``inputs``) and runs one pass at a time (``run_pass``), returning one
``Item`` per unit of work with its latency and the outcome of its checks.

* ``verify-cli``: one pass is one ``weaktype verify --seed S --format json``
  process, with S = 64 * seed + pass index; the item is that process.
* ``oracle-certify``: one pass is 32 families (for each m in 1..8, two general
  forward families with a = 1, one with c = b and one with c > b, one
  restricted forward and one restricted adjoint family); the item is one
  family.
* ``optimize-sweep``: one pass is 20 values of m, one from each stratum of
  width 8 in 1..160, plus one block of pass-level checks; the item is one m.

Calls into weaktype go through module attributes at call time, so that the
traced run sees them.  Only public names are used.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from weaktype import families, functionals, operators, optimize
from weaktype.families import FSpecParams, FStarSpecParams, GeneralFamilyParams

import tracing

# Tolerances are the repository's own: POINT_TOL and RATIO_TOL from the
# `oracle` suite, DUALITY_TOL from the `duality` suite, X_INF_TOL from the
# `asymptotic` suite, ROUTE_TOL from the maximize_W / maximize_on_curve test,
# PUSH_TOL from the `push` suite.
POINT_TOL = 1e-8
RATIO_TOL = 1e-7
DUALITY_TOL = 1e-8
X_INF_REF, X_INF_TOL = 0.54807758, 1e-7
ROUTE_TOL = 1e-4
PUSH_TOL = 1e-6

# Distinct passes generated per seed; a run that needs more cycles through them.
PASSES = 64
ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Item:
    """One unit of work: its latency and the outcome of its checks.

    ``error`` is set when the program raised, ``wrong`` when an output failed
    its check; either makes the item failed.  ``per_pass`` marks the
    pass-level checks, which count as attempted but are not a latency item.
    """

    latency_s: float
    error: str | None = None
    wrong: str | None = None
    headroom: float | None = None
    route_gap: float | None = None
    per_pass: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None


def _timed(work, *args) -> Item:
    """Run ``work(*args)``, which returns an Item-like dict, and time it.

    An exception from the program is recorded on the item rather than raised,
    so one failed item does not end the run.
    """
    start = time.perf_counter()
    try:
        fields = work(*args)
    except Exception as exc:  # the run must keep going; the item records it
        return Item(time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return Item(time.perf_counter() - start, **fields)


# --- verify-cli -------------------------------------------------------------------

class VerifyCli:
    """The headline command as a fresh process, one process after another.

    Each pass gives the command its own seed.  The randomized suites make one
    seed's run up to 1.6 times as long as another's, so a run takes the median
    over several command seeds rather than repeating one.
    """

    name = "verify-cli"
    in_process = False

    def __init__(self) -> None:
        self.reference: dict[int, str] = {}  # command seed -> first JSON output

    def inputs(self, seed: int) -> list[int]:
        return [seed * PASSES + index for index in range(PASSES)]

    def run_pass(self, seed: int, tracer: tracing.Tracer | None = None) -> list[Item]:
        argv = ["verify", "--seed", str(seed), "--format", "json"]
        if tracer is None:
            cmd = [sys.executable, "-m", "weaktype.cli", *argv]
        else:
            cmd = [sys.executable, str(Path(tracing.__file__).resolve()), *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired:
            return [Item(time.perf_counter() - start, error="verify timed out")]
        latency = time.perf_counter() - start
        exit_code, stdout = proc.returncode, proc.stdout
        try:
            if tracer is not None and exit_code == 0:
                payload = json.loads(stdout)
                tracer.merge(payload["trace"])
                exit_code, stdout = payload["exit"], payload["stdout"]
            if exit_code != 0:
                return [Item(latency, error=f"exit {exit_code}: {proc.stderr.strip()[-200:]}")]
            return [Item(latency, **self._check(seed, stdout))]
        except (ValueError, KeyError, TypeError) as exc:
            return [Item(latency, wrong=f"unreadable output: {exc!r}")]

    def _check(self, seed: int, stdout: str) -> dict:
        reports = json.loads(stdout)
        headroom = max(r["worst_residual"] / r["tolerance"] for r in reports)
        failing = [r["name"] for r in reports if r["status"] != "Pass"]
        if failing:
            return {"wrong": f"suites not passing: {failing}", "headroom": headroom}
        if stdout != self.reference.setdefault(seed, stdout):
            return {"wrong": "JSON differs from the first run of this seed",
                    "headroom": headroom}
        return {"headroom": headroom}


# --- oracle-certify ---------------------------------------------------------------

def _general(rng: np.random.Generator, m: int, gap: bool) -> GeneralFamilyParams:
    # the `plateau` suite's ranges of (a, b, c, d), scaled to a = 1
    b = rng.uniform(1.05, 2.0)
    c = b * rng.uniform(1.0, 2.0) if gap else b
    d = c * rng.uniform(1.05, 2.5)
    return GeneralFamilyParams(m, 1.0, b, c, d)


def _spec(rng: np.random.Generator, m: int) -> FSpecParams:
    # the `oracle` suite's sampling of the restricted region
    u, v = rng.uniform(0.02, 0.98, size=2)
    b = families.b_min(m) + u * (families.b_max(m) - families.b_min(m))
    d = families.d_min(b, m) + v * (families.d_max(b, m) - families.d_min(b, m))
    return FSpecParams(m, b, d)


def _star_spec(rng: np.random.Generator, m: int) -> FStarSpecParams:
    u, v = rng.uniform(0.02, 0.98, size=2)
    bs = families.b_star_min(m) + u * (families.b_star_max(m) - families.b_star_min(m))
    ds = families.d_star_min(bs, m) + v * (
        families.d_star_max(bs, m) - families.d_star_min(bs, m)
    )
    return FStarSpecParams(m, bs, ds)


class OracleCertify:
    """Closed form against the quadrature oracle, one family at a time.

    Each family is checked pointwise (apply_closed_form against
    apply_quadrature_oracle) and by ratio (oracle_ratio, which certifies every
    threshold crossing, against general_ratio, W or W_star).
    """

    name = "oracle-certify"
    in_process = True
    POINTS = 16

    def inputs(self, seed: int) -> list[list[tuple]]:
        passes = []
        for index in range(PASSES):
            rng = np.random.default_rng([seed, index])
            items = []
            for m in range(1, 9):
                # one general family without a gap (c = b) and one with
                for params in (_general(rng, m, False), _general(rng, m, True)):
                    items.append(("general", params,
                                  self._points(rng, 0.3, 1.5 * params.d)))
                params = _spec(rng, m)
                items.append(("spec", params, self._points(rng, 0.3, 1.5 * params.d)))
                params = _star_spec(rng, m)
                items.append(("star_spec", params,
                              self._points(rng, 0.3 * params.d_star, 1.5)))
            passes.append(items)
        return passes

    def _points(self, rng: np.random.Generator, lo: float, hi: float) -> tuple:
        return tuple(float(t) for t in rng.uniform(lo, hi, size=self.POINTS))

    def run_pass(self, items: list[tuple], tracer: tracing.Tracer | None = None) -> list[Item]:
        with tracing.installed(tracer):
            return [_timed(self._family, *item) for item in items]

    @staticmethod
    def _family(kind: str, params, points: tuple) -> dict:
        m = params.m
        if kind == "general":
            op, f = operators.lambda_op(m), families.build_general(params)
            closed = functionals.general_ratio(params).ratio
        elif kind == "spec":
            op, f = operators.lambda_op(m), families.build_spec(params)
            closed = functionals.W(params.b, params.d, m)
        else:
            op, f = operators.lambda_star_op(m), families.build_star_spec(params)
            closed = functionals.W_star(params.b_star, params.d_star, m)
        point_residual = max(
            abs(operators.apply_closed_form(op, f, t)
                - operators.apply_quadrature_oracle(op, f, t, tol=1e-10))
            for t in points
        )
        ratio_residual = abs(functionals.oracle_ratio(op, f).ratio - closed)
        headroom = max(point_residual / POINT_TOL, ratio_residual / RATIO_TOL)
        wrong = None
        if headroom > 1.0:
            wrong = (f"{kind} {params}: pointwise {point_residual:.3g}, "
                     f"ratio {ratio_residual:.3g}")
        return {"headroom": headroom, "wrong": wrong}


# --- optimize-sweep ---------------------------------------------------------------

class OptimizeSweep:
    """The two maximizer routes and duality per m, plus pass-level bound checks."""

    name = "optimize-sweep"
    in_process = True
    STRATA, WIDTH = 20, 8  # m in 1..160, one m per stratum
    DUALITY_POINTS = 4

    def inputs(self, seed: int) -> list[list[tuple]]:
        passes = []
        for index in range(PASSES):
            rng = np.random.default_rng([seed, index])
            items = []
            for stratum in range(self.STRATA):
                m = stratum * self.WIDTH + int(rng.integers(1, self.WIDTH + 1))
                # the `duality` suite's range of b
                lo = families.b_min(m)
                hi = families.B_SP if m == 1 else families.b_max(m) * (1.0 - 1e-6)
                bs = lo + rng.uniform(0.0, 1.0, size=self.DUALITY_POINTS) * (hi - lo)
                items.append((m, tuple(float(b) for b in bs)))
            passes.append(items)
        return passes

    def run_pass(self, items: list[tuple], tracer: tracing.Tracer | None = None) -> list[Item]:
        with tracing.installed(tracer):
            out = [_timed(self._one_m, m, bs) for m, bs in items]
            block = _timed(self._pass_checks)
        block.per_pass = True
        return out + [block]

    @staticmethod
    def _one_m(m: int, bs: tuple) -> dict:
        grid = optimize.maximize_W(m)
        curve = optimize.maximize_on_curve(m)
        gap = abs(grid.value - curve.value)
        duality = max(
            max(r.t0_star_residual, r.d_star_opt_residual, r.w_residual)
            for r in (optimize.duality_map(b, m) for b in bs)
        )
        problems = []
        if gap > ROUTE_TOL:
            problems.append(f"m={m}: routes differ by {gap:.3g}")
        if duality > DUALITY_TOL:
            problems.append(f"m={m}: duality residual {duality:.3g}")
        return {"route_gap": gap, "wrong": "; ".join(problems) or None}

    @staticmethod
    def _pass_checks() -> dict:
        problems = []
        push = optimize.push_check(128)
        if not (push.max_violation <= PUSH_TOL and push.ray_check_ok):
            problems.append(f"push: violation {push.max_violation:.3g}, "
                            f"rays {push.ray_check_ok}")
        for record in optimize.bound_134(range(1, 201)):
            if record.m >= 5 and not record.w_value >= 1.34:
                problems.append(f"bound_134: W = {record.w_value} at m={record.m}")
            if record.m >= 4 and not record.pair_feasible:
                problems.append(f"bound_134: pair infeasible at m={record.m}")
            if record.rational_bound is not None and not record.rational_bound >= 1.34:
                problems.append(f"bound_134: rational bound at m={record.m}")
        problems += [f"aux {r.name}: {r.supremum} > {r.bound}"
                     for r in optimize.aux_suprema() if not r.within_bound]
        x_inf = optimize.x_infinity(1e-10)
        if not abs(x_inf - X_INF_REF) <= X_INF_TOL:
            problems.append(f"x_infinity {x_inf}")
        return {"wrong": "; ".join(problems) or None}


WORKLOADS = {cls.name: cls for cls in (VerifyCli, OracleCertify, OptimizeSweep)}
