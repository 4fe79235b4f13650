"""Span tracer for the benchmark's traced runs.

A span wraps one public function of a weaktype module.  It replaces the
function in every weaktype namespace that holds it, so calls through an
importing module (``operators.evaluate``, ``functionals.superlevel_measure``,
``optimize.W``) are seen too.  Each span knows its parent, the innermost
enclosing span; its self time is its duration minus the time covered by its
child spans.  ``piecewise.evaluate`` runs millions of times under the
quadrature oracle, so it is counted by parent but not timed.

Per-suite spans come from the public ``verify.run_suite``: the traced version
runs the requested suites one at a time, in order, which gives the same
reports because every suite draws from its own generator.

Spans and counts are aggregated in memory and exported when the run ends.

Run as a script, this module traces one ``weaktype`` command line and prints
one JSON object with the exit code, the command's standard output, and the
trace::

    PYTHONPATH=src python bench/tracing.py verify --seed 0 --format json
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import statistics
import sys
import time
from collections import Counter

# (metric prefix, module, function) for every timed span.  The three family
# builders share one prefix.
SPANS = (
    ("piecewise.moment_integral", "piecewise", "moment_integral"),
    ("piecewise.l1_norm", "piecewise", "l1_norm"),
    ("families.build", "families", "build_general"),
    ("families.build", "families", "build_spec"),
    ("families.build", "families", "build_star_spec"),
    ("operators.apply_closed_form", "operators", "apply_closed_form"),
    ("operators.apply_quadrature_oracle", "operators", "apply_quadrature_oracle"),
    ("operators.superlevel_measure", "operators", "superlevel_measure"),
    ("functionals.W", "functionals", "W"),
    ("functionals.W_star", "functionals", "W_star"),
    ("functionals.general_ratio", "functionals", "general_ratio"),
    ("functionals.oracle_ratio", "functionals", "oracle_ratio"),
    ("optimize.maximize_W", "optimize", "maximize_W"),
    ("optimize.maximize_on_curve", "optimize", "maximize_on_curve"),
    ("optimize.push_check", "optimize", "push_check"),
    ("optimize.bound_134", "optimize", "bound_134"),
    ("optimize.duality_map", "optimize", "duality_map"),
    ("optimize.aux_suprema", "optimize", "aux_suprema"),
    ("verify.reports_to_json", "verify", "reports_to_json"),
    ("cli.main", "cli", "main"),
)
EVALUATE = "piecewise.evaluate"
RUN_SUITE = "verify.run_suite"
ORACLE = "operators.apply_quadrature_oracle"
SUPERLEVEL = "operators.superlevel_measure"
SUITES = (
    "eigen", "plateau", "plateau_adjoint", "oracle", "scaling", "boundaries",
    "duality", "table1", "asymptotic", "bound134", "aux_suprema", "push",
)


class Tracer:
    """Aggregated spans: calls and errors per (parent, name), time per name."""

    def __init__(self) -> None:
        self._stack: list[list] = [["", 0.0]]  # [name, time covered by children]
        self.calls: Counter = Counter()  # "parent>name" -> calls
        self.errors: Counter = Counter()  # "parent>name>exception" -> raised calls
        self.self_s: Counter = Counter()
        self.wall_s: Counter = Counter()
        self.counts: Counter = Counter()  # work counts read from results
        self.headroom: dict[str, float] = {}  # suite -> worst / tolerance

    def span(self, name: str, fn, on_result=None):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[f"{parent[0]}>{name}>{type(exc).__name__}"] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                parent[1] += duration
                self.calls[f"{parent[0]}>{name}"] += 1
                self.wall_s[name] += duration
                self.self_s[name] += duration - frame[1]
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def counted(self, name: str, fn):
        stack, calls = self._stack, self.calls

        def counted(*args, **kwargs):
            calls[f"{stack[-1][0]}>{name}"] += 1
            return fn(*args, **kwargs)

        return counted

    def export(self) -> dict:
        return {
            "calls": dict(self.calls), "errors": dict(self.errors),
            "self_s": dict(self.self_s), "wall_s": dict(self.wall_s),
            "counts": dict(self.counts), "headroom": dict(self.headroom),
        }

    def merge(self, exported: dict) -> None:
        """Add a trace exported by another process."""
        for key in ("calls", "errors", "self_s", "wall_s", "counts"):
            getattr(self, key).update(exported[key])
        for suite, value in exported["headroom"].items():
            self.headroom[suite] = max(value, self.headroom.get(suite, 0.0))

    def exact_counts(self) -> dict:
        """Everything that must repeat exactly for the same inputs."""
        return {"calls": dict(self.calls), "errors": dict(self.errors),
                "counts": dict(self.counts)}

    # --- result hooks ------------------------------------------------------------

    def _count_crossings(self, signature):
        def hook(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if not bound.arguments["certify"]:
                return
            f = bound.arguments["f"]
            edges = [x for pc in f.pieces for x in (pc.t_lo, pc.t_hi)]
            for u, v in result.intervals:
                for end in (u, v):
                    # a crossing: an endpoint that is not a piece boundary
                    if end > 0.0 and all(abs(end - x) > 1e-12 * end for x in edges):
                        self.counts["operators.certified_crossings"] += 1
        return hook

    def _add_count(self, key: str, of_result):
        def hook(args, kwargs, result):
            self.counts[key] += of_result(result)
        return hook

    def _traced_run_suite(self, run_suite):
        def traced(names, *args, **kwargs):
            reports = []
            for name in names:
                suite = self.span(f"verify.{name}", run_suite)
                (report,) = suite([name], *args, **kwargs)
                self.headroom[name] = max(
                    report.worst_residual / report.tolerance,
                    self.headroom.get(name, 0.0),
                )
                reports.append(report)
            return reports
        return traced

    def wrap(self, name: str, fn):
        """The traced stand-in for ``fn``, recorded under ``name``."""
        if name == EVALUATE:
            return self.counted(name, fn)
        if name == RUN_SUITE:
            return self._traced_run_suite(fn)
        if name == SUPERLEVEL:
            return self.span(name, fn, self._count_crossings(inspect.signature(fn)))
        if name in ("optimize.maximize_W", "optimize.maximize_on_curve"):
            return self.span(name, fn, self._add_count(
                f"{name}.evaluations", lambda record: record.evaluations))
        if name == "optimize.push_check":
            return self.span(name, fn, self._add_count(
                "optimize.push_check.points", lambda record: record.resolution ** 3))
        return self.span(name, fn)


@contextlib.contextmanager
def installed(tracer: Tracer | None):
    """Route the public functions through ``tracer`` while the block runs.

    With ``tracer`` None nothing is changed.
    """
    if tracer is None:
        yield
        return
    wrapped = {}
    for name, module, fn in SPANS + ((EVALUATE, "piecewise", "evaluate"),
                                     (RUN_SUITE, "verify", "run_suite")):
        original = getattr(importlib.import_module(f"weaktype.{module}"), fn)
        wrapped[id(original)] = (original, tracer.wrap(name, original))
    namespaces = [module for key, module in list(sys.modules.items())
                  if key == "weaktype" or key.startswith("weaktype.")]
    patches = []
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, entry[1])
    try:
        yield
    finally:
        for module, attr, value in reversed(patches):
            setattr(module, attr, value)


# --- per-layer metrics ----------------------------------------------------------------

def _calls(tracer: Tracer, name: str, parent: str | None = None) -> int:
    if parent is not None:
        return tracer.calls.get(f"{parent}>{name}", 0)
    return sum(n for key, n in tracer.calls.items() if key.split(">")[1] == name)


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(traces: list[Tracer]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from repeated traced passes over the same inputs.

    Counts come from the first pass (they repeat exactly); times are medians
    over the passes.
    """
    first = traces[0]

    def median_s(table: str, name: str) -> float:
        return statistics.median(getattr(t, table).get(name, 0.0) for t in traces)

    out: dict[str, tuple[float, str]] = {}
    out[f"{EVALUATE}.calls"] = (_calls(first, EVALUATE), "count")
    for name in dict.fromkeys(name for name, _, _ in SPANS):
        out[f"{name}.calls"] = (_calls(first, name), "count")
        out[f"{name}.self_s"] = (median_s("self_s", name), "s")

    oracle_calls = _calls(first, ORACLE)
    out["operators.evals_per_oracle_call"] = (
        _ratio(_calls(first, EVALUATE, ORACLE), oracle_calls), "ratio")
    certifying = _calls(first, ORACLE, SUPERLEVEL)
    crossings = first.counts.get("operators.certified_crossings", 0)
    out[f"{SUPERLEVEL}.oracle_calls"] = (certifying, "count")
    out["operators.certified_crossings"] = (crossings, "count")
    out["operators.oracle_calls_per_crossing"] = (_ratio(certifying, crossings), "ratio")

    for name in ("optimize.maximize_W", "optimize.maximize_on_curve"):
        out[f"{name}.evaluations"] = (first.counts.get(f"{name}.evaluations", 0), "count")
    infeasible = first.errors.get("optimize.maximize_W>functionals.W>DenominatorError", 0)
    out["optimize.maximize_W.infeasible_ratio"] = (
        _ratio(infeasible, _calls(first, "functionals.W", "optimize.maximize_W")), "ratio")
    out["optimize.push_check.points_per_s"] = (
        _ratio(first.counts.get("optimize.push_check.points", 0),
               median_s("self_s", "optimize.push_check")), "1/s")

    for suite in SUITES:
        out[f"verify.{suite}.self_s"] = (median_s("self_s", f"verify.{suite}"), "s")
        out[f"verify.{suite}.wall_s"] = (median_s("wall_s", f"verify.{suite}"), "s")
        out[f"verify.{suite}.headroom"] = (first.headroom.get(suite, 0.0), "ratio")
    return out


def _main(argv: list[str]) -> int:
    import weaktype.cli

    tracer = Tracer()
    captured = io.StringIO()
    with installed(tracer), contextlib.redirect_stdout(captured):
        exit_code = weaktype.cli.main(argv)
    print(json.dumps({"exit": exit_code, "stdout": captured.getvalue(),
                      "trace": tracer.export()}))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
