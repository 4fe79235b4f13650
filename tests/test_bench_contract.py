"""What the benchmark under ``bench/`` needs from the library.

The benchmark's scripts are loaded by path and run on small inputs: a traced
``optimize-sweep`` pass, traced ``oracle-certify`` families, a traced
``weaktype verify`` run, and the import-time probe.  A rename, a changed
signature or an import that moves away from ``import weaktype`` fails here
before it fails a benchmark run.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH, SRC = ROOT / "bench", ROOT / "src"


@pytest.fixture(scope="module")
def bench():
    """(tracing, workloads, run), loaded under the names ``run.py`` imports.

    The modules sit in ``sys.modules`` while they load (dataclasses and
    ``import tracing`` need that) and are taken out again afterwards.
    """
    names = ("tracing", "workloads", "run")
    saved = {name: sys.modules.get(name) for name in names}
    try:
        for name in names:
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
        yield tuple(sys.modules[name] for name in names)
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def _failures(items) -> list[str]:
    return [item.error or item.wrong for item in items if item.failed]


def test_optimize_sweep_pass_traced(bench):
    tracing, workloads, _ = bench
    sweep = workloads.OptimizeSweep()
    items = sweep.inputs(0)[0][:2]
    tracer = tracing.Tracer()
    done = sweep.run_pass(items, tracer)
    assert len(done) == 3 and done[-1].per_pass
    assert _failures(done) == []
    metrics = tracing.layer_metrics([tracer])
    assert metrics["optimize.maximize_W.calls"][0] == 2
    assert metrics["optimize.push_check.calls"][0] == 1
    assert metrics["optimize.maximize_W.evaluations"][0] > 0


def test_oracle_certify_families_traced(bench):
    tracing, workloads, _ = bench
    certify = workloads.OracleCertify()
    items = certify.inputs(0)[0][:4]
    assert [kind for kind, _, _ in items] == ["general", "general", "spec", "star_spec"]
    tracer = tracing.Tracer()
    done = certify.run_pass(items, tracer)
    assert len(done) == 4
    assert _failures(done) == []
    metrics = tracing.layer_metrics([tracer])
    assert metrics["functionals.oracle_ratio.calls"][0] == 4
    assert metrics["operators.apply_quadrature_oracle.calls"][0] > 0


def test_verify_cli_traced(bench, capsys):
    tracing, _, _ = bench
    argv = ["verify", "--suites", "scaling,push", "--format", "json"]
    assert tracing._main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit"] == 0
    reports = json.loads(payload["stdout"])
    assert [r["name"] for r in reports] == ["scaling", "push"]
    assert all(r["status"] == "Pass" for r in reports)
    tracer = tracing.Tracer()
    tracer.merge(payload["trace"])
    metrics = tracing.layer_metrics([tracer])
    assert metrics["operators.certified_crossings"][0] > 0
    assert metrics["cli.main.calls"][0] == 1


def test_import_times_reports_every_module(bench, monkeypatch):
    _, _, run = bench
    # run.py puts src first on PYTHONPATH for the processes it starts
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    times = run.import_times()
    assert set(times) == {"weaktype", "scipy.optimize", "numpy"}
    assert times["weaktype"] > 0.0 and all(value >= 0.0 for value in times.values())
