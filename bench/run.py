"""Benchmark harness for weaktype.

Usage, from the repository root::

    python3 bench/run.py --workload verify-cli --seed 0 --seconds 50 --trace 0

Workloads are ``verify-cli``, ``oracle-certify`` and ``optimize-sweep`` (see
``workloads.py``).  The harness uses the sources under ``src/``; it needs no
install.  It pins ``OMP_NUM_THREADS`` and ``OPENBLAS_NUM_THREADS`` to 1 for
itself and every child, so the numbers measure the program, not the
scheduler.

A run first times five fresh interpreters that import weaktype and
generate the workload's inputs (``setup_s`` is their median), then runs passes
until the next one would end after ``--seconds``, and at least three.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
times the import layer with ``python -X importtime``, then alternates
untraced and traced passes over the first pass's inputs, and reports the
per-layer metrics of ``tracing.py`` with the tracing overhead.  Every output is
checked; a failed check counts as a failed item and does not stop the run.

Standard output ends with a human-readable table, one JSON line with the full
report and its provenance (``{"detail": ...}``), and last the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.WORKLOADS[sys.argv[2]]().inputs(int(sys.argv[3]))"
)
SETUP_RUNS = 5
MIN_PASSES = 3
IMPORT_RUNS = 3
# end-to-end metrics of the result line; BENCHMARK.json lists the same names
RESULT_METRICS = ("setup_s", "run_s", "peak_rss_mb")


def wall(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    return time.perf_counter() - start, proc


def setup_times(workload: str, seed: int, runs: int) -> list[float]:
    """Wall time of fresh interpreters importing weaktype and making the inputs."""
    times = []
    for _ in range(runs):
        elapsed, proc = wall(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), workload, str(seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        times.append(elapsed)
    return times


def import_times() -> dict[str, float]:
    """Median cumulative import time, in seconds, of three modules."""
    wanted = {"weaktype": [], "scipy.optimize": [], "numpy": []}
    for _ in range(IMPORT_RUNS):
        _, proc = wall([sys.executable, "-X", "importtime", "-c", "import weaktype"])
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-300:]}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                wanted[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {name: statistics.median(values) for name, values in wanted.items()}


def provenance(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "weaktype").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "seed": args.seed, "argv": sys.argv, "git_commit": commit,
        "source_sha256": digest.hexdigest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_passes(wl, inputs, seconds: float, tracer_factory=None):
    """Run passes until the next would end after ``seconds`` (at least three).

    With ``tracer_factory`` every pass runs on the first input, alternately
    untraced and traced, and the traced passes' tracers are returned too.
    """
    passes: list[tuple[float, list]] = []  # (seconds, items)
    traced_passes: list[tuple[float, list]] = []
    tracers = []
    start = time.perf_counter()
    index = 0
    while True:
        tracer = None
        if tracer_factory is not None and index % 2 == 1:
            tracer = tracer_factory()
            tracers.append(tracer)
        data = inputs[0] if tracer_factory is not None else inputs[index % len(inputs)]
        t0 = time.perf_counter()
        items = wl.run_pass(data, tracer)
        (traced_passes if tracer is not None else passes).append(
            (time.perf_counter() - t0, items))
        index += 1
        typical = statistics.median(t for t, _ in passes + traced_passes)
        enough = index >= MIN_PASSES and (tracer_factory is None or len(tracers) >= 2)
        if enough and time.perf_counter() - start + typical > seconds:
            return passes, traced_passes, tracers


def end_to_end(wl, setup: list[float], passes, items) -> dict:
    latencies = [item.latency_s * 1e3 for item in items if not item.per_pass]
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    headrooms = [item.headroom for item in items if item.headroom is not None]
    gaps = [item.route_gap for item in items if item.route_gap is not None]
    pass_times = [t for t, _ in passes]
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        # the mean, not the median: on a shared host the CPU speed can switch
        # between states lasting seconds, and a median jumps between them
        "run_s": (statistics.mean(pass_times), "s", len(pass_times)),
        "item_p50_ms": (statistics.median(latencies), "ms", len(latencies)),
        "item_p90_ms": (statistics.quantiles(latencies, n=10)[-1]
                        if len(latencies) >= 100 else None, "ms", len(latencies)),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB", 1),
        "failed_ratio": (sum(item.failed for item in items) / len(items), "ratio",
                         len(items)),
        "headroom": (max(headrooms) if headrooms else None, "ratio", len(headrooms)),
        "route_gap": (max(gaps) if gaps else None, "abs", len(gaps)),
    }


def per_layer(passes, traced_passes, tracers) -> dict:
    metrics = {name: (value, unit, len(tracers))
               for name, (value, unit) in tracing.layer_metrics(tracers).items()}
    imports = import_times()
    metrics["import.weaktype_s"] = (imports["weaktype"], "s", IMPORT_RUNS)
    metrics["import.scipy_optimize_s"] = (imports["scipy.optimize"], "s", IMPORT_RUNS)
    metrics["import.numpy_s"] = (imports["numpy"], "s", IMPORT_RUNS)
    metrics["import.scipy_optimize_share"] = (
        imports["scipy.optimize"] / imports["weaktype"], "ratio", IMPORT_RUNS)
    untraced = statistics.mean(t for t, _ in passes)
    traced = statistics.mean(t for t, _ in traced_passes)
    metrics["trace.untraced_run_s"] = (untraced, "s", len(passes))
    metrics["trace.traced_run_s"] = (traced, "s", len(traced_passes))
    metrics["trace.overhead_s"] = (traced - untraced, "s", len(traced_passes))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-cli", "oracle-certify", "optimize-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weaktype" / "__init__.py").is_file():
        sys.stderr.write(f"weaktype sources not found under {SRC}\n")
        return 2
    # byte-compile first, so set-up time measures imports, not compilation
    compileall.compile_dir(str(SRC), quiet=1)
    # set before numpy loads, and inherited by every child: the sources under
    # src/ and one BLAS/OpenMP thread
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import workloads  # needs src on the path

    wl = workloads.WORKLOADS[args.workload]()
    repeats = []
    if args.trace:
        inputs = wl.inputs(args.seed)
        passes, traced_passes, tracers = run_passes(wl, inputs, args.seconds, tracing.Tracer)
        items = [item for _, pass_items in passes + traced_passes for item in pass_items]
        metrics = per_layer(passes, traced_passes, tracers)
        result_names = list(metrics)
        # every traced pass ran the same inputs, so its counts must repeat exactly
        reference = tracers[0].exact_counts()
        repeats = [t.exact_counts() == reference for t in tracers[1:]]
    else:
        setup = setup_times(args.workload, args.seed, SETUP_RUNS)
        inputs = wl.inputs(args.seed)
        passes, _, _ = run_passes(wl, inputs, args.seconds)
        items = [item for _, pass_items in passes for item in pass_items]
        metrics = end_to_end(wl, setup, passes, items)
        result_names = list(RESULT_METRICS)
    attempted = len(items) + len(repeats)
    failed = sum(item.failed for item in items) + repeats.count(False)
    correct = all(repeats) and not any(item.wrong for item in items)
    failures = [item.error or item.wrong for item in items if item.failed]
    failures += ["a traced pass counted other work than the first"] * repeats.count(False)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} correct={correct}")
    for name, (value, unit, samples) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit:<6} n={samples}")
    for message in failures[:5]:
        print(f"  failure: {message}")
    detail = {
        "workload": args.workload, "trace": args.trace,
        "provenance": provenance(args),
        "metrics": {name: {"value": value, "unit": unit, "samples": samples}
                    for name, (value, unit, samples) in metrics.items()},
        "failures": failures,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in result_names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
