"""Run the benchmark over workloads and seeds and summarize every metric.

Usage, from the repository root::

    python3 bench/report.py                       # all workloads, seed 0
    python3 bench/report.py --seeds 0-9           # spread over ten seeds
    python3 bench/report.py --trace --write bench/BASELINE.json

Each run is a fresh ``bench/run.py`` process, one after another.  For every
workload and end-to-end metric the summary prints the median over the seeds,
its unit, the spread (interquartile range over median, with four or more
seeds) and the sample count of one run.  ``--trace`` adds one traced run per
workload, on the first seed, and prints its per-layer table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith('{"detail"')))
    return {"result": json.loads(lines[-1]), **detail["detail"]}


def spread(values: list[float]) -> float | None:
    if len(values) < 4:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # all three, oracle-certify too, although BENCHMARK.json lists two
    parser.add_argument("--workloads", default="verify-cli,oracle-certify,optimize-sweep")
    parser.add_argument("--seeds", type=seed_list, default=[0])
    parser.add_argument("--seconds", type=int, default=CONFIG["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args()

    record = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        summary = {}
        print(f"{workload}: seeds {args.seeds[0]}..{args.seeds[-1]}, "
              f"attempted {sum(r['result']['attempted'] for r in runs)}, "
              f"failed {sum(r['result']['failed'] for r in runs)}, "
              f"correct {all(r['result']['correct'] for r in runs)}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs
                      if r["metrics"][name]["value"] is not None]
            median = statistics.median(values) if values else None
            summary[name] = {"median": median, "unit": first["unit"],
                             "spread": spread(values), "samples": first["samples"],
                             "values": values}
            shown = "n/a" if median is None else f"{median:.6g}"
            iqr = summary[name]["spread"]
            print(f"  {name:<16} {shown:>12} {first['unit']:<6} "
                  f"spread {'n/a' if iqr is None else f'{iqr:.3f}':>6}  "
                  f"n={first['samples']}")
        entry = {"end_to_end": summary, "failures": [f for r in runs for f in r["failures"]],
                 "provenance": runs[0]["provenance"]}
        if args.trace:
            traced = run(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = traced["metrics"]
            print(f"  traced run, seed {args.seeds[0]}:")
            for name, metric in traced["metrics"].items():
                print(f"    {name:<44} {metric['value']:>14.6g} {metric['unit']}")
        record["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
