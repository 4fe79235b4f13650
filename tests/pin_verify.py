"""Rewrite the pinned verify outputs from the current code.

    PYTHONPATH=src python tests/pin_verify.py

writes the per-suite SHA-256 digests of seeds 0-9 to
``tests/verify_digests.json`` and the bytes of ``weaktype verify --seed 0
--format json`` to ``tests/verify_seed0.json``: the pins that
``tests/test_verify.py`` and ``tests/test_cli.py`` compare against.  If any
suite fails at any of these seeds it writes nothing and exits 1.  A refactor
leaves both files unchanged; review a re-pin with ``git diff``.
"""

import hashlib
import json
import sys
from pathlib import Path

from weaktype import cli
from weaktype.verify import SUITE_NAMES, Status, reports_to_json, run_suite

HERE = Path(__file__).resolve().parent


def main() -> int:
    digests = {}
    for seed in range(10):
        reports = run_suite(list(SUITE_NAMES), seed)
        failing = [r.name for r in reports if r.status is Status.FAIL]
        if failing:
            sys.stderr.write(
                f"seed {seed}: failing suites {', '.join(failing)}; nothing written\n"
            )
            return 1
        digests[str(seed)] = {
            r.name: hashlib.sha256(reports_to_json([r]).encode()).hexdigest()
            for r in reports
        }
    (HERE / "verify_digests.json").write_text(json.dumps(digests, indent=2) + "\n")
    out = str(HERE / "verify_seed0.json")
    return cli.main(["verify", "--seed", "0", "--format", "json", "--out", out])


if __name__ == "__main__":
    sys.exit(main())
