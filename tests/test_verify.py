import hashlib
import json
import math
import time
from pathlib import Path

import pytest

from weaktype import verify
from weaktype.verify import SUITE_NAMES, Status, reports_to_json, run_suite


# SHA-256 of reports_to_json([report]) per seed and suite, so a change to one
# suite fails only that suite's digests; seed 0 is also pinned byte for byte in
# verify_seed0.json.  Refactors must leave these unchanged.
_SUITE_DIGESTS = json.loads(
    Path(__file__).with_name("verify_digests.json").read_text()
)

# Wall-time bounds in seconds: table1 runs the four maximize_W searches of
# the published table, oracle 10,000 pointwise oracle calls and 600 certified
# superlevel sets.
_WALL_TIME_BOUNDS = {"table1": 10.0, "oracle": 60.0}


class TestRunSuite:
    def test_eigen_passes_with_tiny_residual(self):
        (report,) = run_suite(["eigen"], 42)
        assert report.status is Status.PASS
        assert report.worst_residual < 1e-10
        assert report.tolerance == 1e-10
        assert report.seed == 42

    def test_duality_passes(self):
        (report,) = run_suite(["duality"], 7)
        assert report.status is Status.PASS
        assert report.worst_residual < 1e-8

    def test_suites_run_independently_and_in_order(self):
        reports = run_suite(["scaling", "aux_suprema"], 3)
        assert [r.name for r in reports] == ["scaling", "aux_suprema"]
        assert all(r.status is Status.PASS for r in reports)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_suite_passes_at_seed_0(self, name):
        start = time.perf_counter()
        (report,) = run_suite([name], 0)
        elapsed = time.perf_counter() - start
        assert report.status is Status.PASS, (
            f"{name}: worst residual {report.worst_residual:.3g} "
            f"over tolerance {report.tolerance:.3g}"
        )
        bound = _WALL_TIME_BOUNDS.get(name, math.inf)
        assert elapsed < bound, f"{name}: {elapsed:.1f} s, bound {bound} s"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            run_suite(["eigen", "nope"], 0)

    def test_all_names_registered(self):
        assert set(SUITE_NAMES) == {
            "eigen", "plateau", "plateau_adjoint", "oracle", "scaling",
            "boundaries", "duality", "table1", "asymptotic", "bound134",
            "aux_suprema", "push",
        }


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        first = reports_to_json(run_suite(["plateau", "scaling"], 11))
        second = reports_to_json(run_suite(["plateau", "scaling"], 11))
        assert first == second

    def test_different_seed_different_inputs(self):
        first = run_suite(["plateau"], 1)[0]
        second = run_suite(["plateau"], 2)[0]
        assert first.details != second.details

    @pytest.mark.parametrize("seed", range(10))
    def test_full_sweep_json_is_pinned(self, seed):
        digests = {
            report.name: hashlib.sha256(
                reports_to_json([report]).encode()
            ).hexdigest()
            for report in run_suite(list(SUITE_NAMES), seed)
        }
        assert digests == _SUITE_DIGESTS[str(seed)]


class TestJsonReport:
    def test_schema_fields(self):
        reports = run_suite(["aux_suprema"], 5)
        payload = json.loads(reports_to_json(reports))
        assert isinstance(payload, list)
        entry = payload[0]
        assert set(entry) == {
            "name", "status", "worst_residual", "tolerance", "seed", "details",
        }
        assert entry["status"] == "Pass"
        assert entry["seed"] == 5
        for detail in entry["details"]:
            assert set(detail) == {"input", "residual"}


class TestCollector:
    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_nan_entry_fails_in_any_position(self, order):
        values = {"a": 0.5, "b": math.nan}
        collector = verify._Collector()
        for name in order:
            collector.metric(name, values[name], 1.0)
        report = collector.report("suite", 0)
        assert report.status is Status.FAIL
        assert math.isnan(report.worst_residual)
        assert report.details[0][0] == "b" and math.isnan(report.details[0][1])
        assert report.details[1] == ("a", 0.5)

    def test_finite_entries_rank_worst_first_ties_in_order(self):
        collector = verify._Collector()
        for name, value in [("p", 0.1), ("q", 0.3), ("r", 0.3), ("s", 0.0),
                            ("t", 0.2), ("u", 0.05), ("v", 0.25)]:
            collector.metric(name, value, 1.0)
        report = collector.report("suite", 0)
        assert report.status is Status.PASS
        assert report.worst_residual == 0.3
        assert [name for name, _ in report.details] == ["q", "r", "v", "t", "p"]
