import hashlib
import json
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

    def test_table1_passes(self):
        (report,) = run_suite(["table1"], 0)
        assert report.status is Status.PASS

    def test_full_sweep_passes(self):
        reports = run_suite(list(SUITE_NAMES), 0)
        assert [r.name for r in reports] == list(SUITE_NAMES)
        assert all(r.status is Status.PASS for r in reports)

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
