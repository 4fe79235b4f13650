import hashlib
import json

import pytest

from weaktype import verify
from weaktype.verify import SUITE_NAMES, Status, reports_to_json, run_suite


# SHA-256 of reports_to_json over every suite; seed 0 is pinned byte for byte
# in verify_seed0.json.  Refactors must leave these unchanged.
_SEED_DIGESTS = {
    1: "0a975de9a87f8b7372b5a8481a207e0ed602e55e3fea671d531af8072db99d7d",
    2: "91f026647cd255a19bd141dab406e8fc66ddf916b1c4a24b7b7dee416ec3f143",
    3: "e1327f1f3d3b9621b51ccbf9aaa69bed680322318446d46ccd77e7f9eb13e604",
    4: "45bdc5a1f5df0233570a8068eaa11fac1aff43f133e797fa1d7db5bba25f2ed6",
    5: "fd155fe4d5e11be0c2e368e006e25d78cea83333ce2afedcbba77017d19ac0f6",
    6: "c73f9b3a04a7813382de8b27da1d18e2a4d616427169a2dc4315c3735414e49d",
    7: "468fdda4fb738d89af8929ca4c79ece6d478612e0aaa7d53fc5e06479280ed89",
    8: "fd38dbcc38017452db8b12cac48ef4fadbb28cdaa85776d5bcc1b7fc2fcfc1f6",
    9: "d160c0f99834c1325e30be8a8cb3b3e3510be501611c493a5617c7414ca74255",
}


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

    @pytest.mark.parametrize("seed", sorted(_SEED_DIGESTS))
    def test_full_sweep_json_is_pinned(self, seed):
        text = reports_to_json(run_suite(list(SUITE_NAMES), seed))
        assert hashlib.sha256(text.encode()).hexdigest() == _SEED_DIGESTS[seed]


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
