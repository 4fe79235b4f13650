import hashlib
import json

import pytest

from weaktype import verify
from weaktype.verify import SUITE_NAMES, Status, reports_to_json, run_suite


# SHA-256 of reports_to_json over every suite; seed 0 is pinned byte for byte
# in verify_seed0.json.  Refactors must leave these unchanged.
_SEED_DIGESTS = {
    1: "62471cf625c16f4234e6f862a9a804d51484932641c42c4a6c556f3a0a430dd3",
    2: "ad19520fd424a190e63de352a545b1da5613037ca5ecac4ab08a167af60fb2fa",
    3: "e1ff1da5b4fe8e4016fba116d47e47ae411c67ecc8e6b6625c7bed2170d9026b",
    4: "1b64488f265a85c7c743de17db0d4aaf07bc94379676560b34e0aa6facab7788",
    5: "ff90e82fc4ce34cc974c332610043c5400ba21d236bfb6d33639c14a3c98dbd1",
    6: "f6cf166abf847dc3845e20180094ce646716ecf8a99a487747def4bcebcfc709",
    7: "8953996ceb502322ed964a72b2542a1e39284768f1126d27d4567c008651e35d",
    8: "47797bc9550d9cd94710450da58e999dd0d5840d8a085c5b6d6b0d46e4abee2f",
    9: "902752e8a109a59389573f23d234a762f0bc7d311632f7da2128de49a7caa6ac",
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
