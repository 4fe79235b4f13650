import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weaktype
from weaktype import optimize, verify
from weaktype.cli import main
from weaktype.verify import CheckReport, Status


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def usage_error(capsys, args):
    """stderr of a command that must exit 2 before writing to stdout."""
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def assert_one_line_usage_error(capsys, args, message):
    err = usage_error(capsys, args)
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert line.endswith(message)


class TestOutputConfig:
    def test_precision_range(self, capsys):
        for precision in ("2", "18"):
            err = usage_error(capsys, ["asymptotic", "--precision", precision])
            assert f"precision must be in [3, 17], got {precision}" in err

    def test_format_choices(self, capsys):
        usage_error(capsys, ["asymptotic", "--format", "yaml"])


class TestTable1:
    def test_single_row(self, capsys):
        code, out = run_cli(capsys, ["table1", "--m", "1"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["m", "b", "d", "t_0", "W", "gill_bound"]
        (row,) = rows
        assert row[0] == "1"
        assert math.floor(float(row[4]) * 1000) / 1000 == 1.383
        assert math.floor(float(row[5]) * 1000) / 1000 == 1.282

    def test_full_reference_table(self, capsys):
        code, out = run_cli(capsys, ["table1", "--m", "1,2,3,4"])
        assert code == 0
        _, rows = parse_csv(out)
        w_refs = [1.383, 1.375, 1.373, 1.371]
        gill_refs = [1.282, 1.207, 1.163, 1.134]
        for row, w_ref, gill_ref in zip(rows, w_refs, gill_refs):
            assert math.floor(float(row[4]) * 1000) / 1000 == w_ref
            assert math.floor(float(row[5]) * 1000) / 1000 == gill_ref

    def test_round_trip_precision(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code = main(["table1", "--m", "1", "--out", str(path), "--precision", "12"])
        assert code == 0
        header, rows = parse_csv(path.read_text())
        value = float(rows[0][4])
        assert f"{value:.12g}" == rows[0][4]

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, ["table1", "--m", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["m"] == 2
        assert payload[0]["W"] == pytest.approx(1.375, abs=2e-3)

    def test_bad_m_rejected(self, capsys):
        # each element is bounded as curves bounds its one m
        for m_list, bad in (("0", "0"), ("1,1000001", "1000001")):
            assert_one_line_usage_error(
                capsys, ["table1", "--m", m_list],
                f"m must be in [1, 1000000], got {bad}",
            )


class TestCurves:
    def test_sandwich_and_endpoints(self, capsys):
        code, out = run_cli(capsys, ["curves", "--m", "2", "--samples", "50"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["b", "d_min", "d_opt", "d_max", "t_0", "W_on_curve"]
        assert len(rows) == 50
        from weaktype.families import b_min

        first = [float(v) for v in rows[0]]
        assert first[0] == pytest.approx(b_min(2), rel=1e-8)
        assert first[1] == pytest.approx(b_min(2), rel=1e-8)
        for row in rows:
            b, lo, mid, hi, t0, _ = (float(v) for v in row)
            assert lo - 1e-9 <= mid <= hi + 1e-9
            assert t0 == pytest.approx(lo, rel=1e-8)

    def test_m1_ends_at_split_point(self, capsys):
        code, out = run_cli(capsys, ["curves", "--m", "1", "--samples", "10"])
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[-1][0]) == pytest.approx(7.0 ** (2.0 / 3.0), rel=1e-8)

    def test_bad_samples_rejected(self, capsys):
        # rejected by argparse before numpy is asked for the array
        for samples in ("1", "100000000000"):
            assert_one_line_usage_error(
                capsys, ["curves", "--m", "2", "--samples", samples],
                f"samples must be in [2, 100000], got {samples}",
            )

    def test_bad_m_rejected(self, capsys):
        for m in ("0", "1000001"):
            assert_one_line_usage_error(
                capsys, ["curves", "--m", m], f"m must be in [1, 1000000], got {m}"
            )


class TestAsymptotic:
    def test_fields(self, capsys):
        code, out = run_cli(capsys, ["asymptotic"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x_infinity", "bound", "sample_value"]
        x_inf, bound, sample = (float(v) for v in rows[0])
        assert x_inf == pytest.approx(0.54807758, abs=1e-7)
        assert bound == pytest.approx(1.0 / (math.exp(x_inf) - 1.0), rel=1e-9)
        assert sample >= 1.37


class TestVerify:
    def test_quick_suites_pass(self, capsys):
        code, out = run_cli(
            capsys, ["verify", "--suites", "eigen,aux_suprema", "--seed", "0"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["name", "status", "worst_residual", "tolerance", "seed"]
        assert [row[0] for row in rows] == ["eigen", "aux_suprema"]
        assert all(row[1] == "Pass" for row in rows)

    def test_json_report(self, capsys):
        code, out = run_cli(
            capsys, ["verify", "--suites", "scaling", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["name"] == "scaling"
        assert payload[0]["status"] == "Pass"

    def test_unknown_suite_is_usage_error(self, capsys):
        for suites in ("nope", "all,nope"):
            with pytest.raises(SystemExit) as excinfo:
                main(["verify", "--suites", suites])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""  # rejected before any suite ran
            assert "nope" in captured.err

    @pytest.mark.parametrize(
        "args", [["--seed", "-1"], ["--seed", "-1", "--suites", "eigen"]]
    )
    def test_negative_seed_rejected(self, capsys, args):
        # rejected by argparse, also when no seeded suite would run
        assert_one_line_usage_error(
            capsys, ["verify", *args],
            f"seed must be in [0, {2**63 - 1}], got -1",
        )

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        def failing(seed):
            return CheckReport("eigen", Status.FAIL, 1.0, 0.5, seed, ())

        monkeypatch.setitem(verify._SUITES, "eigen", failing)
        code = main(["verify", "--suites", "eigen"])
        captured = capsys.readouterr()
        assert code == 1
        assert "eigen" in captured.err

    def test_csv_matches_pinned_output(self, capsys):
        code, out = run_cli(
            capsys, ["verify", "--suites", "eigen,table1", "--format", "csv"]
        )
        assert code == 0
        assert out == (
            "name,status,worst_residual,tolerance,seed\n"
            "eigen,Pass,5.68434189e-14,1e-10,0\n"
            "table1,Pass,0,1,0\n"
        )

    def test_json_matches_pinned_output(self, capsys):
        # every suite at seed 0, byte for byte: refactors must not move a digit
        pinned = Path(__file__).with_name("verify_seed0.json").read_text()
        code, out = run_cli(capsys, ["verify", "--seed", "0", "--format", "json"])
        assert code == 0
        assert out == pinned

    @pytest.mark.parametrize(
        "args", [["table1", "--m", "1"], ["verify", "--suites", "table1"]]
    )
    def test_optimizer_failure_exits_one(self, capsys, monkeypatch, args):
        monkeypatch.setattr(optimize, "_NM_MAX_ITERATIONS", 5)
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("optimizer failed: Nelder-Mead")
        assert captured.err.count("\n") == 1

    def test_write_failure_exits_one(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code = main(["asymptotic", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 1
        assert "write failed" in captured.err


# argv and exact stdout, one JSON string per output line, of table1, curves
# and asymptotic at --precision 17 in csv and json.  CI's package job runs the
# installed console script on the same pins.
_PINNED_OUTPUTS = json.loads(Path(__file__).with_name("cli_outputs.json").read_text())


class TestPinnedOutputs:
    @pytest.mark.parametrize(
        "pin", _PINNED_OUTPUTS, ids=[" ".join(pin["argv"]) for pin in _PINNED_OUTPUTS]
    )
    def test_stdout_matches_pin(self, capsys, pin):
        code, out = run_cli(capsys, pin["argv"])
        assert code == 0
        assert out == "".join(pin["stdout"])


class TestUsage:
    def test_missing_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_precision(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--m", "1", "--precision", "2"])
        assert excinfo.value.code == 2


def _source_env():
    src = str(Path(weaktype.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class TestModuleEntryPoint:
    def test_import_leaves_test_only_mpmath_unloaded(self):
        code = "import sys, weaktype.cli; print('mpmath' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=_source_env(), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_verify_leaves_scipy_integrate_unloaded(self):
        # the oracle is numpy quadrature, so no suite loads scipy.integrate;
        # the benchmark's import timing reads the scipy.optimize line of
        # `import weaktype`, so that import must stay eager
        code = (
            "import sys, weaktype; eager = 'scipy.optimize' in sys.modules; "
            "weaktype.run_suite(list(weaktype.SUITE_NAMES), 0); "
            "print(eager, 'scipy.integrate' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=_source_env(), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True False\n"

    def test_python_m_weaktype_matches_cli_module(self):
        env = _source_env()
        outputs = []
        for module in ("weaktype", "weaktype.cli"):
            result = subprocess.run(
                [sys.executable, "-m", module, "verify", "--suites", "table1"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("name,status,worst_residual,tolerance,seed\n")
