"""The ``python -m repro`` command surface: flows and exit codes."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.orchestrator.cli import main
from repro.orchestrator.results import RESULTS_SCHEMA_VERSION

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestList:
    def test_lists_every_visible_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in [f"E{i}" for i in range(1, 13)]:
            assert experiment_id in output
        assert "SLEEP" not in output


class TestRun:
    def test_run_prints_table_and_verdict(self, capsys):
        assert main(["run", "E1", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "E1: decisions per process" in output
        assert "verdict: OK" in output

    def test_run_with_seed_and_param(self, capsys):
        assert main(["run", "E3", "--seed", "7", "--quick", "--param", "max_f=1"]) == 0
        assert "E3: WTS decision latency" in capsys.readouterr().out

    def test_unknown_experiment_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E99"])
        assert excinfo.value.code == 2

    def test_unknown_param_exits_2(self, capsys):
        assert main(["run", "E3", "--param", "bogus=1"]) == 2

    def test_run_json_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "run-one.json"
        assert main(["run", "E1", "--quick", "--json", str(artifact)]) == 0
        payload = json.loads(artifact.read_text())
        assert payload["schema"] == RESULTS_SCHEMA_VERSION
        assert payload["jobs"][0]["experiment"] == "E1"

    def test_run_json_artifact_is_the_canonical_dump_and_validates(self, tmp_path, capsys):
        artifact = tmp_path / "run-one.json"
        assert main(["run", "E1", "--quick", "--json", str(artifact)]) == 0
        with open(artifact) as handle:
            expected = json.dumps(json.load(handle), indent=2, sort_keys=True) + "\n"
        assert artifact.read_text() == expected
        assert main(["validate", str(artifact)]) == 0
        assert "valid repro-results/v6 artifact with 1 job(s)" in capsys.readouterr().out


class TestSweep:
    def test_quick_sweep_writes_valid_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "run-ci.json"
        status = main([
            "sweep", "--quick", "--workers", "2", "--only", "E1", "E3",
            "--tag", "ci", "--out", str(artifact),
        ])
        assert status == 0
        payload = json.loads(artifact.read_text())
        assert payload["totals"] == {"jobs": 2, "ok": 2, "check_failed": 0,
                                     "timeout": 0, "error": 0}
        assert main(["validate", str(artifact)]) == 0

    def test_sweep_seed_matrix(self, tmp_path, capsys):
        artifact = tmp_path / "run-m.json"
        status = main([
            "sweep", "--quick", "--only", "E1", "--seeds", "1", "2", "3",
            "--out", str(artifact),
        ])
        assert status == 0
        payload = json.loads(artifact.read_text())
        assert [job["seed"] for job in payload["jobs"]] == [1, 2, 3]

    def test_sweep_unknown_experiment_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--only", "E99"])
        assert excinfo.value.code == 2

    def test_failed_job_makes_sweep_exit_1(self, tmp_path, capsys):
        artifact = tmp_path / "run-t.json"
        status = main([
            "sweep", "--only", "SLEEP", "--param", "duration=30", "--timeout", "0.5",
            "--out", str(artifact), "--workers", "1",
        ])
        assert status == 1
        payload = json.loads(artifact.read_text())
        assert payload["jobs"][0]["status"] == "timeout"


class TestValidateAndCompare:
    def test_validate_rejects_malformed_artifacts(self, tmp_path, capsys):
        bad = tmp_path / "run-bad.json"
        bad.write_text(json.dumps({"schema": RESULTS_SCHEMA_VERSION}))
        assert main(["validate", str(bad)]) == 1

    def test_validate_rejects_unreadable_files(self, tmp_path, capsys):
        garbled = tmp_path / "run-garbled.json"
        garbled.write_text("{not json")
        assert main(["validate", str(garbled)]) == 1

    def test_compare_reports_missing_files_cleanly(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "nope.json"), str(tmp_path / "nada.json")]) == 1
        assert "unreadable" in capsys.readouterr().err

    def test_sweep_unmatched_param_exits_2(self, capsys):
        assert main(["sweep", "--quick", "--only", "E1", "--param", "bogus=1"]) == 2

    def test_compare_flows_through_exit_codes(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        current_path = tmp_path / "current.json"
        assert main(["sweep", "--quick", "--only", "E3", "--out", str(baseline_path)]) == 0
        assert main(["sweep", "--quick", "--only", "E3", "--out", str(current_path)]) == 0
        assert main(["compare", str(baseline_path), str(current_path)]) == 0

        current = json.loads(current_path.read_text())
        current["jobs"][0]["latency"]["max_message_delays"] *= 10
        current_path.write_text(json.dumps(current))
        assert main(["compare", str(baseline_path), str(current_path)]) == 1
        assert "LATENCY REGRESSION" in capsys.readouterr().out

    def test_compare_reads_previous_v5_baselines(self, tmp_path, capsys):
        """A current run still diffs cleanly against a previous-schema (v5) baseline."""
        baseline_path = tmp_path / "baseline.json"
        current_path = tmp_path / "current.json"
        assert main(["sweep", "--quick", "--only", "E3", "--out", str(baseline_path)]) == 0
        assert main(["sweep", "--quick", "--only", "E3", "--out", str(current_path)]) == 0
        baseline = json.loads(baseline_path.read_text())
        baseline["schema"] = "repro-results/v5"
        del baseline["resumed"]  # v5 artifacts predate the field
        baseline_path.write_text(json.dumps(baseline))
        assert main(["validate", str(baseline_path)]) == 0
        assert main(["compare", str(baseline_path), str(current_path)]) == 0


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "E12" in completed.stdout
