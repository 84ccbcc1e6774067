"""The explore driver and CLI: determinism, the mutant self-test, exit codes.

The mutant self-test is the fuzzer's canary: a seeded known-bad WTS variant
(the ablations of E11, re-enabled without their defences) must produce
invariant violations that the checkers catch and the shrinker reduces to the
minimal reproducer.  If this file ever starts failing, the explorer has gone
blind — that is the whole point of pinning it.
"""

import json

from repro.explore.explorer import explore
from repro.explore.scenarios import ScenarioSpec, run_scenario_spec
from repro.orchestrator.cli import main
from repro.orchestrator.results import canonicalize_payload, load_payload


def canonical(path):
    return json.dumps(canonicalize_payload(load_payload(path)), sort_keys=True)


class TestExploreDriver:
    def test_clean_campaign_finds_nothing(self):
        report = explore(budget=6, seed=1)
        assert report.ok
        assert report.violations == []
        assert report.failures == []
        assert len(report.results) == 6

    def test_campaigns_are_deterministic(self):
        first = explore(budget=5, seed=2)
        second = explore(budget=5, seed=2)
        assert [r.job.key for r in first.results] == [r.job.key for r in second.results]
        assert [r.payload["ok"] for r in first.results] == [
            r.payload["ok"] for r in second.results
        ]


class TestMutantSelfTest:
    """The pinned known-bad-mutant canary (see module docstring)."""

    def test_mutant_violations_are_caught_replayed_and_shrunk(self):
        report = explore(budget=4, seed=3, mutant="no-wait-till-safe")
        assert not report.ok
        assert report.failures == []
        assert report.violations, "the fuzzer went blind: no mutant violation caught"
        for violation in report.violations:
            assert violation.replayed, "violation did not reproduce from its seed"
            assert violation.violations, "caught violation carries no invariant names"
            # The shrunk reproducer is minimal: no axes, the triggering
            # adversary alone, the smallest tolerant cluster.
            assert violation.shrunk.byzantine == ("nack-spam",)
            assert violation.shrunk.scheduler == ""
            assert violation.shrunk.fault_plan == ""
            assert violation.shrunk.n == 4
            assert violation.shrunk.f == 1
            assert violation.shrunk_violations, "shrunk reproducer no longer violates"
            assert "repro run SCENARIO" in violation.shrunk.replay_command()

    def test_shrunk_reproducer_replays_standalone(self):
        report = explore(budget=2, seed=3, mutant="no-wait-till-safe")
        violation = report.violations[0]
        outcome = run_scenario_spec(violation.shrunk)
        assert outcome["ok"] is False
        assert outcome["violations"] == violation.shrunk_violations

    def test_quick_campaign_replay_commands_carry_the_quick_flag(self):
        # Quick mode changes the generalized workloads, so a reproducer
        # found under --quick must replay under --quick.
        report = explore(budget=2, seed=3, mutant="no-wait-till-safe", quick=True)
        violation = report.violations[0]
        assert "--quick" in violation.replay()
        assert "--quick" in violation.shrunk_replay()
        config = violation.to_config()
        assert "--quick" in config["replay"] and "--quick" in config["shrunk_replay"]
        not_quick = explore(budget=2, seed=3, mutant="no-wait-till-safe")
        assert "--quick" not in not_quick.violations[0].shrunk_replay()


class TestExploreCLI:
    def test_clean_run_exits_0_and_writes_valid_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "run-explore.json"
        status = main([
            "explore", "--budget", "5", "--seed", "1", "--out", str(artifact),
        ])
        assert status == 0
        assert main(["validate", str(artifact)]) == 0
        payload = json.loads(artifact.read_text())
        assert payload["totals"]["jobs"] == 5
        assert payload["config"]["explore"]["budget"] == 5
        assert payload["config"]["explore"]["violations"] == []

    def test_artifacts_identical_across_runs_and_worker_counts(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["explore", "--budget", "5", "--seed", "4", "--out", str(first)]) == 0
        assert main([
            "explore", "--budget", "5", "--seed", "4", "--workers", "2",
            "--out", str(second),
        ]) == 0
        assert canonical(first) == canonical(second)

    def test_invariant_violation_exits_1_with_shrunk_reproducer(self, tmp_path, capsys):
        artifact = tmp_path / "run-mutant.json"
        status = main([
            "explore", "--budget", "2", "--seed", "3",
            "--mutant", "no-wait-till-safe", "--out", str(artifact),
        ])
        assert status == 1
        errors = capsys.readouterr().err
        assert "VIOLATION" in errors
        assert "shrunk" in errors
        assert "repro run SCENARIO" in errors
        payload = json.loads(artifact.read_text())
        violations = payload["config"]["explore"]["violations"]
        assert violations
        assert violations[0]["shrunk_spec"]["byzantine"] == "nack-spam"
        # The artifact is schema-valid even when the campaign failed.
        assert main(["validate", str(artifact)]) == 0

    def test_replaying_the_shrunk_spec_via_run_exits_1(self, capsys):
        # `repro run SCENARIO` is the replay surface the explorer prints;
        # its exit code must reflect the failed invariant check.
        status = main([
            "run", "SCENARIO", "--seed", "910211",
            "--param", "protocol=wts", "--param", "n=4", "--param", "f=1",
            "--param", "byzantine=nack-spam", "--param", "mutant=no-wait-till-safe",
        ])
        assert status == 1
        output = capsys.readouterr().out
        assert "verdict: FAILED" in output

    def test_bad_mutant_name_is_a_usage_error(self, capsys):
        assert main(["explore", "--budget", "1", "--mutant", "bogus"]) == 2

    def test_scenario_stays_hidden_from_list_and_default_sweeps(self, capsys):
        assert main(["list"]) == 0
        assert "SCENARIO" not in capsys.readouterr().out


class TestStreamedCampaigns:
    """PR 10: explore writes through the JSONL shard; resume must not
    perturb the coverage feedback loop or the canonical artifact."""

    COVERAGE_ARGS = ["explore", "--budget", "10", "--seed", "6", "--quick",
                     "--coverage", "--batch", "4"]

    def test_coverage_campaign_identical_across_worker_counts(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main([*self.COVERAGE_ARGS, "--out", str(first)]) == 0
        assert main([*self.COVERAGE_ARGS, "--workers", "4", "--out", str(second)]) == 0
        assert canonical(first) == canonical(second)

    def test_truncated_shard_resumes_to_identical_artifact(self, tmp_path, capsys):
        from repro.orchestrator.results import shard_path_for

        full = tmp_path / "full.json"
        assert main([*self.COVERAGE_ARGS, "--tag", "c", "--out", str(full)]) == 0

        partial = tmp_path / "part.json"
        assert main([*self.COVERAGE_ARGS, "--tag", "c", "--out", str(partial)]) == 0
        # Simulate a SIGKILL mid-campaign: keep the header + the first four
        # records plus a torn half-line, drop the rolled-up artifact.
        shard = shard_path_for(partial)
        lines = shard.read_text().splitlines(keepends=True)
        shard.write_text("".join(lines[:5]) + '{"index": 4, "key": "torn-mid')
        partial.unlink()

        status = main([
            *self.COVERAGE_ARGS, "--tag", "c", "--out", str(partial),
            "--resume", "--progress",
        ])
        assert status == 0
        assert canonical(partial) == canonical(full)
        assert load_payload(partial)["resumed"] == 4
        err = capsys.readouterr().err
        assert "[explore] 10/10 done" in err

    def test_resume_with_mismatched_campaign_exits_2(self, tmp_path, capsys):
        artifact = tmp_path / "c.json"
        assert main([*self.COVERAGE_ARGS, "--tag", "c", "--out", str(artifact)]) == 0
        status = main([
            "explore", "--budget", "10", "--seed", "7", "--quick",
            "--coverage", "--batch", "4", "--tag", "c", "--out", str(artifact),
            "--resume",
        ])
        assert status == 2
        assert "does not match" in capsys.readouterr().err

    def test_resume_over_a_corrupt_shard_exits_1(self, tmp_path, capsys):
        from repro.orchestrator.results import shard_path_for

        artifact = tmp_path / "c.json"
        assert main([*self.COVERAGE_ARGS, "--tag", "c", "--out", str(artifact)]) == 0
        shard = shard_path_for(artifact)
        lines = shard.read_text().splitlines(keepends=True)
        shard.write_text("".join(lines[:3]) + "GARBAGE\n" + "".join(lines[3:]))
        status = main([*self.COVERAGE_ARGS, "--tag", "c", "--out", str(artifact), "--resume"])
        assert status == 1
        assert "corrupt" in capsys.readouterr().err

    def test_campaign_shard_validates_alongside_the_artifact(self, tmp_path, capsys):
        from repro.orchestrator.results import shard_path_for

        artifact = tmp_path / "c.json"
        assert main(["explore", "--budget", "4", "--seed", "1", "--quick",
                     "--out", str(artifact)]) == 0
        assert main(["validate", str(artifact), str(shard_path_for(artifact))]) == 0


class TestWorkerCountInvariance:
    """Adversarial-scheduler scenarios: same canonical payloads at any width."""

    def test_scheduler_scenarios_identical_at_one_and_two_workers(self):
        from repro.orchestrator.jobs import JobSpec
        from repro.orchestrator.pool import run_jobs

        specs = [
            ScenarioSpec(protocol="wts", n=4, f=1, scheduler="random:spread=5", seed=2026),
            ScenarioSpec(
                protocol="wts", n=4, f=1,
                scheduler="worst-case:victims=p0,starve=40,fast=1", seed=2026,
            ),
        ]
        jobs = [
            JobSpec(experiment="SCENARIO", seed=spec.seed,
                    params=tuple(sorted(spec.params().items())), index=index)
            for index, spec in enumerate(specs)
        ]
        inline = run_jobs(jobs, workers=1)
        fanned = run_jobs(jobs, workers=2)

        def stable(result):  # drop the only wall-clock (volatile) job field
            return {k: v for k, v in result.payload.items() if k != "wall_time_s"}

        assert [stable(r) for r in inline] == [stable(r) for r in fanned]
