"""The streaming results pipeline: JSONL shards, rollup, resume, memory.

PR 10 rebuilt the orchestrator's persistence path around an append-only
JSONL shard (one flushed line per finished job) rolled up into the
canonical artifact at the end.  These tests pin the load-bearing claims:

* the shard survives a SIGKILL (torn final line tolerated, the rest
  resumable) and ``--resume`` completes to an artifact canonically
  identical to an uninterrupted run;
* :class:`StreamingRunWriter` reproduces ``json.dumps(build_run_payload(
  ...), indent=2, sort_keys=True)`` byte for byte — the worker-count
  determinism story now rests on it;
* supervisor memory stays O(workers), not O(jobs), spot-checked with the
  hidden BLOB experiment as a bounded-payload proxy.
"""

import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

from repro.orchestrator.cli import main
from repro.orchestrator.jobs import JobSpec
from repro.orchestrator.pool import execute_job
from repro.orchestrator.results import (
    ShardIndex,
    ShardWriter,
    StreamingRunWriter,
    build_run_payload,
    canonicalize_payload,
    iter_shard_records,
    load_payload,
    rollup_shard,
    shard_path_for,
    validate_shard,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _job_payloads(count=3):
    jobs = [JobSpec(experiment="E1", seed=seed, quick=True, index=seed) for seed in range(count)]
    return [execute_job(job) for job in jobs]


def _canonical(path):
    return json.dumps(canonicalize_payload(load_payload(path)), indent=2, sort_keys=True)


class TestShardRoundTrip:
    def test_append_then_index_recovers_every_payload(self, tmp_path):
        shard = tmp_path / "run-t.jobs.jsonl"
        payloads = _job_payloads()
        with ShardWriter(shard, tag="t", config={"quick": True}) as writer:
            for position, payload in enumerate(payloads):
                writer.append(position, payload)
        index = ShardIndex(shard)
        assert len(index) == len(payloads)
        assert index.indices() == tuple(range(len(payloads)))
        for position, payload in enumerate(payloads):
            assert index.get(position) == payload
            assert index.key_of(position) == payload["key"]

    def test_header_records_tag_and_config(self, tmp_path):
        shard = tmp_path / "run-t.jobs.jsonl"
        with ShardWriter(shard, tag="t", config={"seeds": [1, 2]}):
            pass
        header = ShardIndex(shard).header
        assert header["tag"] == "t"
        assert header["config"] == {"seeds": [1, 2]}

    def test_shard_path_for_artifact(self, tmp_path):
        assert shard_path_for(tmp_path / "run-x.json").name == "run-x.jobs.jsonl"

    def test_writer_refuses_invalid_job_records(self, tmp_path):
        shard = tmp_path / "run-t.jobs.jsonl"
        with ShardWriter(shard, tag="t", config={}) as writer:
            with pytest.raises(ValueError, match="invalid job record"):
                writer.append(0, {"key": "bogus"})

    def test_later_records_win_on_duplicate_index(self, tmp_path):
        shard = tmp_path / "run-t.jobs.jsonl"
        first, second = _job_payloads(2)
        with ShardWriter(shard, tag="t", config={}) as writer:
            writer.append(0, first)
            writer.append(0, second)
        assert ShardIndex(shard).get(0) == second


class TestShardCrashTolerance:
    def test_torn_final_line_is_dropped_not_fatal(self, tmp_path):
        shard = tmp_path / "run-t.jobs.jsonl"
        payloads = _job_payloads(2)
        with ShardWriter(shard, tag="t", config={}) as writer:
            for position, payload in enumerate(payloads):
                writer.append(position, payload)
        shard.write_bytes(shard.read_bytes() + b'{"index": 9, "key": "torn-mid-wri')
        assert len(ShardIndex(shard)) == 2
        problems, jobs, torn = validate_shard(shard)
        assert problems == [] and jobs == 2 and torn

    def test_resume_append_truncates_the_torn_tail(self, tmp_path):
        shard = tmp_path / "run-t.jobs.jsonl"
        payloads = _job_payloads(2)
        with ShardWriter(shard, tag="t", config={}) as writer:
            writer.append(0, payloads[0])
        shard.write_bytes(shard.read_bytes() + b'{"index": 1, "key": "torn')
        with ShardWriter(shard, tag="t", config={}, fresh=False) as writer:
            writer.append(1, payloads[1])
        index = ShardIndex(shard)
        assert index.indices() == (0, 1)
        assert index.get(1) == payloads[1]

    def test_corrupt_middle_line_raises(self, tmp_path):
        shard = tmp_path / "run-t.jobs.jsonl"
        with ShardWriter(shard, tag="t", config={}) as writer:
            writer.append(0, _job_payloads(1)[0])
        raw = shard.read_bytes()
        shard.write_bytes(raw[: len(raw) // 2] + b"GARBAGE\n" + raw[len(raw) // 2 :])
        with pytest.raises(ValueError):
            list(iter_shard_records(shard))

    def test_validate_cli_accepts_partial_shard(self, tmp_path, capsys):
        shard = tmp_path / "run-t.jobs.jsonl"
        with ShardWriter(shard, tag="t", config={}) as writer:
            writer.append(0, _job_payloads(1)[0])
        shard.write_bytes(shard.read_bytes() + b'{"torn')
        assert main(["validate", str(shard)]) == 0
        out = capsys.readouterr().out
        assert "1 job record(s)" in out and "torn" in out

    def test_validate_cli_rejects_bad_shard_records(self, tmp_path, capsys):
        shard = tmp_path / "run-t.jobs.jsonl"
        shard.write_text('{"index": 0, "key": "k", "status": "ok"}\n')
        assert main(["validate", str(shard)]) == 1


class TestStreamingRunWriter:
    def test_byte_identical_to_build_run_payload(self, tmp_path):
        payloads = _job_payloads()
        reference = build_run_payload(
            tag="t", config={"quick": True}, job_payloads=payloads,
            wall_time_s=2.5, workers=3, created_unix=99.0,
        )
        expected = json.dumps(reference, indent=2, sort_keys=True) + "\n"
        artifact = tmp_path / "run-t.json"
        writer = StreamingRunWriter(
            artifact, tag="t", config={"quick": True}, workers=3, created_unix=99.0
        )
        for payload in payloads:
            writer.add_job(payload)
        writer.close(wall_time_s=2.5)
        assert artifact.read_text() == expected

    def test_empty_run_is_byte_identical_too(self, tmp_path):
        reference = build_run_payload(
            tag="t", config={}, job_payloads=[], wall_time_s=0.1, workers=1,
            created_unix=7.0,
        )
        expected = json.dumps(reference, indent=2, sort_keys=True) + "\n"
        artifact = tmp_path / "run-t.json"
        StreamingRunWriter(artifact, tag="t", config={}, workers=1, created_unix=7.0).close(0.1)
        assert artifact.read_text() == expected

    def test_crash_mid_write_leaves_no_artifact(self, tmp_path):
        artifact = tmp_path / "run-t.json"
        writer = StreamingRunWriter(artifact, tag="t", config={}, workers=1)
        writer.add_job(_job_payloads(1)[0])
        writer.abort()
        assert not artifact.exists()
        assert not artifact.with_name(artifact.name + ".tmp").exists()

    def test_invalid_job_aborts_the_artifact(self, tmp_path):
        artifact = tmp_path / "run-t.json"
        writer = StreamingRunWriter(artifact, tag="t", config={}, workers=1)
        with pytest.raises(ValueError, match="invalid job record"):
            writer.add_job({"key": "bogus"})
        assert not artifact.with_name(artifact.name + ".tmp").exists()


class TestRollup:
    def test_rollup_matches_in_memory_build(self, tmp_path):
        payloads = _job_payloads()
        shard = tmp_path / "run-t.jobs.jsonl"
        with ShardWriter(shard, tag="t", config={"quick": True}) as writer:
            # Completion order is nondeterministic under workers>1; the
            # rollup must still emit jobs in index order.
            for position in (2, 0, 1):
                writer.append(position, payloads[position])
        artifact = tmp_path / "run-t.json"
        rollup_shard(
            ShardIndex(shard), artifact, tag="t", config={"quick": True},
            job_count=3, wall_time_s=2.5, workers=3, created_unix=99.0,
        )
        reference = build_run_payload(
            tag="t", config={"quick": True}, job_payloads=payloads,
            wall_time_s=2.5, workers=3, created_unix=99.0,
        )
        assert artifact.read_text() == json.dumps(reference, indent=2, sort_keys=True) + "\n"

    def test_incomplete_shard_refuses_to_roll_up(self, tmp_path):
        shard = tmp_path / "run-t.jobs.jsonl"
        with ShardWriter(shard, tag="t", config={}) as writer:
            writer.append(0, _job_payloads(1)[0])
        with pytest.raises(ValueError, match="--resume"):
            rollup_shard(
                ShardIndex(shard), tmp_path / "run-t.json", tag="t", config={},
                job_count=3, wall_time_s=1.0, workers=1,
            )


class TestSweepResume:
    def _sweep(self, tmp_path, tag, extra=()):
        artifact = tmp_path / f"run-{tag}.json"
        status = main([
            "sweep", "--quick", "--only", "E1", "--seeds", "1", "2", "3",
            "--tag", tag, "--out", str(artifact), *extra,
        ])
        return status, artifact

    def test_resume_after_partial_shard_matches_uninterrupted(self, tmp_path):
        status, full = self._sweep(tmp_path, "full")
        assert status == 0

        status, partial = self._sweep(tmp_path, "part")
        assert status == 0
        # Simulate a SIGKILL after two jobs: truncate the shard to its
        # header + first two records plus a torn half-line, delete the
        # artifact (the kill happened before rollup).
        shard = shard_path_for(partial)
        lines = shard.read_text().splitlines(keepends=True)
        shard.write_text("".join(lines[:3]) + '{"index": 2, "key": "torn-mid')
        partial.unlink()

        status, resumed = self._sweep(tmp_path, "part", extra=("--resume",))
        assert status == 0
        assert _canonical(resumed) == _canonical(full)
        assert load_payload(resumed)["resumed"] == 2

    def test_resume_with_mismatched_config_exits_2(self, tmp_path, capsys):
        status, artifact = self._sweep(tmp_path, "part")
        assert status == 0
        status = main([
            "sweep", "--quick", "--only", "E2", "--seeds", "1",
            "--tag", "part", "--out", str(artifact), "--resume",
        ])
        assert status == 2
        assert "does not match" in capsys.readouterr().err

    def test_resume_over_another_jobs_record_exits_2(self, tmp_path, capsys):
        status, artifact = self._sweep(tmp_path, "part")
        assert status == 0
        shard = shard_path_for(artifact)
        lines = shard.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        assert record["index"] == 1
        record["key"] = "E1[seed=99]"
        lines[2] = json.dumps(record, sort_keys=True) + "\n"
        shard.write_text("".join(lines))
        status, _artifact = self._sweep(tmp_path, "part", extra=("--resume",))
        assert status == 2
        assert "does not match" in capsys.readouterr().err

    def test_resume_reruns_a_final_record_cut_before_its_newline(self, tmp_path):
        status, full = self._sweep(tmp_path, "full")
        assert status == 0
        status, partial = self._sweep(tmp_path, "part")
        assert status == 0
        # A kill between a record's bytes and its newline: the record is
        # torn, so resume truncates it and runs that job again.
        shard = shard_path_for(partial)
        lines = shard.read_text().splitlines(keepends=True)
        shard.write_text("".join(lines[:3]).rstrip("\n"))
        partial.unlink()
        status, resumed = self._sweep(tmp_path, "part", extra=("--resume",))
        assert status == 0
        assert _canonical(resumed) == _canonical(full)
        assert load_payload(resumed)["resumed"] == 1

    def test_resume_over_a_corrupt_shard_exits_1(self, tmp_path, capsys):
        status, artifact = self._sweep(tmp_path, "part")
        assert status == 0
        shard = shard_path_for(artifact)
        lines = shard.read_text().splitlines(keepends=True)
        shard.write_text("".join(lines[:2]) + "GARBAGE\n" + "".join(lines[2:]))
        status, _artifact = self._sweep(tmp_path, "part", extra=("--resume",))
        assert status == 1
        assert "corrupt" in capsys.readouterr().err

    def test_fresh_run_overwrites_a_stale_shard(self, tmp_path):
        status, artifact = self._sweep(tmp_path, "t")
        assert status == 0
        first = shard_path_for(artifact).read_text()
        status, artifact = self._sweep(tmp_path, "t")
        assert status == 0
        assert shard_path_for(artifact).read_text().count('"key"') == first.count('"key"')

    def test_progress_flag_reports_on_stderr(self, tmp_path, capsys):
        status, _artifact = self._sweep(tmp_path, "p", extra=("--progress",))
        assert status == 0
        err = capsys.readouterr().err
        assert "[sweep] 3/3 done" in err and "jobs/s" in err


class TestSweepKillThenResume:
    """The real thing: SIGKILL a sweep subprocess mid-flight, then resume."""

    ARGS = [
        "sweep", "--quick", "--only", "SLEEP", "--seeds", "1", "2", "3", "4", "5", "6",
        "--param", "duration=2.0", "--workers", "2", "--timeout", "60",
    ]

    def _run(self, out, tag, extra=(), **kwargs):
        return subprocess.run(
            [sys.executable, "-m", "repro", *self.ARGS, "--tag", tag,
             "--out", str(out), *extra],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            **kwargs,
        )

    def _kill_mid_sweep(self, out, tag):
        """Start a sweep in its own session, SIGKILL it once a record landed.

        Returns the killed supervisor's pid, which is also the process group
        of every pool worker it forked.
        """
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.ARGS, "--tag", tag,
             "--out", str(out)],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        shard = shard_path_for(out)
        # SLEEP quick sleeps duration/10 = 0.2s per job; kill once at least
        # one record (beyond the header) hit the shard.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if shard.exists() and shard.read_text().count('"key"') >= 1:
                break
            time.sleep(0.05)
        else:  # pragma: no cover - only on a pathologically slow box
            process.kill()
            pytest.fail("shard never gained a job record")
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
        assert not out.exists()  # the kill beat the rollup
        return process.pid

    def test_sigkill_then_resume_is_canonically_identical(self, tmp_path):
        full = tmp_path / "run-full.json"
        assert self._run(full, "full", capture_output=True).returncode == 0

        partial = tmp_path / "run-part.json"
        self._kill_mid_sweep(partial, "part")
        shard = shard_path_for(partial)

        # The partial shard is a valid, resumable artifact of the crash.
        assert main(["validate", str(shard)]) == 0

        resumed = self._run(partial, "part", extra=("--resume",), capture_output=True)
        assert resumed.returncode == 0
        assert _canonical(partial) == _canonical(full)
        assert load_payload(partial)["resumed"] >= 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_sigkill_leaves_no_pool_worker_behind(self, tmp_path):
        """Pool workers of a SIGKILLed supervisor notice it and exit."""
        group = self._kill_mid_sweep(tmp_path / "run-orphan.json", "orphan")
        deadline = time.monotonic() + 5.0
        while _live_members(group) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_members(group) == []


def _live_members(group):
    """Pids of the non-zombie processes in process group ``group``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # exited while we looked
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat[stat.rindex(")") + 2 :].split()[:3]
        if int(pgrp) == group and state != "Z":
            members.append(int(entry))
    return members


class TestSupervisorMemory:
    def test_peak_memory_is_independent_of_job_count(self, tmp_path):
        """Streamed records: 4x the jobs must not mean 4x the resident bytes.

        BLOB jobs return a 192 KiB payload each.  If the supervisor held
        every payload (the old build-then-dump design), 24 jobs would retain
        >= 4.5 MiB over 6 jobs' 1.1 MiB.  Streaming to the shard keeps the
        delta bounded by a few in-flight payloads regardless of job count.
        """
        kilobytes = 192

        def peak_for(seed_count):
            seeds = [str(seed) for seed in range(seed_count)]
            artifact = tmp_path / f"run-m{seed_count}.json"
            tracemalloc.start()
            try:
                status = main([
                    "sweep", "--only", "BLOB", "--seeds", *seeds,
                    "--param", f"kilobytes={kilobytes}", "--workers", "2",
                    "--timeout", "120",
                    "--tag", f"m{seed_count}", "--out", str(artifact),
                ])
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert status == 0
            return peak

        small, large = peak_for(6), peak_for(24)
        # 18 extra jobs x 192 KiB would add ~3.4 MiB if payloads accumulated;
        # allow the delta a generous 3 payloads of slack.
        assert large - small < 3 * kilobytes * 1024, (small, large)
