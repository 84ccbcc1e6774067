"""Versioned JSON result artifacts: building, validation, canonical form.

A sweep produces one artifact, ``results/run-<tag>.json``, with schema
version :data:`RESULTS_SCHEMA_VERSION`.  The artifact records everything
needed to reproduce and to diff the run: git SHA, Python version, the sweep
config, wall times, and one entry per job carrying the experiment's verdict
(``ok``), the engine ``backend`` it ran on, the backend's ``time_source``
(``"simulated"`` — deterministic units safe to gate latency regressions on
— or ``"wall-clock"`` — real seconds, measurement only), the wall-clock
decision-latency histogram ``wall_latency`` (the
``count``/``p50``/``p95``/``p99``/``max`` shape from
``repro.engine.services.latency_summary``, ``None`` on simulated backends),
its data-plane shape (``shards`` — how many disjoint replica groups the job
drove — and ``batch_size`` — the proposer batch size, ``0`` for
singly-proposed commands), its check outcome, headline metrics, latency
metrics, and the structured rows the text tables are formatted from.
v6 is the streamed pipeline: artifacts are rolled up from a per-job JSONL
shard (``results/run-<tag>.jobs.jsonl``) and carry a top-level ``resumed``
count — how many job records were reused from a pre-existing shard via
``sweep --resume`` (0 for fresh runs; volatile, stripped from the
canonical form so a resumed run stays byte-identical to an uninterrupted
one).  The reader accepts the current schema and the previous one (v5,
pre-streaming: same job payloads, no ``resumed`` count); anything older or
unknown is rejected.  The per-version history lives in CHANGES.md.

:func:`validate_run_payload` is a hand-rolled structural validator (no
third-party schema dependency) used by the CLI's ``validate`` command and by
CI, so a malformed artifact fails the build.  :func:`canonicalize_payload`
strips the timing/environment fields, leaving the deterministic core — two
sweeps with the same seeds must have identical canonical forms no matter how
many workers executed them.

The shard layer (:class:`ShardWriter`, :func:`iter_shard_records`,
:class:`ShardIndex`, :func:`rollup_shard`) is what makes 10k-job campaigns
cheap: each finished job is flushed as one JSONL line as it completes, the
supervisor holds O(workers) payloads instead of O(jobs), a SIGKILL leaves a
valid partial shard (a torn final line is tolerated on read), and the
canonical artifact is rolled up from the shard at the end through
:class:`StreamingRunWriter`, which writes the exact bytes
``json.dumps(payload, indent=2, sort_keys=True)`` would have produced
without ever materializing the jobs array.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap
import time
from collections.abc import Iterable, Iterator
from typing import Any

RESULTS_SCHEMA_VERSION = "repro-results/v6"

#: The previous schema version, still accepted on *read* by ``validate`` and
#: ``compare``.  v5 predates the streamed results pipeline: its run payloads
#: lack the top-level ``resumed`` count (v5 runs could not resume); its job
#: payloads are the same as v6's.
PREVIOUS_SCHEMA_VERSION = "repro-results/v5"

#: ``time_source`` values a job payload may carry (mirrors
#: :data:`repro.engine.services.TIME_SOURCES` without importing the engine —
#: artifacts must stay checkable by tooling that has no engine installed).
JOB_TIME_SOURCES = ("simulated", "wall-clock")


def job_time_source(job: dict[str, Any]) -> str:
    """The time semantics of one job payload (simulated when unstated)."""
    return job.get("time_source") or "simulated"


#: Top-level payload fields that carry timing or environment information and
#: are therefore excluded from determinism comparisons.  ``resumed`` (v6) is
#: execution history, not content: a kill-then-resume run must canonicalize
#: identically to an uninterrupted one.
_VOLATILE_RUN_FIELDS = (
    "tag", "created_unix", "wall_time_s", "git_sha", "python", "workers", "host", "resumed",
)
#: Same, per job entry.  ``wall_latency`` is a wall-clock *measurement* —
#: two identically-seeded sweeps legitimately measure different tails — so
#: it is excluded from the deterministic canonical form alongside wall time.
_VOLATILE_JOB_FIELDS = ("wall_time_s", "wall_latency")

_JOB_STATUSES = ("ok", "check_failed", "timeout", "error")


def jsonable(value: Any) -> Any:
    """Convert an experiment-outcome value into deterministic JSON-ready data.

    Frozensets/sets become sorted lists, tuples become lists, mapping keys
    become strings, and check results expose ``{ok, violations}``.  Anything
    else unknown degrades to its type name — never ``repr`` — so artifacts
    stay byte-identical across processes (no memory addresses leak in).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if value == value and value not in (float("inf"), float("-inf")) else str(value)
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(item) for item in value), key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))}
    ok = getattr(value, "ok", None)
    violations = getattr(value, "violations", None)
    if isinstance(ok, bool) and isinstance(violations, dict):  # LACheckResult and friends
        return {"ok": ok, "violations": jsonable(violations)}
    return f"<{type(value).__name__}>"


def git_sha(repo_root: pathlib.Path | None = None) -> str:
    """The current commit SHA, or ``"unknown"`` outside a git checkout.

    Defaults to the checkout containing this package (not the process CWD),
    so artifacts record the reproduction's provenance even when the sweep is
    launched from an unrelated directory.
    """
    if repo_root is None:
        repo_root = pathlib.Path(__file__).resolve().parent
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def build_run_payload(
    tag: str,
    config: dict[str, Any],
    job_payloads: Iterable[dict[str, Any]],
    wall_time_s: float,
    workers: int,
    created_unix: float | None = None,
    resumed: int = 0,
) -> dict[str, Any]:
    """Assemble the versioned artifact from per-job payloads."""
    jobs = list(job_payloads)
    totals = {status: 0 for status in _JOB_STATUSES}
    for job in jobs:
        totals[job["status"]] = totals.get(job["status"], 0) + 1
    return {
        "schema": RESULTS_SCHEMA_VERSION,
        "tag": tag,
        "created_unix": time.time() if created_unix is None else created_unix,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "workers": workers,
        "wall_time_s": wall_time_s,
        "resumed": resumed,
        "config": jsonable(config),
        "totals": {"jobs": len(jobs), **totals},
        "jobs": jobs,
    }


def _expect(
    problems: list[str], mapping: dict[str, Any], key: str, types: tuple, where: str
) -> Any:
    if key not in mapping:
        problems.append(f"{where}: missing required field {key!r}")
        return None
    value = mapping[key]
    if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
        names = "/".join(t.__name__ for t in types)
        problems.append(f"{where}: field {key!r} must be {names}, got {type(value).__name__}")
        return None
    return value


def validate_job_payload(job: Any, where: str = "job") -> list[str]:
    """Structural check of one job payload (the same in v5 and v6).

    Factored out of :func:`validate_run_payload` so streamed JSONL shard
    records can be validated one line at a time — the 10k-job shard never
    has to be materialized just to be checked.
    """
    problems: list[str] = []
    if not isinstance(job, dict):
        return [f"{where}: must be an object, got {type(job).__name__}"]
    expect = lambda mapping, key, types, at: _expect(problems, mapping, key, types, at)  # noqa: E731
    expect(job, "key", (str,), where)
    expect(job, "experiment", (str,), where)
    expect(job, "seed", (int,), where)
    expect(job, "params", (dict,), where)
    expect(job, "quick", (bool,), where)
    expect(job, "backend", (str,), where)
    time_source = expect(job, "time_source", (str,), where)
    if time_source is not None and time_source not in JOB_TIME_SOURCES:
        problems.append(
            f"{where}: time_source {time_source!r} not one of {JOB_TIME_SOURCES}"
        )
    wall_latency = expect(job, "wall_latency", (dict, type(None)), where)
    if isinstance(wall_latency, dict):
        for name, value in wall_latency.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                problems.append(
                    f"{where}: wall_latency[{name!r}] must be numeric, "
                    f"got {type(value).__name__}"
                )
    shards = expect(job, "shards", (int,), where)
    if shards is not None and shards < 1:
        problems.append(f"{where}: shards must be >= 1, got {shards}")
    batch_size = expect(job, "batch_size", (int,), where)
    if batch_size is not None and batch_size < 0:
        problems.append(f"{where}: batch_size must be >= 0, got {batch_size}")
    status = expect(job, "status", (str,), where)
    if status is not None and status not in _JOB_STATUSES:
        problems.append(f"{where}: status {status!r} not one of {_JOB_STATUSES}")
    ok = expect(job, "ok", (bool, type(None)), where)
    expect(job, "wall_time_s", (int, float), where)
    expect(job, "headline", (dict, type(None)), where)
    expect(job, "latency", (dict, type(None)), where)
    check = expect(job, "check", (dict, type(None)), where)
    if isinstance(check, dict):
        expect(check, "ok", (bool,), f"{where}.check")
        expect(check, "violations", (dict,), f"{where}.check")
    error = expect(job, "error", (str, type(None)), where)
    if status == "ok" and ok is False:
        problems.append(f"{where}: status 'ok' contradicts ok=false")
    if status in ("timeout", "error") and not error:
        problems.append(f"{where}: status {status!r} requires a non-empty error")
    for metric_field in ("headline", "latency"):
        metrics = job.get(metric_field)
        if isinstance(metrics, dict):
            for name, value in metrics.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    problems.append(
                        f"{where}: {metric_field}[{name!r}] must be numeric, "
                        f"got {type(value).__name__}"
                    )
    return problems


def validate_run_payload(payload: Any) -> list[str]:
    """Structural schema check; returns a list of problems (empty when valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]

    def expect(mapping: dict[str, Any], key: str, types: tuple, where: str) -> Any:
        return _expect(problems, mapping, key, types, where)

    schema = expect(payload, "schema", (str,), "run")
    supported = (RESULTS_SCHEMA_VERSION, PREVIOUS_SCHEMA_VERSION)
    if schema is not None and schema not in supported:
        problems.append(f"run: unsupported schema {schema!r} (expected one of {supported})")
    expect(payload, "tag", (str,), "run")
    expect(payload, "created_unix", (int, float), "run")
    expect(payload, "git_sha", (str,), "run")
    expect(payload, "python", (str,), "run")
    expect(payload, "workers", (int,), "run")
    expect(payload, "wall_time_s", (int, float), "run")
    if schema != PREVIOUS_SCHEMA_VERSION:
        resumed = expect(payload, "resumed", (int,), "run")
        if resumed is not None and resumed < 0:
            problems.append(f"run: resumed must be >= 0, got {resumed}")
    expect(payload, "config", (dict,), "run")
    totals = expect(payload, "totals", (dict,), "run")
    jobs = expect(payload, "jobs", (list,), "run")
    if jobs is None:
        return problems
    if isinstance(totals, dict) and totals.get("jobs") != len(jobs):
        problems.append(f"run: totals.jobs={totals.get('jobs')!r} but {len(jobs)} job entries")

    for position, job in enumerate(jobs):
        problems.extend(validate_job_payload(job, f"jobs[{position}]"))
    return problems


def canonicalize_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """The deterministic core of an artifact: timing/env fields stripped."""
    canonical = {
        key: value for key, value in payload.items() if key not in _VOLATILE_RUN_FIELDS
    }
    canonical["jobs"] = [
        {key: value for key, value in job.items() if key not in _VOLATILE_JOB_FIELDS}
        for job in payload.get("jobs", ())
    ]
    return canonical


def default_results_path(tag: str, results_dir: str = "results") -> pathlib.Path:
    return pathlib.Path(results_dir) / f"run-{tag}.json"


def load_payload(path: pathlib.Path) -> dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Streamed job records: the JSONL shard next to each artifact
# ---------------------------------------------------------------------------

#: Schema tag of a shard's header line.  The shard format is one JSON object
#: per line: a header record first (this schema, the run tag, the sweep
#: config — what ``--resume`` checks before trusting the shard), then one
#: record per finished job, flushed as it completes.  Job records are the
#: v6 job payload plus an ``index`` field (the job's position in the
#: deterministic expansion) so the rollup can reassemble job order no
#: matter what completion order the workers produced.
SHARD_SCHEMA_VERSION = "repro-results-shard/v1"

#: The one field a shard job record carries on top of the job payload.
_SHARD_INDEX_FIELD = "index"


def shard_path_for(artifact_path: pathlib.Path | str) -> pathlib.Path:
    """The JSONL shard that rides next to an artifact: ``run-x.jobs.jsonl``."""
    path = pathlib.Path(artifact_path)
    stem = path.name[: -len(".json")] if path.name.endswith(".json") else path.name
    return path.with_name(f"{stem}.jobs.jsonl")


class ShardMismatch(ValueError):
    """A shard opened for resume belongs to another run (a usage error)."""


class ShardWriter:
    """Append-only JSONL shard: one flushed line per finished job.

    Each ``append`` is written, flushed and fsync'd before returning, so a
    SIGKILL between jobs loses nothing and a SIGKILL mid-write leaves at
    most one torn final line — which :func:`iter_shard_records` tolerates.

    ``fresh=False`` opens an existing shard for resume, and this class is
    the one place the resume rule lives: the shard's header config must
    equal this run's (else :class:`ShardMismatch`); a corrupt shard raises
    ``ValueError`` while opening; the torn tail is truncated and new records
    append in place; and :meth:`reuse` hands back each stored job payload.
    """

    def __init__(
        self,
        path: pathlib.Path | str,
        tag: str,
        config: dict[str, Any],
        fresh: bool = True,
    ) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: The records of the shard being resumed (``None`` for a fresh one).
        self.stored: ShardIndex | None = None
        #: How many stored payloads :meth:`reuse` handed back.
        self.reused = 0
        self.written = 0
        if fresh:
            self.path.unlink(missing_ok=True)
        elif self.path.exists():
            self.stored = ShardIndex(self.path)
            if (self.stored.header or {}).get("config") != jsonable(config):
                raise ShardMismatch(
                    "its config does not match this run (same tag, different "
                    "experiments, seeds, parameters or flags?)"
                )
            self._truncate_torn_tail()
        self._handle = open(self.path, "a")
        if self.stored is None:
            self._write_line(
                {
                    "schema": SHARD_SCHEMA_VERSION,
                    "run_schema": RESULTS_SCHEMA_VERSION,
                    "tag": tag,
                    "config": jsonable(config),
                }
            )

    def _truncate_torn_tail(self) -> None:
        """Drop a crash's torn final line so appended records start clean."""
        raw = self.path.read_bytes()
        if raw and not raw.endswith(b"\n"):
            keep = raw.rfind(b"\n") + 1  # 0 when no newline survives at all
            with open(self.path, "r+b") as handle:
                handle.truncate(keep)

    def _write_line(self, record: dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def reuse(self, index: int, key: str) -> dict[str, Any] | None:
        """The stored payload of job ``index``, or ``None`` if it must run.

        A stored record of a *different* job at that index means the shard
        belongs to another run: that raises :class:`ShardMismatch` rather
        than silently mixing runs.
        """
        if self.stored is None or index not in self.stored:
            return None
        stored_key = self.stored.key_of(index)
        if stored_key != key:
            raise ShardMismatch(
                f"resume shard does not match this run: stored job {stored_key!r} "
                f"at index {index} vs expected {key!r}"
            )
        self.reused += 1
        return self.stored.get(index)

    def append(self, index: int, payload: dict[str, Any]) -> None:
        """Persist one finished job payload under its deterministic index."""
        problems = validate_job_payload(payload, f"jobs[{index}]")
        if problems:
            raise ValueError("refusing to write invalid job record: " + "; ".join(problems))
        self._write_line({_SHARD_INDEX_FIELD: index, **payload})
        self.written += 1

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> ShardWriter:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _shard_lines(path: pathlib.Path | str) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(byte offset, record)`` for every complete line of a shard.

    The one shard line reader.  A torn final line — the signature of a
    supervisor killed mid-write, so any line without its newline — is
    silently dropped (and truncated away by a resuming :class:`ShardWriter`);
    a malformed line *followed by more data* is corruption and raises,
    because nothing legitimate produces it.
    """
    with open(path, "rb") as handle:
        offset = 0
        bad: tuple[int, bytes] | None = None
        for number, line in enumerate(handle, start=1):
            start, offset = offset, offset + len(line)
            if not line.strip():
                continue
            if bad is not None:
                bad_number, bad_line = bad
                raise ValueError(
                    f"{path}: line {bad_number} is not valid JSON but is not the "
                    f"final line — the shard is corrupt, not merely torn: {bad_line[:80]!r}"
                )
            if not line.endswith(b"\n"):
                return
            try:
                record = json.loads(line)
            except ValueError:
                bad = (number, line)
                continue
            if not isinstance(record, dict):
                raise ValueError(f"{path}: line {number} is not an object")
            yield start, record


def iter_shard_records(path: pathlib.Path | str) -> Iterator[dict[str, Any]]:
    """Yield every complete record of a shard (header first, if present)."""
    for _offset, record in _shard_lines(path):
        yield record


class ShardIndex:
    """Byte offsets of a shard's job records, keyed by job index.

    Holds one small tuple per record — never the payloads themselves — so
    resuming or rolling up a 10k-job shard costs O(jobs) *entries*, not
    O(jobs) payload bytes.  ``get`` seeks and parses one line on demand.
    """

    def __init__(self, path: pathlib.Path | str) -> None:
        self.path = pathlib.Path(path)
        self.header: dict[str, Any] | None = None
        #: job index -> (byte offset, job key); later records win, so a
        #: shard that somehow recorded a job twice resolves to the newest.
        self._offsets: dict[int, tuple[int, str]] = {}
        for offset, record in _shard_lines(self.path):
            if record.get("schema") == SHARD_SCHEMA_VERSION:
                self.header = record
                continue
            index = record.get(_SHARD_INDEX_FIELD)
            if not isinstance(index, int):
                raise ValueError(f"{self.path}: job record without an integer index")
            self._offsets[index] = (offset, str(record.get("key")))

    def __len__(self) -> int:
        return len(self._offsets)

    def __contains__(self, index: int) -> bool:
        return index in self._offsets

    def key_of(self, index: int) -> str | None:
        entry = self._offsets.get(index)
        return entry[1] if entry else None

    def indices(self) -> tuple[int, ...]:
        """The job indices present, sorted."""
        return tuple(sorted(self._offsets))

    def get(self, index: int) -> dict[str, Any]:
        """Load one job payload (the ``index`` envelope field stripped)."""
        offset, _key = self._offsets[index]
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            record = json.loads(handle.readline())
        record.pop(_SHARD_INDEX_FIELD, None)
        return record


def validate_shard(path: pathlib.Path | str) -> tuple[list[str], int, bool]:
    """Check a shard line by line; returns ``(problems, job records, torn)``.

    Accepts partial shards: a missing header or a torn final line is noted
    via the ``torn`` flag / a problem entry only when the file carries no
    complete records at all, because a crash mid-campaign legitimately
    leaves both.
    """
    problems: list[str] = []
    jobs = 0
    saw_header = False
    try:
        for record in iter_shard_records(path):
            if record.get("schema") == SHARD_SCHEMA_VERSION:
                saw_header = True
                continue
            index = record.get(_SHARD_INDEX_FIELD)
            if not isinstance(index, int):
                problems.append(f"record {jobs}: missing integer {_SHARD_INDEX_FIELD!r}")
                continue
            payload = {k: v for k, v in record.items() if k != _SHARD_INDEX_FIELD}
            problems.extend(validate_job_payload(payload, f"jobs[{index}]"))
            jobs += 1
    except (OSError, ValueError) as exc:
        return [str(exc)], jobs, False
    if not saw_header and jobs == 0:
        problems.append("shard carries no header and no complete job records")
    # Torn == the file does not end with a newline-terminated line that
    # parsed; iter_shard_records already dropped it, so detect via raw tail.
    raw = pathlib.Path(path).read_bytes()
    return problems, jobs, bool(raw) and not raw.endswith(b"\n")


# ---------------------------------------------------------------------------
# Streaming rollup: shard -> canonical artifact without materializing jobs
# ---------------------------------------------------------------------------


class StreamingRunWriter:
    """Write a run artifact holding at most one job payload in memory.

    Produces byte-for-byte the output of ``json.dumps(build_run_payload(...),
    indent=2, sort_keys=True) + "\\n"`` (pinned by tests), exploiting the
    fact that under ``sort_keys`` every top-level field except ``config``,
    ``created_unix`` and ``git_sha`` sorts *after* ``"jobs"`` — so totals
    and wall time can be accumulated while the jobs array streams out and
    written in the trailer.  Writes to ``<path>.tmp`` and renames on close,
    so a crash mid-rollup never leaves a half-written artifact where
    ``validate`` might find it.
    """

    def __init__(
        self,
        path: pathlib.Path | str,
        tag: str,
        config: dict[str, Any],
        workers: int,
        resumed: int = 0,
        created_unix: float | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._handle = open(self._tmp, "w")
        self._tag = tag
        self._workers = workers
        self._resumed = resumed
        self._totals = {status: 0 for status in _JOB_STATUSES}
        self._count = 0
        head = {
            "config": jsonable(config),
            "created_unix": time.time() if created_unix is None else created_unix,
            "git_sha": git_sha(),
        }
        text = json.dumps(head, indent=2, sort_keys=True)
        assert text.endswith("\n}")
        self._handle.write(text[: -len("\n}")] + ',\n  "jobs": [')

    def add_job(self, payload: dict[str, Any]) -> None:
        problems = validate_job_payload(payload, f"jobs[{self._count}]")
        if problems:
            self.abort()
            raise ValueError("refusing to write invalid job record: " + "; ".join(problems))
        self._totals[payload["status"]] += 1
        separator = "\n" if self._count == 0 else ",\n"
        body = textwrap.indent(json.dumps(payload, indent=2, sort_keys=True), "    ")
        self._handle.write(separator + body)
        self._count += 1

    def close(self, wall_time_s: float) -> pathlib.Path:
        self._handle.write("\n  ]," if self._count else "],")
        trailer = {
            "python": sys.version.split()[0],
            "resumed": self._resumed,
            "schema": RESULTS_SCHEMA_VERSION,
            "tag": self._tag,
            "totals": {"jobs": self._count, **self._totals},
            "wall_time_s": wall_time_s,
            "workers": self._workers,
        }
        text = json.dumps(trailer, indent=2, sort_keys=True)
        assert text.startswith("{\n")
        self._handle.write("\n" + text[len("{\n"):] + "\n")
        self._handle.close()
        self._tmp.replace(self.path)
        return self.path

    def abort(self) -> None:
        """Discard the partial artifact (the shard remains the source of truth)."""
        if not self._handle.closed:
            self._handle.close()
        self._tmp.unlink(missing_ok=True)


def rollup_shard(
    shard: ShardIndex,
    out_path: pathlib.Path | str,
    tag: str,
    config: dict[str, Any],
    job_count: int,
    wall_time_s: float,
    workers: int,
    resumed: int = 0,
    created_unix: float | None = None,
) -> pathlib.Path:
    """Roll a complete shard up into the canonical artifact, streaming.

    ``job_count`` is the deterministic expansion's length; every index in
    ``range(job_count)`` must be present in the shard (a partial shard is
    resumable, not rollable).
    """
    missing = [index for index in range(job_count) if index not in shard]
    if missing:
        raise ValueError(
            f"shard {shard.path} is incomplete: {len(missing)} of {job_count} job "
            f"records missing (first missing index {missing[0]}); "
            f"finish the sweep with --resume before rolling up"
        )
    writer = StreamingRunWriter(
        out_path, tag=tag, config=config, workers=workers, resumed=resumed, created_unix=created_unix
    )
    try:
        for index in range(job_count):
            writer.add_job(shard.get(index))
    except BaseException:
        writer.abort()
        raise
    return writer.close(wall_time_s)
