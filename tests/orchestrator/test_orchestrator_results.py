"""Result artifacts: jsonable conversion, schema validation, canonical form."""

import pytest

from repro.core.spec import LACheckResult
from repro.orchestrator.jobs import JobSpec
from repro.orchestrator.pool import execute_job
from repro.orchestrator.results import (
    RESULTS_SCHEMA_VERSION,
    build_run_payload,
    canonicalize_payload,
    jsonable,
    validate_run_payload,
)


def _payload():
    job = JobSpec(experiment="E1", seed=11, quick=True)
    return build_run_payload(
        tag="t", config={"quick": True}, job_payloads=[execute_job(job)],
        wall_time_s=1.0, workers=1,
    )


class TestJsonable:
    def test_frozensets_become_sorted_lists(self):
        assert jsonable(frozenset({"b", "a"})) == ["a", "b"]

    def test_nested_structures(self):
        value = {"rows": [(1, frozenset({"x"}))], 3: "int-key"}
        assert jsonable(value) == {"3": "int-key", "rows": [[1, ["x"]]]}

    def test_check_results_expose_ok_and_violations(self):
        check = LACheckResult(ok=True)
        check.add("liveness", "p1 never decided")
        assert jsonable(check) == {"ok": False, "violations": {"liveness": ["p1 never decided"]}}

    def test_unknown_objects_degrade_without_addresses(self):
        class Opaque:
            pass

        assert jsonable(Opaque()) == "<Opaque>"

    def test_non_finite_floats_become_strings(self):
        assert jsonable(float("inf")) == "inf"
        assert jsonable(float("nan")) == "nan"


class TestValidation:
    def test_fresh_payload_is_valid(self):
        assert validate_run_payload(_payload()) == []

    @pytest.mark.parametrize("schema", ["repro-results/v999", "repro-results/v4", "repro-results/v1"])
    def test_schema_version_is_enforced(self, schema):
        """Only the current and the previous (v5) schema are readable."""
        payload = _payload()
        payload["schema"] = schema
        assert any("unsupported schema" in p for p in validate_run_payload(payload))

    def test_v2_jobs_record_their_backend(self):
        payload = _payload()
        assert payload["jobs"][0]["backend"] == "kernel"
        del payload["jobs"][0]["backend"]
        assert any("backend" in p for p in validate_run_payload(payload))

    def test_v3_jobs_record_their_time_source(self):
        payload = _payload()
        assert payload["jobs"][0]["time_source"] == "simulated"
        del payload["jobs"][0]["time_source"]
        assert any("time_source" in p for p in validate_run_payload(payload))

    def test_v3_time_source_values_are_validated(self):
        payload = _payload()
        payload["jobs"][0]["time_source"] = "sundial"
        assert any(
            "time_source 'sundial'" in p for p in validate_run_payload(payload)
        )

    def test_async_backend_jobs_are_stamped_wall_clock(self):
        job = JobSpec(experiment="E1", seed=11, quick=True, params=(("backend", "async"),))
        payload = execute_job(job)
        assert payload["backend"] == "async"
        assert payload["time_source"] == "wall-clock"
        assert payload["status"] == "ok"

    def test_v4_jobs_carry_a_wall_latency_field(self):
        payload = _payload()
        assert "wall_latency" in payload["jobs"][0]
        # Deterministic backends measure in simulated time: no wall histogram.
        assert payload["jobs"][0]["wall_latency"] is None
        del payload["jobs"][0]["wall_latency"]
        assert any("wall_latency" in p for p in validate_run_payload(payload))

    def test_v4_wall_latency_values_must_be_numeric(self):
        payload = _payload()
        payload["jobs"][0]["wall_latency"] = {"p50": "fast"}
        assert any(
            "wall_latency" in p and "must be numeric" in p
            for p in validate_run_payload(payload)
        )

    def test_async_jobs_record_wall_latency_histograms(self):
        job = JobSpec(experiment="E1", seed=11, quick=True, params=(("backend", "async"),))
        payload = execute_job(job)
        summary = payload["wall_latency"]
        assert summary is not None and summary["count"] >= 1
        assert 0.0 <= summary["p50"] <= summary["p99"] <= summary["max"]

    def test_v5_jobs_record_their_data_plane_shape(self):
        payload = _payload()
        job = payload["jobs"][0]
        assert job["shards"] == 1  # E1 drives one replica group, unbatched
        assert job["batch_size"] == 0
        del job["shards"]
        del job["batch_size"]
        problems = validate_run_payload(payload)
        assert any("shards" in p for p in problems)
        assert any("batch_size" in p for p in problems)

    def test_v5_data_plane_values_are_range_checked(self):
        payload = _payload()
        payload["jobs"][0]["shards"] = 0
        payload["jobs"][0]["batch_size"] = -1
        problems = validate_run_payload(payload)
        assert any("shards must be >= 1" in p for p in problems)
        assert any("batch_size must be >= 0" in p for p in problems)

    def test_sharded_scenario_jobs_are_stamped(self):
        job = JobSpec(
            experiment="SCENARIO", seed=5, quick=True,
            params=(("protocol", "rsm"), ("n", 8), ("f", 1), ("shards", 2), ("batch", 2)),
        )
        payload = execute_job(job)
        assert payload["status"] == "ok"
        assert payload["shards"] == 2
        assert payload["batch_size"] == 2

    def test_v6_runs_record_resume_provenance(self):
        payload = _payload()
        assert payload["resumed"] == 0
        del payload["resumed"]
        assert any("resumed" in p for p in validate_run_payload(payload))

    def test_v6_resumed_must_be_a_non_negative_int(self):
        payload = _payload()
        payload["resumed"] = -1
        assert any("resumed" in p for p in validate_run_payload(payload))

    def test_previous_v5_artifacts_still_validate(self):
        """Pre-streaming baselines (repro-results/v5, the previous schema) stay readable."""
        payload = _payload()
        payload["schema"] = "repro-results/v5"
        del payload["resumed"]  # v5 never had the field
        assert validate_run_payload(payload) == []

    def test_missing_fields_are_reported(self):
        payload = _payload()
        del payload["git_sha"]
        del payload["jobs"][0]["status"]
        problems = validate_run_payload(payload)
        assert any("git_sha" in p for p in problems)
        assert any("jobs[0]" in p and "status" in p for p in problems)

    def test_bad_status_and_totals_mismatch(self):
        payload = _payload()
        payload["jobs"][0]["status"] = "exploded"
        payload["totals"]["jobs"] = 99
        problems = validate_run_payload(payload)
        assert any("exploded" in p for p in problems)
        assert any("totals.jobs" in p for p in problems)

    def test_non_numeric_metrics_are_rejected(self):
        payload = _payload()
        payload["jobs"][0]["headline"]["decided"] = "four"
        assert any("must be numeric" in p for p in validate_run_payload(payload))

    def test_error_status_requires_message(self):
        payload = _payload()
        payload["jobs"][0]["status"] = "error"
        payload["jobs"][0]["ok"] = None
        payload["jobs"][0]["error"] = None
        assert any("requires a non-empty error" in p for p in validate_run_payload(payload))

    def test_non_object_payload(self):
        assert validate_run_payload([1, 2]) == ["payload must be an object, got list"]


class TestRoundTrip:
    def test_schema_version_recorded(self):
        assert _payload()["schema"] == RESULTS_SCHEMA_VERSION


class TestCanonicalForm:
    def test_volatile_fields_are_stripped(self):
        canonical = canonicalize_payload(_payload())
        for field in ("tag", "created_unix", "wall_time_s", "git_sha", "python",
                      "workers", "resumed"):
            assert field not in canonical
        assert all("wall_time_s" not in job for job in canonical["jobs"])
        # Wall-clock histograms are measurement, not deterministic content.
        assert all("wall_latency" not in job for job in canonical["jobs"])

    def test_deterministic_core_is_preserved(self):
        canonical = canonicalize_payload(_payload())
        assert canonical["schema"] == RESULTS_SCHEMA_VERSION
        assert canonical["jobs"][0]["key"] == "E1[seed=11]"
        assert canonical["jobs"][0]["status"] == "ok"


class TestValidatorNegativePaths:
    """Malformed payloads are rejected field by field."""

    def test_job_entry_must_be_an_object(self):
        payload = _payload()
        payload["jobs"].append("not-a-job")
        assert any("jobs[1]: must be an object" in p for p in validate_run_payload(payload))

    def test_seed_must_be_an_integer(self):
        payload = _payload()
        payload["jobs"][0]["seed"] = 1.5
        assert any("seed" in p and "must be int" in p for p in validate_run_payload(payload))

    def test_check_must_carry_ok_and_violations(self):
        payload = _payload()
        payload["jobs"][0]["check"] = {"ok": True}
        problems = validate_run_payload(payload)
        assert any("check" in p and "violations" in p for p in problems)

    def test_status_ok_contradicting_verdict_is_rejected(self):
        payload = _payload()
        payload["jobs"][0]["ok"] = False
        assert any("contradicts ok=false" in p for p in validate_run_payload(payload))

    def test_config_must_be_an_object(self):
        payload = _payload()
        payload["config"] = ["quick"]
        assert any("config" in p and "must be dict" in p for p in validate_run_payload(payload))

    def test_boolean_is_not_a_number(self):
        # bool is an int subclass; the validator must not accept True where
        # a numeric metric is required.
        payload = _payload()
        payload["jobs"][0]["latency"] = {"sneaky": True}
        assert any("must be numeric" in p for p in validate_run_payload(payload))

