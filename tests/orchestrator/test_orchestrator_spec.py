"""The experiment table: schemas, coercion, uniform entry points."""

import pytest

from repro.harness import run_chain_experiment
from repro.orchestrator.spec import EXPERIMENT_SPECS, get_spec, visible_experiment_ids


class TestRegistry:
    def test_every_experiment_has_a_spec(self):
        assert set(visible_experiment_ids()) == {f"E{i}" for i in range(1, 14)}
        assert get_spec("E1").runner is run_chain_experiment

    def test_registry_preserves_experiment_order(self):
        assert list(visible_experiment_ids()) == [f"E{i}" for i in range(1, 14)]

    def test_hidden_specs_exist_but_are_not_visible(self):
        assert "SLEEP" in EXPERIMENT_SPECS
        assert "SLEEP" not in visible_experiment_ids()

    def test_get_spec_unknown_id_names_the_known_ones(self):
        with pytest.raises(KeyError, match="E1.*E13"):
            get_spec("E99")

    def test_default_seeds_come_from_runner_signatures(self):
        assert get_spec("E1").default_seed == 11
        assert get_spec("E3").default_seed == 3
        assert get_spec("E12").default_seed == 37


class TestParamSchema:
    def test_coerce_accepts_declared_params(self):
        assert get_spec("E3").coerce_params({"max_f": 2}) == {"max_f": 2}

    def test_coerce_parses_cli_strings(self):
        spec = get_spec("E4")
        assert spec.coerce_params({"sizes": "4,7,10"}) == {"sizes": (4, 7, 10)}
        assert get_spec("E3").coerce_params({"max_f": "2"}) == {"max_f": 2}

    def test_coerce_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="no parameter 'bogus'"):
            get_spec("E3").coerce_params({"bogus": 1})

    def test_coerce_rejects_unparseable_values(self):
        with pytest.raises(ValueError, match="bad value"):
            get_spec("E3").coerce_params({"max_f": "two"})


class TestUniformRun:
    def test_run_uses_default_seed_when_unset(self):
        outcome = get_spec("E1").run(quick=True)
        reference = run_chain_experiment(seed=11, quick=True)
        assert outcome["rows"] == reference["rows"]

    def test_run_with_override(self):
        # quick mode fixes its own sweep range, so exercise the override
        # on a full-mode run with the smallest sweep.
        outcome = get_spec("E3").run(seed=7, max_f=1)
        assert set(outcome["series"]) == {0, 1}

    def test_every_visible_outcome_is_uniform(self):
        # E1 is the cheapest representative; the sweep test covers the rest.
        outcome = get_spec("E1").run(quick=True)
        for field in ("experiment", "expected", "ok", "headline", "latency",
                      "headers", "rows", "table"):
            assert field in outcome, field
        assert isinstance(outcome["ok"], bool)
        assert all(isinstance(v, float) for v in outcome["headline"].values())
