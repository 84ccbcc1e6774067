"""The string DSL for scheduler and fault-plan axes (repro.sim.axes)."""

import importlib.util
import pathlib

import pytest

from repro.sim.axes import (
    CHURN_PRESET,
    describe_axes,
    parse_fault_plan,
    parse_scheduler,
    scheduler_spec_is_adversarial,
)
from repro.engine import SkewedPairDelay, UniformDelay
from repro.harness import member_pids

PIDS = ["p0", "p1", "p2", "p3"]
CORRECT = ["p0", "p1", "p2"]


class TestParseSchedulerSpec:
    def test_empty_and_delay_mean_no_override(self):
        assert parse_scheduler(None) is None
        assert parse_scheduler("") is None
        assert parse_scheduler("delay") is None
        assert parse_scheduler("default") is None

    def test_random_with_default_and_explicit_spread(self):
        scheduler = parse_scheduler("random")
        assert isinstance(scheduler, UniformDelay)
        assert scheduler.describe() == "UniformDelay[0.0,10.0]"
        assert parse_scheduler("random:spread=3").describe() == "UniformDelay[0.0,3.0]"

    def test_worst_case_defaults_and_options(self):
        scheduler = parse_scheduler("worst-case")
        assert isinstance(scheduler, SkewedPairDelay)
        assert scheduler.victims == {"p0"}
        custom = parse_scheduler("worst-case:victims=p1+p2,starve=99,fast=2")
        assert custom.victims == {"p1", "p2"}
        assert custom.describe() == "SkewedPairDelay(0 slow pairs, 2 victims, slow=99.0, base=FixedDelay(2.0))"

    @pytest.mark.parametrize("spec", [
        "bogus",
        "random:spread=0",
        "random:spread=nan-ish",
        "random:bogus=1",
        "worst-case:starve=-1",
        "worst-case:victims=",
        "worst-case:unknown=x",
        "random:spread",
    ])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_scheduler(spec)

    def test_adversarial_predicate(self):
        assert scheduler_spec_is_adversarial("worst-case")
        assert scheduler_spec_is_adversarial("worst-case:victims=p1")
        assert not scheduler_spec_is_adversarial("random")
        assert not scheduler_spec_is_adversarial("")
        assert not scheduler_spec_is_adversarial(None)


class TestParseFaultPlan:
    def test_empty_and_none_mean_no_plan(self):
        assert parse_fault_plan(None, PIDS, CORRECT) is None
        assert parse_fault_plan("", PIDS, CORRECT) is None
        assert parse_fault_plan("none", PIDS, CORRECT) is None

    def test_churn_preset_expands_to_partition_and_two_crashes(self):
        plan = parse_fault_plan("churn", PIDS, CORRECT)
        kinds = [action.kind for action in plan.actions]
        assert kinds.count("partition") == 1
        assert kinds.count("heal") == 1
        assert kinds.count("crash") == 2
        assert kinds.count("recover") == 2
        # The preset matches the documented DSL expansion exactly.
        expanded = parse_fault_plan(CHURN_PRESET, PIDS, CORRECT)
        assert [(a.at, a.kind, a.pid) for a in plan.actions] == [
            (a.at, a.kind, a.pid) for a in expanded.actions
        ]

    def test_churn_preset_is_the_partition_churn_examples_hand_built_plan(self):
        path = pathlib.Path(__file__).resolve().parents[2] / "examples" / "partition_churn.py"
        spec = importlib.util.spec_from_file_location("partition_churn", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        pids = member_pids(4)
        assert example.churn_plan().actions == parse_fault_plan("churn", pids, pids[:3]).actions

    def test_partition_splits_membership_in_halves(self):
        plan = parse_fault_plan("partition@3-18", PIDS, CORRECT)
        partition = next(a for a in plan.actions if a.kind == "partition")
        assert partition.at == 3.0
        assert partition.groups == (frozenset({"p0", "p1"}), frozenset({"p2", "p3"}))
        heal = next(a for a in plan.actions if a.kind == "heal")
        assert heal.at == 18.0

    def test_crash_indexes_into_correct_processes(self):
        plan = parse_fault_plan("crash:1@20-30", PIDS, CORRECT)
        crash = next(a for a in plan.actions if a.kind == "crash")
        assert crash.pid == "p1"
        assert crash.at == 20.0
        # Negative and wrapping indices are taken modulo the correct set.
        plan = parse_fault_plan("crash:-1@20-30", PIDS, CORRECT)
        assert next(a for a in plan.actions if a.kind == "crash").pid == "p2"
        plan = parse_fault_plan("crash:4@20-30", PIDS, CORRECT)
        assert next(a for a in plan.actions if a.kind == "crash").pid == "p1"

    def test_terms_compose(self):
        plan = parse_fault_plan("partition@3-18+crash:0@20-30", PIDS, CORRECT)
        assert [a.kind for a in plan.actions] == ["partition", "heal", "crash", "recover"]

    @pytest.mark.parametrize("spec", [
        "bogus",
        "partition",            # no window
        "partition@3",          # not a range
        "partition@18-3",       # end before start
        "partition:2@3-18",     # unexpected argument
        "crash@3-18",           # missing index
        "crash:x@3-18",         # non-integer index
        "crash:0@5",            # recovery required
        "partition@3-18+",      # trailing empty term
    ])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_fault_plan(spec, PIDS, CORRECT)

    def test_needs_correct_processes(self):
        with pytest.raises(ValueError):
            parse_fault_plan("crash:0@5-10", PIDS, [])


class TestDescribeAxes:
    def test_defaults(self):
        assert describe_axes("", "") == "default schedule, no faults"
        assert describe_axes("delay", "none") == "default schedule, no faults"

    def test_set_axes_are_named(self):
        text = describe_axes("random:spread=3", "churn")
        assert "scheduler=random:spread=3" in text
        assert "fault_plan=churn" in text
