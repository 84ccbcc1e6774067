"""Unit tests for the AgreementProcess base class."""

import pytest

from repro.baselines import CrashGLAProcess
from repro.core.gsbs import GSbSProcess
from repro.core.gwts import GWTSProcess
from repro.core.process import AgreementProcess
from repro.crypto import KeyRegistry
from repro.engine import Broadcast, FixedDelay, KernelEngine, Start
from repro.lattice import SetLattice


class TickingProcess(AgreementProcess):
    """Counts how many times try_progress fires before stopping."""

    def __init__(self, *args, steps=3, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps = steps
        self.fired = 0

    def try_progress(self):
        if self.fired < self.steps:
            self.fired += 1
            return True
        return False


def make(pid="p0", members=("p0", "p1", "p2", "p3"), f=1, cls=AgreementProcess, **kwargs):
    lattice = SetLattice()
    network = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
    process = cls(pid, lattice, list(members), f, **kwargs)
    for other in members:
        if other == pid:
            network.add_node(process)
        else:
            network.add_node(AgreementProcess(other, lattice, list(members), f))
    return network, process


class TestMembership:
    def test_n_and_quorum(self):
        _, process = make()
        assert process.n == 4
        assert process.quorum == 3
        assert process.disclosure_threshold == 3

    def test_must_belong_to_membership(self):
        with pytest.raises(ValueError):
            AgreementProcess("outsider", SetLattice(), ["p0", "p1"], 0)

    def test_broadcast_is_one_effect_for_the_membership(self):
        _, process = make()
        process.broadcast("hi")
        (effect,) = process._out
        assert isinstance(effect, Broadcast) and effect.payload == "hi"
        assert process.members == ("p0", "p1", "p2", "p3")


class TestDecisions:
    def test_record_decision_emits_decide_effect(self):
        network, process = make()
        network.start()
        assert not process.has_decided
        process.record_decision(frozenset({1}), round=2)
        assert process.has_decided
        assert process.decision == frozenset({1})
        (decide,) = process._out
        assert decide.value == frozenset({1}) and decide.round == 2

    def test_decision_none_before_deciding(self):
        _, process = make()
        assert process.decision is None
        assert process.decisions == []


class TestRecheckLoop:
    def test_recheck_runs_until_no_progress(self):
        _, process = make(cls=TickingProcess, steps=3)
        process.recheck()
        assert process.fired == 3

    def test_recheck_budget_bounds_iterations(self):
        _, process = make(cls=TickingProcess, steps=10_000)
        process.recheck(budget=5)
        assert process.fired == 5

    def test_default_try_progress_is_noop(self):
        _, process = make()
        assert process.try_progress() is False


MEMBERS = ["p0", "p1", "p2", "p3"]


def gwts(**kwargs):
    return GWTSProcess("p0", SetLattice(), MEMBERS, 1, **kwargs)


def gsbs(**kwargs):
    return GSbSProcess("p0", SetLattice(), MEMBERS, 1, registry=KeyRegistry(seed=1), **kwargs)


def crash_gla(**kwargs):
    return CrashGLAProcess("p0", SetLattice(), MEMBERS, 1, **kwargs)


#: Every generalized core, with how to read the value a round-0 start
#: discloses from one of its sends (batched cores only).
GENERALIZED = {"gwts": gwts, "gsbs": gsbs, "crash-gla": crash_gla}
DISCLOSED = {"gwts": lambda payload: payload.value, "gsbs": lambda payload: payload.payload.value[1]}


class TestRoundDriver:
    """The round and batch policy GWTS, GSbS and crash-GLA share."""

    @pytest.mark.parametrize("core", sorted(GENERALIZED))
    def test_max_rounds_and_new_value_validation(self, core):
        with pytest.raises(ValueError, match="max_rounds"):
            GENERALIZED[core](max_rounds=0)
        process = GENERALIZED[core]()
        with pytest.raises(ValueError):
            process.new_value("not-an-element")
        process.new_value(frozenset({"ok"}))
        assert process.batches[0] == [frozenset({"ok"})]
        assert process.received_inputs == [frozenset({"ok"})]

    @pytest.mark.parametrize("core", sorted(DISCLOSED))
    def test_batch_size_below_one_is_rejected(self, core):
        with pytest.raises(ValueError, match="batch_size"):
            GENERALIZED[core](batch_size=0)

    @pytest.mark.parametrize("core", sorted(DISCLOSED))
    def test_batch_overflow_goes_ahead_of_the_next_rounds_queue(self, core):
        values = [frozenset({f"v{k}"}) for k in range(5)]
        process = GENERALIZED[core](batch_size=2, initial_values=values)
        sends = process.handle(Start())
        assert process.round == 0
        assert {DISCLOSED[core](effect.payload) for effect in sends} == {frozenset({"v0", "v1"})}
        process.new_value(frozenset({"late"}))
        assert process.batches[0] == values[:2]
        assert process.batches[1] == values[2:] + [frozenset({"late"})]
