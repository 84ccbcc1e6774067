"""WTS under every Byzantine behaviour in the catalogue (failure injection)."""

import pytest

from repro.byzantine import (
    AlwaysAckAcceptor,
    CrashByzantine,
    EquivocatingProposer,
    FlipFloppingAcceptor,
    GarbageProposer,
    NackSpamAcceptor,
    SilentByzantine,
    ValueInjectorProposer,
)
from repro.core.wts import WTSProcess
from repro.engine import UniformDelay
from repro.harness import build_scenario


def silent(pid, lat, members, f):
    return SilentByzantine(pid)


def equivocator(pid, lat, members, f):
    return EquivocatingProposer(
        pid, lat, members, f,
        value_a=frozenset({f"evil-a-{pid}"}),
        value_b=frozenset({f"evil-b-{pid}"}),
    )


def garbage(pid, lat, members, f):
    return GarbageProposer(pid, lat, members, f, garbage=object())


def injector(pid, lat, members, f):
    return ValueInjectorProposer(pid, lat, members, f, proposal=frozenset({"injected"}))


def nack_spammer(pid, lat, members, f):
    return NackSpamAcceptor(pid, lat, members, f)


def flip_flopper(pid, lat, members, f):
    return FlipFloppingAcceptor(pid, lat, members, f, seed=3)


def always_ack(pid, lat, members, f):
    return AlwaysAckAcceptor(pid, lat, members, f)


def crasher(pid, lat, members, f):
    inner = WTSProcess(pid, lat, members, f, proposal=frozenset({f"crash-{pid}"}))
    return CrashByzantine(inner, crash_after_deliveries=5)


ALL_BEHAVIOURS = {
    "silent": silent,
    "equivocator": equivocator,
    "garbage": garbage,
    "injector": injector,
    "nack_spammer": nack_spammer,
    "flip_flopper": flip_flopper,
    "always_ack": always_ack,
    "crash": crasher,
}


class TestSingleByzantine:
    @pytest.mark.parametrize("name", sorted(ALL_BEHAVIOURS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_properties_hold_with_one_byzantine(self, name, seed):
        scenario = build_scenario(
            "wts", 4, 1, byzantine_factories=[ALL_BEHAVIOURS[name]], seed=seed
        ).run()
        check = scenario.check_la()
        assert check.ok, f"{name}: {check}"

    @pytest.mark.parametrize("name", sorted(ALL_BEHAVIOURS))
    def test_properties_hold_with_two_byzantines_n7(self, name):
        scenario = build_scenario(
            "wts", 7, 2, byzantine_factories=[ALL_BEHAVIOURS[name], silent], seed=5
        ).run()
        check = scenario.check_la()
        assert check.ok, f"{name}: {check}"


class TestSpecificAttacks:
    def test_equivocator_cannot_make_both_values_decided_incomparably(self):
        scenario = build_scenario("wts", 4, 1, byzantine_factories=[equivocator], seed=9).run()
        decisions = [d[0] for d in scenario.decisions().values()]
        # Comparable decisions regardless of which (if any) Byzantine value got in.
        for a in decisions:
            for b in decisions:
                assert a <= b or b <= a

    def test_garbage_values_never_appear_in_decisions(self):
        scenario = build_scenario("wts", 4, 1, byzantine_factories=[garbage], seed=10).run()
        for decs in scenario.decisions().values():
            for member in decs[0]:
                assert isinstance(member, str)

    def test_injected_value_may_appear_but_is_bounded(self):
        """The paper's spec allows Byzantine values in decisions (Non-Triviality |B| <= f)."""
        scenario = build_scenario("wts", 4, 1, byzantine_factories=[injector], seed=11).run()
        extra = set()
        for decs in scenario.decisions().values():
            extra |= decs[0] - frozenset().union(*scenario.proposals().values())
        assert extra <= {"injected"}

    def test_nack_spam_junk_never_enters_decisions(self):
        scenario = build_scenario("wts", 4, 1, byzantine_factories=[nack_spammer], seed=12).run()
        for decs in scenario.decisions().values():
            assert not any("undisclosed-junk" in str(member) for member in decs[0])

    def test_silent_byzantine_does_not_block_termination(self):
        scenario = build_scenario("wts", 4, 1, byzantine_factories=[silent], seed=13,
                                    delay_model=UniformDelay(0.5, 3.0)).run()
        assert all(decs for decs in scenario.decisions().values())

    def test_max_byzantine_population_at_n13(self):
        factories = [silent, equivocator, flip_flopper, nack_spammer]
        scenario = build_scenario("wts", 13, 4, byzantine_factories=factories, seed=14).run()
        assert scenario.check_la().ok
