"""Tests for the SbS signature-based algorithm (Algorithms 8-10)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ablations import BlindKeyRegistry
from repro.core.messages import (
    GSbSSafeAck,
    InitPhase,
    ProvenValue,
    SafeAck,
    SafeRequest,
    SbSAck,
    SbSAckRequest,
    SbSNack,
)
from repro.core.sbs import (
    INIT,
    PROPOSING,
    SAFETYING,
    SbSProcess,
    all_safe,
    remove_conflicts,
    return_conflicts,
    safe_ack_body,
    verify_conflict_pair,
    verify_safe_ack,
)
from repro.crypto import KeyRegistry, SignedValue, canonical_bytes
from repro.engine import Deliver, FixedDelay, Start
from repro.harness import build_scenario
from repro.lattice import SetLattice

#: The shared checker serves both signature cores, named by their safe_ack class.
ACK_CLASSES = pytest.mark.parametrize("ack_class", [SafeAck, GSbSSafeAck], ids=["sbs", "gsbs"])


def stamped(ack_class, element):
    """``element`` as ``ack_class``'s core signs it: bare for SbS, ``(0, element)`` for GSbS."""
    return element if ack_class is SafeAck else (0, element)


def ack_body(ack_class, rcvd, conflicts=frozenset()):
    """The body ``ack_class``'s core signs for a round-0 safe_ack."""
    if ack_class is SafeAck:
        return safe_ack_body(rcvd, conflicts, 0)
    return safe_ack_body(rcvd, conflicts, 0, 0)


def make_safe_ack(ack_class, rcvd, signature, conflicts=frozenset()):
    """A round-0 safe_ack of ``rcvd`` carrying ``signature``."""
    stamp = {} if ack_class is SafeAck else {"round": 0}
    return ack_class(rcvd_set=rcvd, conflicts=conflicts, request_id=0, signature=signature, **stamp)


def honest_ack(ack_class, signer, rcvd, conflicts=frozenset()):
    """``signer``'s round-0 safe_ack of ``rcvd``, signed over its own body."""
    return make_safe_ack(ack_class, rcvd, signer.sign(ack_body(ack_class, rcvd, conflicts)), conflicts)


class TestHelpers:
    def test_verify_conflict_pair_detects_equivocation(self, registry):
        signer = registry.register("p0")
        x = signer.sign(frozenset({"a"}))
        y = signer.sign(frozenset({"b"}))
        assert verify_conflict_pair(registry, (x, y))

    def test_same_value_is_not_a_conflict(self, registry):
        signer = registry.register("p0")
        x = signer.sign(frozenset({"a"}))
        y = signer.sign(frozenset({"a"}))
        assert not verify_conflict_pair(registry, (x, y))

    def test_different_signers_are_not_a_conflict(self, registry):
        x = registry.register("p0").sign(frozenset({"a"}))
        y = registry.register("p1").sign(frozenset({"b"}))
        assert not verify_conflict_pair(registry, (x, y))

    def test_forged_pair_is_not_a_conflict(self, registry):
        registry.register("victim")
        x = SignedValue(value=frozenset({"a"}), signer="victim", tag=b"forged")
        y = SignedValue(value=frozenset({"b"}), signer="victim", tag=b"forged")
        assert not verify_conflict_pair(registry, (x, y))

    def test_return_and_remove_conflicts(self, registry):
        honest = registry.register("p1").sign(frozenset({"ok"}))
        equivocator = registry.register("p0")
        x = equivocator.sign(frozenset({"a"}))
        y = equivocator.sign(frozenset({"b"}))
        conflicts = return_conflicts(registry, {honest, x, y})
        assert len(conflicts) == 1
        cleaned = remove_conflicts(registry, {honest, x, y})
        assert cleaned == frozenset({honest})

    @ACK_CLASSES
    def test_verify_safe_ack_roundtrip(self, registry, ack_class):
        acceptor = registry.register("acc")
        rcvd = frozenset({registry.register("p1").sign(stamped(ack_class, frozenset({"v"})))})
        ack = honest_ack(ack_class, acceptor, rcvd)
        assert verify_safe_ack(registry, ack, "acc", ack_class)
        assert not verify_safe_ack(registry, ack, "someone-else", ack_class)

    @ACK_CLASSES
    def test_verify_safe_ack_rejects_tampered_body(self, registry, ack_class):
        acceptor = registry.register("acc")
        value = registry.register("p1").sign(stamped(ack_class, frozenset({"v"})))
        ack = make_safe_ack(ack_class, frozenset({value}), acceptor.sign(("wrong", "body")))
        assert not verify_safe_ack(registry, ack, "acc", ack_class)

    @ACK_CLASSES
    def test_all_safe_requires_quorum_of_valid_acks(self, registry, ack_class):
        lattice = SetLattice()
        proven = proven_value(registry, "p1", frozenset({"v"}), ack_class=ack_class)
        assert all_safe(registry, lattice, [proven], 3, ack_class)
        assert not all_safe(registry, lattice, [proven], 4, ack_class)

    @ACK_CLASSES
    def test_all_safe_rejects_fabricated_proof(self, registry, ack_class):
        lattice = SetLattice()
        registry.register("victim")
        forged_value = SignedValue(value=stamped(ack_class, frozenset({"evil"})), signer="victim", tag=b"x")
        forged_ack = make_safe_ack(
            ack_class, frozenset({forged_value}), SignedValue(value=("junk",), signer="victim", tag=b"y")
        )
        proven = ProvenValue(value=forged_value, safe_acks=frozenset({forged_ack}))
        assert not all_safe(registry, lattice, [proven], 1, ack_class)

    @ACK_CLASSES
    def test_all_safe_rejects_conflicted_value(self, registry, ack_class):
        lattice = SetLattice()
        equivocator = registry.register("p0")
        x = equivocator.sign(stamped(ack_class, frozenset({"a"})))
        y = equivocator.sign(stamped(ack_class, frozenset({"b"})))
        ack = honest_ack(ack_class, registry.register("acc"), frozenset({x}), frozenset({(x, y)}))
        proven = ProvenValue(value=x, safe_acks=frozenset({ack}))
        assert not all_safe(registry, lattice, [proven], 1, ack_class)

    @pytest.mark.parametrize("ack_class, scope", [(SafeAck, "sbs"), (GSbSSafeAck, "gsbs")], ids=["sbs", "gsbs"])
    def test_all_safe_checks_the_one_new_proof_of_a_known_carrier(self, registry, ack_class, scope):
        lattice = SetLattice()
        proven = [proven_value(registry, f"p{i}", frozenset({f"v{i}"}), ack_class=ack_class) for i in range(3)]
        assert all_safe(registry, lattice, frozenset(proven), 3, ack_class)
        assert registry.known_safe[(scope, 3)] == set(proven)
        # The new value's acks were signed over a body that does not hold it.
        unproven = registry.register("p9").sign(stamped(ack_class, frozenset({"v9"})))
        body = ack_body(ack_class, frozenset())
        acks = frozenset(
            make_safe_ack(ack_class, frozenset({unproven}), registry.register(name).sign(body))
            for name in ("a1", "a2", "a3")
        )
        carrier = frozenset([*proven, ProvenValue(value=unproven, safe_acks=acks)])
        assert not all_safe(registry, lattice, carrier, 3, ack_class)
        assert registry.known_safe[(scope, 3)] == set(proven)

    def test_a_proof_holding_the_other_cores_acks_is_rejected(self, registry):
        lattice = SetLattice()
        sbs = proven_value(registry, "p1", frozenset({"v"}))
        gsbs = proven_value(registry, "p1", frozenset({"v"}), ack_class=GSbSSafeAck)
        assert all_safe(registry, lattice, [sbs], 3, SafeAck)
        assert not all_safe(registry, lattice, [sbs], 3, GSbSSafeAck)
        assert all_safe(registry, lattice, [gsbs], 3, GSbSSafeAck)
        assert not all_safe(registry, lattice, [gsbs], 3, SafeAck)

    @pytest.mark.parametrize("payload", [(-1, frozenset({"v"})), frozenset({"v"}), (0, frozenset({"v"}), 0)],
                             ids=["round-minus-one", "bare-element", "triple"])
    def test_gsbs_proof_needs_a_round_stamped_pair(self, registry, payload):
        signed = registry.register("p1").sign(payload)
        acks = frozenset(
            honest_ack(GSbSSafeAck, registry.register(name), frozenset({signed})) for name in ("a1", "a2", "a3")
        )
        proven = ProvenValue(value=signed, safe_acks=acks)
        assert not all_safe(registry, SetLattice(), [proven], 3, GSbSSafeAck)


def proven_value(registry, signer, value, acceptors=("a1", "a2", "a3"), ack_class=SafeAck):
    """``value`` signed by ``signer`` with one honest safe_ack per acceptor."""
    signed = registry.register(signer).sign(stamped(ack_class, value))
    acks = frozenset(
        honest_ack(ack_class, registry.register(name), frozenset({signed})) for name in acceptors
    )
    return ProvenValue(value=signed, safe_acks=acks)


def pairwise_conflicts(registry, values):
    """Algorithm 10's all-pairs ``ReturnConflicts``, the reference for the helpers."""
    values = list(values)
    pairs = set()
    for i, x in enumerate(values):
        for y in values[i + 1 :]:
            if verify_conflict_pair(registry, (x, y)):
                pairs.add((x, y) if canonical_bytes(x) <= canonical_bytes(y) else (y, x))
    return frozenset(pairs)


#: (signer, value, forged): "ghost" is never registered, so its values never
#: verify; up to three distinct values per signer makes equivocators with
#: two or three values each.
signed_entries = st.lists(
    st.tuples(
        st.sampled_from(["p0", "p1", "p2", "ghost"]),
        st.sampled_from([frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})]),
        st.booleans(),
    ),
    max_size=12,
)


class TestConflictHelpersMatchPairwiseReference:
    @settings(max_examples=150, deadline=None)
    @given(entries=signed_entries, blind=st.booleans())
    def test_return_and_remove_conflicts(self, entries, blind):
        registry = BlindKeyRegistry(seed=1) if blind else KeyRegistry(seed=1)
        for name in ("p0", "p1", "p2"):
            registry.register(name)
        values = []
        for signer, value, forged in entries:
            if forged or signer == "ghost":
                values.append(SignedValue(value=value, signer=signer, tag=b"forged"))
            else:
                values.append(registry.signer_for(signer).sign(value))
        expected = pairwise_conflicts(registry, values)
        assert return_conflicts(registry, values) == expected
        conflicted = {value for pair in expected for value in pair}
        assert remove_conflicts(registry, values) == frozenset(values) - conflicted


class TestFailureFreeRuns:
    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_all_decide_and_properties_hold(self, n):
        f = (n - 1) // 3
        scenario = build_scenario("sbs", n, f, seed=n).run()
        check = scenario.check_la()
        assert check.ok, str(check)

    def test_latency_bound_under_unit_delays(self):
        """Theorem 8: at most 5 + 4f message delays."""
        for f in (0, 1, 2):
            n = 3 * f + 1
            scenario = build_scenario("sbs", n, f, seed=40 + f, delay_model=FixedDelay(1.0)).run()
            decision_time = max(r.time for r in scenario.metrics.decisions)
            assert decision_time <= 5 + 4 * f

    def test_linear_message_complexity_for_fixed_f(self):
        """Section 8.1: O(n) messages per process when f = O(1)."""
        per_process = {}
        for n in (4, 8, 16):
            scenario = build_scenario("sbs", n, 1, seed=50 + n, delay_model=FixedDelay(1.0)).run()
            per_process[n] = scenario.metrics.mean_messages_per_process(scenario.correct_pids)
        # Doubling n should roughly double (not quadruple) the per-process count.
        assert per_process[8] < per_process[4] * 3
        assert per_process[16] < per_process[8] * 3

    def test_refinements_bounded_by_2f(self):
        """Lemma 16: at most 2f refinements per correct proposer."""
        for seed in range(20):
            scenario = build_scenario("sbs", 7, 2, seed=seed).run()
            for node in scenario.correct_nodes():
                assert node.refinements <= 4

    def test_lemma16_seed9_refines_at_most_2f(self):
        """Lemma 16 on the run where a proof-only nack once caused a third refinement."""
        scenario = build_scenario("sbs", 4, 1, seed=9).run()
        refinements = {node.pid: node.refinements for node in scenario.correct_nodes()}
        assert max(refinements.values()) <= 2, refinements

    @pytest.mark.parametrize("scheduler", [None, "random"], ids=["default", "random"])
    def test_lemma16_holds_over_200_seeds(self, scheduler):
        """No correct proposer refines more than 2f times, over seeds 0-199 on turbo."""
        over = [
            seed for seed in range(200)
            if any(
                node.refinements > 2
                for node in build_scenario("sbs", 4, 1, seed=seed, backend="turbo", scheduler=scheduler).run().correct_nodes()
            )
        ]
        assert over == []

    def test_message_size_grows_with_n(self):
        """The SbS trade-off: fewer messages but larger payloads (Section 8)."""
        small = build_scenario("sbs", 4, 1, seed=60).run()
        large = build_scenario("sbs", 10, 1, seed=61).run()
        assert large.metrics.max_payload_size > small.metrics.max_payload_size
        # Exact sizes: payloads share proof objects, and each is still
        # counted wherever it is reached.  A carrier holds one proof per
        # signed value.
        assert small.metrics.max_payload_size == 636
        assert large.metrics.max_payload_size == 7404
        assert sum(small.metrics.bytes_by_process.values()) == 33104
        assert sum(large.metrics.bytes_by_process.values()) == 2890120

    def test_decision_joins_only_proven_values(self):
        scenario = build_scenario("sbs", 4, 1, seed=62).run()
        proposals_union = frozenset().union(*scenario.proposals().values())
        for decs in scenario.decisions().values():
            assert decs[0] <= proposals_union


class TestProcessInternals:
    def test_invalid_proposal_rejected(self, registry):
        with pytest.raises(ValueError):
            SbSProcess("p0", SetLattice(), ["p0"], 0, registry=registry, proposal=123)

    def test_initial_state(self, registry):
        process = SbSProcess("p0", SetLattice(), ["p0", "p1", "p2", "p3"], 1,
                             registry=registry, proposal=frozenset({"x"}))
        assert process.state == "init"
        assert process.ts == 0
        assert process.safety_set == frozenset()


class CountingSbS(SbSProcess):
    """Counts guard evaluations (``try_progress`` calls)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.progress_calls = 0

    def try_progress(self):
        self.progress_calls += 1
        return super().try_progress()


class TestUponEvent:
    """Requests change only acceptor state: they run no guard."""

    MEMBERS = ["p0", "p1", "p2", "p3"]

    def started(self, registry):
        process = CountingSbS("p0", SetLattice(), self.MEMBERS, 1, registry=registry,
                              proposal=frozenset({"a"}))
        process.handle(Start())
        process.progress_calls = 0
        return process

    def test_requests_run_no_guard(self, registry):
        process = self.started(registry)
        value = registry.register("p1").sign(frozenset({"b"}))
        sent = process.handle(Deliver("p1", SafeRequest(safety_set=frozenset({value}), request_id=0)))
        assert [type(effect.payload) for effect in sent] == [SafeAck]
        proposed = frozenset({proven_value(registry, "p2", frozenset({"c"}))})
        sent = process.handle(Deliver("p1", SbSAckRequest(proposed_set=proposed, ts=1)))
        assert [type(effect.payload) for effect in sent] == [SbSAck]
        assert process.accepted_set == proposed
        assert process.progress_calls == 0
        assert process.state == INIT

    def test_the_safe_ack_that_completes_the_quorum_runs_the_guards(self, registry):
        process = self.started(registry)
        for sender in ("p1", "p2"):
            value = registry.register(sender).sign(frozenset({sender}))
            process.handle(Deliver(sender, InitPhase(payload=value)))
        assert process.state == SAFETYING
        body = safe_ack_body(process.safety_set, frozenset(), 0)
        for count, sender in enumerate(("p1", "p2", "p3"), start=1):
            process.progress_calls = 0
            ack = SafeAck(rcvd_set=process.safety_set, conflicts=frozenset(), request_id=0,
                          signature=registry.register(sender).sign(body))
            process.handle(Deliver(sender, ack))
            assert process.progress_calls > 0
            assert process.state == (PROPOSING if count == process.quorum else SAFETYING)


class TestMalformedByzantineMessages:
    """A Byzantine ``p3`` signs wrongly shaped fields with its own valid key.

    Honest processes reject such messages like any invalid proof, and mark
    ``p3`` Byzantine where SbS does so; they never raise.
    """

    MEMBERS = ["p0", "p1", "p2", "p3"]

    def safetying(self, registry):
        process = SbSProcess("p0", SetLattice(), self.MEMBERS, 1, registry=registry, proposal=frozenset({"a"}))
        process.handle(Start())
        for sender in ("p1", "p2"):
            value = registry.register(sender).sign(frozenset({sender}))
            process.handle(Deliver(sender, InitPhase(payload=value)))
        assert process.state == SAFETYING
        return process

    def proposing(self, registry):
        process = self.safetying(registry)
        for sender in ("p1", "p2", "p3"):
            process.handle(Deliver(sender, honest_ack(SafeAck, registry.register(sender), process.safety_set)))
        assert process.state == PROPOSING
        return process

    def unshaped_proof(self, registry):
        signed = registry.register("p3").sign(frozenset({"z"}))
        return frozenset({ProvenValue(value=signed, safe_acks=5)})

    def test_safe_ack_whose_conflict_is_not_a_pair(self, registry):
        process = self.safetying(registry)
        conflicts = frozenset({1})
        signature = registry.register("p3").sign(safe_ack_body(process.safety_set, conflicts, 0))
        ack = SafeAck(rcvd_set=process.safety_set, conflicts=conflicts, request_id=0, signature=signature)
        process.handle(Deliver("p3", ack))
        assert "p3" in process.byz
        assert "p3" not in process.safe_acks

    def test_ack_request_whose_proof_is_not_a_set(self, registry):
        process = self.safetying(registry)
        sent = process.handle(Deliver("p3", SbSAckRequest(proposed_set=self.unshaped_proof(registry), ts=1)))
        assert sent == []
        assert process.accepted_set == frozenset()

    def test_nack_whose_proof_is_not_a_set(self, registry):
        process = self.proposing(registry)
        proposed = process.proposed_set
        process.handle(Deliver("p3", SbSNack(accepted_set=self.unshaped_proof(registry), ts=process.ts)))
        assert "p3" in process.byz
        assert process.proposed_set == proposed


class TestOneProofPerValue:
    """Carriers hold one proof per signed value and are ordered by their values."""

    MEMBERS = ["p0", "p1", "p2", "p3"]

    def acceptor(self, registry):
        return SbSProcess("p0", SetLattice(), self.MEMBERS, 1, registry=registry, proposal=frozenset({"a"}))

    def test_a_second_proof_of_an_accepted_value_is_acked_not_nacked(self, registry):
        process = self.acceptor(registry)
        first = proven_value(registry, "p1", frozenset({"v"}), acceptors=("p1", "p2", "p3"))
        process.handle(Deliver("p1", SbSAckRequest(proposed_set=frozenset({first}), ts=1)))
        second = proven_value(registry, "p1", frozenset({"v"}), acceptors=("p0", "p1", "p2"))
        assert second.value == first.value and second != first
        sent = process.handle(Deliver("p2", SbSAckRequest(proposed_set=frozenset({second}), ts=1)))
        assert [type(effect.payload) for effect in sent] == [SbSAck]
        assert process.accepted_set == frozenset({second})

    def test_nack_join_keeps_the_accepted_proof_and_adds_new_values(self, registry):
        process = self.acceptor(registry)
        v = proven_value(registry, "p1", frozenset({"v"}), acceptors=("p1", "p2", "p3"))
        u = proven_value(registry, "p2", frozenset({"u"}), acceptors=("p1", "p2", "p3"))
        process.handle(Deliver("p1", SbSAckRequest(proposed_set=frozenset({v, u}), ts=1)))
        v_again = proven_value(registry, "p1", frozenset({"v"}), acceptors=("p0", "p1", "p2"))
        w = proven_value(registry, "p3", frozenset({"w"}), acceptors=("p1", "p2", "p3"))
        sent = process.handle(Deliver("p3", SbSAckRequest(proposed_set=frozenset({v_again, w}), ts=1)))
        assert [type(effect.payload) for effect in sent] == [SbSNack]
        assert sent[0].payload.accepted_set == frozenset({v, u})
        assert process.accepted_set == frozenset({v, u, w})
        assert process.accepted_values == frozenset({v.value, u.value, w.value})
