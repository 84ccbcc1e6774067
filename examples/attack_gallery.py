#!/usr/bin/env python3
"""Attack gallery: every Byzantine behaviour against the algorithm it targets.

For each attack the example reports whether the correct processes still
satisfied the Lattice Agreement / Generalized Lattice Agreement properties —
they always do — and, as a negative control, shows the same always-ack +
partition adversary breaking the crash-fault baseline that lacks the paper's
defences (the Theorem 1 phenomenon).

Run with::

    python examples/attack_gallery.py
"""

from repro import build_scenario
from repro.byzantine import (
    AlwaysAckAcceptor,
    EquivocatingProposer,
    FastForwardGWTS,
    FlipFloppingAcceptor,
    GarbageProposer,
    NackSpamAcceptor,
    SbSEquivocatingProposer,
    SilentByzantine,
)
from repro.engine import FixedDelay, SkewedPairDelay


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "properties hold" if ok else "PROPERTIES VIOLATED"
    print(f"  {name:55s} -> {status} {detail}")


def main() -> None:
    print("WTS (n=4, f=1) under targeted attacks:")
    attacks = {
        "silent process": lambda pid, lat, m, f: SilentByzantine(pid),
        "equivocating disclosure": lambda pid, lat, m, f: EquivocatingProposer(
            pid, lat, m, f, value_a=frozenset({"evil-a"}), value_b=frozenset({"evil-b"})
        ),
        "garbage disclosure": lambda pid, lat, m, f: GarbageProposer(pid, lat, m, f),
        "nack spam with undisclosed values": lambda pid, lat, m, f: NackSpamAcceptor(pid, lat, m, f),
        "flip-flopping acceptor": lambda pid, lat, m, f: FlipFloppingAcceptor(pid, lat, m, f),
        "always-ack acceptor": lambda pid, lat, m, f: AlwaysAckAcceptor(pid, lat, m, f),
    }
    for name, factory in attacks.items():
        scenario = build_scenario("wts", 4, 1, byzantine_factories=[factory], seed=101).run()
        report(name, scenario.check_la().ok)

    print("\nGWTS (n=4, f=1, 5 rounds) under the round-clogging adversary:")
    scenario = build_scenario(
        "gwts", 4, 1,
        values_per_process=2,
        rounds=5,
        byzantine_factories=[
            lambda pid, lat, m, f: FastForwardGWTS(
                pid, lat, m, rounds_ahead=8, values=[frozenset({"clog"})]
            )
        ],
        seed=17,
    ).run()
    check = scenario.check_gla()
    decisions = {pid: len(d) for pid, d in scenario.decisions().items()}
    report("fast-forward / round clogging", check.ok, f"decisions per process: {decisions}")

    print("\nSbS (n=4, f=1) under signature attacks:")
    scenario = build_scenario(
        "sbs", 4, 1,
        byzantine_factories=[
            lambda pid, lat, m, f, registry: SbSEquivocatingProposer(
                pid, lat, m, f,
                registry=registry,
                value_a=frozenset({"sig-a"}),
                value_b=frozenset({"sig-b"}),
            )
        ],
        seed=29,
    ).run()
    decided = [sorted(d[0]) for d in scenario.decisions().values() if d]
    both_injected = any("sig-a" in d and "sig-b" in d for d in map(set, decided))
    report(
        "signed equivocation (Lemma 13)",
        scenario.check_la().ok and not both_injected,
        "(at most one of the two signed values ever becomes safe)",
    )

    print("\nNegative control — crash-fault baseline without the paper's defences:")
    partition = SkewedPairDelay([("p0", "p1")], base=FixedDelay(1.0), slow_delay=10_000.0)
    baseline = build_scenario(
        "crash-la", 3, 1,
        byzantine_factories=[lambda pid, lat, m, f: AlwaysAckAcceptor(pid, lat, m, f)],
        delay_model=partition,
        seed=3,
        max_messages=5_000,
    ).run()
    check = baseline.check_la(require_liveness=False)
    report("majority-quorum LA, n=3f, always-ack + partition", check.ok,
           "" if check.ok else f"violations: {list(check.violations)}")


if __name__ == "__main__":
    main()
