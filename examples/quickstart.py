#!/usr/bin/env python3
"""Quickstart: one Byzantine Lattice Agreement round with WTS.

Four processes (the smallest system tolerating one Byzantine fault) each
propose a singleton set; one of them is an *equivocating* Byzantine process
that tries to disclose different values to different peers.  The Wait Till
Safe algorithm makes every correct process decide, all decisions are
comparable (they form a chain in the Figure 1 lattice), and each decision
contains the proposer's own value.

Run with::

    python examples/quickstart.py
"""

from repro import SetLattice, build_scenario
from repro.byzantine import EquivocatingProposer
from repro.lattice import hasse_diagram_text, sort_chain


def main() -> None:
    lattice = SetLattice()

    # The Byzantine process occupies the last membership slot; it discloses
    # {"x"} to half the system and {"y"} to the other half.
    byzantine = [
        lambda pid, lat, members, f: EquivocatingProposer(
            pid, lat, members, f,
            value_a=frozenset({"x"}),
            value_b=frozenset({"y"}),
        )
    ]

    scenario = build_scenario(
        "wts", 4, 1,
        inputs={
            "p0": frozenset({"apple"}),
            "p1": frozenset({"banana"}),
            "p2": frozenset({"cherry"}),
        },
        lattice=lattice,
        byzantine_factories=byzantine,
        seed=42,
    ).run()

    print("Proposals of correct processes:")
    for pid, proposal in sorted(scenario.proposals().items()):
        print(f"  {pid}: {sorted(proposal)}")

    print("\nDecisions:")
    decisions = []
    for pid, decs in sorted(scenario.decisions().items()):
        print(f"  {pid}: {sorted(decs[0]) if decs else '(none)'}")
        if decs:
            decisions.append(decs[0])

    check = scenario.check_la()
    print(f"\nLattice Agreement properties hold: {check.ok}")
    if not check.ok:
        print(check)

    chain = sort_chain(lattice, decisions)
    print("\nDecision chain (smallest to largest):")
    for value in dict.fromkeys(chain):
        print(f"  {sorted(value)}")

    print("\nHasse diagram of proposals and decisions (chain marked with *):")
    elements = list(scenario.proposals().values()) + decisions
    print(hasse_diagram_text(lattice, elements, highlight_chain=chain))

    print("\nMessage statistics:")
    summary = scenario.metrics.summary()
    print(f"  total messages: {summary['total_sent']}")
    print(f"  per message type: {summary['sent_by_type']}")
    print(f"  worst-case per-process: {summary['max_messages_per_process']}")


if __name__ == "__main__":
    main()
