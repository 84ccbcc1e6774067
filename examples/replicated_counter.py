#!/usr/bin/env python3
"""A Byzantine-tolerant replicated counter and tag set (the paper's use case).

This is the scenario the paper's introduction motivates: "the implementation
of a dependable counter with add and read operations, where updates (adds)
are commutative".  Four replicas (one of them Byzantine and completely
silent) run the GWTS-based RSM; three correct clients concurrently increment
a shared grow-only counter and add members to a grow-only tag set, then read;
a Byzantine client floods the replicas with malformed and under-replicated
requests.

The example prints each client's read and checks the six RSM properties of
Section 7.1 (liveness, read validity/consistency/monotonicity, update
stability/visibility).

Run with::

    python examples/replicated_counter.py
"""

from repro import GCounterObject, GSetObject, build_scenario
from repro.byzantine import SilentByzantine
from repro.rsm import check_rsm_history


def main() -> None:
    counter = GCounterObject("page-hits")
    tags = GSetObject("tags")

    # Three correct clients: two bump the counter, one curates the tag set.
    scripts = {
        "alice": [
            ("update", counter.op_inc(1)),
            ("update", counter.op_inc(2)),
            ("read",),
        ],
        "bob": [
            ("update", counter.op_inc(5)),
            ("read",),
            ("update", tags.op_add("release-1.0")),
            ("read",),
        ],
        "carol": [
            ("update", tags.op_add("bugfix")),
            ("update", tags.op_add("perf")),
            ("read",),
        ],
    }

    scenario = build_scenario(
        "rsm", 4, 1,
        inputs=scripts,
        byzantine_factories=[
            lambda pid, lattice, members, f: SilentByzantine(pid)
        ],
        byzantine_client_payloads={"mallory": ["junk-a", "junk-b"]},
        rounds=10,
        seed=7,
    ).run()

    print("Client operations:")
    for client_id, history in sorted(scenario.extras["histories"].items()):
        for record in history:
            latency = (
                f"{record.end_time - record.start_time:.1f}"
                if record.completed
                else "pending"
            )
            if record.kind == "read" and record.result is not None:
                value = (
                    f"counter={counter.value(record.result)}, "
                    f"tags={sorted(tags.value(record.result))}"
                )
            else:
                value = str(record.command.operation)
            print(f"  {client_id:6s} {record.kind:6s} latency={latency:>7s}  {value}")

    check = check_rsm_history(scenario.extras["histories"].values())
    print(f"\nRSM properties (Section 7.1) hold: {check.ok}")
    if not check.ok:
        print(check)

    print("\nFinal replica decisions (command counts):")
    for pid in scenario.correct_pids:
        replica = scenario.nodes[pid]
        final = replica.decisions[-1] if replica.decisions else frozenset()
        print(f"  {pid}: {len(replica.decisions)} decisions, last covers {len(final)} commands")


if __name__ == "__main__":
    main()
