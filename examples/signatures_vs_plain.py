#!/usr/bin/env python3
"""Message-complexity trade-off: WTS (authenticated channels) vs SbS (signatures).

Section 8 of the paper: with digital signatures the per-process message
complexity drops from O(n^2) to O(n) when f = O(1), at the price of larger
messages.  This example sweeps the system size with f = 1, runs both
algorithms on identical workloads and unit message delays, and prints the
per-process message counts, the largest payload seen, and the decision
latency against the analytical bounds (2f + 5 for WTS, 5 + 4f for SbS).

Run with::

    python examples/signatures_vs_plain.py
"""

from repro import build_scenario
from repro.engine import FixedDelay
from repro.metrics import format_table


def main() -> None:
    f = 1
    rows = []
    for n in (4, 7, 10, 13):
        wts = build_scenario("wts", n, f, seed=500 + n, delay_model=FixedDelay(1.0)).run()
        sbs = build_scenario("sbs", n, f, seed=500 + n, delay_model=FixedDelay(1.0)).run()
        assert wts.check_la().ok and sbs.check_la().ok

        wts_msgs = wts.metrics.mean_messages_per_process(wts.correct_pids)
        sbs_msgs = sbs.metrics.mean_messages_per_process(sbs.correct_pids)
        wts_delay = max(r.time for r in wts.metrics.decisions)
        sbs_delay = max(r.time for r in sbs.metrics.decisions)
        rows.append(
            (
                n,
                f"{wts_msgs:.0f}",
                f"{sbs_msgs:.0f}",
                f"{wts_msgs / sbs_msgs:.1f}x",
                wts.metrics.max_payload_size,
                sbs.metrics.max_payload_size,
                f"{wts_delay:.0f} <= {2 * f + 5}",
                f"{sbs_delay:.0f} <= {5 + 4 * f}",
            )
        )

    print(
        format_table(
            [
                "n",
                "WTS msgs/proc",
                "SbS msgs/proc",
                "saving",
                "WTS max payload",
                "SbS max payload",
                "WTS delays",
                "SbS delays",
            ],
            rows,
            title="WTS (O(n^2) messages, small payloads) vs SbS (O(n) messages, large payloads), f=1",
        )
    )
    print(
        "\nNote the trade-off the paper describes: SbS sends far fewer messages\n"
        "per process but its messages carry the whole safety proof (payload\n"
        "size grows with n), whereas WTS messages stay small."
    )


if __name__ == "__main__":
    main()
