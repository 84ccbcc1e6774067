"""Quorum-critical link starvation: computed from (n, f), beats fixed victims.

The ROADMAP open item: the ``worst-case`` axis menu should starve the
*quorum-critical* links derived from the membership instead of a hand-picked
victim list.  At ``n = 7, f = 1`` the Byzantine ack quorum is ``q = 5``, so
starving one fixed victim leaves six fast processes — still a whole quorum —
and only the victim's own decisions are delayed.  The quorum-critical set
starves ``n - q + 1 = 3`` processes, leaving only ``q - 1`` fast responders:
*every* proposer now waits on a starved link, which delays GWTS decisions
across the board while (the starvation being finite) never preventing them.
"""

import random

import pytest

from repro.engine import Envelope, SkewedPairDelay
from repro.harness import build_scenario
from repro.sim.axes import parse_scheduler


def draw(model, sender, dest):
    return model.delay(Envelope(sender=sender, dest=dest, payload="x", send_time=0.0), random.Random(0))


class TestQuorumCriticalConstruction:
    def test_victim_count_is_n_minus_quorum_plus_one(self):
        members = [f"p{i}" for i in range(7)]
        scheduler = SkewedPairDelay.quorum_critical(members, f=1)
        # n=7, f=1 -> q=5 -> 3 victims, taken from the membership tail.
        assert scheduler.victims == {"p4", "p5", "p6"}

    def test_scales_with_membership(self):
        members = [f"p{i}" for i in range(4)]
        scheduler = SkewedPairDelay.quorum_critical(members, f=1)
        # n=4, f=1 -> q=3 -> 2 victims.
        assert scheduler.victims == {"p2", "p3"}
        ten = SkewedPairDelay.quorum_critical([f"p{i}" for i in range(10)], f=2)
        # n=10, f=2 -> q=7 -> 4 victims.
        assert ten.victims == {"p6", "p7", "p8", "p9"}

    def test_empty_membership_rejected(self):
        with pytest.raises(ValueError):
            SkewedPairDelay.quorum_critical([], f=1)


class TestAxisSpec:
    def test_quorum_spec_resolves_against_membership(self):
        pids = [f"p{i}" for i in range(7)]
        scheduler = parse_scheduler("worst-case:victims=quorum,starve=80,fast=1", pids=pids, f=1)
        assert scheduler.victims == {"p4", "p5", "p6"}
        # A link touching a victim takes the starve delay plus a jitter in
        # [0, 1]; every other link takes exactly the fast delay.
        assert 80.0 <= draw(scheduler, "p0", "p4") <= 81.0
        assert draw(scheduler, "p0", "p1") == 1.0

    def test_quorum_spec_without_membership_is_an_error(self):
        with pytest.raises(ValueError, match="membership"):
            parse_scheduler("worst-case:victims=quorum")

    def test_fixed_victim_spec_still_parses_membership_free(self):
        scheduler = parse_scheduler("worst-case:victims=p1+p2")
        assert scheduler.victims == {"p1", "p2"}


class TestQuorumStarvationBitesHarder:
    def test_quorum_critical_delays_gwts_decisions_more_than_fixed_victim_at_n7(self):
        """The satellite claim, measured: same workload, same seed, two menus."""
        common = dict(n=7, f=1, values_per_process=1, rounds=2, seed=3)
        fixed = build_scenario(
            "gwts", scheduler="worst-case:victims=p0,starve=60,fast=1", **common
        ).run()
        quorum = build_scenario(
            "gwts", scheduler="worst-case:victims=quorum,starve=60,fast=1", **common
        ).run()
        # Liveness holds under both (finite starvation: delayed, never prevented).
        assert all(decs for decs in fixed.decisions().values())
        assert all(decs for decs in quorum.decisions().values())

        def last_decision(scenario):
            return max(record.time for record in scenario.metrics.decisions)

        def median_decision(scenario):
            times = sorted(record.time for record in scenario.metrics.decisions)
            return times[len(times) // 2]

        # Starving the quorum-critical set delays the *whole cluster*, not
        # just one victim: both the median and the final decision move out.
        assert median_decision(quorum) > median_decision(fixed)
        assert last_decision(quorum) > last_decision(fixed)
