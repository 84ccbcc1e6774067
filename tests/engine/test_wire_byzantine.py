"""The signature claim on real bytes: end-to-end wire-Byzantine runs.

SbS/GSbS execute over the async backend's real TCP transport while a
:class:`~repro.engine.wire_faults.FaultyCodec` forges frames on every send
path — bit flips, matching-CRC truncations, duplicates, replayed proof
bundles, on-wire value tampering and signature splicing.  The paper's
claim under test: with an honest PKI **nothing forged influences any
decision** and the runs stay live; with the signature check ablated away
(:class:`~repro.core.ablations.BlindKeyRegistry`) the very same tampering
must start landing — proving this test can actually fail.
"""

import pytest

from repro.core.ablations import BlindKeyRegistry
from repro.engine.wire_faults import POISON
from repro.harness.workloads import build_scenario

FULL_MENU = "flip:0.3+trunc:0.3+dup:0.3+replay:0.3+tamper-value:0.5+tamper-sig:0.5"


def decided_values(scenario):
    return [value for decisions in scenario.decisions().values() for value in decisions]


def assert_unpoisoned(scenario):
    poisoned = [value for value in decided_values(scenario) if POISON in str(value)]
    assert not poisoned, f"forged wire bytes reached a decision: {poisoned}"


class TestHonestRegistryHoldsTheLine:
    @pytest.mark.parametrize("framing", ["json", "binary"])
    def test_sbs_decides_correctly_under_the_full_fault_menu(self, framing):
        scenario = build_scenario(
            "sbs", 4, 1, seed=7, backend="async", transport="tcp", framing=framing,
            wire_faults=FULL_MENU, max_wall_s=30.0,
        ).run()
        check = scenario.check_la()
        assert check.ok, check.violations
        assert_unpoisoned(scenario)
        stats = scenario.engine.wire_fault_stats
        # The run was actually under attack on every codec axis...
        for mode in ("flip", "trunc", "dup", "replay", "tamper-value", "tamper-sig"):
            assert stats.get(f"sent_{mode}", 0) > 0, (mode, stats)
        # ...and the receiver rejected at both defence layers.
        assert stats.get("crc", 0) > 0          # flip: framing-layer CRC
        assert stats.get("decode", 0) > 0       # trunc: decoder
        assert stats.get("injected_delivered", 0) > 0  # well-formed forgeries

    def test_gsbs_multi_round_survives_tampering(self):
        scenario = build_scenario(
            "gsbs", 4, 1, rounds=2, seed=5, backend="async", transport="tcp",
            wire_faults="tamper-value:0.5+tamper-sig:0.5+dup:0.3", max_wall_s=45.0,
        ).run()
        check = scenario.check_gla(require_all_inputs_decided=False)
        assert check.ok, check.violations
        assert_unpoisoned(scenario)
        stats = scenario.engine.wire_fault_stats
        assert stats.get("sent_tamper-value", 0) > 0


class TestBlindRegistryCanary:
    """Remove verification and the same attack must land — the proof that
    the honest-registry assertions above are not vacuous."""

    def test_sbs_with_blind_pki_violates_invariants_under_tampering(self):
        scenario = build_scenario(
            "sbs", 4, 1, seed=7, backend="async", transport="tcp", framing="binary",
            registry=BlindKeyRegistry(seed=1234),
            wire_faults="tamper-value:0.6", max_wall_s=30.0,
        ).run()
        check = scenario.check_la()
        assert not check.ok, "blind verification shrugged off on-wire tampering"
        stats = scenario.engine.wire_fault_stats
        assert stats.get("sent_tamper-value", 0) > 0

    def test_wire_faults_require_the_tcp_transport(self):
        with pytest.raises(ValueError, match="transport"):
            build_scenario(
                "sbs", 4, 1, seed=1, backend="async", wire_faults="flip:0.5",
            ).run()
