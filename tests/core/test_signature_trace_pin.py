"""Byte-level pins of seeded runs no golden covers.

The SbS and GSbS runs, the crash-fault baselines, GWTS with a per-round
batch cap, and WTS, its ablations and GWTS against their impostors.  Each
digest covers one kernel run: every delivery-log row (sender, dest,
message type, send and deliver time, causal depth, and the SHA-256 of the
payload's JSON frame, which holds every signature tag byte) followed by each
correct process's decisions.  A refactor of these cores must leave every
message, schedule, verdict and tag unchanged, so these digests must
not move.  Nothing in them depends on the string hash seed: the same digest
reads under any ``PYTHONHASHSEED``.
"""

import hashlib

import pytest

from repro.baselines.crash_gla import BatchDisclosure
from repro.byzantine import (
    AlwaysAckAcceptor,
    EquivocatingGWTSProposer,
    EquivocatingProposer,
    ForgedSafetyByzantine,
    GarbageProposer,
    SbSEquivocatingProposer,
)
from repro.core.ablations import NoDefencesWTSProcess, NoSafetyWTSProcess, PlainDisclosureWTSProcess
from repro.crypto import canonical_bytes
from repro.engine import FixedDelay, SkewedPairDelay, UniformDelay
from repro.engine.wire import get_codec, register_wire_dataclass
from repro.harness import build_scenario

# The crash-GLA baseline's plain disclosure is outside the built-in wire
# vocabulary; registering it lets its frames be digested like any other.
register_wire_dataclass(BatchDisclosure)


def sig_equivocator(pid, lat, members, f, registry):
    return SbSEquivocatingProposer(
        pid, lat, members, f, registry=registry,
        value_a=frozenset({"byz-a"}), value_b=frozenset({"byz-b"}),
    )


def forger(pid, lat, members, f, registry):
    return ForgedSafetyByzantine(
        pid, lat, members, victim=members[0], injected=frozenset({"forged-value"})
    )


def equivocator(pid, lat, members, f):
    return EquivocatingProposer(pid, lat, members, f, value_a=frozenset({"eq-a"}), value_b=frozenset({"eq-b"}))


def garbage(pid, lat, members, f):
    return GarbageProposer(pid, lat, members, f)


def gwts_equivocator(pid, lat, members, f):
    return EquivocatingGWTSProposer(
        pid, lat, members, f, max_rounds=3,
        equivocation_pool=[frozenset({f"eq-{pid}-a"}), frozenset({f"eq-{pid}-b"})],
    )


def ablated(process_class):
    """WTS with one defence removed against the equivocator, as in experiment E11."""
    return lambda: build_scenario(
        "wts", 4, 1, seed=31, byzantine_factories=[equivocator], delay_model=UniformDelay(0.5, 2.0),
        process_class=process_class, run_to_quiescence=True, max_messages=30_000,
    ).run()


SCENARIOS = {
    "sbs_n4_seed0": lambda: build_scenario("sbs", 4, 1, seed=0).run(),
    "sbs_n4_seed1": lambda: build_scenario("sbs", 4, 1, seed=1).run(),
    "sbs_n4_seed2": lambda: build_scenario("sbs", 4, 1, seed=2).run(),
    "sbs_n7_seed2": lambda: build_scenario("sbs", 7, 2, seed=2).run(),
    "sbs_n4_sig_equivocator": lambda: build_scenario("sbs", 4, 1, seed=0, byzantine_factories=[sig_equivocator]).run(),
    "sbs_n4_forger": lambda: build_scenario("sbs", 4, 1, seed=0, byzantine_factories=[forger]).run(),
    "gsbs_n4_seed0": lambda: build_scenario("gsbs", 4, 1, values_per_process=2, rounds=3, seed=0).run(),
    "gsbs_n4_seed1": lambda: build_scenario("gsbs", 4, 1, values_per_process=2, rounds=3, seed=1).run(),
    "gsbs_n4_seed2": lambda: build_scenario("gsbs", 4, 1, values_per_process=2, rounds=3, seed=2).run(),
    "gsbs_n7_seed3": lambda: build_scenario("gsbs", 7, 2, values_per_process=1, rounds=2, seed=3).run(),
    "gsbs_n4_batch1": lambda: build_scenario(
        "gsbs", 4, 1, values_per_process=2, rounds=3, seed=0, batch_size=1
    ).run(),
    "crash_la_n4_seed0": lambda: build_scenario("crash-la", 4, 1, seed=0).run(),
    "crash_la_n7_seed1": lambda: build_scenario("crash-la", 7, 2, seed=1).run(),
    # Experiment E2's negative control: n = 3f, an always-acking Byzantine
    # and slow links between the two correct processes.
    "crash_la_n3_always_ack_partition": lambda: build_scenario(
        "crash-la", 3, 1, seed=7, byzantine_factories=[AlwaysAckAcceptor], max_messages=20_000,
        delay_model=SkewedPairDelay([("p0", "p1")], base=FixedDelay(1.0), slow_delay=10_000.0),
    ).run(),
    "crash_gla_n4_seed0": lambda: build_scenario("crash-gla", 4, 1, values_per_process=2, rounds=3, seed=0).run(),
    "gwts_n4_batch1": lambda: build_scenario("gwts", 4, 1, values_per_process=3, rounds=4, seed=0, batch_size=1).run(),
    "wts_n4_equivocator": lambda: build_scenario("wts", 4, 1, seed=0, byzantine_factories=[equivocator]).run(),
    "wts_n4_garbage": lambda: build_scenario("wts", 4, 1, seed=0, byzantine_factories=[garbage]).run(),
    "ablation_no_safety": ablated(NoSafetyWTSProcess),
    "ablation_plain_disclosure": ablated(PlainDisclosureWTSProcess),
    "ablation_no_defences": ablated(NoDefencesWTSProcess),
    "gwts_n4_equivocator": lambda: build_scenario(
        "gwts", 4, 1, values_per_process=2, rounds=3, seed=0, byzantine_factories=[gwts_equivocator]
    ).run(),
}

# The SbS and GSbS digests were regenerated once, when their carriers went
# to one proof per signed value: a nack bringing only a new proof of a known
# value no longer refines, and payloads shrink.  The GWTS and crash-GLA
# digests were regenerated once, when a ``RoundAck`` went from carrying the
# accepted set to naming the request by its token: with every frame that
# carries a ``RoundAck`` masked, those three traces hash as before, so the
# delivery order, times and decisions are unchanged.
DIGESTS = {
    "sbs_n4_seed0": "8dfdefdd22fed5b26c64fdde527e1820441e33021bdbf0c400c24ef7843804a4",
    "sbs_n4_seed1": "74f7f436d3fa2b2aaf1044132bd38514fc20bb136ef027ce4b8322308b0409b4",
    "sbs_n4_seed2": "a026a1d017abb6d929b87523a29642d80757e00da5eef7f33016190d636adf18",
    "sbs_n7_seed2": "a73633bc03bec5fb9678ce9cc44e50b17d130bb1c25810fdf4d4ed6d5123d8e0",
    "sbs_n4_sig_equivocator": "b75a5ce92cde8670ea37ffdabe8ca05d787429d3d1e9ed4eca3b0c754860812e",
    "sbs_n4_forger": "a0ff779c745bfc548705d43fd15ceae16a49bd0f54a614dd2fbb691561dea28a",
    "gsbs_n4_seed0": "f258c027a00351d8cb5907cae5992ac8f1201445e8ad4cbffe238af1d12dd8e6",
    "gsbs_n4_seed1": "53c92022225c8b62677bcbd92de0cdb722ffd92acdec0183e6b6030f8d396f4d",
    "gsbs_n4_seed2": "b5fe84e825584f1faeb8f1493faff3c278b198f3ba7291a6c1a0a4ba8919d477",
    "gsbs_n7_seed3": "1282cc31309700e5ec8360cd6f6058e2e87081e81acec11b7d1200262ef33cfb",
    "gsbs_n4_batch1": "e7d26e4981361bceb310f0a7021681f2f1e929266d074bbcb9b20123d083d128",
    "crash_la_n4_seed0": "2e4d1686e5d5763a3a9c645eb0f5a88741d5500f918d6f68b4bcb9f743ec1b74",
    "crash_la_n7_seed1": "4e4e9d23632fd0281854752be9a37048327e9f0c6e9f89014fa8e63088b9df70",
    "crash_la_n3_always_ack_partition": "717a396f3f831cfb13c1ead75f156fd8eb2da6fb57cab47725f4ace2c7b17818",
    "crash_gla_n4_seed0": "aa127e37105bea77b37babcd0b6ef37217ca8c59c2376f983bdb157a05247798",
    "gwts_n4_batch1": "6624eaf32694a3b673f125bd8b7c7b131c05a1104e8fcf9052b68ff934ecf924",
    "wts_n4_equivocator": "5b3f2acf2590c40fd44d42d78c10ff8ec96c781008e9fd776360024937a662e3",
    "wts_n4_garbage": "c47879e8b7cc6b6c36521be3dd241e7f9ac3cff6c7cd65fbeeb6e8c9fa3dc6ff",
    "ablation_no_safety": "69b6d51ef8c41a419e235117cfd97d5ab33bdb1db1ceb60b5f17f40f15b09365",
    "ablation_plain_disclosure": "6c65447e0a02b56f935671dcde9b316e0493c5ac918936f377fcfe4f72a88c64",
    "ablation_no_defences": "5ef9e168aa3f07c030db23cee88a1ea05c9d00196b8d01df67eceac5ffd278e0",
    "gwts_n4_equivocator": "39c76ec187c837e38c9a7ec5c3f42cae6e094659bd61c5bf1fd7c1350ad5e7b1",
}


def trace_digest(scenario):
    """SHA-256 over the delivery log (payloads as JSON-frame digests) and the decisions."""
    codec = get_codec("json")
    digest = hashlib.sha256()
    # A broadcast delivers one payload object to every member: frame it once.
    frames = {}
    for env in scenario.engine.delivery_log:
        frame = frames.get(id(env.payload))
        if frame is None:
            frame = frames[id(env.payload)] = hashlib.sha256(codec.encode_frame(env.payload)).hexdigest()
        row = (
            str(env.sender), str(env.dest), env.mtype,
            round(env.send_time, 9), round(env.deliver_time, 9), env.depth, frame,
        )
        digest.update(repr(row).encode())
    for pid, decisions in sorted(scenario.decisions().items(), key=lambda item: str(item[0])):
        digest.update(str(pid).encode() + canonical_bytes(decisions))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_seeded_signature_run_is_byte_identical(name):
    assert trace_digest(SCENARIOS[name]()) == DIGESTS[name]
