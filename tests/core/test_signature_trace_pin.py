"""Byte-level pins of seeded SbS and GSbS runs.

Each digest covers one kernel run: every delivery-log row (sender, dest,
message type, send and deliver time, causal depth, and the SHA-256 of the
payload's JSON frame, which holds every signature tag byte) followed by each
correct process's decisions.  A refactor of the signature cores must leave
every message, schedule, verdict and tag unchanged, so these digests must
not move.  Nothing in them depends on the string hash seed: the same digest
reads under any ``PYTHONHASHSEED``.
"""

import hashlib

import pytest

from repro.byzantine import ForgedSafetyByzantine, SbSEquivocatingProposer
from repro.crypto import canonical_bytes
from repro.engine.wire import get_codec
from repro.harness import run_gsbs_scenario, run_sbs_scenario


def sig_equivocator(pid, lat, members, f, registry):
    return SbSEquivocatingProposer(
        pid, lat, members, f, registry=registry,
        value_a=frozenset({"byz-a"}), value_b=frozenset({"byz-b"}),
    )


def forger(pid, lat, members, f, registry):
    return ForgedSafetyByzantine(
        pid, lat, members, victim=members[0], injected=frozenset({"forged-value"})
    )


SCENARIOS = {
    "sbs_n4_seed0": lambda: run_sbs_scenario(n=4, f=1, seed=0),
    "sbs_n4_seed1": lambda: run_sbs_scenario(n=4, f=1, seed=1),
    "sbs_n4_seed2": lambda: run_sbs_scenario(n=4, f=1, seed=2),
    "sbs_n7_seed2": lambda: run_sbs_scenario(n=7, f=2, seed=2),
    "sbs_n4_sig_equivocator": lambda: run_sbs_scenario(n=4, f=1, seed=0, byzantine_factories=[sig_equivocator]),
    "sbs_n4_forger": lambda: run_sbs_scenario(n=4, f=1, seed=0, byzantine_factories=[forger]),
    "gsbs_n4_seed0": lambda: run_gsbs_scenario(n=4, f=1, values_per_process=2, rounds=3, seed=0),
    "gsbs_n4_seed1": lambda: run_gsbs_scenario(n=4, f=1, values_per_process=2, rounds=3, seed=1),
    "gsbs_n4_seed2": lambda: run_gsbs_scenario(n=4, f=1, values_per_process=2, rounds=3, seed=2),
    "gsbs_n7_seed3": lambda: run_gsbs_scenario(n=7, f=2, values_per_process=1, rounds=2, seed=3),
    "gsbs_n4_batch1": lambda: run_gsbs_scenario(
        n=4, f=1, values_per_process=2, rounds=3, seed=0, batch_size=1
    ),
}

DIGESTS = {
    "sbs_n4_seed0": "0d48342d58560ae5d80d89765cd7ee72b501fdee85847a5656a60bdeb4adc872",
    "sbs_n4_seed1": "feaeaa622421f3075d5c27c40d588155a15fc3dacd09ecd84854936d99a09b75",
    "sbs_n4_seed2": "392f8edbedd51bf5b0f7f35b4dc2bee52148adb9d154e62fb5deafeaa90786b2",
    "sbs_n7_seed2": "d9a5b11daca5469c15517f33c3df4b6affd6478d4bd1628b157b7e8ca7d20d57",
    "sbs_n4_sig_equivocator": "b40d16a2892cdb01f7490bbb21bbae5d971eae21d532b911e9aca765177f9261",
    "sbs_n4_forger": "a0ff779c745bfc548705d43fd15ceae16a49bd0f54a614dd2fbb691561dea28a",
    "gsbs_n4_seed0": "3dcdc7990488fcb9d7ad0e8f8842c0b8d5a5d8d60f65ff05ef7ae03836241b8f",
    "gsbs_n4_seed1": "6e65ad413229a05e14e9ab800990978b12e4aedd8d71b60f971ae9f24611a08f",
    "gsbs_n4_seed2": "d33181e53eca25344d3720c641e08dd13e1e4cc49a9f9a401248129d6531d11e",
    "gsbs_n7_seed3": "6592b680a88e3f846b577355fe70da3c5bd2518bb5328acdd59e1749b2a271a6",
    "gsbs_n4_batch1": "3e9c975daa6e721bb22d0ac386f952535b7bb4a706a7fcf5c5872f7660182eec",
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
