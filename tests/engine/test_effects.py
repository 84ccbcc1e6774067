"""The sans-I/O contract: ``handle(event) -> effects`` and its negative paths."""

import asyncio
from functools import partial

import pytest

from repro.cluster.runtime import CoreHost
from repro.engine import (
    AsyncEngine,
    Broadcast,
    Decide,
    Deliver,
    KernelEngine,
    Output,
    ProtocolCore,
    Send,
    SetTimer,
    Start,
    TimerFired,
    TurboEngine,
)


class Pinger(ProtocolCore):
    """Emits one of every effect kind across its handlers."""

    def on_start(self):
        self.send("peer", "ping")
        self.broadcast("hello")
        self.set_timer(5.0, "wake", {"k": 1})

    def on_message(self, sender, payload):
        self.decide(payload, round=3)
        self.output("seen", sender)

    def on_timer(self, tag, payload=None):
        self.send("peer", ("timer", tag, payload))


class TestHandleInterface:
    def test_handle_start_returns_emitted_effects(self):
        core = Pinger("p0")
        effects = core.handle(Start())
        assert [type(e) for e in effects] == [Send, Broadcast, SetTimer]
        send, broadcast, set_timer = effects
        assert send.dest == "peer" and send.payload == "ping"
        assert broadcast.payload == "hello"
        assert set_timer.delay == 5.0 and set_timer.handle.tag == "wake"
        assert set_timer.handle.payload == {"k": 1}

    def test_handle_deliver_and_timer(self):
        core = Pinger("p0")
        core.handle(Start())
        effects = core.handle(Deliver("q", "value"))
        assert [type(e) for e in effects] == [Decide, Output]
        assert effects[0].value == "value" and effects[0].round == 3
        assert effects[1].label == "seen" and effects[1].data == "q"
        (send,) = core.handle(TimerFired("wake", 7))
        assert send.payload == ("timer", "wake", 7)

    def test_handle_is_drained_between_calls(self):
        core = Pinger("p0")
        assert len(core.handle(Start())) == 3
        assert len(core.handle(TimerFired("t"))) == 1
        # A handler that emits nothing returns the empty list, not leftovers.
        assert ProtocolCore("q0").handle(Deliver("x", "ignored")) == []

    def test_unknown_event_rejected(self):
        with pytest.raises(TypeError, match="unknown core event"):
            ProtocolCore("p0").handle(object())

    def test_timer_handle_cancellation_is_sticky(self):
        core = ProtocolCore("p0")
        handle = core.set_timer(1.0, "t")
        handle.cancel()
        assert handle.cancelled

        class FakeEvent:
            cancelled = False

            def cancel(self):
                self.cancelled = True

        event = FakeEvent()
        handle.bind(event)  # binding after cancel must propagate
        assert event.cancelled


class Misbehaving(ProtocolCore):
    """Emits an object outside the effect vocabulary."""

    def on_start(self):
        self._out.append("not-an-effect")


class BadDest(ProtocolCore):
    def on_start(self):
        self.send("ghost", "boo")


class BadTimer(ProtocolCore):
    def __init__(self, pid, delay):
        super().__init__(pid)
        self.delay = delay

    def on_start(self):
        self.set_timer(self.delay, "t")


def run_on_engine(engine_class, *cores):
    engine = engine_class(seed=0)
    for core in cores:
        engine.add_core(core)
    engine.run_until_quiescent()


def run_on_core_hosts(*cores):
    """One ``CoreHost`` per core on a live loop, routed in-process by pid (the
    embedding rejects a pid it has no host for, as the engines do)."""

    async def main():
        loop = asyncio.get_running_loop()
        hosts = {}

        def route_from(sender):
            def route(dest, payload):
                if dest not in hosts:
                    raise ValueError(f"unknown destination {dest!r}")
                loop.call_soon(hosts[dest].deliver, sender, payload)

            return route

        for core in cores:
            hosts[core.pid] = CoreHost(core, send=route_from(core.pid))
        for host in hosts.values():
            host.start()
        await asyncio.sleep(0)  # one loop turn runs the deliveries queued at start

    asyncio.run(main())


#: Every sink of the shared effect interpreter, as "run these cores" callables.
SUBSTRATES = {
    "KernelEngine": partial(run_on_engine, KernelEngine),
    "TurboEngine": partial(run_on_engine, TurboEngine),
    "AsyncEngine": partial(run_on_engine, AsyncEngine),
    "CoreHost": run_on_core_hosts,
}


@pytest.mark.parametrize("substrate", list(SUBSTRATES))
class TestMalformedEffects:
    def test_non_effect_object_fails_loudly(self, substrate):
        with pytest.raises(TypeError, match="non-effect"):
            SUBSTRATES[substrate](Misbehaving("p0"))

    def test_send_to_unknown_destination_fails(self, substrate):
        with pytest.raises(ValueError, match="unknown destination"):
            SUBSTRATES[substrate](BadDest("p0"))

    @pytest.mark.parametrize("delay", [-1.0, float("nan"), float("inf")])
    def test_invalid_timer_delay_fails(self, substrate, delay):
        with pytest.raises(ValueError, match="invalid timer delay"):
            SUBSTRATES[substrate](BadTimer("p0", delay))

    def test_effects_apply_under_emitters_identity(self, substrate):
        """A core cannot spoof the sender: the backend stamps its own pid."""

        class Spoofer(ProtocolCore):
            def on_start(self):
                self.send("victim", {"claimed_sender": "somebody-else"})

        class Victim(ProtocolCore):
            def __init__(self, pid):
                super().__init__(pid)
                self.senders = []

            def on_message(self, sender, payload):
                self.senders.append(sender)

        victim = Victim("victim")
        SUBSTRATES[substrate](Spoofer("liar"), victim)
        assert victim.senders == ["liar"]
