"""CoreHost: the effect vocabulary interpreted for one core on asyncio."""

import asyncio

import pytest

from repro.cluster.runtime import CoreHost
from repro.cluster.spec import ClusterError
from repro.engine.core import ProtocolCore


class EchoCore(ProtocolCore):
    """Toy core exercising every effect type."""

    def __init__(self, pid, members):
        super().__init__(pid)
        self.members = members
        self.seen = []

    def on_start(self):
        self.output("started", self.pid)

    def on_message(self, sender, payload):
        self.seen.append((sender, payload))
        if payload == "fan":
            self.broadcast("hello")
        elif payload == "self":
            self.send(self.pid, "loopback")
        elif payload == "remote":
            self.send("other", "outbound")
        elif payload == "arm":
            self.timer = self.set_timer(1.0, "tick", 42)
        elif payload == "arm-cancel":
            handle = self.set_timer(1.0, "never")
            handle.cancel()
        elif payload == "decide":
            self.decide(payload, round=3)

    def on_timer(self, tag, payload=None):
        self.seen.append(("timer", tag, payload))


def run_host(scenario):
    async def main():
        sent = []
        core = EchoCore("me", ("me", "other", "third"))
        host = CoreHost(
            core,
            send=lambda dest, payload: sent.append((dest, payload)),
            time_scale=0.001,
        )
        host.start()
        await scenario(core, host)
        return core, host, sent

    return asyncio.run(main())


class TestCoreHost:
    def test_start_runs_on_start_and_captures_output(self):
        async def scenario(core, host):
            pass

        core, host, _sent = run_host(scenario)
        assert [(label, data) for _t, label, data in host.outputs] == [("started", "me")]

    def test_remote_send_goes_through_callback(self):
        async def scenario(core, host):
            host.deliver("x", "remote")

        _core, _host, sent = run_host(scenario)
        assert sent == [("other", "outbound")]

    def test_self_send_loops_back_without_recursion(self):
        async def scenario(core, host):
            host.deliver("x", "self")
            # The loopback is queued via call_soon, not delivered inline.
            assert ("me", "loopback") not in core.seen
            await asyncio.sleep(0)
            assert ("me", "loopback") in core.seen

        run_host(scenario)

    def test_broadcast_without_a_broadcast_route_is_loud(self):
        """``send`` is not a fallback for ``Broadcast``: an embedding that
        gives no ``broadcast`` callback fails the broadcast outright."""

        async def scenario(core, host):
            with pytest.raises(ClusterError, match="no broadcast route"):
                host.deliver("x", "fan")

        _core, _host, sent = run_host(scenario)
        assert sent == []

    def test_broadcast_is_one_operation_for_an_embedding_that_takes_it(self):
        """A ``broadcast`` callback gets the core's remote members in one call
        (so a node can encode once); ``send`` sees nothing, and the core, a
        member itself, gets its copy through the loop."""

        async def main():
            sent, fanned = [], []
            core = EchoCore("me", ("me", "other", "third"))
            host = CoreHost(
                core,
                send=lambda dest, payload: sent.append((dest, payload)),
                broadcast=lambda dests, payload: fanned.append((dests, payload)),
            )
            host.start()
            host.deliver("x", "fan")
            assert ("me", "hello") not in core.seen  # queued, never re-entrant
            await asyncio.sleep(0)
            return core, sent, fanned

        core, sent, fanned = asyncio.run(main())
        assert fanned == [(("other", "third"), "hello")]
        assert sent == []
        assert ("me", "hello") in core.seen

    def test_timer_fires_scaled_and_stamps_now(self):
        async def scenario(core, host):
            host.deliver("x", "arm")
            await asyncio.sleep(0.05)  # 1.0 units * 0.001 = 1ms
            assert ("timer", "tick", 42) in core.seen

        run_host(scenario)

    def test_cancelled_timer_never_fires(self):
        async def scenario(core, host):
            host.deliver("x", "arm-cancel")
            await asyncio.sleep(0.05)
            assert not any(entry[0] == "timer" for entry in core.seen)

        run_host(scenario)

    def test_decides_are_recorded(self):
        async def scenario(core, host):
            host.deliver("x", "decide")

        _core, host, _sent = run_host(scenario)
        assert [(value, rnd) for _t, value, rnd in host.decisions] == [("decide", 3)]

    def test_missing_route_is_loud(self):
        async def main():
            core = EchoCore("me", ("me", "other"))
            host = CoreHost(core, send=None)
            host.start()
            with pytest.raises(ClusterError, match="no route"):
                host.deliver("x", "remote")

        asyncio.run(main())

    def test_reentrant_route_applies_each_effect_once(self):
        """A route that re-enters the host (an in-process embedding delivering
        synchronously) must not re-apply or drop the outer batch's effects."""

        class Chatty(ProtocolCore):
            def on_message(self, sender, payload):
                if payload == "go":
                    self.send("peer", "a")
                    self.send("peer", "b")
                elif payload == "ping":
                    self.send("peer", "c")

        async def main():
            sent = []
            host = None

            def route(dest, payload):
                sent.append(payload)
                if payload == "a":
                    host.deliver("peer", "ping")  # re-enters mid-batch

            host = CoreHost(Chatty("me"), send=route)
            host.start()
            host.deliver("x", "go")
            return sent

        sent = asyncio.run(main())
        # Each effect applied once; the outer batch keeps its emission order
        # and the nested batch is applied where its route re-entered.
        assert sent == ["a", "c", "b"]
