"""Live multi-process cluster tests: bootstrap, traffic, faults, shutdown.

These spawn real node processes (``python -m repro cluster node``) through
the supervisor, so they are slower than unit tests but each is bounded by
explicit deadlines — a regression hangs a deadline, never the suite.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.cluster.client import (
    ServiceClient,
    counter_workload,
    probe_cluster_sync,
    run_service_traffic,
)
from repro.cluster.spec import ClusterError, ClusterSpec, NodeSpec, localhost_spec
from repro.cluster.supervisor import Cluster


def make_cluster(tmp_path, n=3, **spec_overrides):
    spec = localhost_spec(n, **spec_overrides)
    return spec, Cluster(spec, state_dir=tmp_path / "state")


class TestEndToEnd:
    def test_three_nodes_serve_crdt_traffic_and_audit_clean(self, tmp_path):
        spec, cluster = make_cluster(tmp_path, n=3)
        with cluster:
            cluster.start(wait_ready=True, timeout=30)
            rows = cluster.status()
            pids = {row["pid"] for row in rows}
            assert len(pids) == 3, f"expected 3 distinct OS pids, got {rows}"
            assert all(row["ready"] for row in rows)
            report = asyncio.run(run_service_traffic(spec, commands=12, clients=2, timeout=30))
            assert report.all_completed, report.summary()
            assert report.audit is not None and report.audit.ok, report.summary()
            assert report.counter_value is not None and report.counter_value > 0
            assert cluster.stop() == 0  # every node drained cleanly

    @pytest.mark.parametrize("framing", ["binary"])
    def test_binary_framing_cluster(self, tmp_path, framing):
        spec, cluster = make_cluster(tmp_path, n=3, framing=framing)
        with cluster:
            cluster.start(wait_ready=True, timeout=30)
            report = asyncio.run(run_service_traffic(spec, commands=9, clients=2, timeout=30))
            assert report.ok, report.summary()
            assert cluster.stop() == 0


class TestBootstrapEdgeCases:
    def test_port_collision_is_a_loud_error_not_a_hang(self, tmp_path):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        taken = blocker.getsockname()[1]
        try:
            free = localhost_spec(3)
            nodes = list(free.nodes)
            nodes[1] = NodeSpec(name=nodes[1].name, host="127.0.0.1", port=taken)
            spec = ClusterSpec(nodes=tuple(nodes), f=0)
            cluster = Cluster(spec, state_dir=tmp_path / "state")
            started = time.monotonic()
            with pytest.raises(ClusterError, match="cannot listen|exited"):
                cluster.start(wait_ready=True, timeout=30)
            # Loud and fast: detected via child death, far before the deadline.
            assert time.monotonic() - started < 20
            # The survivors were torn down, nothing keeps running.
            assert all(status is None for status in probe_cluster_sync(spec, timeout=0.5).values())
        finally:
            blocker.close()

    def test_torn_handshake_drops_connection_but_node_keeps_serving(self, tmp_path):
        spec, cluster = make_cluster(tmp_path, n=1)
        with cluster:
            cluster.start(wait_ready=True, timeout=30)
            node = spec.nodes[0]
            # A length prefix followed by garbage: the codec must refuse it.
            with socket.create_connection((node.host, node.port), timeout=5) as sock:
                sock.sendall(b"\x00\x00\x00\x04junk")
            # And an absurd length prefix on a second connection.
            with socket.create_connection((node.host, node.port), timeout=5) as sock:
                sock.sendall(b"\xff\xff\xff\xff")
            deadline = time.monotonic() + 10
            status = None
            while time.monotonic() < deadline and status is None:
                status = probe_cluster_sync(spec, timeout=1.0)[node.name]
            assert status is not None and status["ready"], "node died after torn handshake"
            assert cluster.stop() == 0


class TestGracefulShutdown:
    def test_sigterm_mid_traffic_leaves_a_clean_audit_window(self, tmp_path):
        """SIGTERM during in-flight decisions: the completed prefix audits clean."""
        spec, cluster = make_cluster(tmp_path, n=3)
        with cluster:
            cluster.start(wait_ready=True, timeout=30)
            box = {}
            interrupted = threading.Event()

            def traffic():
                async def run():
                    async with ServiceClient(spec, clients=2) as service:
                        box["service"] = service
                        service.submit(counter_workload(2, 80))
                        deadline = time.monotonic() + 30
                        while time.monotonic() < deadline and not interrupted.is_set():
                            if await service.wait_all(0.2):
                                break

                asyncio.run(run())

            thread = threading.Thread(target=traffic)
            thread.start()
            try:
                # Let real work get in flight before pulling the plug.
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    service = box.get("service")
                    if service is not None and service.completed_count >= 4:
                        break
                    time.sleep(0.02)
                assert box["service"].completed_count >= 4, "no operations completed before SIGTERM"
                assert cluster.stop() == 0  # SIGTERM + drain, mid-decision
            finally:
                interrupted.set()
                thread.join(timeout=30)
            assert not thread.is_alive()
            service = box["service"]
            audit = service.audit(require_liveness=False)
            assert audit.ok, f"truncated window violated safety: {audit}"
            assert service.completed_count >= 4

    def test_kill_and_restart_node_with_f1(self, tmp_path):
        """With f=1, traffic survives one crashed node; a restart rejoins."""
        spec, cluster = make_cluster(tmp_path, n=4)
        assert spec.f == 1
        with cluster:
            cluster.start(wait_ready=True, timeout=30)
            cluster.kill_node("n3")
            report = asyncio.run(run_service_traffic(spec, commands=6, clients=1, timeout=30))
            assert report.ok, report.summary()
            cluster.restart_node("n3", wait_ready=True, timeout=30)
            status = probe_cluster_sync(spec)["n3"]
            assert status is not None and status["ready"]
            # The restarted incarnation drains cleanly; the killed process's
            # non-zero exit died with it when restart_node replaced it.
            assert cluster.stop() == 0

    def test_killed_contacted_replica_is_not_waited_on_again(self, tmp_path):
        """Killing n0, which a client contacts first, costs a retry, not one per op."""
        spec, cluster = make_cluster(tmp_path, n=4)
        with cluster:  # reaps the survivors (and the killed n0) on exit
            cluster.start(wait_ready=True, timeout=30)
            cluster.kill_node("n0")
            report = asyncio.run(run_service_traffic(spec, commands=6, clients=1, timeout=30))
            assert report.ok, report.summary()
            # The first timeout demotes n0; later operations go to live
            # replicas instead of each waiting out the retry timer.
            assert report.retries < 6, report.summary()
