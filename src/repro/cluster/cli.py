"""``python -m repro cluster`` — deploy the RSM as real OS processes.

Subcommands::

    repro cluster up --nodes 3             # spawn node processes, stay foreground
    repro cluster node --spec S --name n0  # one node process (what `up` spawns)
    repro cluster status [--wait-ready]    # probe every node over its socket
    repro cluster client --commands 50     # real CRDT traffic + sampled audit
    repro cluster down                     # SIGTERM the cluster found in --state

``up`` stays in the foreground supervising its children; SIGTERM (or
Ctrl-C) triggers the cluster-wide graceful drain and ``up`` exits 0 iff
every node drained cleanly.  All subcommands rendezvous through the state
directory (``--state``, default ``.repro-cluster``), so ``status``,
``client`` and ``down`` work from any other terminal.  See
``docs/operations.md`` for the full operator's manual.

This module keeps its imports light (argparse only) so registering the
subcommands costs the orchestrator CLI nothing; the cluster machinery
loads lazily inside the command functions, mirroring ``repro explore``.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time


def add_cluster_parser(subparsers) -> None:
    """Register the ``cluster`` subcommand tree on the main CLI parser."""
    parser = subparsers.add_parser(
        "cluster", help="run the RSM as real OS processes serving TCP clients"
    )
    cluster_sub = parser.add_subparsers(dest="cluster_command", required=True)

    up = cluster_sub.add_parser("up", help="bring up an n-node cluster and supervise it")
    up.add_argument("--nodes", type=int, default=3, help="number of replicas (default: 3)")
    up.add_argument("--f", type=int, default=None,
                    help="resilience threshold (default: floor((n-1)/3))")
    up.add_argument("--base-port", type=int, default=0,
                    help="first port of a consecutive range (default 0: free ports from the OS)")
    up.add_argument("--framing", choices=["json", "binary"], default="json",
                    help="wire framing every cluster socket speaks (default: json)")
    up.add_argument("--spec", default=None, metavar="PATH",
                    help="load a ClusterSpec JSON instead of --nodes/--f/--base-port")
    up.add_argument("--state", default=".repro-cluster", metavar="DIR",
                    help="state directory shared with status/client/down (default: .repro-cluster)")
    up.add_argument("--timeout", type=float, default=20.0,
                    help="readiness deadline in seconds (default: 20)")

    node = cluster_sub.add_parser("node", help="run one node process (spawned by `up`)")
    node.add_argument("--spec", required=True, metavar="PATH", help="ClusterSpec JSON path")
    node.add_argument("--name", required=True, help="which spec node this process is")

    status = cluster_sub.add_parser("status", help="probe every node and print a table")
    status.add_argument("--state", default=".repro-cluster", metavar="DIR",
                        help="state directory of the target cluster")
    status.add_argument("--wait-ready", action="store_true",
                        help="poll until every node reports ready (or --timeout)")
    status.add_argument("--timeout", type=float, default=30.0,
                        help="deadline for --wait-ready in seconds (default: 30)")

    client = cluster_sub.add_parser(
        "client", help="issue CRDT update/read commands over sockets and audit the window"
    )
    client.add_argument("--state", default=".repro-cluster", metavar="DIR",
                        help="state directory of the target cluster")
    client.add_argument("--commands", type=int, default=20,
                        help="total operations across all virtual clients (default: 20)")
    client.add_argument("--clients", type=int, default=2,
                        help="number of concurrent virtual clients (default: 2)")
    client.add_argument("--timeout", type=float, default=60.0,
                        help="completion deadline in seconds (default: 60)")
    client.add_argument("--no-audit", action="store_true",
                        help="skip the sampled linearizability audit")
    client.add_argument("--allow-partial", action="store_true",
                        help="exit 0 even if some operations timed out "
                             "(the completed window must still audit clean)")

    down = cluster_sub.add_parser("down", help="SIGTERM the cluster found in --state")
    down.add_argument("--state", default=".repro-cluster", metavar="DIR",
                      help="state directory of the target cluster")
    down.add_argument("--timeout", type=float, default=10.0,
                      help="seconds to wait for nodes to drain (default: 10)")


def run_cluster_command(args: argparse.Namespace) -> int:
    """Dispatch one parsed ``repro cluster ...`` invocation."""
    command = {
        "up": _cmd_up,
        "node": _cmd_node,
        "status": _cmd_status,
        "client": _cmd_client,
        "down": _cmd_down,
    }[args.cluster_command]
    from repro.cluster.spec import ClusterError

    try:
        return command(args)
    except ClusterError as failure:
        print(f"cluster: {failure}", file=sys.stderr)
        return 1


# -- command implementations ----------------------------------------------------------


def _load_spec(args: argparse.Namespace):
    from repro.cluster.spec import ClusterSpec, localhost_spec

    if args.spec:
        return ClusterSpec.load(args.spec)
    return localhost_spec(args.nodes, f=args.f, base_port=args.base_port, framing=args.framing)


def _status_rows(rows) -> str:
    from repro.metrics.report import format_table

    table_rows = []
    for row in rows:
        table_rows.append((
            row["node"],
            row["endpoint"],
            row.get("pid", "-") if row["reachable"] else "-",
            "yes" if row.get("ready") else "no",
            row.get("state", "-") if row["reachable"] else "down",
            row.get("decisions", "-") if row["reachable"] else "-",
            row.get("clients", "-") if row["reachable"] else "-",
        ))
    return format_table(
        ["node", "endpoint", "pid", "ready", "state", "decisions", "clients"], table_rows
    )


def _cmd_up(args: argparse.Namespace) -> int:
    from repro.cluster.supervisor import Cluster

    spec = _load_spec(args)
    cluster = Cluster(spec, state_dir=args.state)
    stopping = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stopping.append(True))
    cluster.start(wait_ready=True, timeout=args.timeout)
    print(_status_rows(cluster.status()))
    print(f"\ncluster up ({spec.n} nodes, f={spec.f}, framing={spec.framing}); "
          f"state in {args.state}")
    print("stop with SIGTERM/Ctrl-C, or `python -m repro cluster down "
          f"--state {args.state}` from another terminal", flush=True)
    reported_dead: set[str] = set()
    while True:
        time.sleep(0.2)
        # A process-group SIGTERM reaches the nodes too; they drain within
        # this sleep, so check the flag before reading their exits as deaths.
        if stopping:
            break
        for name, proc in cluster.procs.items():
            if proc.poll() is not None and name not in reported_dead:
                reported_dead.add(name)
                print(f"cluster: node {name} exited with code {proc.returncode} "
                      "(status will show it down; SIGTERM to stop the rest)",
                      file=sys.stderr, flush=True)
    code = cluster.stop()
    print(f"cluster stopped ({'clean' if code == 0 else 'with errors'})", flush=True)
    return code


def _cmd_node(args: argparse.Namespace) -> int:
    from repro.cluster.node import run_node
    from repro.cluster.spec import ClusterSpec

    return run_node(ClusterSpec.load(args.spec), args.name)


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.cluster.client import probe_cluster_sync
    from repro.cluster.spec import ClusterError
    from repro.cluster.supervisor import load_state

    deadline = time.monotonic() + args.timeout
    while True:
        # With --wait-ready the supervisor may still be writing state.json;
        # keep retrying until the rendezvous file appears or time runs out.
        try:
            spec, state = load_state(args.state)
            break
        except ClusterError:
            if not args.wait_ready or time.monotonic() >= deadline:
                raise
            time.sleep(0.1)
    while True:
        probes = probe_cluster_sync(spec)
        ready = all(status is not None and status.get("ready") for status in probes.values())
        if ready or not args.wait_ready or time.monotonic() >= deadline:
            break
        time.sleep(0.1)
    rows = []
    for node in spec.nodes:
        probe = probes[node.name]
        row = {"node": node.name, "endpoint": node.endpoint, "reachable": probe is not None}
        if probe:
            row.update(
                pid=probe.get("pid"),
                ready=probe.get("ready"),
                state=probe.get("state"),
                decisions=probe.get("decisions"),
                clients=len(probe.get("clients") or ()),
            )
        rows.append(row)
    print(_status_rows(rows))
    distinct_pids = {row.get("pid") for row in rows if row["reachable"]}
    print(f"\n{sum(row['reachable'] for row in rows)}/{len(rows)} nodes reachable, "
          f"{len(distinct_pids)} distinct OS pid(s); supervisor pid {state.get('supervisor_pid')}")
    return 0 if ready else 1


def _cmd_client(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster.client import run_service_traffic
    from repro.cluster.supervisor import load_state

    spec, _state = load_state(args.state)
    report = asyncio.run(
        run_service_traffic(
            spec,
            commands=args.commands,
            clients=args.clients,
            timeout=args.timeout,
            audit=not args.no_audit,
        )
    )
    print(report.summary())
    if report.audit is not None and not report.audit.ok:
        return 1
    if not report.all_completed and not args.allow_partial:
        print(f"cluster client: only {report.completed}/{report.submitted} operations "
              f"completed within {args.timeout:.0f}s", file=sys.stderr)
        return 1
    return 0


def _cmd_down(args: argparse.Namespace) -> int:
    import os

    from repro.cluster.client import probe_cluster_sync
    from repro.cluster.supervisor import load_state

    spec, state = load_state(args.state)
    supervisor_pid = state.get("supervisor_pid")
    pids = [supervisor_pid] if _pid_alive(supervisor_pid) else list(state.get("nodes", {}).values())
    for pid in pids:
        if _pid_alive(pid):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        probes = probe_cluster_sync(spec, timeout=0.5)
        if all(status is None for status in probes.values()):
            print("cluster down")
            return 0
        time.sleep(0.1)
    remaining = [name for name, status in probe_cluster_sync(spec, timeout=0.5).items() if status]
    print(f"cluster down: nodes still reachable after {args.timeout:.0f}s: "
          f"{', '.join(remaining)}", file=sys.stderr)
    return 1


def _pid_alive(pid) -> bool:
    import os

    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except (OSError, ProcessLookupError):
        return False
    return True
