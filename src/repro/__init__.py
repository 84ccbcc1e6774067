"""repro — a reproduction of *Byzantine Generalized Lattice Agreement*.

Di Luna, Anceaume, Querzoni (2019/2020): Byzantine-tolerant Lattice
Agreement (WTS), Generalized Lattice Agreement (GWTS), their signature-based
variants (SbS / GSbS), and a wait-free linearizable Replicated State Machine
for commutative updates built on top — all running over a deterministic
asynchronous message-passing simulator with pluggable Byzantine behaviours.

Quickstart
----------

>>> from repro import build_scenario
>>> scenario = build_scenario("wts", 4, 1, seed=42).run()
>>> scenario.check_la().ok
True

See ``examples/`` for richer scenarios (a Byzantine-tolerant replicated
counter, attack resilience, signature vs plain message complexity) and
``benchmarks/`` for the experiment harness regenerating every quantitative
claim of the paper (``python -m repro list`` maps each to its experiment id).

Package layout
--------------

============================  ====================================================
``repro.lattice``             join semilattices (sets, counters, maps, clocks)
``repro.sim``                 simulation policy: fault plans (crashes,
                              partitions, injections) and the string axes
``repro.engine``              sans-I/O protocol cores, delay models + backends
                              (one simulated-time loop: turbo, and kernel =
                              turbo + delivery log; asyncio)
``repro.crypto``              simulated PKI (Section 8's signatures)
``repro.broadcast``           Byzantine reliable broadcast (Bracha)
``repro.core``                WTS, GWTS, SbS, GSbS + problem specifications
``repro.byzantine``           adversarial behaviours
``repro.rsm``                 replicated state machine + CRDT objects + checker
``repro.baselines``           crash-fault LA/GLA, restrictive-spec comparison
``repro.metrics``             message/latency accounting and report helpers
``repro.harness``             the scenario path and experiments E1–E13
``repro.orchestrator``        parallel sweep runner, JSON result artifacts and
                              the ``python -m repro`` CLI
``repro.cluster``             service mode: the RSM as real OS processes over
                              TCP (``python -m repro cluster up``)
============================  ====================================================
"""

from repro.core import (
    AgreementProcess,
    GLASpecification,
    GSbSProcess,
    GWTSProcess,
    LASpecification,
    SbSProcess,
    WTSProcess,
    byzantine_quorum,
    check_gla_run,
    check_la_run,
    max_faults,
    required_processes,
)
from repro.engine import FixedDelay, KernelEngine, ProtocolCore, TurboEngine, UniformDelay, create_engine
from repro.harness import ScenarioResult, build_scenario
from repro.lattice import (
    GCounterLattice,
    JoinSemilattice,
    MapLattice,
    MaxIntLattice,
    ProductLattice,
    SetLattice,
    VectorClockLattice,
)
from repro.rsm import (
    GCounterObject,
    GSetObject,
    LWWRegisterObject,
    ORSetObject,
    PNCounterObject,
    Replica,
    RSMClient,
    check_rsm_history,
)
from repro.sim import FaultPlan

_CLUSTER_EXPORTS = {
    "ClusterSpec": "repro.cluster.spec",
    "NodeSpec": "repro.cluster.spec",
    "ClusterError": "repro.cluster.spec",
    "localhost_spec": "repro.cluster.spec",
    "Cluster": "repro.cluster.supervisor",
    "ServiceClient": "repro.cluster.client",
    "run_service_traffic": "repro.cluster.client",
}


def __getattr__(name):
    # Cluster service mode pulls in asyncio/subprocess machinery; resolve it
    # lazily so `import repro` stays cheap for pure-simulation users.
    if name in _CLUSTER_EXPORTS:
        import importlib

        return getattr(importlib.import_module(_CLUSTER_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core algorithms and specs
    "AgreementProcess",
    "WTSProcess",
    "GWTSProcess",
    "SbSProcess",
    "GSbSProcess",
    "LASpecification",
    "GLASpecification",
    "check_la_run",
    "check_gla_run",
    "byzantine_quorum",
    "max_faults",
    "required_processes",
    # lattices
    "JoinSemilattice",
    "SetLattice",
    "GCounterLattice",
    "MaxIntLattice",
    "MapLattice",
    "VectorClockLattice",
    "ProductLattice",
    # engine & simulation policy
    "ProtocolCore",
    "KernelEngine",
    "TurboEngine",
    "create_engine",
    "FixedDelay",
    "UniformDelay",
    "FaultPlan",
    # RSM
    "Replica",
    "RSMClient",
    "check_rsm_history",
    "GSetObject",
    "GCounterObject",
    "PNCounterObject",
    "LWWRegisterObject",
    "ORSetObject",
    # harness
    "build_scenario",
    "ScenarioResult",
    # cluster service mode (lazy — see __getattr__)
    "ClusterSpec",
    "NodeSpec",
    "ClusterError",
    "localhost_spec",
    "Cluster",
    "ServiceClient",
    "run_service_traffic",
]
