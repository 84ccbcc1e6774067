"""Per-table/figure experiment runners E1–E13.

E1–E10 regenerate the paper's quantitative claims; E11 (ablations), E12
(partition/crash churn) and E13 (sharded + batched scaling) are extensions.
Each function runs the relevant simulated scenarios and returns a dictionary
with a uniform shape the orchestrator (:mod:`repro.orchestrator`) persists:

* ``expected`` — the paper's analytical claim, for side-by-side reading;
* ``ok`` — the experiment's verdict: did the run match the claim;
* ``headline`` — the numeric metrics worth tracking across runs;
* ``latency`` — simulated-time latency metrics; deterministic given the
  seeds, so baseline comparison can flag regressions without wall-clock
  noise;
* ``headers``/``rows`` — the structured data of the report table;
* ``table`` — the text rendering of ``headers``/``rows`` (presentation
  only; everything the table shows is also available as data).

Every runner is a body ``(sweep, **params)`` registered through
:func:`experiment`: the decorator gives it the four axes all experiments
share (``scheduler``, ``fault_plan``, ``backend``, ``quick``), hands the body
a :class:`_Sweep` that threads them into every scenario it builds, and
records the experiment in :data:`EXPERIMENTS` — the single list both
:data:`ALL_EXPERIMENTS` and the orchestrator's spec table are generated from.
``quick=True`` shrinks sweep ranges; the benchmark harness and the CI sweep
use the quick settings so a full run stays in the minutes range, while the
defaults give smoother curves.
"""

from __future__ import annotations

import functools
import inspect
from collections.abc import Callable, Hashable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.baselines.restricted_spec import (
    check_restricted_la_run,
    power_set_breadth,
    restricted_spec_feasible,
)
from repro.byzantine.behaviors import (
    AlwaysAckAcceptor,
    EquivocatingProposer,
    FastForwardGWTS,
    FlipFloppingAcceptor,
    NackSpamAcceptor,
    SilentByzantine,
    ValueInjectorProposer,
)
from repro.core.quorum import max_faults, required_processes
from repro.engine.backends import backend_is_wall_clock
from repro.engine.delays import FixedDelay, SkewedPairDelay, UniformDelay
from repro.explore.invariants import la_invariants
from repro.harness.workloads import ScenarioResult, build_scenario, member_pids
from repro.lattice.chain import all_comparable, hasse_diagram_text, sort_chain
from repro.lattice.set_lattice import SetLattice
from repro.metrics.report import fit_polynomial_order, format_table
from repro.rsm.checker import check_rsm_history, collect_admissible_commands
from repro.rsm.crdt import GCounterObject, GSetObject
from repro.sim.axes import parse_fault_plan, parse_scheduler
from repro.sim.faults import FaultPlan

#: Reason recorded when a delay-model bound check is skipped.  The paper's
#: latency bounds count *message delays* (simulated-time units with a unit
#: delay model); a wall-clock backend reports real elapsed seconds, so the
#: numeric bound is meaningless there.  Safety/agreement properties are
#: schedule-independent and are still judged.
_WALL_CLOCK_SKIP = "delay-model bound skipped: backend reports wall-clock seconds, not message delays"


def wall_latency_of(*scenarios) -> dict[str, float] | None:
    """Pool the wall-clock decision-latency summaries of *scenarios*.

    Deterministic backends leave ``RunResult.decision_latency`` as ``None``
    (their clock is simulated, and E3/E5-style bounds already count message
    delays exactly), so this returns ``None`` for them and the outcome's
    ``wall_latency`` field stays empty.  A single wall-clock run contributes
    its summary verbatim.  Multiple runs are pooled conservatively: exact
    percentiles cannot be merged without the raw samples, so the pooled
    ``p50/p95/p99/max`` are the *worst* of the per-run values (an upper
    bound on the true pooled percentile) and ``count`` sums the samples.
    """
    summaries = [
        scenario.run.decision_latency
        for scenario in scenarios
        if scenario is not None and scenario.run.decision_latency
    ]
    if not summaries:
        return None
    if len(summaries) == 1:
        return dict(summaries[0])
    return {
        "count": float(sum(s["count"] for s in summaries)),
        "p50": max(s["p50"] for s in summaries),
        "p95": max(s["p95"] for s in summaries),
        "p99": max(s["p99"] for s in summaries),
        "max": max(s["max"] for s in summaries),
    }


# ---------------------------------------------------------------------------
# The shared skeleton: axes in, scenarios run, one outcome out
# ---------------------------------------------------------------------------


class _Sweep:
    """One experiment run: the shared axes, the scenarios run under them, the outcome.

    :meth:`run` is the scenario path (registry -> build -> run) with this
    experiment's ``scheduler``/``fault_plan``/``backend`` filled in;
    :meth:`outcome` is the one place the uniform outcome dictionary is built.
    """

    def __init__(self, experiment_id: str, scheduler: str, fault_plan: str, backend: str, quick: bool):
        self.experiment_id = experiment_id
        self.axes = {"scheduler": scheduler, "fault_plan": fault_plan, "backend": backend}
        self.quick = quick
        self.wall_clock = backend_is_wall_clock(backend)
        #: Every scenario run so far, for the pooled ``wall_latency``.
        self.measured: list[ScenarioResult] = []

    def run(self, protocol: str, n: int, f: int, **kwargs: Any) -> ScenarioResult:
        """Build and run one scenario under this experiment's axes (``kwargs`` win)."""
        scenario = build_scenario(protocol, n, f, **{**self.axes, **kwargs}).run()
        self.measured.append(scenario)
        return scenario

    def outcome(
        self,
        *,
        expected: str,
        headers: Sequence[str],
        rows: Sequence[Sequence[Any]],
        title: str,
        ok: Any,
        headline: dict[str, float],
        latency: dict[str, float] | None = None,
        more_tables: Mapping[str, tuple[Sequence[str], Sequence[Sequence[Any]], str]] | None = None,
        time_bound: bool = False,
        **data: Any,
    ) -> dict[str, Any]:
        """The uniform outcome dictionary.

        ``more_tables`` maps a key prefix to further ``(headers, rows,
        title)`` tables: each is appended to ``table`` and exposed as
        ``<prefix>_headers``/``<prefix>_rows``.  ``time_bound`` marks an
        experiment whose verdict includes a simulated-time check (a
        message-delay bound, a timing order, a throughput ratio), which a
        wall-clock backend skips (recorded in ``skipped_checks``).
        """
        tables = [format_table(headers, rows, title=title)]
        for prefix, (more_headers, more_rows, more_title) in (more_tables or {}).items():
            data[f"{prefix}_headers"], data[f"{prefix}_rows"] = more_headers, more_rows
            tables.append(format_table(more_headers, more_rows, title=more_title))
        if time_bound:
            data["skipped_checks"] = [_WALL_CLOCK_SKIP] if self.wall_clock else []
        return {
            "experiment": self.experiment_id,
            "expected": expected,
            "headers": headers,
            "rows": rows,
            "table": "\n\n".join(tables),
            "ok": bool(ok),
            "headline": headline,
            "wall_latency": wall_latency_of(*self.measured),
            "latency": latency or {},
            **data,
        }


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: what the CLI lists and the orchestrator runs."""

    id: str
    title: str
    runner: Callable[..., dict[str, Any]]
    #: Parameter name -> help text (kinds and defaults come from the signature).
    param_help: Mapping[str, str]


#: Every experiment, in registration (= report) order.
EXPERIMENTS: list[Experiment] = []


def experiment(experiment_id: str, title: str, backend: str = "kernel", **param_help: str):
    """Register a runner body ``(sweep, **params)`` as one experiment.

    The public runner accepts the body's own parameters plus the shared
    ``scheduler``/``fault_plan``/``backend``/``quick`` axes (``backend``
    defaulting as given here) and advertises exactly that signature.
    """

    def register(body: Callable[..., dict[str, Any]]) -> Callable[..., dict[str, Any]]:
        @functools.wraps(body)
        def runner(
            *args: Any,
            scheduler: str = "",
            fault_plan: str = "",
            backend: str = backend,
            quick: bool = False,
            **params: Any,
        ) -> dict[str, Any]:
            sweep = _Sweep(experiment_id, scheduler, fault_plan, backend, quick)
            return body(sweep, *args, **params)

        own = list(inspect.signature(body).parameters.values())[1:]
        axes = inspect.signature(runner, follow_wrapped=False).parameters.values()
        runner.__signature__ = inspect.Signature(own + [axis for axis in axes if axis.kind is axis.KEYWORD_ONLY])
        EXPERIMENTS.append(Experiment(experiment_id, title, runner, param_help))
        return runner

    return register


_SIZES_HELP = "comma-separated cluster sizes for the sweep, e.g. 4,7,10"


def _silent(pid, lattice, members, f):
    return SilentByzantine(pid)


def _decided(scenario: ScenarioResult) -> int:
    """How many correct processes decided at least once."""
    return sum(1 for decs in scenario.decisions().values() if decs)


def _last_decision(scenario: ScenarioResult) -> float:
    return max((record.time for record in scenario.metrics.decisions), default=0.0)


def _msgs_per_process(scenario: ScenarioResult) -> float:
    return scenario.metrics.mean_messages_per_process(scenario.correct_pids)


def _render(value: Any) -> str:
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(map(str, value))) + "}"
    return repr(value)


# ---------------------------------------------------------------------------
# E1 — Figure 1: decisions form a chain in the power-set lattice
# ---------------------------------------------------------------------------


@experiment("E1", "decisions form a chain in the power-set lattice (Figure 1)", n="cluster size", f="failure threshold")
def run_chain_experiment(sweep: _Sweep, n: int = 4, f: int = 1, seed: int = 11) -> dict[str, Any]:
    """Reproduce Figure 1: the decisions of a WTS run form a chain."""
    scenario = sweep.run("wts", n, f, seed=seed)
    lattice = scenario.lattice
    decisions = [decs[0] for decs in scenario.decisions().values() if decs]
    is_chain = all_comparable(lattice, decisions)
    chain = sort_chain(lattice, decisions) if is_chain else []
    elements = list(dict.fromkeys(list(scenario.proposals().values()) + decisions))
    check = scenario.check_la()
    return sweep.outcome(
        expected="all decisions pairwise comparable (a chain in the Figure 1 lattice)",
        headers=["process", "decision"],
        rows=[(pid, _render(decs[0]) if decs else "-") for pid, decs in sorted(scenario.decisions().items())],
        title="E1: decisions per process",
        ok=is_chain and check.ok,
        headline={"decided": float(len(decisions))},
        decisions=decisions,
        chain=chain,
        is_chain=is_chain,
        hasse=hasse_diagram_text(lattice, elements, highlight_chain=chain),
        check=check,
    )


# ---------------------------------------------------------------------------
# E2 — Theorem 1: necessity of 3f + 1 processes
# ---------------------------------------------------------------------------


def _split_brain(n: int, f: int, slow_delay: float) -> SkewedPairDelay:
    """The Theorem 1 schedule: slow links between the two halves of the correct processes."""
    correct = member_pids(n)[: n - f]
    half = max(1, len(correct) // 2)
    slow_pairs = [(a, b) for a in correct[:half] for b in correct[half:]]
    return SkewedPairDelay(slow_pairs, base=FixedDelay(1.0), slow_delay=slow_delay)


@experiment("E2", "necessity of 3f+1 processes (Theorem 1)", f="failure threshold")
def run_resilience_experiment(sweep: _Sweep, f: int = 1, seed: int = 7) -> dict[str, Any]:
    """Theorem 1: with ``n = 3f`` no algorithm is both safe and live.

    Three configurations make the impossibility concrete:

    1. **WTS at n = 3f with f silent Byzantines** — the Byzantine ack quorum
       ``floor((n+f)/2)+1 = 2f+1`` exceeds the ``2f`` correct processes, so
       WTS (which never compromises safety) loses liveness: nobody decides.
    2. **Majority-quorum LA at n = 3f with the Theorem 1 schedule** — the
       crash baseline (quorum ``floor(n/2)+1 <= 2f``) stays live, but the
       always-acking Byzantine plus delayed links between the two correct
       halves lets both halves commit incomparable values: safety is lost.
    3. **WTS at n = 3f + 1 with the same adversary and schedule** — both
       safety and liveness hold.
    """
    small, big = 3 * f, 3 * f + 1
    # (label, protocol, n, whether the LA check demands liveness, scenario kwargs)
    configs = [
        (
            f"WTS, n={small} (=3f), silent Byzantines",
            "wts",
            small,
            False,
            dict(
                byzantine_factories=[_silent] * f,
                delay_model=FixedDelay(1.0),
                max_messages=20_000,
                run_to_quiescence=True,
            ),
        ),
        (
            f"majority-quorum LA, n={small} (=3f), always-ack Byzantine + partition",
            "crash-la",
            small,
            False,
            dict(
                byzantine_factories=[AlwaysAckAcceptor] * f,
                delay_model=_split_brain(small, f, slow_delay=10_000.0),
                max_messages=20_000,
            ),
        ),
        (
            f"WTS, n={big} (=3f+1), same adversary",
            "wts",
            big,
            True,
            dict(
                byzantine_factories=[AlwaysAckAcceptor] * f,
                delay_model=_split_brain(big, f, slow_delay=50.0),
                max_messages=60_000,
            ),
        ),
    ]
    lattice = SetLattice()
    outcomes: list[dict[str, Any]] = []
    for label, protocol, n, require_liveness, kwargs in configs:
        scenario = sweep.run(protocol, n, f, seed=seed, lattice=lattice, **kwargs)
        decided = _decided(scenario)
        outcomes.append(
            {
                "config": label,
                "n": n,
                "live": decided == len(scenario.correct_pids),
                "decided": decided,
                "correct": len(scenario.correct_pids),
                "safety_ok": scenario.check_la(require_liveness=require_liveness).ok,
            }
        )
    wts_small, crash_small, wts_big = outcomes
    return sweep.outcome(
        expected="n=3f: liveness lost (Byzantine quorum) or safety lost (majority quorum); n=3f+1: both hold",
        headers=["configuration", "decided", "liveness", "safety"],
        rows=[
            (
                o["config"],
                f"{o['decided']}/{o['correct']}",
                "live" if o["live"] else "BLOCKED",
                "OK" if o["safety_ok"] else "VIOLATED",
            )
            for o in outcomes
        ],
        title="E2: necessity of 3f+1 processes (Theorem 1)",
        ok=(
            wts_small["safety_ok"]
            and not wts_small["live"]
            and crash_small["live"]
            and not crash_small["safety_ok"]
            and wts_big["safety_ok"]
            and wts_big["live"]
        ),
        headline={
            "decided_wts_3f": float(wts_small["decided"]),
            "decided_crash_3f": float(crash_small["decided"]),
            "decided_wts_3f1": float(wts_big["decided"]),
        },
        outcomes=outcomes,
    )


# ---------------------------------------------------------------------------
# E3 — Theorem 3: WTS decides within 2f + 5 message delays
# ---------------------------------------------------------------------------


@experiment("E3", "WTS decides within 2f+5 message delays (Theorem 3)", max_f="largest failure threshold swept")
def run_wts_latency_experiment(sweep: _Sweep, max_f: int = 3, seed: int = 3) -> dict[str, Any]:
    """Measure WTS decision latency (in message delays) as f grows.

    Run with a fixed unit delay so simulated time counts message delays
    exactly; the Byzantine population mixes silent and flip-flopping
    acceptors to exercise the nack/refinement path.
    """
    top = 2 if sweep.quick else max_f
    rows: list[Sequence[Any]] = []
    series: dict[int, float] = {}
    checks = []
    for f in range(0, top + 1):
        n = required_processes(f)
        byz = [FlipFloppingAcceptor if index % 2 == 0 else _silent for index in range(f)]
        scenario = sweep.run("wts", n, f, seed=seed + f, byzantine_factories=byz, delay_model=FixedDelay(1.0))
        checks.append(scenario.check_la())
        series[f] = latest = _last_decision(scenario)
        bound = 2 * f + 5
        if sweep.wall_clock:
            verdict = "skipped (wall-clock)"
        else:
            verdict = "OK" if latest <= bound else "EXCEEDED"
        rows.append((f, n, f"{latest:.0f}", bound, verdict))
    if sweep.wall_clock:
        # The bound counts message delays; wall-clock seconds cannot be
        # compared against it.  The LA properties still judge the runs.
        ok = all(check.ok for check in checks)
    else:
        ok = all(measured <= 2 * f + 5 for f, measured in series.items())
    return sweep.outcome(
        expected="decision within 2f + 5 message delays",
        headers=["f", "n", "measured delays", "bound 2f+5", "within bound"],
        rows=rows,
        title="E3: WTS decision latency",
        ok=ok,
        headline={"f_max": float(top)},
        latency={"max_message_delays": max(series.values(), default=0.0)},
        time_bound=True,
        series=series,
    )


# ---------------------------------------------------------------------------
# E4 — Section 5.1.3: WTS message complexity O(n^2) per process
# ---------------------------------------------------------------------------


@experiment("E4", "WTS message complexity O(n^2) per process (Section 5.1.3)", sizes=_SIZES_HELP)
def run_wts_messages_experiment(sweep: _Sweep, sizes: Sequence[int] | None = None, seed: int = 5) -> dict[str, Any]:
    """Measure WTS per-process message counts over a sweep of n."""
    if sizes is None:
        sizes = (4, 7, 10, 13) if sweep.quick else (4, 7, 10, 13, 16, 19)
    series: dict[int, float] = {}
    rows: list[Sequence[Any]] = []
    for n in sizes:
        f = max_faults(n)
        scenario = sweep.run("wts", n, f, seed=seed + n, delay_model=FixedDelay(1.0))
        series[n] = per_process = _msgs_per_process(scenario)
        rows.append((n, f, f"{per_process:.1f}", f"{per_process / (n * n):.2f}"))
    order = fit_polynomial_order(list(series.keys()), list(series.values()))
    return sweep.outcome(
        expected="messages per process grow quadratically in n (reliable broadcast dominates)",
        headers=["n", "f", "msgs/process", "msgs / n^2"],
        rows=rows,
        title=f"E4: WTS message complexity (log-log slope ~ {order:.2f})",
        ok=1.5 <= order <= 3.0,
        headline={"fit_order": order, "max_msgs_per_process": max(series.values(), default=0.0)},
        series=series,
        fit_order=order,
    )


# ---------------------------------------------------------------------------
# E5 — Theorem 8 / Section 8.1: SbS latency 5 + 4f and O(n) messages
# ---------------------------------------------------------------------------


@experiment("E5", "SbS latency 5+4f and O(n) messages (Theorem 8)", sizes=_SIZES_HELP)
def run_sbs_experiment(sweep: _Sweep, sizes: Sequence[int] | None = None, seed: int = 9) -> dict[str, Any]:
    """SbS: latency bound 5 + 4f and per-process message counts linear in n (f fixed)."""
    if sizes is None:
        sizes = (4, 7, 10, 13) if sweep.quick else (4, 7, 10, 13, 16, 19)
    f_fixed = 1
    series_msgs: dict[int, float] = {}
    rows: list[Sequence[Any]] = []
    for n in sizes:
        scenario = sweep.run("sbs", n, f_fixed, seed=seed + n, delay_model=FixedDelay(1.0))
        series_msgs[n] = per_process = _msgs_per_process(scenario)
        rows.append(
            (
                n,
                f_fixed,
                f"{per_process:.1f}",
                f"{per_process / n:.2f}",
                f"{_last_decision(scenario):.0f}",
                5 + 4 * f_fixed,
            )
        )
    order = fit_polynomial_order(list(series_msgs.keys()), list(series_msgs.values()))
    # Latency sweep over f at n = 3f + 1.
    latency_rows: list[Sequence[Any]] = []
    latency_series: dict[int, float] = {}
    for f in range(0, 2 if sweep.quick else 3):
        n = required_processes(f)
        scenario = sweep.run("sbs", n, f, seed=seed + 100 + f, delay_model=FixedDelay(1.0))
        latency_series[f] = latest = _last_decision(scenario)
        latency_rows.append((f, n, f"{latest:.0f}", 5 + 4 * f))
    # Message complexity is schedule-reproducible on every backend; the
    # latency bound counts message delays and is skipped on wall-clock time.
    latency_ok = sweep.wall_clock or all(latest <= 5 + 4 * f for f, latest in latency_series.items())
    return sweep.outcome(
        expected="messages per process linear in n for f=O(1); latency <= 5 + 4f",
        headers=["n", "f", "msgs/process", "msgs / n", "delays", "bound 5+4f"],
        rows=rows,
        title=f"E5: SbS message complexity (log-log slope ~ {order:.2f})",
        more_tables={"latency": (["f", "n", "delays", "bound 5+4f"], latency_rows, "E5b: SbS latency vs f")},
        ok=0.7 <= order <= 1.5 and latency_ok,
        headline={"fit_order": order, "max_msgs_per_process": max(series_msgs.values(), default=0.0)},
        latency={"max_delays": max(latency_series.values(), default=0.0)},
        time_bound=True,
        series=series_msgs,
        latency_series=latency_series,
        fit_order=order,
    )


# ---------------------------------------------------------------------------
# E6 — Section 6.4: GWTS messages per proposer per decision O(f n^2)
# ---------------------------------------------------------------------------


@experiment(
    "E6",
    "GWTS messages per proposer per decision O(f n^2) (Section 6.4)",
    sizes=_SIZES_HELP,
    rounds="GWTS rounds per run",
)
def run_gwts_messages_experiment(
    sweep: _Sweep, sizes: Sequence[int] | None = None, rounds: int = 3, seed: int = 13
) -> dict[str, Any]:
    """Measure GWTS per-proposer per-decision message counts over n."""
    if sizes is None:
        sizes = (4, 7) if sweep.quick else (4, 7, 10, 13)
    series: dict[int, float] = {}
    rows: list[Sequence[Any]] = []
    for n in sizes:
        f = max_faults(n)
        scenario = sweep.run(
            "gwts", n, f, values_per_process=1, rounds=rounds, seed=seed + n, delay_model=FixedDelay(1.0)
        )
        decisions = sum(len(d) for d in scenario.decisions().values())
        per_process = _msgs_per_process(scenario)
        per_decision = per_process / max(1, decisions / max(1, len(scenario.correct_pids)))
        series[n] = per_decision
        rows.append(
            (n, f, rounds, f"{per_process:.1f}", f"{per_decision:.1f}", f"{per_decision / (max(1, f) * n * n):.2f}")
        )
    order = fit_polynomial_order(list(series.keys()), list(series.values()))
    return sweep.outcome(
        expected="messages per proposer per decision bounded by c * f * n^2",
        headers=["n", "f", "rounds", "msgs/process", "msgs/process/decision", "ratio to f*n^2"],
        rows=rows,
        title=f"E6: GWTS per-decision message complexity (log-log slope ~ {order:.2f})",
        # With f growing as (n-1)/3 in the sweep, O(f n^2) behaves like n^3.
        ok=1.8 <= order <= 3.6,
        headline={"fit_order": order, "max_msgs_per_decision": max(series.values(), default=0.0)},
        series=series,
        fit_order=order,
    )


# ---------------------------------------------------------------------------
# E7 — Section 6.2/6.3: GWTS liveness & inclusivity under round-clogging
# ---------------------------------------------------------------------------


@experiment(
    "E7",
    "GWTS liveness and inclusivity under round clogging (Section 6.2/6.3)",
    f="failure threshold",
    rounds="GWTS rounds per run",
)
def run_gwts_liveness_experiment(sweep: _Sweep, f: int = 1, rounds: int = 5, seed: int = 17) -> dict[str, Any]:
    """GWTS under the fast-forward (round-clogging) and nack-spam adversaries."""

    def fast_forward(pid, lat, members, ff):
        return FastForwardGWTS(
            pid, lat, members, rounds_ahead=rounds + 3, values=[frozenset({f"byz-ff-{pid}-{k}"}) for k in range(3)]
        )

    scenario = sweep.run(
        "gwts",
        required_processes(f),
        f,
        values_per_process=2,
        rounds=rounds,
        seed=seed,
        byzantine_factories=[fast_forward] * f,
    )
    check = scenario.check_gla()
    decisions = scenario.decisions()
    counts = {pid: len(d) for pid, d in decisions.items()}
    return sweep.outcome(
        expected="every correct process keeps deciding; every submitted value is eventually included",
        headers=["process", "#decisions", "final decision"],
        rows=[(pid, len(decs), _render(decs[-1]) if decs else "-") for pid, decs in sorted(decisions.items())],
        title="E7: GWTS liveness under round-clogging adversary",
        ok=check.ok and counts and all(count >= 1 for count in counts.values()),
        headline={"total_decisions": float(sum(counts.values()))},
        check=check,
        decisions_per_process=counts,
    )


# ---------------------------------------------------------------------------
# E8 — Section 7: RSM linearizability, wait-freedom, Byzantine clients
# ---------------------------------------------------------------------------


@experiment(
    "E8",
    "RSM linearizability and wait-freedom with Byzantine clients (Section 7)",
    f="failure threshold",
    clients="number of correct clients",
    updates_per_client="updates issued per client",
)
def run_rsm_experiment(
    sweep: _Sweep, f: int = 1, clients: int = 3, updates_per_client: int = 2, seed: int = 19
) -> dict[str, Any]:
    """Run the replicated set/counter RSM with Byzantine replicas and clients."""
    counter = GCounterObject("hits")
    gset = GSetObject("tags")
    scripts: dict[Hashable, list] = {}
    for index in range(clients):
        script: list = []
        for k in range(updates_per_client):
            if index % 2 == 0:
                script.append(("update", counter.op_inc(1)))
            else:
                script.append(("update", gset.op_add(f"tag-{index}-{k}")))
        script.append(("read",))
        scripts[f"client{index}"] = script
    scenario = sweep.run(
        "rsm",
        required_processes(f),
        f,
        inputs=scripts,
        byzantine_factories=[_silent] * f,
        byzantine_client_payloads={"badclient": ["junk-0", "junk-1"]},
        rounds=6 if sweep.quick else 10,
        seed=seed,
    )
    histories = scenario.extras["histories"].values()
    admissible = collect_admissible_commands((scenario.nodes[pid] for pid in scenario.correct_pids), histories)
    check = check_rsm_history(histories, admissible_commands=admissible)
    reads = [
        record for history in histories for record in history if record.kind == "read" and record.result is not None
    ]
    counter_values = [counter.value(read.result) for read in reads]
    read_latencies = [read.end_time - read.start_time for read in reads]
    return sweep.outcome(
        expected="all operations complete; reads are comparable, monotonic and reflect completed updates",
        headers=["client", "read latency", "counter value", "|tag set|"],
        rows=[
            (
                read.client,
                f"{read.end_time - read.start_time:.1f}",
                counter.value(read.result),
                len(gset.value(read.result)),
            )
            for read in reads
        ],
        title="E8: RSM reads (counter + grow-only set objects)",
        ok=check.ok and counter_values and max(counter_values) >= 1,
        headline={"reads": float(len(reads)), "max_counter": float(max(counter_values, default=0))},
        latency={"mean_read_latency": sum(read_latencies) / len(read_latencies) if read_latencies else 0.0},
        check=check,
        counter_values=counter_values,
    )


# ---------------------------------------------------------------------------
# E9 — Section 2: breadth argument against the restrictive specification
# ---------------------------------------------------------------------------


@experiment(
    "E9",
    "breadth argument against the restrictive specification (Section 2)",
    n="cluster size",
    f="failure threshold",
    breadths="lattice breadths to contrast",
)
def run_breadth_experiment(
    sweep: _Sweep, n: int = 4, f: int = 1, breadths: Sequence[int] | None = None, seed: int = 23
) -> dict[str, Any]:
    """Contrast this paper's specification with the restrictive one as breadth grows."""
    if breadths is None:
        breadths = (2, 3, 4, 6, 8)
    rows: list[Sequence[Any]] = []
    outcomes: list[dict[str, Any]] = []
    # Run WTS with one Byzantine value injector; our spec must hold, and the
    # decisions typically include the Byzantine value, which the restrictive
    # spec forbids.
    byz_value = frozenset({"byz-injected"})
    byz = [functools.partial(ValueInjectorProposer, proposal=byz_value)]
    correct = member_pids(n)[: n - 1]
    for k in breadths:
        feasible = restricted_spec_feasible(n, power_set_breadth(k))
        lattice = SetLattice(universe={f"u{i}" for i in range(k)} | {"byz-injected"})
        scenario = sweep.run(
            "wts",
            n,
            f,
            seed=seed + k,
            lattice=lattice,
            inputs={pid: frozenset({f"u{i % k}"}) for i, pid in enumerate(correct)},
            byzantine_factories=byz,
        )
        ours = scenario.check_la()
        restricted = check_restricted_la_run(
            lattice, scenario.proposals(), scenario.decisions(), byzantine_values=[byz_value], f=f
        )
        outcomes.append(
            {"breadth": k, "restricted_feasible": feasible, "our_spec_ok": ours.ok, "restricted_ok": restricted.ok}
        )
        rows.append(
            (
                k,
                n,
                "yes" if feasible else f"no (needs >= {k + 1} procs)",
                "OK" if ours.ok else "VIOLATED",
                "OK" if restricted.ok else "violated (Byzantine value decided)",
            )
        )
    return sweep.outcome(
        expected="our spec holds for every breadth; the restrictive spec is infeasible once breadth >= n and is violated whenever a Byzantine value is decided",
        headers=["breadth k", "n", "restrictive spec feasible", "our spec", "restrictive spec on same run"],
        rows=rows,
        title="E9: lattice breadth vs specifications",
        ok=all(o["our_spec_ok"] for o in outcomes)
        and all(not o["restricted_feasible"] for o in outcomes if o["breadth"] >= n),
        headline={
            "breadths": float(len(outcomes)),
            "restricted_infeasible": float(sum(1 for o in outcomes if not o["restricted_feasible"])),
        },
        outcomes=outcomes,
    )


# ---------------------------------------------------------------------------
# E10 — Byzantine tolerance overhead vs the crash-fault baseline
# ---------------------------------------------------------------------------


@experiment("E10", "Byzantine tolerance overhead vs the crash-fault baseline", sizes=_SIZES_HELP)
def run_baseline_comparison(sweep: _Sweep, sizes: Sequence[int] | None = None, seed: int = 29) -> dict[str, Any]:
    """Message/latency overhead of WTS and GWTS over the crash-fault baseline."""
    if sizes is None:
        sizes = (4, 7) if sweep.quick else (4, 7, 10, 13)
    rows: list[Sequence[Any]] = []
    wts_series: dict[int, float] = {}
    crash_series: dict[int, float] = {}
    max_wts_time = 0.0
    for n in sizes:
        f = max_faults(n)
        common = dict(seed=seed + n, delay_model=FixedDelay(1.0))
        wts, crash = sweep.run("wts", n, f, **common), sweep.run("crash-la", n, f, **common)
        wts_series[n] = wts_msgs = _msgs_per_process(wts)
        crash_series[n] = crash_msgs = _msgs_per_process(crash)
        wts_time = _last_decision(wts)
        max_wts_time = max(max_wts_time, wts_time)
        rows.append(
            (
                n,
                f,
                f"{crash_msgs:.1f}",
                f"{wts_msgs:.1f}",
                f"{wts_msgs / max(crash_msgs, 1e-9):.1f}x",
                f"{_last_decision(crash):.0f}",
                f"{wts_time:.0f}",
            )
        )
    return sweep.outcome(
        expected="WTS costs a quadratic (vs linear) message term and never fewer delays than the crash baseline",
        headers=["n", "f", "crash msgs/proc", "WTS msgs/proc", "overhead", "crash delays", "WTS delays"],
        rows=rows,
        title="E10: Byzantine tolerance overhead vs crash-fault baseline",
        ok=all(wts_series[n] > crash_series[n] for n in wts_series),
        headline={"max_overhead": max((wts_series[n] / max(crash_series[n], 1e-9) for n in wts_series), default=0.0)},
        latency={"max_wts_delays": max_wts_time},
        wts_series=wts_series,
        crash_series=crash_series,
    )


# ---------------------------------------------------------------------------
# E11 (extension) — ablation study of the two WTS design choices
# ---------------------------------------------------------------------------


@experiment("E11", "ablation of the WTS design choices (extension)")
def run_ablation_experiment(sweep: _Sweep, seed: int = 31) -> dict[str, Any]:
    """Ablation study: remove one WTS defence and run the attack it blocks.

    Three configurations, each compared against intact WTS under the same
    adversary, seed and delays:

    * **A1 — no wait-till-safe** vs a nack-spamming acceptor: undisclosed junk
      values reach decisions (Non-Triviality broken);
    * **A2 — plain disclosure broadcast** vs an equivocating proposer: the
      correct processes' safe sets diverge and the deciding phase wedges
      (Liveness broken within the run horizon);
    * **A3 — both removed** vs the same equivocator: the single Byzantine
      process gets *two* distinct values into decisions, breaking the
      ``|B| <= f`` bound of Non-Triviality that Observation 1 (one safe value
      per process) is there to enforce.

    The verdicts come from the shared invariant library
    (:mod:`repro.explore.invariants`).
    """
    from repro.core.ablations import NoDefencesWTSProcess, NoSafetyWTSProcess, PlainDisclosureWTSProcess

    equivocator = functools.partial(EquivocatingProposer, value_a=frozenset({"eq-a"}), value_b=frozenset({"eq-b"}))
    # (name, ablated class, adversary, targeted property, the invariant it breaks)
    configs = [
        ("A1 no wait-till-safe", NoSafetyWTSProcess, NackSpamAcceptor, "non_triviality", "non_triviality"),
        ("A2 plain disclosure", PlainDisclosureWTSProcess, equivocator, "liveness", "liveness"),
        (
            "A3 both removed",
            NoDefencesWTSProcess,
            equivocator,
            "|B| <= f (one value per Byzantine)",
            "byzantine_value_bound",
        ),
    ]
    rows: list[Sequence[Any]] = []
    outcomes: list[dict[str, Any]] = []
    for name, ablated_class, adversary, expected_break, invariant in configs:
        intact_ok = True
        broken_seed = None
        # The attack's success can depend on the schedule; scan a few seeds
        # and report whether any schedule breaks the ablated variant while
        # the intact algorithm survives all of them.
        for run_seed in range(seed, seed + (4 if sweep.quick else 8)):
            common = dict(
                seed=run_seed, byzantine_factories=[adversary], delay_model=UniformDelay(0.5, 2.0), max_messages=30_000
            )
            intact = sweep.run("wts", 4, 1, **common)
            ablated = sweep.run("wts", 4, 1, process_class=ablated_class, run_to_quiescence=True, **common)
            intact_ok = intact_ok and intact.check_la().ok
            if broken_seed is None and invariant in la_invariants(ablated):
                broken_seed = run_seed
        ablated_broken = broken_seed is not None
        outcomes.append(
            {
                "ablation": name,
                "expected_break": expected_break,
                "intact_ok": bool(intact_ok),
                "ablated_broken": ablated_broken,
                "witness_seed": broken_seed,
            }
        )
        rows.append(
            (
                name,
                expected_break,
                "holds" if intact_ok else "VIOLATED",
                "broken (as expected)" if ablated_broken else "not broken in scanned seeds",
            )
        )
    return sweep.outcome(
        expected="each removed defence lets its targeted attack break exactly the property the paper claims it protects",
        headers=["ablation", "targeted property", "intact WTS", "ablated WTS"],
        rows=rows,
        title="E11: ablation of WTS design choices",
        ok=all(o["intact_ok"] and o["ablated_broken"] for o in outcomes),
        headline={"ablations_broken": float(sum(1 for o in outcomes if o["ablated_broken"]))},
        outcomes=outcomes,
    )


# ---------------------------------------------------------------------------
# E12 (extension) — GWTS under partition/crash churn and adversarial schedules
# ---------------------------------------------------------------------------


@experiment("E12", "GWTS under partition/crash churn (extension)", f="failure threshold", rounds="GWTS rounds per run")
def run_partition_churn_experiment(sweep: _Sweep, f: int = 1, rounds: int = 4, seed: int = 37) -> dict[str, Any]:
    """GWTS survives scripted partition + crash/recover churn (kernel faults).

    Three configurations, identical workload and seed:

    1. **calm** — no faults, the reference run;
    2. **churn** — a 2/2 partition that heals, then two crash/recover cycles
      on correct processes, scripted declaratively via :class:`FaultPlan`;
    3. **churn + worst-case schedule** — same fault plan, with a
      :class:`SkewedPairDelay` slowing every link of one correct process.

    The paper's liveness argument is asynchronous, so holding traffic for a
    finite time (partition, crash with reliable hand-over on recovery,
    starved links) may delay decisions arbitrarily but can never prevent
    them: every configuration must end with all correct processes decided
    and all decisions pairwise comparable, with the decision times strictly
    ordered calm < churn < worst-case.

    ``examples/partition_churn.py`` narrates the same scenario with the
    fault plan built by hand — keep the timing constants in sync.
    """
    if f < 1:
        raise ValueError("partition churn needs f >= 1 (n >= 4) to have groups to split")
    n = required_processes(f)
    pids = member_pids(n)
    correct = pids[: n - f]
    half = max(1, n // 2)
    plan = (
        FaultPlan()
        .partition(pids[:half], pids[half:], at=3.0, heal_at=18.0)
        .crash(correct[1 % len(correct)], at=20.0, recover_at=30.0)
        .crash(correct[-1], at=32.0, recover_at=42.0)
    )
    # The orchestrator's axis params replace this experiment's built-in churn
    # ingredients (rather than stacking on top of them): a custom fault plan
    # substitutes for the scripted churn, a custom schedule for the built-in
    # worst case.  The calm reference configuration stays calm.
    scheduler_override = parse_scheduler(sweep.axes["scheduler"], pids=pids, f=f)
    fault_plan_override = parse_fault_plan(sweep.axes["fault_plan"], pids=pids, correct=correct)
    churn_plan = fault_plan_override or plan
    calm_delay = FixedDelay(1.0)
    worst_delay = scheduler_override or SkewedPairDelay(victims=[correct[0]], base=calm_delay, slow_delay=40.0)
    # The strict calm < churn < worst-case timing ordering is a claim about
    # the *built-in* churn script and starvation schedule; a substituted axis
    # may legitimately be faster than either, and a wall-clock backend
    # reports real seconds whose ordering is scheduling noise, so in both
    # cases the verdict checks only the schedule-independent properties
    # (safety + everyone decides).
    axes_overridden = scheduler_override is not None or fault_plan_override is not None
    configs = [
        ("calm", None, calm_delay),
        ("churn", churn_plan, calm_delay),
        ("churn+worst-case", churn_plan, worst_delay),
    ]
    outcomes: list[dict[str, Any]] = []
    for name, config_plan, config_delay in configs:
        scenario = sweep.run(
            "gwts",
            n,
            f,
            values_per_process=1,
            rounds=3 if sweep.quick else rounds,
            seed=seed,
            byzantine_factories=[_silent] * f,
            delay_model=config_delay,
            fault_plan=config_plan,
            # The axis is resolved into ``config_delay`` above.
            scheduler=None,
        )
        outcomes.append(
            {
                "config": name,
                "decided": _decided(scenario),
                "correct": len(scenario.correct_pids),
                "last_decision_time": _last_decision(scenario),
                "safety_ok": scenario.check_gla(require_all_inputs_decided=False).ok,
            }
        )
    calm, churn, worst = (o["last_decision_time"] for o in outcomes)
    return sweep.outcome(
        expected="churn and adversarial schedules delay decisions but never prevent them; comparability always holds",
        headers=["configuration", "decided", "last decision time", "properties"],
        rows=[
            (
                o["config"],
                f"{o['decided']}/{o['correct']}",
                f"{o['last_decision_time']:.1f}",
                "OK" if o["safety_ok"] else "VIOLATED",
            )
            for o in outcomes
        ],
        title="E12: GWTS under partition/crash churn (discrete-event kernel)",
        ok=all(o["safety_ok"] and o["decided"] == o["correct"] for o in outcomes)
        and (axes_overridden or sweep.wall_clock or calm < churn < worst),
        headline={"configs": float(len(outcomes))},
        latency={"calm_last_decision": calm, "churn_last_decision": churn, "worst_case_last_decision": worst},
        time_bound=True,
        outcomes=outcomes,
        fault_plan=plan.describe(),
    )


# ---------------------------------------------------------------------------
# E13 (extension) — sharded + batched GLA: data-plane scaling study
# ---------------------------------------------------------------------------


def _sharded_point(
    sweep: _Sweep, shards: int, batch_size: int | None, total_commands: int, seed: int, n_replicas: int, f: int = 1
) -> dict[str, Any]:
    """Run one sharded-RSM configuration and report deterministic metrics.

    Throughput is measured in *simulated* time (commands per simulated time
    unit): deterministic given the seed, so the sweep artifact stays
    byte-identical across machines and worker counts, unlike wall-clock
    rates (those live in ``benchmarks/bench_shard_throughput.py``).
    """
    per_client = total_commands // 2
    scripts = {f"c{index}": [("update", (f"obj-{index}-{k}", k)) for k in range(per_client)] for index in range(2)}
    scenario = sweep.run(
        "rsm",
        n_replicas,
        f,
        shards=shards,
        inputs=scripts,
        # Worst case one command per round per shard, plus slack for ramp-up.
        rounds=total_commands + 10,
        seed=seed,
        batch_size=batch_size,
        client_pipeline=16,
        max_messages=6_000_000,
    )
    clients = scenario.extras["clients"].values()
    completed = sum(client.completed_updates() for client in clients)
    makespan = max(
        (
            record.end_time
            for client in clients
            for inner in client.clients
            for record in inner.history
            if record.kind == "update" and record.completed
        ),
        default=0.0,
    )
    return {
        "shards": shards,
        "batch_size": batch_size,
        "completed": completed,
        "expected": 2 * per_client,
        "messages": scenario.run.delivered,
        "msgs_per_command": scenario.run.delivered / max(1, completed),
        "makespan": makespan,
        "throughput": completed / makespan if makespan > 0 else 0.0,
    }


@experiment("E13", "sharded + batched GLA data-plane scaling (extension)", backend="turbo")
def run_shard_scaling_experiment(sweep: _Sweep, seed: int = 41) -> dict[str, Any]:
    """E13: throughput vs batch size and shard count, plus the large-n study.

    Three sections, all on the deterministic simulated clock (a data-plane
    throughput study, so unlike E1–E12 the backend defaults to turbo):

    1. **Batch curve** — 25 replicas as 5 shards of 5 (f=1 per group), the
       same command stream under ``batch_size`` 1..16.  Capping the per-round
       batch at 1 forces one GWTS round per command; batching amortises the
       round's O(group³) reliable-broadcast ack traffic over the whole batch,
       so simulated throughput must grow at least 2x from batch 1 to 8.
    2. **Shard curve** — a fixed fleet of 24 replicas split into 2..6 groups.
       Per-round message cost scales with the *cube* of the group size, so
       more shards means superlinearly fewer messages per command.  (The
       monolithic 1x24 anchor is measured in the wall-clock benchmark
       artifact ``BENCH_shard.json`` — a single group of 24 runs ~800k
       messages per round, too slow for the sweep path.)
    3. **Large-n quorum study** — message complexity and decision latency at
       n=100 and n=250.  Full Byzantine GLA at those sizes is measured where
       feasible (WTS single-shot at n=100); the echo-based crash baseline
       covers both sizes, so the quorum-size trend (majority vs Byzantine
       quorum) is read off the same table.
    """
    quick = sweep.quick

    # -- 1. batch curve: 5 shards x 5 replicas = 25 ----------------------------
    batch_points = [
        _sharded_point(sweep, 5, batch, 40 if quick else 60, seed, n_replicas=25)
        for batch in ((1, 8) if quick else (1, 2, 4, 8, 16))
    ]
    batch_rows = [
        (
            point["batch_size"],
            f"{point['completed']}/{point['expected']}",
            point["messages"],
            f"{point['msgs_per_command']:.0f}",
            f"{point['makespan']:.1f}",
            f"{point['throughput']:.3f}",
        )
        for point in batch_points
    ]
    base = batch_points[0]
    batched = max((p for p in batch_points if p["batch_size"] and p["batch_size"] >= 8), key=lambda p: p["throughput"])
    batch_speedup = batched["throughput"] / max(base["throughput"], 1e-9)

    # -- 2. shard curve: fixed fleet of 24 replicas ----------------------------
    shard_points = [
        _sharded_point(sweep, shards, 8, 24 if quick else 48, seed, n_replicas=24)
        for shards in ((2, 6) if quick else (2, 3, 4, 6))
    ]
    shard_rows = [
        (
            point["shards"],
            24 // point["shards"],
            f"{point['completed']}/{point['expected']}",
            point["messages"],
            f"{point['msgs_per_command']:.0f}",
            f"{point['throughput']:.3f}",
        )
        for point in shard_points
    ]
    shard_scaleup = shard_points[-1]["throughput"] / max(shard_points[0]["throughput"], 1e-9)

    # -- 3. large-n quorum study ------------------------------------------------
    # (protocol label, registry name, n, quorum size, scenario kwargs)
    large = [
        ("crash-GLA", "crash-gla", n, n // 2 + 1, dict(values_per_process=1, rounds=2, seed=seed + n))
        for n in ((100,) if quick else (100, 250))
    ]
    if not quick:
        proposals = {f"p{i}": frozenset({f"v{i}"}) for i in range(3)}
        large.append(("WTS", "wts", 100, (100 + max_faults(100)) // 2 + 1, dict(inputs=proposals, seed=seed + 1000)))
    scaling_rows: list[Sequence[Any]] = []
    scaling_outcomes: list[dict[str, Any]] = []
    for name, protocol, n, quorum, kwargs in large:
        f = max_faults(n)
        scenario = sweep.run(protocol, n, f, delay_model=FixedDelay(1.0), max_messages=4_000_000, **kwargs)
        decided, correct = _decided(scenario), len(scenario.correct_pids)
        per_process, last = _msgs_per_process(scenario), _last_decision(scenario)
        scaling_outcomes.append(
            {
                "protocol": name,
                "n": n,
                "f": f,
                "quorum": quorum,
                "decided": decided,
                "correct": correct,
                "msgs_per_process": per_process,
                "last_decision_time": last,
            }
        )
        scaling_rows.append((name, n, f, quorum, f"{decided}/{correct}", f"{per_process:.0f}", f"{last:.1f}"))

    # -- verdict ------------------------------------------------------------------
    all_completed = all(point["completed"] == point["expected"] for point in batch_points + shard_points)
    all_decided = all(o["decided"] == o["correct"] for o in scaling_outcomes)
    msgs_drop = all(
        earlier["msgs_per_command"] > later["msgs_per_command"]
        for earlier, later in zip(shard_points, shard_points[1:], strict=False)
    )
    # Wall-clock backends report real seconds: the simulated-throughput
    # ratios are scheduling noise there, so they judge completion only.
    ok = all_completed and all_decided and (sweep.wall_clock or (batch_speedup >= 2.0 and msgs_drop))
    return sweep.outcome(
        expected="batching amortises the per-round O(group^3) ack traffic (>=2x at batch 8); "
        "more shards of a fixed fleet cut messages per command superlinearly; "
        "large-n rows expose the quorum-size cost",
        headers=["batch", "completed", "messages", "msgs/cmd", "makespan", "cmds/time"],
        rows=batch_rows,
        title=f"E13a: batch curve, 25 replicas as 5x5 (speedup {batch_speedup:.1f}x)",
        more_tables={
            "shard": (
                ["shards", "group", "completed", "messages", "msgs/cmd", "cmds/time"],
                shard_rows,
                f"E13b: shard curve, 24 replicas (scale-up {shard_scaleup:.1f}x)",
            ),
            "scaling": (
                ["protocol", "n", "f", "quorum", "decided", "msgs/proc", "delays"],
                scaling_rows,
                "E13c: large-n quorum study",
            ),
        },
        ok=ok,
        headline={
            "batch_speedup": batch_speedup,
            "shard_scaleup": shard_scaleup,
            "max_n": float(max(o["n"] for o in scaling_outcomes)),
        },
        latency={
            "batch1_makespan": base["makespan"],
            "batch8_makespan": batched["makespan"],
            "largest_n_last_decision": scaling_outcomes[-1]["last_decision_time"],
        },
        time_bound=True,
        batch_points=batch_points,
        shard_points=shard_points,
        scaling=scaling_outcomes,
        batch_speedup=batch_speedup,
        shard_scaleup=shard_scaleup,
    )


#: ``id -> runner``, for the CLI example and documentation generation.
ALL_EXPERIMENTS: dict[str, Callable[..., dict[str, Any]]] = {entry.id: entry.runner for entry in EXPERIMENTS}
