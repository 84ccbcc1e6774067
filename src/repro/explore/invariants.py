"""Reusable invariant checkers over finished scenarios.

Historically every consumer sliced the specification checkers differently:
the experiment runners read :meth:`ScenarioResult.check_la` /
:meth:`~repro.harness.workloads.ScenarioResult.check_gla` verdicts, E11
hand-rolled a Byzantine-value-bound judge, and E8 assembled the admissible
command set for :func:`repro.rsm.checker.check_rsm_history` inline.  This
module is the one home for those checks, keyed by invariant name, so the
randomized explorer, the experiment verdicts and the tests all judge a run
with the same code.

Every checker takes a finished
:class:`~repro.harness.workloads.ScenarioResult` (duck-typed — this module
sits below the harness so the harness can import it) and returns a mapping
``invariant name -> list of violation messages``; an empty mapping means the
run is clean.  The names are stable identifiers:

* ``liveness`` — every correct process decided (completed its operations);
* ``stability`` / ``local_stability`` — decisions never regress;
* ``comparability`` — any two decisions of correct processes are comparable
  (the agreement core of the paper's specification);
* ``inclusivity`` — own proposals / received inputs are included (validity);
* ``non_triviality`` — decisions stay below ``join(X ∪ B)`` (validity);
* ``byzantine_value_bound`` — at most ``f`` distinct adversary-originated
  values beyond the correct inputs appear in decisions (the ``|B| <= f``
  half of Non-Triviality that Observation 1 enforces);
* ``read_validity`` / ``read_consistency`` / ``read_monotonicity`` /
  ``update_stability`` / ``update_visibility`` — the RSM read/update
  properties of Section 7.1 (read comparability is ``read_consistency``);
* ``one_proof_per_value`` — no correct SbS/GSbS process's proposed,
  accepted or decided carrier holds two proofs of one signed value
  (:func:`proof_invariants`, run on the ``sbs`` and ``gsbs`` scenarios and
  reported only when violated).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.spec import render_element
from repro.rsm.checker import check_rsm_history, collect_admissible_commands

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (harness imports us)
    from repro.harness.workloads import ScenarioResult

#: ``invariant name -> violation messages``; empty when the run is clean.
Violations = dict[str, list[str]]

#: Invariant names per scenario kind (documentation + test parametrization).
LA_INVARIANTS = ("liveness", "stability", "comparability", "inclusivity", "non_triviality", "byzantine_value_bound")
GLA_INVARIANTS = ("liveness", "local_stability", "comparability", "inclusivity", "non_triviality")
RSM_INVARIANTS = (
    "liveness",
    "read_validity",
    "read_consistency",
    "read_monotonicity",
    "update_stability",
    "update_visibility",
)

#: Scenario kinds :func:`check_scenario_invariants` understands.
SCENARIO_KINDS = ("la", "gla", "rsm")

#: The protocols whose carriers hold proofs of safety, judged by :func:`proof_invariants`.
PROOF_PROTOCOLS = ("sbs", "gsbs")


def byzantine_value_bound_violations(scenario: ScenarioResult) -> list[str]:
    """Check ``|B| <= f``: at most ``f`` distinct Byzantine values decided.

    ``B`` is the set of adversary-originated lattice values beyond the
    correct processes' own inputs; the specification allows decisions to
    absorb them, but never more than one per Byzantine process (Observation
    1 / Lemma 13).  A value counts toward ``B`` when the adversary declared
    it, it is not already covered by the join of correct inputs, and some
    correct decision includes it.
    """
    lattice = scenario.lattice
    decisions = [
        decision for decs in scenario.decisions().values() for decision in decs
    ]
    if not decisions:
        return []
    correct_inputs = list(scenario.proposals().values())
    for values in scenario.inputs().values():
        correct_inputs.extend(values)
    correct_join = lattice.join_all(correct_inputs)
    injected = []
    for value in dict.fromkeys(scenario.byzantine_values()):
        if lattice.leq(value, correct_join):
            continue
        if any(lattice.leq(value, decision) for decision in decisions):
            injected.append(value)
    if len(injected) <= scenario.f:
        return []
    rendered = ", ".join(sorted(render_element(value) for value in injected))
    return [
        f"{len(injected)} distinct Byzantine values decided with f={scenario.f}: {rendered}"
    ]


def proof_invariants(scenario: ScenarioResult) -> Violations:
    """``one_proof_per_value``: every correct SbS/GSbS process's proposed,
    accepted and decided carriers hold at most one proof per signed value."""
    messages = []
    for node in scenario.correct_nodes():
        for name in ("proposed_set", "accepted_set", "decided_proven"):
            values = [proven.value for proven in getattr(node, name, ())]
            if len(set(values)) < len(values):
                messages.append(f"{node.pid}.{name} holds {len(values)} proofs of {len(set(values))} signed values")
    return {"one_proof_per_value": messages} if messages else {}


def la_invariants(scenario: ScenarioResult, require_liveness: bool = True) -> Violations:
    """Single-shot LA invariants (Section 3.1) plus the Byzantine value bound."""
    violations = {
        name: list(messages)
        for name, messages in scenario.check_la(require_liveness=require_liveness).violations.items()
    }
    bound = byzantine_value_bound_violations(scenario)
    if bound:
        violations["byzantine_value_bound"] = bound
    return violations


def gla_invariants(scenario: ScenarioResult, require_inclusivity: bool = True) -> Violations:
    """Generalized LA invariants (Section 6.1) plus the Byzantine value bound.

    ``require_inclusivity=False`` skips the every-input-decided check for
    runs whose finite prefix was deliberately perturbed (fault churn,
    link-starving schedules): inclusivity there is only *eventual*, exactly
    as E12 treats it.

    The Byzantine value bound is deliberately *not* checked here: in the
    generalized problem the adversary legitimately introduces values round
    after round (Observation 1 constrains each round's safe set, not the
    run's union), so ``|B| <= f`` is a single-shot property only.
    """
    return {
        name: list(messages)
        for name, messages in scenario.check_gla(
            require_all_inputs_decided=require_inclusivity
        ).violations.items()
    }


def rsm_invariants(scenario: ScenarioResult, require_liveness: bool = True) -> Violations:
    """RSM read/update invariants (Section 7.1) over the clients' histories.

    Read Validity allows any command genuinely submitted to the RSM —
    including well-formed commands from Byzantine clients — so the admission
    logs of the correct replicas are the ground truth for the admissible set
    (the same construction E8 uses).
    """
    shard_histories = scenario.extras.get("shard_histories")
    if shard_histories:
        # A sharded run is `shards` independent RSM instances: the Section
        # 7.1 properties hold per shard (reads of different shards view
        # disjoint lattices and are legitimately incomparable), so each
        # shard's histories are judged on their own.
        violations: Violations = {}
        for shard, histories in sorted(shard_histories.items()):
            admissible = collect_admissible_commands(
                (scenario.nodes[pid] for pid in scenario.correct_pids),
                histories.values(),
            )
            result = check_rsm_history(
                histories.values(),
                admissible_commands=admissible,
                require_liveness=require_liveness,
            )
            for name, messages in result.violations.items():
                violations.setdefault(name, []).extend(
                    f"shard {shard}: {message}" for message in messages
                )
        return violations
    histories = scenario.extras.get("histories", {})
    admissible = collect_admissible_commands(
        (scenario.nodes[pid] for pid in scenario.correct_pids), histories.values()
    )
    result = check_rsm_history(
        histories.values(), admissible_commands=admissible, require_liveness=require_liveness
    )
    return {name: list(messages) for name, messages in result.violations.items()}


def check_scenario_invariants(
    scenario: ScenarioResult,
    kind: str,
    require_liveness: bool = True,
    require_inclusivity: bool = True,
) -> Violations:
    """Dispatch to the invariant set for ``kind`` (``la``/``gla``/``rsm``)."""
    if kind == "la":
        return la_invariants(scenario, require_liveness=require_liveness)
    if kind == "gla":
        return gla_invariants(scenario, require_inclusivity=require_inclusivity)
    if kind == "rsm":
        return rsm_invariants(scenario, require_liveness=require_liveness)
    raise ValueError(f"unknown scenario kind {kind!r}; expected one of {SCENARIO_KINDS}")
