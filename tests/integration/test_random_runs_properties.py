"""Property-based end-to-end tests: random sizes, seeds, delays and adversaries.

These are the heaviest property tests in the suite: each example is a full
simulated run checked against the paper's specification.  Example counts are
kept moderate so the whole suite stays in the minutes range.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.byzantine import EquivocatingProposer, FlipFloppingAcceptor, NackSpamAcceptor, SilentByzantine
from repro.engine import FixedDelay, UniformDelay
from repro.harness import build_scenario


def byz_factory(kind):
    if kind == "silent":
        return lambda pid, lat, m, f: SilentByzantine(pid)
    if kind == "equivocator":
        return lambda pid, lat, m, f: EquivocatingProposer(
            pid, lat, m, f, value_a=frozenset({"ba"}), value_b=frozenset({"bb"})
        )
    if kind == "nack_spam":
        return lambda pid, lat, m, f: NackSpamAcceptor(pid, lat, m, f)
    return lambda pid, lat, m, f: FlipFloppingAcceptor(pid, lat, m, f)


byz_kinds = st.sampled_from(["silent", "equivocator", "nack_spam", "flipflop"])
delays = st.sampled_from(["fixed", "uniform", "wide"])


def delay_model(kind):
    if kind == "fixed":
        return FixedDelay(1.0)
    if kind == "uniform":
        return UniformDelay(0.5, 2.0)
    return UniformDelay(0.1, 10.0)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.sampled_from([4, 5, 7]),
    byz=byz_kinds,
    delay=delays,
)
def test_wts_satisfies_spec_under_random_conditions(seed, n, byz, delay):
    f = (n - 1) // 3
    scenario = build_scenario(
        "wts", n, f, seed=seed,
        byzantine_factories=[byz_factory(byz)] * f,
        delay_model=delay_model(delay),
    ).run()
    check = scenario.check_la()
    assert check.ok, str(check)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    byz=st.sampled_from(["silent", "flipflop"]),
)
def test_sbs_satisfies_spec_under_random_conditions(seed, byz):
    scenario = build_scenario(
        "sbs", 4, 1, seed=seed,
        byzantine_factories=[
            lambda pid, lat, m, f, registry: byz_factory(byz)(pid, lat, m, f)
        ],
    ).run()
    check = scenario.check_la()
    assert check.ok, str(check)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    values=st.integers(min_value=1, max_value=3),
)
def test_gwts_satisfies_spec_under_random_conditions(seed, values):
    scenario = build_scenario(
        "gwts", 4, 1, values_per_process=values, rounds=3, seed=seed,
        byzantine_factories=[byz_factory("silent")],
    ).run()
    check = scenario.check_gla()
    assert check.ok, str(check)
