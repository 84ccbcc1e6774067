"""Property-based tests: reliable broadcast agreement under random schedules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import KernelEngine, UniformDelay
from tests.broadcast.test_reliable import EquivocatingOrigin, RBHost


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), n=st.sampled_from([4, 7]))
def test_validity_and_agreement_random_schedules(seed, n):
    """Every honest broadcast is delivered with the same value everywhere."""
    f = (n - 1) // 3
    members = [f"p{i}" for i in range(n)]
    hosts = {pid: [((pid, "tag"), f"value-from-{pid}")] for pid in members}
    network = KernelEngine(delay_model=UniformDelay(0.1, 4.0), seed=seed)
    nodes = [network.add_core(RBHost(pid, n, f, to_broadcast=hosts[pid])) for pid in members]
    network.run_until_quiescent()
    for node in nodes:
        assert len(node.delivered) == n
        assert {(origin, value) for origin, _tag, value in node.delivered} == {
            (pid, f"value-from-{pid}") for pid in members
        }


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_no_split_brain_with_equivocating_origin(seed):
    """Random schedules never let an equivocator split the correct processes."""
    n, f = 7, 2
    members = [f"p{i}" for i in range(n)]
    network = KernelEngine(delay_model=UniformDelay(0.1, 4.0), seed=seed)
    honest = [network.add_core(RBHost(pid, n, f)) for pid in members[: n - 1]]
    network.add_core(
        EquivocatingOrigin(members[-1], members, tag="t", value_a="A", value_b="B")
    )
    network.run_until_quiescent()
    delivered = {value for node in honest for (_, _, value) in node.delivered}
    assert len(delivered) <= 1
