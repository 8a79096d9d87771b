"""Tests for the benchmark harness itself.

Run from the repository root with ``python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import pytest

from perfbench import harness, workloads
from perfbench.tracer import Tracer, account, self_times, union_length
from repro.bench.workloads import WorkloadFactory


@pytest.fixture(scope="module")
def space():
    """The SMALL profile's venue, shared by the tests."""
    return WorkloadFactory(workloads.PROFILE).space()


# -- the percentile rule ------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    """p90 needs ten samples above its rank."""
    assert harness.samples_beyond(100, 0.9) == 10
    assert harness.supports(92, 0.9)
    assert not harness.supports(91, 0.9)
    assert harness.supports(20, 0.5)
    assert not harness.supports(19, 0.5)


def test_percentile_estimates_and_refuses_thin_tails():
    """Known quantiles; unsupported ones raise."""
    xs = list(range(100))
    assert harness.percentile(xs, 0.5) == pytest.approx(49.5)
    assert harness.percentile(xs, 0.9) == pytest.approx(89.5, abs=0.01)
    assert harness.percentile([7.0] * 100, 0.9) == pytest.approx(7.0)
    with pytest.raises(ValueError, match="cannot support p90"):
        harness.percentile(xs[:91], 0.9)


def test_percentile_moves_smoothly_across_a_knee():
    """A knee moves the estimate only partly."""
    # 100 samples at 1.0 with a slow tail of 9 or 11 samples at 2.0:
    # an order statistic at p90 jumps from 1.0 to 2.0, the estimate
    # moves by a fraction of that.
    low = harness.percentile([1.0] * 91 + [2.0] * 9, 0.9)
    high = harness.percentile([1.0] * 89 + [2.0] * 11, 0.9)
    assert 1.0 < low < high < 2.0
    assert high - low < 0.6


# -- seed-addressed inputs ------------------------------------------------


def _digest(space, name: str, seed: int) -> str:
    workload = workloads.WORKLOADS[name](space)
    inputs = workload.inputs(seed, 1)
    return harness.trace_digest(inputs.walk.initial, inputs.ops)


def test_same_seed_gives_the_same_trace(space):
    """The input digest depends on the seed only."""
    assert _digest(space, "oneshot-rw", 3) == _digest(space, "oneshot-rw", 3)
    assert _digest(space, "oneshot-rw", 3) != _digest(space, "oneshot-rw", 4)


def test_shadow_walk_leaves_the_initial_population_alone(space):
    """The walk mutates only its shadow."""
    walk = harness.ShadowWalk(space, workloads.PROFILE, 5)
    before = harness.trace_digest(walk.initial, [])
    moves = walk.moves(30)
    walk.insert()
    walk.delete()
    assert harness.trace_digest(walk.initial, []) == before
    moved = {m.object_id for m in moves}
    initial = {o.object_id: o for o in walk.initial}
    # The shadow population follows the walk; the initial copies do not.
    assert any(
        walk.population.get(oid).region != initial[oid].region
        for oid in moved
        if oid in walk.population
    )


# -- span arithmetic ------------------------------------------------------


def test_union_length_merges_overlaps():
    """Overlapping intervals count once."""
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_child_coverage():
    """Self time excludes covered child time."""
    spans = [
        (0.0, 10.0, None),  # root
        (1.0, 4.0, 0),  # child
        (3.0, 6.0, 0),  # overlapping sibling
        (2.0, 3.0, 1),  # grandchild
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_self_times_and_remainder_add_up_to_wall_time():
    """The accounting identity and its check."""
    spans = [(1.0, 4.0, None), (2.0, 3.0, 0), (5.0, 7.0, None)]
    acct = account(spans, 0.0, 10.0)
    assert acct["remainder"] == pytest.approx(5.0)
    assert acct["error"] == pytest.approx(0.0)
    # Overlapping roots count twice: the check must notice.
    acct = account([(0.0, 6.0, None), (4.0, 10.0, None)], 0.0, 10.0)
    assert acct["error"] == pytest.approx(0.2)


def test_tracer_wraps_where_callers_look_up_and_restores():
    """Patches apply and are undone."""
    import repro.queries.monitor as monitor

    original = monitor.pack_block
    tracer = Tracer()
    with tracer.installed():
        assert monitor.pack_block is not original
    assert monitor.pack_block is original


def test_nested_same_name_calls_fold_into_one_span():
    """Nested same-name calls make one span."""
    tracer = Tracer()

    def leaf():
        return "x"

    inner = tracer._span(leaf, "framing.encode")

    def outer_fn():
        return inner()

    outer = tracer._span(outer_fn, "framing.encode")
    with tracer.installed():
        outer()
    names, spans = tracer.spans()
    assert names.count("framing.encode") == 1
    assert tracer.counters["framing.encode.bytes"] == 1


# -- exact work counters ------------------------------------------------


@pytest.mark.parametrize("name", ["standing-range", "served-durable"])
def test_same_seed_runs_report_identical_counters(space, tmp_path, name):
    """Work counters repeat exactly."""
    workload = workloads.WORKLOADS[name](space)
    workload.prefix = 4
    inputs = workload.inputs(9, 1)
    counters = []
    for _ in range(2):
        system, _ = workload.setup(inputs, tmp_path)
        try:
            base = workload.counters(system)
            loop = workload.drive(system, inputs, 0.0, 4, probes=False)
            assert not loop.errors
            counters.append(workloads._delta(loop.counters, base))
            assert not workload.gate(system, inputs)
        finally:
            workload.close(system)
    assert counters[0] == counters[1]
    assert counters[0]["monitor.updates_seen"] == 4 * workload.batch


@pytest.mark.parametrize("seconds", [1, 30])
def test_trace_length_follows_the_run_length_only(space, seconds):
    """Trace length is a function of the seconds, never of speed."""
    for cls in workloads.WORKLOADS.values():
        workload = cls(space)
        n = workload.trace_length(seconds)
        assert n >= workload.min_ops >= workload.prefix
        assert n >= workload.ops_per_second * seconds


def test_a_run_ends_with_its_trace(space, tmp_path):
    """A loop whose trace runs out stops there instead of replaying."""
    workload = workloads.WORKLOADS["standing-range"](space)
    workload.prefix = 2
    inputs = workload.inputs(9, 1)
    del inputs.ops[3:]
    system, _ = workload.setup(inputs, tmp_path)
    try:
        loop = workload.drive(system, inputs, 60.0, probes=False)
        assert not workload.gate(system, inputs)
    finally:
        workload.close(system)
    assert loop.ops == 3
    assert loop.updates == 3 * workload.batch


def test_latencies_leave_out_stolen_samples_while_enough_remain():
    """Stolen samples drop out only if the calm ones support q."""
    loop = workloads.Loop()
    for i in range(100):
        loop.add("ingest", 1.0, calm=i >= 10)
    loop.add("ingest", 9.0, calm=False)
    assert loop.latencies("ingest", 0.5) == [1.0] * 90
    assert len(loop.latencies("ingest", 0.9)) == 101
    assert loop.stolen() == {"ingest": 11}
