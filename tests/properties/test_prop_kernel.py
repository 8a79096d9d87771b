"""The batched bounds kernel against its scalar oracle, and the
standing-query engines against each other.

Standing-query maintenance has one ingest path: every moved or
inserted object reaches the maintainers inside a packed
:class:`~repro.distances.batch.ObjectBlock`, whose Eq. 7/8 pruning
intervals come from :mod:`repro.distances.batch`.  The per-pair scalar
bounds (:func:`~repro.distances.bounds.object_bounds`,
:func:`~repro.queries.prob_range.probability_bounds`) still serve the
one-shot queries, and here they are the oracle:

* **per-pair exactness** — over random worlds (one and two floors,
  random door closures) and random batches, including
  :meth:`~repro.distances.batch.ObjectBlock.subset` views, the block
  kernel's interval and probability bounds equal the scalar ones
  exactly, pair by pair;
* **watches** — occupancy and count watches, absorbed through their
  batch hooks over a stream with inserts and deletes, equal a
  from-scratch evaluation;
* **engines** — a sharded monitor keeps every query's delta history
  identical to a single monitor's, and the process engine is
  bit-identical to the serial sharded one (delta stream and pair
  counters).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monitor_world import (
    build_world,
    register_random_prob_queries,
    register_random_queries,
)
from repro.api.specs import CountSpec, OccupancySpec
from repro.baselines import NaiveEvaluator
from repro.distances.batch import (
    block_object_bounds,
    block_probability_bounds,
    pack_block,
)
from repro.distances.bounds import object_bounds
from repro.objects import MovementStream
from repro.queries import QueryMonitor, QuerySession, ShardedMonitor
from repro.queries.maintainers import COUNT_KEY, OCCUPANCY_KEY
from repro.queries.prob_range import probability_bounds
from repro.space.events import CloseDoor

_SETTINGS = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _world(seed, floors, n_objects):
    """``build_world`` picks one or two floors from the seed's parity."""
    return build_world(2 * seed + (floors - 1), n_objects=n_objects)


def _register_watches(monitor, space, rng):
    """One occupancy watch and one count watch at random places."""
    pid = sorted(space.partitions)[rng.randrange(len(space.partitions))]
    occ = monitor.register(OccupancySpec(pid, 1))
    cnt = monitor.register(CountSpec(space.random_point(rng=rng), 30.0, 1))
    return [occ, cnt]


def _register_all(monitor, space, seed):
    """The full query mix, deterministically — so twin monitors get
    identical standing queries (ids included)."""
    rng = random.Random(seed)
    irqs, knns = register_random_queries(monitor, space, rng)
    probs = register_random_prob_queries(monitor, space, rng)
    watches = _register_watches(monitor, space, rng)
    return (
        [qid for qid, *_ in irqs]
        + [qid for qid, *_ in knns]
        + [qid for qid, *_ in probs]
        + watches
    )


def _decision_key(stats):
    """The prune-decision fingerprint of a monitor's pair counters."""
    return (
        stats.pairs_evaluated,
        stats.pairs_skipped,
        stats.pairs_refined,
        stats.pairs_recomputed,
        stats.full_recomputes,
    )


def _drive_twins(seed, monitors, worlds, n_batches=5, batch_size=7):
    """One mutation stream (absolute positions, so twin worlds stay in
    lockstep) driven through every monitor, with interleaved deletes
    and re-inserts; returns per-monitor lists of per-mutation delta
    tuples."""
    space, gen, pop, _index = worlds[0]
    rng = random.Random(seed ^ 0x7E57)
    stream = MovementStream(space, pop, gen, seed=seed + 1)
    histories = [[] for _ in monitors]
    for hist, monitor in zip(histories, monitors):
        hist.append(monitor.drain_pending_deltas().deltas)
    for _ in range(n_batches):
        batch = stream.next_moves(batch_size)
        for hist, monitor in zip(histories, monitors):
            hist.append(monitor.apply_moves(batch).deltas)
        if rng.random() < 0.5 and len(pop) > 15:
            victim = rng.choice(sorted(pop.ids()))
            # Each world re-inserts its own copy of the victim.
            removed = [monitor.apply_delete(victim) for monitor in monitors]
            for hist, monitor, out in zip(histories, monitors, removed):
                hist.append(out.deltas)
                hist.append(monitor.apply_insert(out.deleted).deltas)
    return histories


def _per_query(history, qid):
    """One query's deltas, tagged with the mutation that emitted them."""
    return [
        (step, delta)
        for step, deltas in enumerate(history)
        for delta in deltas
        if delta.query_id == qid
    ]


class TestBlockBoundsOracle:
    @pytest.mark.parametrize("floors", [1, 2])
    @given(seed=st.integers(0, 5_000))
    @_SETTINGS
    def test_block_bounds_equal_scalar_bounds(self, floors, seed):
        space, gen, pop, index = _world(seed, floors, n_objects=30)
        rng = random.Random(seed ^ 0xB0B)
        stream = MovementStream(space, pop, gen, seed=seed + 3)
        for _ in range(2):
            index.update_objects(stream.next_moves(10))
        if rng.random() < 0.5:
            # A closed door leaves some subregions unreached (infinite
            # tmin): the probability path's unreached floor kicks in.
            door = rng.choice(sorted(space.doors))
            index.apply_event(CloseDoor(door))
        session = QuerySession(index)
        grid = index.population.grid
        objects = [pop.get(oid) for oid in sorted(pop.ids())]
        rng.shuffle(objects)
        batch = objects[: rng.randint(1, len(objects))]
        block = pack_block(batch, space, grid, session.door_layout())
        keep = sorted(rng.sample(range(len(batch)), min(len(batch), 5)))
        views = [
            (batch, block),
            ([batch[j] for j in keep], block.subset(keep)),
        ]
        for _ in range(3):
            q = space.random_point(rng=rng)
            r = rng.uniform(5.0, 60.0)
            dd = session.door_distances(q)
            pack = session.kernel_pack(q)
            for objs, blk in views:
                intervals = block_object_bounds(pack, blk, q, space)
                los, his = block_probability_bounds(pack, blk, q, space, r)
                for j, obj in enumerate(objs):
                    assert intervals[j] == object_bounds(
                        q, obj, dd, space, grid
                    )
                    assert (los[j], his[j]) == probability_bounds(
                        index, q, obj, dd, r
                    )


class TestWatchesFromScratch:
    @given(seed=st.integers(0, 10_000))
    @_SETTINGS
    def test_watches_match_from_scratch(self, seed):
        """Occupancy and count watches absorb moves and inserts only
        through their batch hooks; after a stream with deletes and
        re-inserts they equal a fresh evaluation and the oracle."""
        world = build_world(seed, n_objects=30)
        space, gen, pop, index = world
        monitor = QueryMonitor(index)
        rng = random.Random(seed ^ 0xC0C)
        specs = []
        for _ in range(2):
            pid = sorted(space.partitions)[
                rng.randrange(len(space.partitions))
            ]
            specs.append(OccupancySpec(pid, rng.randint(1, 2)))
            specs.append(
                CountSpec(
                    space.random_point(rng=rng),
                    rng.uniform(15.0, 60.0),
                    rng.randint(1, 4),
                )
            )
        qids = [monitor.register(spec) for spec in specs]
        _drive_twins(seed, [monitor], [world], n_batches=6)
        assert monitor.stats.kernel_pairs > 0
        fresh = QueryMonitor(index)
        oracle = NaiveEvaluator(space, pop)
        grid = index.population.grid
        for qid, spec in zip(qids, specs):
            got = monitor.result_distances(qid)
            assert got == fresh.result_distances(fresh.register(spec))
            if isinstance(spec, OccupancySpec):
                cells = [grid.locate(obj.region.center) for obj in pop]
                n = sum(
                    c is not None and c.partition_id == spec.partition_id
                    for c in cells
                )
                key = OCCUPANCY_KEY
            else:
                n = len(oracle.range_query(spec.q, spec.r))
                key = COUNT_KEY
            assert got == ({key: float(n)} if n >= spec.threshold else {})


class TestEngineIdentity:
    @given(seed=st.integers(0, 10_000))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sharded_matches_single(self, seed):
        """Routing only skips pairs that cannot change a result, so
        every query's deltas (per mutation) match a single monitor."""
        worlds = [build_world(seed, n_objects=24) for _ in range(2)]
        space = worlds[0][0]
        single = QueryMonitor(worlds[0][3])
        sharded = ShardedMonitor(worlds[1][3], n_shards=4)
        try:
            qids = _register_all(single, space, seed)
            assert _register_all(sharded, space, seed) == qids
            h_single, h_sharded = _drive_twins(
                seed, [single, sharded], worlds
            )
            for qid in qids:
                assert _per_query(h_single, qid) == _per_query(h_sharded, qid)
                assert single.result_distances(qid) == \
                    sharded.result_distances(qid)
            assert sharded.stats.kernel_pairs > 0
        finally:
            sharded.close()

    @pytest.mark.parametrize("seed", [11, 4242])
    def test_process_matches_sharded(self, seed):
        worlds = [build_world(seed, n_objects=20) for _ in range(2)]
        space = worlds[0][0]
        serial = ShardedMonitor(worlds[0][3], n_shards=4)
        process = ShardedMonitor(worlds[1][3], n_shards=4, workers=2)
        try:
            qids = _register_all(serial, space, seed)
            assert _register_all(process, space, seed) == qids
            h_serial, h_process = _drive_twins(
                seed, [serial, process], worlds, n_batches=4
            )
            # Deterministic routing + ordered merge: the sharded delta
            # stream itself is identical, not just per-query views.
            assert h_serial == h_process
            for qid in qids:
                assert serial.result_distances(qid) == \
                    process.result_distances(qid)
            assert _decision_key(serial.stats) == \
                _decision_key(process.stats)
            assert process.stats.kernel_pairs > 0
        finally:
            serial.close()
            process.close()
