"""Unit tests for the density-derived bucketed router: grid sizing
from standing-query density, empty-shard routing, single-floor
clustering, and vectorized/scalar admission agreement."""

import math
import random

import pytest

from repro.api.specs import KNNSpec, RangeSpec
from repro.geometry.rect import Box3
from repro.index import CompositeIndex
from repro.objects import ObjectGenerator
from repro.queries import ShardedMonitor
from repro.queries import shard as shard_mod
from repro.queries.shard import (
    _MAX_BUCKETS_PER_SIDE,
    _MIN_BUCKETS_PER_SIDE,
    _ReachBucket,
    _ShardReach,
    _box_rows,
    _buckets_per_side,
)
from repro.space.mall import build_mall


def _reobserve(gen, obj):
    """A fresh position update for an object at its current region —
    an absolute move that provably stays on its floor."""
    from repro.objects.population import ObjectMove

    return ObjectMove(
        obj.object_id,
        obj.region,
        gen.sample_instances(obj.region),
    )


def _mall_world(floors=1, n_objects=12, seed=3):
    space = build_mall(
        floors=floors,
        bands=2,
        rooms_per_band_side=2,
        floor_size=100.0,
        hallway_width=4.0,
        stair_size=10.0,
        seed=seed,
    )
    gen = ObjectGenerator(space, radius=3.0, n_instances=4, seed=seed)
    pop = gen.generate(n_objects)
    return space, gen, pop, CompositeIndex.build(space, pop)


class TestBucketsPerSide:
    def test_boundaries(self):
        assert _buckets_per_side(-1) == _MIN_BUCKETS_PER_SIDE
        assert _buckets_per_side(0) == _MIN_BUCKETS_PER_SIDE
        assert _buckets_per_side(1) == 2
        assert _buckets_per_side(2) == 3
        # Sixteen queries reproduce the historical fixed grid of 8.
        assert _buckets_per_side(16) == 8
        assert _buckets_per_side(256) == _MAX_BUCKETS_PER_SIDE
        assert _buckets_per_side(10_000) == _MAX_BUCKETS_PER_SIDE

    def test_monotone_in_density(self):
        sides = [_buckets_per_side(n) for n in range(0, 300)]
        assert sides == sorted(sides)
        assert all(
            _MIN_BUCKETS_PER_SIDE <= s <= _MAX_BUCKETS_PER_SIDE
            for s in sides
        )


class TestZeroStandingQueries:
    def test_empty_shards_build_no_reach_and_route_nothing(self):
        space, gen, pop, index = _mall_world()
        monitor = ShardedMonitor(index, n_shards=4)
        try:
            assert all(
                monitor._reach_of(s) is None
                for s in range(len(monitor.shards))
            )
            oid = sorted(pop.ids())[0]
            batch = monitor.apply_moves([_reobserve(gen, pop.get(oid))])
            assert batch.deltas == ()
            # Routing decisions are only counted over shards that hold
            # queries; with none, the router has nothing to prove.
            assert monitor.routing.shard_visits == 0
            assert monitor.routing.shards_skipped == 0
            assert monitor.routing.bucket_skips == 0
        finally:
            monitor.close()


class TestDensityDerivedGrid:
    def test_grid_resolution_follows_shard_density(self, monkeypatch):
        """The rebuild asks _buckets_per_side for exactly the shard's
        standing-query count — the fixed-8 grid is gone."""
        space, gen, pop, index = _mall_world()
        monitor = ShardedMonitor(index, n_shards=1)
        try:
            seen: list[int] = []
            real = _buckets_per_side

            def recording(n):
                seen.append(n)
                return real(n)

            monkeypatch.setattr(
                shard_mod, "_buckets_per_side", recording
            )
            rng = random.Random(11)
            for i in range(5):
                monitor.register(
                    RangeSpec(space.random_point(rng=rng), 8.0),
                    query_id=f"q{i}",
                )
            monitor._reach_of(0)
            assert seen[-1] == 5
            for i in range(5, 16):
                monitor.register(
                    RangeSpec(space.random_point(rng=rng), 8.0),
                    query_id=f"q{i}",
                )
            monitor._reach_of(0)
            assert seen[-1] == 16
            assert real(seen[-1]) == 8
        finally:
            monitor.close()

    def test_buckets_tighten_the_coarse_box(self):
        space, gen, pop, index = _mall_world()
        monitor = ShardedMonitor(index, n_shards=1)
        try:
            rng = random.Random(7)
            for i in range(6):
                monitor.register(
                    RangeSpec(space.random_point(rng=rng), 6.0),
                    query_id=f"q{i}",
                )
            reach = monitor._reach_of(0)
            assert reach is not None and reach.buckets
            for bucket in reach.buckets:
                assert bucket.radius <= reach.radius
                assert bucket.box.minx >= reach.box.minx
                assert bucket.box.maxx <= reach.box.maxx
                assert bucket.box.miny >= reach.box.miny
                assert bucket.box.maxy <= reach.box.maxy
        finally:
            monitor.close()


class TestSingleFloorClustering:
    def test_other_floor_updates_are_skipped(self):
        """All standing queries on floor 0 of a two-floor mall: the
        reach geometry must confine itself to floor 0, so floor-1
        movement never visits the shard."""
        space, gen, pop, index = _mall_world(floors=2, n_objects=16)
        monitor = ShardedMonitor(index, n_shards=1)
        try:
            rng = random.Random(5)
            n = 0
            while n < 4:
                q = space.random_point(rng=rng)
                if q.floor != 0:
                    continue
                monitor.register(RangeSpec(q, 6.0), query_id=f"q{n}")
                n += 1
            reach = monitor._reach_of(0)
            fh = space.floor_height
            assert reach.box.maxz < fh  # floor-0 elevations only
            for bucket in reach.buckets:
                assert bucket.box.maxz < fh
            skipped_before = monitor.routing.shards_skipped
            moved_far = 0
            for oid in sorted(pop.ids()):
                obj = pop.get(oid)
                if obj.region.center.floor != 1:
                    continue
                monitor.apply_moves([_reobserve(gen, obj)])
                moved_far += 1
            assert moved_far > 0
            # Floor separation exceeds every influence radius here, so
            # each cross-floor batch skipped the whole shard.
            assert monitor.routing.shards_skipped == \
                skipped_before + moved_far
        finally:
            monitor.close()


class TestVectorizedAdmission:
    def test_admit_moves_matches_scalar_router(self):
        """admit_moves over a random batch equals per-update
        may_affect_move — the vectorization changes no decision."""
        rng = random.Random(42)

        def random_box():
            x = rng.uniform(0.0, 100.0)
            y = rng.uniform(0.0, 100.0)
            z = rng.choice([0.0, 4.0])
            w = rng.uniform(0.0, 6.0)
            return Box3(x, y, z, x + w, y + w, z)

        buckets = tuple(
            _ReachBucket(random_box(), rng.uniform(0.0, 15.0))
            for _ in range(5)
        )
        coarse = Box3(0.0, 0.0, 0.0, 100.0, 100.0, 4.0)
        reach = _ShardReach(
            coarse, max(b.radius for b in buckets), buckets
        )
        old_boxes = [random_box() for _ in range(40)]
        new_boxes = [random_box() for _ in range(40)]
        mask = reach.admit_moves(
            _box_rows(old_boxes), _box_rows(new_boxes)
        )
        for keep, old, new in zip(mask, old_boxes, new_boxes):
            assert bool(keep) == reach.may_affect_move(old, new)

    def test_infinite_reach_admits_everything(self):
        p = Box3(5.0, 5.0, 0.0, 5.0, 5.0, 0.0)
        reach = _ShardReach(p, math.inf)
        far = Box3(900.0, 900.0, 0.0, 901.0, 901.0, 0.0)
        assert reach.may_affect(far)
        mask = reach.admit_moves(_box_rows([far]), _box_rows([far]))
        assert bool(mask[0])
