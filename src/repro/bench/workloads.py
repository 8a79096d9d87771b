"""Workload construction for the benchmark harness.

The paper's grid (Section V-A, defaults bolded there):

* building: 600 m x 600 m x 4 m floors, 100 rooms + 4 staircases per
  floor; 10 / **20** / 30 floors (~1K / 2K / 3K partitions);
* objects: 10K / **20K** / 30K, uncertainty radii 5 / **10** / 15 m
  (the paper's Figure 12(c) x-axis shows diameters 10 / 20 / 30),
  100 Gaussian instances each;
* queries: 50 random query points; iRQ ranges 50 / **100** / 150 m;
  ikNNQ k = 50 / **100** / 150; fanout 20.

Scaled profiles shrink every axis proportionally so the harness runs in
minutes in pure Python while preserving the *shape* of each figure.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

from repro.api.specs import KNNSpec, ProbRangeSpec, RangeSpec
from repro.geometry.point import Point
from repro.index.composite import CompositeIndex
from repro.objects.generator import MovementStream, ObjectGenerator
from repro.objects.population import ObjectPopulation
from repro.queries.monitor import MonitorStats, QueryMonitor
from repro.queries.shard import ShardedMonitor
from repro.space.floorplan import IndoorSpace
from repro.space.mall import build_mall


@dataclass(frozen=True)
class ScaleProfile:
    """One benchmark scale: the swept axes of the paper's grid."""

    name: str
    floors_grid: tuple[int, ...]      # partition sweep (Figs 12d/13d/15b/15d)
    default_floors: int
    objects_grid: tuple[int, ...]     # |O| sweep (Figs 12a/13a/14)
    default_objects: int
    radii_grid: tuple[float, ...]     # uncertainty sweep (Figs 12c/13c)
    default_radius: float
    ranges_grid: tuple[float, ...]    # iRQ r sweep
    default_range: float
    k_grid: tuple[int, ...]           # ikNNQ k sweep
    default_k: int
    n_instances: int
    n_queries: int
    bands: int
    rooms_per_band_side: int
    floor_size: float
    hallway_width: float
    stair_size: float
    fanout: int = 20
    seed: int = 2013  # the paper's year; fixed for reproducibility


SMALL = ScaleProfile(
    name="small",
    floors_grid=(1, 2, 3),
    default_floors=2,
    objects_grid=(300, 600, 900),
    default_objects=600,
    radii_grid=(2.5, 5.0, 7.5),
    default_radius=5.0,
    ranges_grid=(25.0, 50.0, 75.0),
    default_range=50.0,
    k_grid=(10, 20, 30),
    default_k=20,
    n_instances=20,
    n_queries=5,
    bands=3,
    rooms_per_band_side=5,
    floor_size=300.0,
    hallway_width=5.0,
    stair_size=15.0,
)

MEDIUM = ScaleProfile(
    name="medium",
    floors_grid=(2, 4, 6),
    default_floors=4,
    objects_grid=(1000, 2000, 3000),
    default_objects=2000,
    radii_grid=(5.0, 10.0, 15.0),
    default_radius=10.0,
    ranges_grid=(50.0, 100.0, 150.0),
    default_range=100.0,
    k_grid=(25, 50, 75),
    default_k=50,
    n_instances=50,
    n_queries=10,
    bands=5,
    rooms_per_band_side=10,
    floor_size=600.0,
    hallway_width=6.0,
    stair_size=20.0,
)

PAPER = ScaleProfile(
    name="paper",
    floors_grid=(10, 20, 30),
    default_floors=20,
    objects_grid=(10_000, 20_000, 30_000),
    default_objects=20_000,
    radii_grid=(5.0, 10.0, 15.0),
    default_radius=10.0,
    ranges_grid=(50.0, 100.0, 150.0),
    default_range=100.0,
    k_grid=(50, 100, 150),
    default_k=100,
    n_instances=100,
    n_queries=50,
    bands=5,
    rooms_per_band_side=10,
    floor_size=600.0,
    hallway_width=6.0,
    stair_size=20.0,
)

_PROFILES = {p.name: p for p in (SMALL, MEDIUM, PAPER)}


def active_profile() -> ScaleProfile:
    """The profile selected by ``REPRO_BENCH_SCALE`` (default small)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown REPRO_BENCH_SCALE={name!r}; "
            f"choose from {sorted(_PROFILES)}"
        ) from None


class WorkloadFactory:
    """Builds and caches spaces, populations, indexes and query points.

    Construction dominates benchmark wall-clock, so everything is memoised
    by its parameter tuple.
    """

    def __init__(
        self,
        profile: ScaleProfile | None = None,
        seed: int | None = None,
    ) -> None:
        self.profile = profile or active_profile()
        #: The single base seed every derived stream of randomness
        #: (space layout, population, query points, movement) hangs off
        #: — profile default unless the caller pins one (the grid
        #: runner records it in each cell's ``params.json``, so a cell
        #: is reproducible from that file alone).
        self.seed = self.profile.seed if seed is None else int(seed)
        self._spaces: dict[int, IndoorSpace] = {}
        self._populations: dict[tuple[int, int, float], ObjectPopulation] = {}
        self._indexes: dict[tuple[int, int, float], CompositeIndex] = {}

    # ------------------------------------------------------------------

    def space(self, floors: int | None = None) -> IndoorSpace:
        p = self.profile
        floors = floors or p.default_floors
        if floors not in self._spaces:
            self._spaces[floors] = build_mall(
                floors=floors,
                bands=p.bands,
                rooms_per_band_side=p.rooms_per_band_side,
                floor_size=p.floor_size,
                hallway_width=p.hallway_width,
                stair_size=p.stair_size,
                seed=self.seed,
            )
        return self._spaces[floors]

    def population(
        self,
        floors: int | None = None,
        n_objects: int | None = None,
        radius: float | None = None,
    ) -> ObjectPopulation:
        p = self.profile
        key = (
            floors or p.default_floors,
            n_objects or p.default_objects,
            radius or p.default_radius,
        )
        if key not in self._populations:
            space = self.space(key[0])
            gen = ObjectGenerator(
                space,
                radius=key[2],
                n_instances=p.n_instances,
                seed=self.seed + key[1],
            )
            self._populations[key] = gen.generate(key[1])
        return self._populations[key]

    def index(
        self,
        floors: int | None = None,
        n_objects: int | None = None,
        radius: float | None = None,
    ) -> CompositeIndex:
        p = self.profile
        key = (
            floors or p.default_floors,
            n_objects or p.default_objects,
            radius or p.default_radius,
        )
        if key not in self._indexes:
            self._indexes[key] = CompositeIndex.build(
                self.space(key[0]),
                self.population(*key),
                fanout=p.fanout,
            )
        return self._indexes[key]

    def query_points(
        self, floors: int | None = None, n: int | None = None
    ) -> list[Point]:
        p = self.profile
        space = self.space(floors)
        rng = random.Random(self.seed + 17)
        return [
            space.random_point(rng=rng) for _ in range(n or p.n_queries)
        ]

    # ------------------------------------------------------------------
    # streaming (continuous-monitoring) workloads
    # ------------------------------------------------------------------

    def stream_scenario(
        self,
        n_irq: int = 4,
        n_iknn: int = 2,
        n_iprq: int = 0,
        floors: int | None = None,
        n_objects: int | None = None,
        radius: float | None = None,
        hop_probability: float = 0.5,
        n_shards: int | None = None,
        query_range: float | None = None,
        k: int | None = None,
        p_min: float = 0.5,
        workers: int = 1,
        backend: str = "thread",
        seed: int | None = None,
    ) -> "StreamScenario":
        """A continuous-monitoring scenario: standing queries + stream.

        Streaming *mutates* the population, so this builds a dedicated
        population and index (never the factory's cached ones — those
        must stay pristine for the one-shot benchmarks).  The space is
        shared read-only; streaming scenarios must not apply topology
        events to it.

        ``n_shards`` selects a :class:`ShardedMonitor` front-end instead
        of a single :class:`QueryMonitor` (``bench_serving`` compares
        the two over identical streams); ``workers`` and ``backend``
        pass through to it (parallel ingest / ``"process"`` shard
        workers that escape the GIL).  ``n_iprq`` mixes standing
        probabilistic-threshold range queries (iPRQ, threshold
        ``p_min``, range = the profile's default range) into the
        workload — the ``--prob`` serving variant.  ``seed`` overrides
        the factory's base seed for this scenario's population and
        movement stream only (the shared space keeps the factory
        seed — grid cells vary workloads without rebuilding venues).
        """
        p = self.profile
        space = self.space(floors)
        radius = radius or p.default_radius
        base_seed = self.seed if seed is None else int(seed)
        gen = ObjectGenerator(
            space,
            radius=radius,
            n_instances=p.n_instances,
            seed=base_seed + 4242,
            id_prefix="s",
        )
        population = gen.generate(n_objects or p.default_objects)
        index = CompositeIndex.build(space, population, fanout=p.fanout)
        stream = MovementStream(
            space, population, gen,
            hop_probability=hop_probability, seed=base_seed + 7,
        )
        if n_shards is None:
            monitor: QueryMonitor | ShardedMonitor = QueryMonitor(index)
        else:
            monitor = ShardedMonitor(
                index,
                n_shards=n_shards,
                workers=workers,
                backend=backend,
            )
        if query_range is None:
            query_range = p.default_range
        if k is None:
            k = p.default_k
        points = self.query_points(floors, n=n_irq + n_iknn + n_iprq)
        irq_ids = [
            monitor.register(RangeSpec(q, query_range))
            for q in points[:n_irq]
        ]
        knn_ids = [
            monitor.register(KNNSpec(q, k))
            for q in points[n_irq:n_irq + n_iknn]
        ]
        iprq_ids = [
            monitor.register(ProbRangeSpec(q, query_range, p_min))
            for q in points[n_irq + n_iknn:]
        ]
        return StreamScenario(
            index, monitor, stream, irq_ids, knn_ids, iprq_ids
        )


@dataclass
class StreamScenario:
    """One continuous-monitoring setup: a dedicated mutable index, the
    monitor (single or sharded) with its standing queries, and the
    movement stream."""

    index: CompositeIndex
    monitor: QueryMonitor | ShardedMonitor
    stream: MovementStream
    irq_ids: list[str]
    knn_ids: list[str]
    iprq_ids: list[str] = field(default_factory=list)

    @property
    def query_ids(self) -> list[str]:
        """Every standing query id, in registration order."""
        return self.irq_ids + self.knn_ids + self.iprq_ids

    def absorb_batch(self, batch_size: int) -> float:
        """Generate and absorb one batch; returns absorb seconds (the
        generation cost is excluded — it models the positioning system,
        not the monitor)."""
        batch = self.stream.next_moves(batch_size)
        t0 = time.perf_counter()
        self.monitor.apply_moves(batch)
        return time.perf_counter() - t0

    def reexecute_all(self) -> float:
        """Seconds to re-run every standing query from scratch — the
        per-batch cost a non-incremental monitor would pay."""
        from repro.queries.knn import ikNNQ
        from repro.queries.prob_range import iPRQ
        from repro.queries.range_query import iRQ

        specs = [
            self.monitor.query_spec(qid) for qid in self.query_ids
        ]
        t0 = time.perf_counter()
        for spec in specs:
            if isinstance(spec, RangeSpec):
                iRQ(spec.q, spec.r, self.index)
            elif isinstance(spec, KNNSpec):
                ikNNQ(spec.q, spec.k, self.index)
            else:
                iPRQ(spec.q, spec.r, spec.p_min, self.index)
        return time.perf_counter() - t0


@dataclass
class StreamReport:
    """Aggregate outcome of a streamed run (see ``bench_stream``)."""

    updates: int
    elapsed_s: float
    stats: MonitorStats

    @property
    def updates_per_sec(self) -> float:
        return self.updates / self.elapsed_s if self.elapsed_s else 0.0


def run_stream(
    scenario: StreamScenario, n_batches: int, batch_size: int
) -> StreamReport:
    """Drive a scenario for ``n_batches`` and aggregate throughput.

    ``updates`` counts the moves actually absorbed (the stream clamps a
    batch to the population size), not the nominal product."""
    seen_before = scenario.monitor.stats.updates_seen
    elapsed = 0.0
    for _ in range(n_batches):
        elapsed += scenario.absorb_batch(batch_size)
    # Re-read after the loop: a ShardedMonitor's `stats` is a computed
    # aggregate snapshot, not a live counter object.
    stats = scenario.monitor.stats
    return StreamReport(
        updates=stats.updates_seen - seen_before,
        elapsed_s=elapsed,
        stats=stats,
    )
