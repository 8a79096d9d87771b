"""Batched distance-bounds kernel for the standing-query hot path.

Every maintenance layer — single monitor, thread shards, process
workers — funnels into the same inner loop: for each moved object, each
standing query derives a pruning interval from the paper's bounds
(Lemmas 1-2/Eq. 7, Lemma 5/Eq. 8) and only undecided pairs pay an exact
refinement.  The scalar implementation in
:mod:`repro.distances.bounds` walks subregions and entry doors in
Python, and — worse — repeats the per-object geometry (instance-to-door
Euclidean extrema) once per *query*, even though it does not depend on
the query at all.

This module factors the pair bound into its two independent operands
and evaluates a whole ``(moved objects x standing queries)`` block in a
handful of numpy ops:

* :class:`DoorLayout` — per topology version, a partition-indexed view
  of the space's entry doors: door index rows and midpoint arrays,
  shared by both operands below.
* a **query-side pack** (:class:`QueryPack`) — the standing query's
  session-cached Dijkstra flattened into one ``(n_doors + 1,)`` weight
  vector (the extra slot is the padding sentinel, pinned at ``+inf``).
  Built once per query per topology version and cached on the
  :class:`~repro.queries.session.QuerySession` with the same
  pin/unpin/evict lifecycle as the search itself.
* an **object-side pack** (:class:`ObjectBlock`) — per ingest batch,
  every moved object's subregion stats (partition row, Euclidean
  min/max distances to that partition's entry-door midpoints, mass)
  packed into padded ``(n_subregions, max_doors)`` arrays **once**,
  shared across every standing query at the shard.

A pair's topological bounds then reduce to a gather + add + row-min
(``tmin(S) = min_d (w[d] + emin[S, d])``), with the query's own
partition patched by the scalar direct-path term, exactly as
:func:`repro.distances.bounds.subregion_stats` computes it.

This kernel is the only bounds path of standing-query maintenance;
the scalar :func:`~repro.distances.bounds.object_bounds` and
:func:`~repro.queries.prob_range.probability_bounds` remain for
one-shot queries and serve as its oracle.  Bit-identity with them is a
hard invariant, not an aspiration — the kernel property suite asserts
equal intervals and probability bounds pair by pair.  The arithmetic
is arranged so every float operation matches the scalar sequence:

* planar squared distance is ``dx*dx + dy*dy`` — the same single
  addition ``(xy - p) ** 2 .sum(axis=1)`` performs over two elements;
* the vertical leg adds ``dz * dz`` unconditionally: the scalar path
  skips the addition when ``dz == 0``, but ``x + 0.0`` is bitwise
  identity for the non-negative squared distances involved;
* an unreachable door carries weight ``+inf`` instead of being skipped:
  ``inf + finite`` never wins a ``min`` unless every door is
  unreachable, in which case both paths yield ``inf``;
* ``min``/``max`` reductions are order-insensitive for floats (no NaNs
  can arise), so numpy's reduction order is safe;
* multi-subregion objects hand their per-subregion extrema — packed in
  the same ``obj.subregions()`` order the scalar path iterates — to the
  *scalar* :func:`~repro.distances.bounds.probabilistic_bounds`, so the
  stable sort and the prefix/suffix float accumulation are literally
  the same code; likewise the probability-mass accumulation of the
  standing iPRQ runs as a sequential Python loop in subregion order.
"""

from __future__ import annotations

import numpy as np

from repro.distances.bounds import (
    DistanceInterval,
    SubregionStats,
    probabilistic_bounds,
)
from repro.geometry.point import Point
from repro.objects.uncertain import UncertainObject
from repro.space.doors_graph import DoorDistances
from repro.space.floorplan import IndoorSpace


class DoorLayout:
    """Partition-indexed entry-door arrays for one topology version.

    ``part_row[pid]`` names the row of partition ``pid``;
    ``entry_idx[row]`` holds the global door indices of its entry doors
    (in :meth:`~repro.space.floorplan.IndoorSpace.entry_doors` order —
    the order the scalar path iterates) and ``entry_mid[row]`` their
    midpoints as an ``(k, 3)`` array of ``x, y, floor`` columns.  Door
    index ``n_doors`` is the padding :attr:`sentinel`: every query-side
    weight vector pins it at ``+inf`` so padded slots never win a min.
    """

    __slots__ = (
        "topology_version",
        "door_index",
        "n_doors",
        "sentinel",
        "part_row",
        "entry_idx",
        "entry_mid",
    )

    def __init__(self, space: IndoorSpace) -> None:
        self.topology_version = space.topology_version
        self.door_index = {
            door_id: i for i, door_id in enumerate(space.doors)
        }
        self.n_doors = len(self.door_index)
        self.sentinel = self.n_doors
        self.part_row: dict[str, int] = {}
        self.entry_idx: list[np.ndarray] = []
        self.entry_mid: list[np.ndarray] = []
        for pid in space.partitions:
            doors = space.entry_doors(pid)
            self.part_row[pid] = len(self.entry_idx)
            self.entry_idx.append(
                np.array(
                    [self.door_index[d.door_id] for d in doors],
                    dtype=np.intp,
                )
            )
            self.entry_mid.append(
                np.array(
                    [
                        [d.midpoint.x, d.midpoint.y, float(d.midpoint.floor)]
                        for d in doors
                    ],
                    dtype=np.float64,
                ).reshape(len(doors), 3)
            )


class QueryPack:
    """One standing query's side of the batched bound: its cached full
    Dijkstra as a flat door-weight vector over a :class:`DoorLayout`."""

    __slots__ = ("dd", "layout", "w", "source_row")

    def __init__(self, dd: DoorDistances, layout: DoorLayout) -> None:
        self.dd = dd
        self.layout = layout
        w = np.full(layout.n_doors + 1, np.inf)
        index = layout.door_index
        for door_id, dist in dd.dist.items():
            row = index.get(door_id)
            if row is not None:
                w[row] = dist
        self.w = w
        self.source_row = layout.part_row.get(dd.source_partition, -1)


class ObjectBlock:
    """The object side of the batched bound: one ingest batch's
    subregion stats packed into padded arrays, shared across queries.

    Rows are subregions in ``(object, subregion)`` order — objects in
    batch order, subregions in ``obj.subregions()`` order (the order
    the scalar path iterates, which the stable sort inside
    :func:`~repro.distances.bounds.probabilistic_bounds` depends on).
    ``obj_offsets[j] : obj_offsets[j + 1]`` is object ``j``'s row span.
    """

    __slots__ = (
        "objects",
        "layout",
        "sub_door",
        "sub_min",
        "sub_max",
        "sub_part",
        "sub_pids",
        "sub_mass",
        "sub_instances",
        "obj_offsets",
    )

    def __init__(
        self,
        objects: list[UncertainObject],
        layout: DoorLayout,
        sub_door: np.ndarray,
        sub_min: np.ndarray,
        sub_max: np.ndarray,
        sub_part: np.ndarray,
        sub_pids: list[str],
        sub_mass: list[float],
        sub_instances: list,
        obj_offsets: np.ndarray,
    ) -> None:
        self.objects = objects
        self.layout = layout
        self.sub_door = sub_door
        self.sub_min = sub_min
        self.sub_max = sub_max
        self.sub_part = sub_part
        self.sub_pids = sub_pids
        self.sub_mass = sub_mass
        self.sub_instances = sub_instances
        self.obj_offsets = obj_offsets

    def __len__(self) -> int:
        return len(self.objects)

    def subset(self, indices: list[int]) -> "ObjectBlock":
        """The block restricted to the objects at ``indices`` (batch
        positions) — what the sharded router hands each shard.  Rows
        are copied in order, so the subset is value-identical to
        packing the routed objects directly (padding columns beyond a
        subset's own widest partition stay at the sentinel, which the
        weight vector maps to ``+inf`` — they never win a min)."""
        rows: list[int] = []
        offsets = [0]
        off = self.obj_offsets
        for j in indices:
            rows.extend(range(off[j], off[j + 1]))
            offsets.append(len(rows))
        return ObjectBlock(
            [self.objects[j] for j in indices],
            self.layout,
            self.sub_door[rows],
            self.sub_min[rows],
            self.sub_max[rows],
            self.sub_part[rows],
            [self.sub_pids[i] for i in rows],
            [self.sub_mass[i] for i in rows],
            [self.sub_instances[i] for i in rows],
            np.array(offsets, dtype=np.intp),
        )


def pack_block(
    objects: list[UncertainObject],
    space: IndoorSpace,
    grid,
    layout: DoorLayout,
) -> ObjectBlock:
    """Pack one batch's subregion stats — the per-object work the
    scalar path repeats per query, paid once here.

    Per subregion, the instance-to-door Euclidean extrema come from a
    single ``(n_instances, n_doors)`` distance matrix whose per-door
    columns are bit-identical to the scalar per-door
    :meth:`~repro.objects.instances.InstanceSet.min_distance_to` /
    ``max_distance_to`` calls (see the module docstring for the float
    argument).
    """
    fh = space.floor_height
    rows_door: list[np.ndarray] = []
    rows_min: list[np.ndarray] = []
    rows_max: list[np.ndarray] = []
    sub_part: list[int] = []
    sub_pids: list[str] = []
    sub_mass: list[float] = []
    sub_instances: list = []
    offsets = [0]
    for obj in objects:
        subs = obj.subregions(space, grid)
        for s in subs:
            row = layout.part_row[s.partition_id]
            idx = layout.entry_idx[row]
            inst = s.instances
            if idx.size:
                mids = layout.entry_mid[row]
                dx = inst.xy[:, 0][:, None] - mids[:, 0][None, :]
                dy = inst.xy[:, 1][:, None] - mids[:, 1][None, :]
                d2 = dx * dx + dy * dy
                dz = (float(inst.floor) - mids[:, 2]) * fh
                d = np.sqrt(d2 + (dz * dz)[None, :])
                rows_min.append(d.min(axis=0))
                rows_max.append(d.max(axis=0))
            else:
                empty = np.empty(0, dtype=np.float64)
                rows_min.append(empty)
                rows_max.append(empty)
            rows_door.append(idx)
            sub_part.append(row)
            sub_pids.append(s.partition_id)
            sub_mass.append(s.mass)
            sub_instances.append(inst)
        offsets.append(offsets[-1] + len(subs))
    n_sub = len(rows_door)
    dmax = max((r.size for r in rows_door), default=0)
    dmax = max(dmax, 1)
    sub_door = np.full((n_sub, dmax), layout.sentinel, dtype=np.intp)
    sub_min = np.zeros((n_sub, dmax), dtype=np.float64)
    sub_max = np.zeros((n_sub, dmax), dtype=np.float64)
    for i, idx in enumerate(rows_door):
        k = idx.size
        if k:
            sub_door[i, :k] = idx
            sub_min[i, :k] = rows_min[i]
            sub_max[i, :k] = rows_max[i]
    return ObjectBlock(
        list(objects),
        layout,
        sub_door,
        sub_min,
        sub_max,
        np.array(sub_part, dtype=np.intp),
        sub_pids,
        sub_mass,
        sub_instances,
        np.array(offsets, dtype=np.intp),
    )


def _subregion_extrema(
    pack: QueryPack, block: ObjectBlock, q: Point, fh: float
) -> tuple[np.ndarray, np.ndarray]:
    """``tmin(S)``/``tmax(S)`` per block row — the whole-block twin of
    :func:`repro.distances.bounds.subregion_stats` (without the
    ``unreached_floor`` patch, which the probability path applies
    itself).  Padded/unreachable door slots carry ``+inf`` weights and
    therefore never win the row min."""
    wrow = pack.w[block.sub_door]
    tmin = (wrow + block.sub_min).min(axis=1)
    tmax = (wrow + block.sub_max).min(axis=1)
    src = pack.source_row
    if src >= 0:
        for i in np.nonzero(block.sub_part == src)[0]:
            inst = block.sub_instances[i]
            tmin[i] = min(tmin[i], inst.min_distance_to(q, fh))
            tmax[i] = min(tmax[i], inst.max_distance_to(q, fh))
    return tmin, tmax


def block_object_bounds(
    pack: QueryPack,
    block: ObjectBlock,
    q: Point,
    space: IndoorSpace,
) -> list[DistanceInterval]:
    """Per-object pruning intervals for the whole block — the batched
    twin of :func:`repro.distances.bounds.object_bounds`, in block
    order.  Single-partition objects reduce their row span directly
    (Eq. 7); multi-partition objects hand their rows to the scalar
    :func:`~repro.distances.bounds.probabilistic_bounds` (Eq. 8), so
    sort stability and float accumulation match the scalar path by
    construction."""
    tmin, tmax = _subregion_extrema(pack, block, q, space.floor_height)
    off = block.obj_offsets
    out: list[DistanceInterval] = []
    for j in range(len(block.objects)):
        a, b = off[j], off[j + 1]
        if b - a == 1:
            out.append(DistanceInterval(float(tmin[a]), float(tmax[a])))
        else:
            stats = [
                SubregionStats(
                    block.sub_pids[i],
                    float(tmin[i]),
                    float(tmax[i]),
                    block.sub_mass[i],
                )
                for i in range(a, b)
            ]
            out.append(probabilistic_bounds(stats))
    return out


def block_probability_bounds(
    pack: QueryPack,
    block: ObjectBlock,
    q: Point,
    space: IndoorSpace,
    r: float,
) -> tuple[list[float], list[float]]:
    """Per-object qualifying-probability bounds for the whole block —
    the batched twin of
    :func:`repro.queries.prob_range.probability_bounds`, in block
    order.  Subregions no reached door can serve get the scalar path's
    ``unreached_floor = r + 1.0`` lower bound, and the per-object mass
    accumulation runs sequentially in subregion order so float sums
    match the scalar loop exactly."""
    tmin, tmax = _subregion_extrema(pack, block, q, space.floor_height)
    unreached = ~np.isfinite(tmin)
    if unreached.any():
        tmin = np.where(unreached, r + 1.0, tmin)
    off = block.obj_offsets
    los: list[float] = []
    his: list[float] = []
    mass = block.sub_mass
    for j in range(len(block.objects)):
        lo = hi = 0.0
        for i in range(off[j], off[j + 1]):
            if tmax[i] <= r:
                lo += mass[i]
                hi += mass[i]
            elif tmin[i] <= r:
                hi += mass[i]
        los.append(lo)
        his.append(hi)
    return los, his
