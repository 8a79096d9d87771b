"""Pluggable standing-query maintainers.

A *maintainer* owns the incremental maintenance of one standing query's
result over streamed object updates.  :class:`~repro.queries.monitor.
QueryMonitor` used to hard-code two standing-query kinds and branch on
``isinstance`` throughout its update paths; every new watchable query
kind meant touching the monitor core, the shard router, the delta
model, the wire protocol and the service façade by hand.  The monitor
now dispatches every per-query decision through the
:class:`StandingQuery` protocol defined here, so adding a query kind is
one maintainer class in this file (plus a ``@register_maintainer``
line) — the monitor, sharded router, serving layer and
:class:`repro.api.QueryService` pick it up through the same
``register(spec)`` path with no further plumbing.

The protocol
------------

A maintainer is constructed from ``(query_id, spec, host)`` where
``host`` is the owning monitor — the narrow surface a maintainer may
use is ``host.index`` / ``host.session`` / ``host.stats`` and
``host.touch(self)`` (record the pre-mutation result before the first
write in a mutation scope, so the monitor can diff it into a
:class:`~repro.queries.deltas.ResultDelta`).  It must implement:

* :meth:`~StandingQuery.influence_radius` — the indoor distance beyond
  which an object provably cannot change the result *right now*; the
  shard router turns these into conservative skip decisions (the
  router measures against the object's instance bounding box, so the
  object's own uncertainty extent is accounted on the object side);
* :meth:`~StandingQuery.on_update_batch` — absorb one packed
  :class:`~repro.distances.batch.ObjectBlock` of moved or inserted
  objects (the monitor already counted its pairs in
  ``stats.pairs_evaluated``); distance-bounded kinds take their Eq. 7/8
  pruning intervals for the whole block from the batched kernel;
* :meth:`~StandingQuery.on_delete` — absorb one deleted object (ditto);
* :meth:`~StandingQuery.recompute` — full re-execution (registration,
  bound-violation fallbacks, topology resyncs);
* :meth:`~StandingQuery.snapshot` / :meth:`~StandingQuery.restore` —
  the round-trippable persistence contract: ``snapshot()`` captures the
  maintainer's complete mutable state as a JSON-serializable value and
  ``restore(state)`` reinstates it exactly (no recomputation), so that
  ``restore(snapshot())`` on a fresh instance leaves the maintainer
  bit-identical — same published result, same annotations, same
  bounds-accepted ``None`` markers, hence identical deltas from
  identical subsequent updates.  The default (state *is* the result
  mapping, ``member id -> annotation``: ``None`` marks a member
  accepted by bounds alone; otherwise the exact expected distance, or
  for ``iprq`` the exact qualifying probability) suits any maintainer
  whose only mutable state is ``result``; maintainers with extra state
  override both symmetrically (see :class:`CountMaintainer`).

Two class attributes steer the surrounding machinery:

* ``annotates`` — ``"distance"`` or ``"probability"``: which
  :class:`~repro.queries.deltas.ResultDelta` field re-annotations of
  retained members land in (``distance_changed`` vs
  ``probability_changed``);
* ``dynamic_reach`` — whether :meth:`influence_radius` can change when
  the result changes (an ikNNQ's ``tau`` moves with its members; an
  iRQ's ``r`` never does).  The monitor bumps its ``reach_epoch`` only
  on dynamic-reach result changes, which is what lets the sharded
  router cache its reach tables between batches.

The three built-in maintainers
------------------------------

:class:`RangeMaintainer` and :class:`KNNMaintainer` are the standing
iRQ/ikNNQ logic extracted *bit-identically* from the pre-refactor
monitor (the existing equivalence property tests run unmodified, stats
counting included).  :class:`ProbRangeMaintainer` is new: incremental
maintenance of the probabilistic-threshold range query (standing iPRQ)
— per update, the subregion probability bounds (the batched twin of
:func:`repro.queries.prob_range.probability_bounds`) decide membership
whenever the qualifying probability provably stays on one side of
``p_min``, and only an update whose probability can *cross* ``p_min``
pays one exact :func:`~repro.queries.prob_range.qualifying_probability`
refinement.  Its influence radius is the query range ``r``: an object
whose instance box is Euclidean-farther than ``r`` has qualifying
probability exactly zero (indoor distance dominates Euclidean), so it
can neither hold membership nor acquire it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, ClassVar

from repro.api.specs import (
    CountSpec,
    KNNSpec,
    OccupancySpec,
    ProbRangeSpec,
    QuerySpec,
    RangeSpec,
)
from repro.distances.batch import (
    ObjectBlock,
    block_object_bounds,
    block_probability_bounds,
)
from repro.distances.bounds import DistanceInterval

# Not called here: the name stays bound because perfbench/tracer.py
# wraps "repro.queries.maintainers:object_bounds" as a span target.
from repro.distances.bounds import object_bounds  # noqa: F401
from repro.distances.expected import expected_indoor_distance
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.objects.uncertain import UncertainObject
from repro.queries.engine import filtering_phase
from repro.queries.knn import ikNNQ
from repro.queries.prob_range import (
    probability_bounds,
    qualifying_probability,
)
from repro.queries.range_query import iRQ
from repro.space.doors_graph import DoorDistances

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queries.monitor import QueryMonitor

#: Distinguishes "not a member" from a stored ``None`` annotation (a
#: member accepted by bounds alone) in result-dict lookups.
_MISSING = object()

#: Spec type -> maintainer class; fed by :func:`register_maintainer`.
_MAINTAINERS: dict[type[QuerySpec], type["StandingQuery"]] = {}


def register_maintainer(
    spec_cls: type[QuerySpec],
) -> Callable[[type["StandingQuery"]], type["StandingQuery"]]:
    """Class decorator binding a maintainer to the spec kind it
    maintains — the single registration point a new standing-query
    kind needs besides the maintainer class itself.

    The spec's ``watchable`` flag is what the wire-level gate
    (:func:`repro.api.specs.standing_spec`) checks before this
    registry is ever consulted; a maintainer for an unwatchable spec
    would be unreachable, so the mismatch fails loudly here at import
    time instead of silently at registration time."""

    def bind(cls: type["StandingQuery"]) -> type["StandingQuery"]:
        if not spec_cls.watchable:
            raise QueryError(
                f"{spec_cls.__name__} declares watchable=False; set "
                "watchable=True on the spec before registering a "
                "maintainer for it"
            )
        _MAINTAINERS[spec_cls] = cls
        return cls

    return bind


def maintainer_for(
    spec: QuerySpec, query_id: str, host: "QueryMonitor"
) -> "StandingQuery":
    """Instantiate the maintainer registered for ``spec``'s type."""
    cls = _MAINTAINERS.get(type(spec))
    if cls is None:
        raise QueryError(
            f"no standing-query maintainer registered for "
            f"{type(spec).__name__}"
        )
    return cls(query_id, spec, host)


class StandingQuery:
    """Base class / protocol of one registered standing query.

    Subclasses implement the per-kind maintenance (see the module
    docstring for the contract); the base class carries the common
    state and the shared exact-distance helper.
    """

    #: Which delta field re-annotations land in (see module docstring).
    annotates: ClassVar[str] = "distance"
    #: Whether influence_radius() can move when the result changes.
    dynamic_reach: ClassVar[bool] = False

    def __init__(
        self, query_id: str, spec: QuerySpec, host: "QueryMonitor"
    ) -> None:
        self.query_id = query_id
        self.host = host
        self._spec = spec
        self.result: dict[str, Any] = {}

    @property
    def q(self) -> Point:
        return self._spec.q  # type: ignore[attr-defined]

    def spec(self) -> QuerySpec:
        """The declarative spec this maintainer was registered from (a
        real value object — serializable through :mod:`repro.api.wire`,
        re-registrable as-is)."""
        return self._spec

    def snapshot(self) -> Any:
        """This maintainer's complete mutable state, as a
        JSON-serializable value :meth:`restore` reinstates exactly.
        The default captures ``result`` (member id -> annotation) —
        sufficient whenever that is the only mutable state."""
        return dict(self.result)

    def restore(self, state: Any) -> None:
        """Reinstate a :meth:`snapshot` capture *exactly* — no
        recomputation.  Exact reinstatement (rather than a fresh
        :meth:`recompute`) is what makes a restored engine
        bit-identical: a recompute could legitimately differ in
        bounds-accepted ``None`` markers or incrementally-grown member
        sets, which would leak phantom deltas after restore."""
        self.result = dict(state)

    # -- the per-kind contract -----------------------------------------

    def influence_radius(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_update_batch(
        self, block: ObjectBlock
    ) -> None:  # pragma: no cover - abstract
        """Absorb one packed batch of moved or inserted objects (see
        :mod:`repro.distances.batch`); ``block.objects`` is the batch in
        order."""
        raise NotImplementedError

    def recompute(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def holds(self, object_id: str) -> bool:
        """Whether this query currently holds ``object_id`` in its
        result/candidate set — the monitor's delete path only routes
        (and counts) a deletion to queries that do.  Maintainers whose
        membership lives outside ``result`` (derived/aggregate results)
        override this."""
        return object_id in self.result

    def on_delete(self, object_id: str) -> None:
        """Absorb one deletion.  A non-member is free for every kind;
        a member hands off to the kind-specific :meth:`_delete_member`."""
        if object_id not in self.result:
            self.host.stats.pairs_skipped += 1
            return
        self._delete_member(object_id)

    def _delete_member(
        self, object_id: str
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------

    def _exact(self, obj: UncertainObject, dd: DoorDistances) -> float:
        host = self.host
        return expected_indoor_distance(
            self.q, obj, dd, host.index.space, host.index.population.grid
        ).value


@register_maintainer(RangeSpec)
class RangeMaintainer(StandingQuery):
    """Standing iRQ: ``result`` maps member id -> exact distance, or
    ``None`` for members accepted purely by bounds."""

    def __init__(
        self, query_id: str, spec: RangeSpec, host: "QueryMonitor"
    ) -> None:
        super().__init__(query_id, spec, host)
        self.r = spec.r

    def influence_radius(self) -> float:
        """Only objects within this (indoor) distance of ``q`` can
        change the result: the query radius itself."""
        return self.r

    def on_update_batch(self, block: ObjectBlock) -> None:
        """Each moved object's membership is re-decided in isolation —
        the cached full search makes the interval machinery of Table III
        sufficient, so no other pair is ever touched.  One whole-block
        bounds evaluation, then the per-pair decisions: only undecided
        pairs fall through to exact refinement."""
        host = self.host
        pack = host.session.kernel_pack(self.q)
        intervals = block_object_bounds(
            pack, block, self.q, host.index.space
        )
        for obj, interval in zip(block.objects, intervals):
            self._decide(obj, interval, pack.dd)

    def _decide(
        self,
        obj: UncertainObject,
        interval: DistanceInterval,
        dd: DoorDistances,
    ) -> None:
        host = self.host
        oid = obj.object_id
        if interval.entirely_within(self.r):
            # A moved member's stored exact distance is stale either
            # way, so the bounds-accepted marker always overwrites it.
            if self.result.get(oid, _MISSING) is not None:
                host.touch(self)
                self.result[oid] = None
            host.stats.pairs_skipped += 1
        elif interval.entirely_beyond(self.r):
            if oid in self.result:
                host.touch(self)
                del self.result[oid]
            host.stats.pairs_skipped += 1
        else:
            d = self._exact(obj, dd)
            host.stats.pairs_refined += 1
            if d <= self.r:
                if self.result.get(oid, _MISSING) != d:
                    host.touch(self)
                    self.result[oid] = d
            elif oid in self.result:
                host.touch(self)
                del self.result[oid]

    def _delete_member(self, object_id: str) -> None:
        """An iRQ just drops the deleted member."""
        self.host.touch(self)
        del self.result[object_id]
        self.host.stats.pairs_skipped += 1

    def recompute(self) -> None:
        host = self.host
        host.touch(self)  # the whole result is about to be replaced
        dd = host.session.door_distances(self.q)
        res = iRQ(self.q, self.r, host.index, precomputed_dd=dd)
        self.result = dict(res.distances)


@register_maintainer(KNNSpec)
class KNNMaintainer(StandingQuery):
    """Standing ikNNQ: ``result`` maps member id -> exact distance
    (always refined, so the k-th distance threshold is available).

    Soundness of the incremental maintenance rests on one invariant:
    *at every consistent state, each non-member's expected distance is
    at least the current k-th member distance* ``tau``.  A member whose
    refreshed distance stays ``<= tau`` keeps the invariant (``tau``
    can only shrink); an outsider entering with ``d < tau`` evicts the
    worst member, whose distance equals the old ``tau`` and therefore
    still satisfies the invariant from the outside.  Every transition
    that could break the invariant triggers the full fallback instead.
    When the reachable population drops below ``k`` the result simply
    shrinks and ``tau`` becomes infinite — every later update is a
    potential entry.
    """

    #: ``tau`` moves with the members, so the shard router's cached
    #: reach tables must be rebuilt whenever this result changes.
    dynamic_reach: ClassVar[bool] = True

    def __init__(
        self, query_id: str, spec: KNNSpec, host: "QueryMonitor"
    ) -> None:
        super().__init__(query_id, spec, host)
        self.k = spec.k

    def kth_distance(self) -> float:
        """The maintenance threshold ``tau``: the worst member distance
        when the result is full, else infinity (any reachable object
        could still enter)."""
        if len(self.result) < self.k:
            return math.inf
        return max(self.result.values())

    def influence_radius(self) -> float:
        """Only objects within the current ``tau`` can change the
        result (members always are; an unfull result reaches forever)."""
        return self.kth_distance()

    def on_update_batch(self, block: ObjectBlock) -> None:
        """Only the position-dependent geometry — the pruning
        intervals — is precomputed for the block; membership decisions
        stay strictly sequential per object, because ``tau`` evolves
        *within* a batch and each decision depends on that evolution."""
        host = self.host
        pack = host.session.kernel_pack(self.q)
        intervals = block_object_bounds(
            pack, block, self.q, host.index.space
        )
        for obj, interval in zip(block.objects, intervals):
            self._decide(obj, interval, pack.dd)

    def _decide(
        self,
        obj: UncertainObject,
        interval: DistanceInterval,
        dd: DoorDistances,
    ) -> None:
        host = self.host
        oid = obj.object_id
        tau = self.kth_distance()
        if oid in self.result:
            # A member moved: its stored distance is stale, refine it.
            d = self._exact(obj, dd)
            if math.isfinite(d) and d <= tau:
                if self.result[oid] != d:  # invariant holds; tau shrinks
                    host.touch(self)
                    self.result[oid] = d
                host.stats.pairs_refined += 1
            else:
                # The member drifted past the threshold (or became
                # unreachable): an outsider may now beat it.  The pair
                # escalated (not also refined — the pair counters
                # partition pairs_evaluated) and one query-level
                # re-execution was paid.
                host.stats.pairs_recomputed += 1
                host.stats.full_recomputes += 1
                self.recompute()
            return
        if len(self.result) >= self.k and interval.lower > tau:
            # Certainly no closer than the current k-th member.
            host.stats.pairs_skipped += 1
            return
        d = self._exact(obj, dd)
        host.stats.pairs_refined += 1
        if not math.isfinite(d):
            return
        if len(self.result) < self.k:
            host.touch(self)
            self.result[oid] = d
        elif d < tau:
            host.touch(self)
            worst = max(self.result, key=self.result.__getitem__)
            del self.result[worst]
            self.result[oid] = d

    def _delete_member(self, object_id: str) -> None:
        """An ikNNQ that loses a member must refill the vacated slot
        from scratch (the refill may come back with fewer than ``k``
        members when the surviving population runs short)."""
        self.host.stats.pairs_recomputed += 1
        self.host.stats.full_recomputes += 1
        self.recompute()

    def recompute(self) -> None:
        host = self.host
        host.touch(self)
        dd = host.session.door_distances(self.q)
        res = ikNNQ(self.q, self.k, host.index, precomputed_dd=dd)
        distances: dict[str, float] = {}
        for obj in res.objects:
            d = res.distances[obj.object_id]
            if d is None:  # accepted by bounds: refine for the tau
                d = self._exact(obj, dd)
            if math.isfinite(d):
                # An unreachable "member" would poison tau (= max of
                # the stored distances) forever; with fewer than k
                # reachable objects the result legitimately shrinks.
                distances[obj.object_id] = d
        self.result = distances


@register_maintainer(ProbRangeSpec)
class ProbRangeMaintainer(StandingQuery):
    """Standing iPRQ: ``result`` maps member id -> exact qualifying
    probability, or ``None`` for members accepted purely by the
    subregion probability bounds.

    Maintenance mirrors the standing iRQ shape — one moved object is
    re-decided in isolation against the session-cached full search —
    with the probability bounds of
    :func:`~repro.queries.prob_range.probability_bounds` in place of
    the Table III distance interval: a subregion whose ``tmax`` stays
    within ``r`` contributes all of its mass to the lower bound, one
    whose ``tmin`` exceeds ``r`` contributes nothing to the upper
    bound, and only when ``p_min`` falls strictly between the two (the
    probability could *cross* the threshold) is one exact
    :func:`~repro.queries.prob_range.qualifying_probability` refinement
    paid.  Registration, fallback-free by construction, and topology
    resyncs run :meth:`recompute`, which applies the *same*
    bounds-then-refine decision per object — so the incremental and
    from-scratch paths agree on membership and annotation alike.
    """

    annotates: ClassVar[str] = "probability"

    def __init__(
        self, query_id: str, spec: ProbRangeSpec, host: "QueryMonitor"
    ) -> None:
        super().__init__(query_id, spec, host)
        self.r = spec.r
        self.p_min = spec.p_min

    def influence_radius(self) -> float:
        """The query range ``r`` is a conservative reach: an object
        whose instance box lies Euclidean-beyond ``r`` has every
        instance at indoor distance > ``r`` (indoor never undercuts
        Euclidean), hence qualifying probability exactly 0 — it cannot
        enter, and a member (probability >= ``p_min`` > 0) always has
        an instance within ``r``, so it cannot be missed when leaving.
        The object's own uncertainty extent is carried by the instance
        bounding box the router measures against."""
        return self.r

    def on_update_batch(self, block: ObjectBlock) -> None:
        """Whole-block probability bounds (Eq. 8 ingredients), then
        the per-pair threshold decisions: exact refinement only when
        ``p_min`` falls strictly between the bounds."""
        host = self.host
        pack = host.session.kernel_pack(self.q)
        los, his = block_probability_bounds(
            pack, block, self.q, host.index.space, self.r
        )
        for obj, lo, hi in zip(block.objects, los, his):
            self._decide(obj, lo, hi, pack.dd)

    def _decide(
        self,
        obj: UncertainObject,
        lo: float,
        hi: float,
        dd: DoorDistances,
    ) -> None:
        host = self.host
        oid = obj.object_id
        if lo >= self.p_min:
            # Provably still (or newly) qualifying: the stored exact
            # probability is stale after a move, so the bounds-accepted
            # marker always overwrites it.
            if self.result.get(oid, _MISSING) is not None:
                host.touch(self)
                self.result[oid] = None
            host.stats.pairs_skipped += 1
        elif hi < self.p_min:
            if oid in self.result:
                host.touch(self)
                del self.result[oid]
            host.stats.pairs_skipped += 1
        else:
            # The probability can cross p_min: one exact refinement.
            prob = qualifying_probability(
                host.index, self.q, obj, dd, self.r
            )
            host.stats.pairs_refined += 1
            if prob >= self.p_min:
                if self.result.get(oid, _MISSING) != prob:
                    host.touch(self)
                    self.result[oid] = prob
            elif oid in self.result:
                host.touch(self)
                del self.result[oid]

    def _delete_member(self, object_id: str) -> None:
        """Like the iRQ: a departed member just drops out."""
        self.host.touch(self)
        del self.result[object_id]
        self.host.stats.pairs_skipped += 1

    def recompute(self) -> None:
        """Full re-execution against the session-cached full search,
        applying the identical bounds-then-refine decision per object
        that :meth:`on_update_batch` applies per pair (one convention
        for both paths keeps re-annotation deltas quiet).  The scalar
        :func:`~repro.queries.prob_range.probability_bounds` it uses
        is value-identical to the batched kernel's bounds.

        The filtering phase prunes the candidate set first: an object
        whose skeleton min-distance exceeds ``r`` (no false negatives,
        Lemma 6) has every instance beyond ``r`` and therefore
        qualifying probability exactly 0 — membership and annotations
        are identical to a full-population scan, at candidate cost."""
        host = self.host
        host.touch(self)
        dd = host.session.door_distances(self.q)
        filtered, _ = filtering_phase(host.index, self.q, self.r, True)
        result: dict[str, float | None] = {}
        for obj in filtered.objects:
            lo, hi = probability_bounds(
                host.index, self.q, obj, dd, self.r
            )
            if lo >= self.p_min:
                result[obj.object_id] = None
            elif hi < self.p_min:
                continue
            else:
                prob = qualifying_probability(
                    host.index, self.q, obj, dd, self.r
                )
                if prob >= self.p_min:
                    result[obj.object_id] = prob
        self.result = result


def partition_anchor(space: Any, partition_id: str) -> Point:
    """The spatial anchor of a partition: its bounds center when the
    footprint contains it, else the first attached door's midpoint.

    Anchored (point-free) specs like :class:`OccupancySpec` need a
    :class:`Point` for the surrounding machinery — shard placement,
    session pinning, the router's reach tables — and this is the single
    derivation every surface shares, so a sharded engine places and
    routes the watch exactly like a single monitor reasons about it."""
    partition = space.partition(partition_id)
    b = partition.bounds
    cx, cy = (b.minx + b.maxx) / 2.0, (b.miny + b.maxy) / 2.0
    if partition.contains_xy(cx, cy):
        return Point(cx, cy, partition.floor)
    for door_id in sorted(partition.door_ids):
        mid = space.doors[door_id].midpoint
        return Point(mid.x, mid.y, partition.floor)
    return Point(cx, cy, partition.floor)


def spec_anchor(spec: QuerySpec, space: Any) -> Point:
    """A spec's spatial anchor: its query point when it has one, else
    the watched partition's :func:`partition_anchor`.  The shard router
    uses this for placement, so anchored specs co-locate with point
    queries in the same zone."""
    q = getattr(spec, "q", None)
    if q is not None:
        return q
    return partition_anchor(space, spec.partition_id)  # type: ignore[attr-defined]


#: The single synthetic member id a count watch publishes.
COUNT_KEY = "count"


class _CountHost:
    """Host proxy handed to a :class:`CountMaintainer`'s inner range
    maintainer: forwards the read-only surface (``index`` / ``session``
    / ``stats``) to the real monitor but redirects ``touch`` to the
    *outer* maintainer — the monitor must diff the published count
    result, never the private membership set, and the pre-mutation
    capture must happen before the inner result mutates (the outer
    result is republished from it afterwards)."""

    def __init__(self, outer: "CountMaintainer") -> None:
        self._outer = outer

    @property
    def index(self) -> Any:
        return self._outer.host.index

    @property
    def session(self) -> Any:
        return self._outer.host.session

    @property
    def stats(self) -> Any:
        return self._outer.host.stats

    def touch(self, _sq: StandingQuery) -> None:
        self._outer.host.touch(self._outer)


@register_maintainer(CountSpec)
class CountMaintainer(StandingQuery):
    """Aggregate count watch (standing ``icount``): alert while the
    number of objects within indoor distance ``r`` of ``q`` is at
    least ``threshold``.

    Composition over a private :class:`RangeMaintainer`: the inner
    maintainer tracks the qualifying membership set with the standing
    iRQ machinery verbatim, and this class publishes a *derived* result
    — ``{"count": float(n)}`` while ``n >= threshold``, empty otherwise
    — so the generic delta diff yields exactly the alert semantics:
    *entered* when occupancy crosses the threshold upward,
    *distance_changed* re-annotation while it varies above it, *left*
    when it crosses back down.  The inner host proxy routes ``touch``
    to this maintainer (capturing the pre-mutation published count),
    and every mutation hook delegates then republishes.

    ``snapshot()`` must therefore capture *both* layers — the private
    membership and the published count — and ``restore()`` reinstates
    both, which is precisely the round-trip contract the persistence
    subsystem exercises for a maintainer with state beyond ``result``.
    """

    def __init__(
        self, query_id: str, spec: CountSpec, host: "QueryMonitor"
    ) -> None:
        super().__init__(query_id, spec, host)
        self.threshold = spec.threshold
        self._inner = RangeMaintainer(
            query_id, RangeSpec(spec.q, spec.r), _CountHost(self)
        )

    def influence_radius(self) -> float:
        """Same reach as the underlying range query: only objects
        within ``r`` can change the membership count."""
        return self._inner.r

    def _republish(self) -> None:
        # touch() already ran (via the inner host proxy) before the
        # membership mutated, so rewriting the published result here is
        # diffed against the true pre-mutation state.
        n = len(self._inner.result)
        if n >= self.threshold:
            self.result = {COUNT_KEY: float(n)}
        else:
            self.result = {}

    def on_update_batch(self, block: ObjectBlock) -> None:
        """The inner range maintainer absorbs the block; republishing
        once at the end is equivalent to per object, because deltas
        diff the scope's end state."""
        self._inner.on_update_batch(block)
        self._republish()

    def holds(self, object_id: str) -> bool:
        """Membership lives in the inner range maintainer, not in the
        published (derived) count result."""
        return object_id in self._inner.result

    def on_delete(self, object_id: str) -> None:
        self._inner.on_delete(object_id)
        self._republish()

    def _delete_member(
        self, object_id: str
    ) -> None:  # pragma: no cover - on_delete fully delegates
        raise AssertionError("unreachable: on_delete delegates")

    def recompute(self) -> None:
        self._inner.recompute()
        self._republish()

    def snapshot(self) -> dict[str, Any]:
        return {
            "members": dict(self._inner.result),
            "result": dict(self.result),
        }

    def restore(self, state: Any) -> None:
        self._inner.result = dict(state["members"])
        self.result = dict(state["result"])


#: The single synthetic member id an occupancy watch publishes.
OCCUPANCY_KEY = "occupancy"


@register_maintainer(OccupancySpec)
class OccupancyMaintainer(StandingQuery):
    """Per-partition occupancy watch (standing ``iocc``): alert while
    the number of objects whose region center lies inside the watched
    partition is at least ``threshold``.

    Membership is purely geometric — an object is *in* the partition
    iff the partition grid locates its region center there — so every
    update is decided without any distance work (all pairs count as
    ``pairs_skipped``).  The published result is derived, like
    :class:`CountMaintainer`'s: ``{"occupancy": float(n)}`` while
    ``n >= threshold``, empty otherwise, so delta subscribers get
    *entered* when the room fills past the threshold, re-annotations
    while the population varies above it, and *left* when it drains
    back down — the evacuation-scenario alarm.

    Reach: the spec carries no query point, so the maintainer anchors
    itself at :func:`partition_anchor` and reaches to the footprint's
    circumradius plus the largest object uncertainty radius seen (the
    router measures an object's *instance box*, whose gap from the
    region center is at most that radius).  The pad is taken over the
    population at registration/recompute and grown monotonically on
    updates; an object *inserted* with a strictly larger radius than
    any ever seen could in principle be mis-skipped by a cached shard
    reach table — workloads with uniform radii (every built-in
    generator) are exact.

    Topology: door-closure churn is transparent (a resync just
    recomputes membership); removing the watched partition itself
    (split/merge) raises from the next recompute — deregister the
    watch before restructuring the room it watches."""

    def __init__(
        self, query_id: str, spec: OccupancySpec, host: "QueryMonitor"
    ) -> None:
        super().__init__(query_id, spec, host)
        self.partition_id = spec.partition_id
        self.threshold = spec.threshold
        space = host.index.space
        partition = space.partition(spec.partition_id)
        self._anchor = partition_anchor(space, spec.partition_id)
        b = partition.bounds
        self._reach = max(
            math.hypot(x - self._anchor.x, y - self._anchor.y)
            for x in (b.minx, b.maxx)
            for y in (b.miny, b.maxy)
        )
        self._members: set[str] = set()
        self._radius_pad = max(
            (o.region.radius for o in host.index.population), default=0.0
        )

    @property
    def q(self) -> Point:
        """The derived anchor (anchored specs have no query point)."""
        return self._anchor

    def influence_radius(self) -> float:
        return self._reach + self._radius_pad

    def _inside(self, obj: UncertainObject) -> bool:
        located = self.host.index.population.grid.locate(obj.region.center)
        return (
            located is not None
            and located.partition_id == self.partition_id
        )

    def _republish(self) -> None:
        n = len(self._members)
        if n >= self.threshold:
            self.result = {OCCUPANCY_KEY: float(n)}
        else:
            self.result = {}

    def on_update_batch(self, block: ObjectBlock) -> None:
        """Membership is geometric, so the block's bounds arrays go
        unused: each object is located by its region center."""
        host = self.host
        changed = False
        for obj in block.objects:
            host.stats.pairs_skipped += 1  # decided without distance work
            if obj.region.radius > self._radius_pad:
                self._radius_pad = obj.region.radius
            was = obj.object_id in self._members
            now = self._inside(obj)
            if was == now:
                continue
            host.touch(self)
            changed = True
            if now:
                self._members.add(obj.object_id)
            else:
                self._members.discard(obj.object_id)
        if changed:
            self._republish()

    def holds(self, object_id: str) -> bool:
        """Membership is the private geometric set, not the published
        (derived) occupancy result."""
        return object_id in self._members

    def on_delete(self, object_id: str) -> None:
        self.host.stats.pairs_skipped += 1
        if object_id not in self._members:
            return
        self.host.touch(self)
        self._members.discard(object_id)
        self._republish()

    def _delete_member(
        self, object_id: str
    ) -> None:  # pragma: no cover - on_delete fully overridden
        raise AssertionError("unreachable: on_delete is overridden")

    def recompute(self) -> None:
        host = self.host
        host.touch(self)
        grid = host.index.population.grid
        members: set[str] = set()
        pad = 0.0
        for obj in host.index.population:
            pad = max(pad, obj.region.radius)
            located = grid.locate(obj.region.center)
            if (
                located is not None
                and located.partition_id == self.partition_id
            ):
                members.add(obj.object_id)
        self._members = members
        self._radius_pad = max(self._radius_pad, pad)
        self._republish()

    def snapshot(self) -> dict[str, Any]:
        return {
            "members": sorted(self._members),
            "result": dict(self.result),
        }

    def restore(self, state: Any) -> None:
        self._members = set(state["members"])
        self.result = dict(state["result"])
