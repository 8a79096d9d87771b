"""Continuous query monitoring over streams of object updates.

The paper evaluates one-shot queries, but its setting is *moving*
objects: positions change continuously while the composite index absorbs
updates cheaply (Section III-C).  A :class:`QueryMonitor` closes the
loop: it keeps standing queries registered and maintains each result
set **incrementally** as the population streams position updates
through :meth:`repro.index.composite.CompositeIndex.update_objects`.

Per-query maintenance is *pluggable*: the monitor holds one
:class:`~repro.queries.maintainers.StandingQuery` maintainer per
registered query and dispatches every per-kind decision — update
absorption, deletions, full re-execution, influence radius, result
snapshots — through that protocol.  The built-in maintainers cover the
paper's standing iRQ/ikNNQ plus the probabilistic-threshold range
query (standing iPRQ); adding a query kind is one maintainer class in
:mod:`repro.queries.maintainers`, nothing here changes.

The delta/shard contract
------------------------

The monitor's public mutation API speaks *deltas*, not result sets:
``apply_moves``, ``apply_insert``, ``apply_delete`` and ``apply_event``
each return a :class:`~repro.queries.deltas.DeltaBatch` holding one
:class:`~repro.queries.deltas.ResultDelta` — ``(entered, left,
distance_changed / probability_changed)`` — per standing query whose
result changed, so downstream consumers never diff result sets
themselves.  Registration and deregistration emit deltas too, and a
topology resync triggered *outside* a mutation (an external
``topology_version`` bump noticed on result access) parks its deltas
until the next mutation or an explicit :meth:`drain_pending_deltas`.
Replaying every delta for one query from the empty state reproduces
its current result exactly — the property
``tests/properties/test_prop_monitor.py`` (and friends) enforce.

Two maintenance entry points exist per mutation: the ``apply_*``
methods own the index (they mutate it, then maintain results), while
the ``ingest_*`` methods maintain results only — they are the hooks the
sharded front-end (:class:`~repro.queries.shard.ShardedMonitor`) uses
to fan one shared index mutation into many per-shard monitors, and
:meth:`influence_radii` exposes the per-query reach (iRQ/iPRQ radius /
current ikNNQ threshold) its router prunes shards with.
:attr:`reach_epoch` counts the moments that reach *may* have moved
(registration churn, or a result change of a maintainer whose reach is
dynamic), so the router can cache its reach tables between batches.

The incremental argument reuses the paper's own machinery:

* every standing query keeps a full (unrestricted) single-source
  Dijkstra from its query point, memoised in a
  :class:`~repro.queries.session.QuerySession` — valid until the
  *topology* changes, no matter how objects move (and evicted when the
  last standing query at that point deregisters);
* when objects move, only the (object, query) pairs are touched: the
  batch is packed once into an :class:`~repro.distances.batch.
  ObjectBlock` and each maintainer re-decides the moved objects against
  its cached search using the paper's interval machinery (Table III for
  distances, the subregion mass bounds for probabilities), evaluated
  for the whole block by the batched kernel, and usually *decides*
  membership outright (an insert is a one-object block);
* only an undecided pair pays one exact refinement, and only a bound
  violation (an ikNNQ member drifting past the current threshold, or a
  member deletion) falls back to full re-execution — the counters in
  :class:`MonitorStats` prove how rarely that happens.

Topology events (door closures, splits, merges) invalidate every cached
search — the monitor detects the space's ``topology_version`` bump,
re-executes all standing queries once, and resumes incremental
maintenance.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, fields

from repro.api.specs import QuerySpec, standing_spec
from repro.distances.batch import pack_block
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.index.composite import CompositeIndex
from repro.objects.population import ObjectMove
from repro.objects.uncertain import UncertainObject
from repro.queries.deltas import DeltaBatch, ResultDelta, diff_results
from repro.queries.maintainers import StandingQuery, maintainer_for
from repro.queries.session import QuerySession
from repro.space.events import TopologyEvent


def claim_query_id(
    taken,
    query_id: str | None,
    kind: str,
    counter,
) -> str:
    """Allocate (or validate) a standing-query id against the ids in
    ``taken`` — shared by :class:`QueryMonitor` and the sharded
    front-end so both allocate identically."""
    if query_id is None:
        # Skip over ids the caller claimed explicitly.
        while (query_id := f"{kind}-{next(counter)}") in taken:
            pass
    elif query_id in taken:
        raise QueryError(f"standing query id {query_id!r} already used")
    return query_id


@dataclass
class MonitorStats:
    """Work accounting across the lifetime of one monitor.

    A *pair* is one ``(object update, standing query)`` combination; the
    three pair counters partition ``pairs_evaluated`` by the work each
    pair cost:

    * ``pairs_skipped`` — decided without any exact distance work:
      either by the safe interval bounds alone, or trivially (a
      deletion touching a non-member, or an iRQ/iPRQ member simply
      dropped);
    * ``pairs_refined`` — needed one exact refinement (an expected
      distance, or an iPRQ qualifying probability) against the cached
      full search;
    * ``pairs_recomputed`` — violated a safe bound and escalated to full
      re-execution of the standing query (a pair that refined first and
      then escalated counts only here).

    Query-level work is counted separately, in units of *standing-query
    re-executions*: ``full_recomputes`` counts bound-violation fallbacks
    (one per escalated pair, but a different dimension — one
    re-execution touches the whole population, not one pair) and
    ``event_recomputes`` counts re-executions forced by a
    ``topology_version`` bump.  ``recompute_ratio`` therefore divides
    pair-level by pair-level and ``recomputes_per_update`` query-level
    by updates — the two never mix.
    """

    updates_seen: int = 0
    pairs_evaluated: int = 0
    pairs_skipped: int = 0
    pairs_refined: int = 0
    pairs_recomputed: int = 0
    full_recomputes: int = 0
    event_recomputes: int = 0
    topology_invalidations: int = 0
    deltas_emitted: int = 0
    #: Pairs dispatched through the batched bounds kernel (every moved
    #: or inserted object against every standing query).
    kernel_pairs: int = 0
    #: Of :attr:`kernel_pairs`, those decided without exact refinement
    #: (the update-path share of ``pairs_skipped``).
    kernel_pruned: int = 0

    @property
    def recompute_ratio(self) -> float:
        """Share of *pairs* that escalated to full re-execution; the
        monitor provably skips work whenever this is < 1.0."""
        if self.pairs_evaluated == 0:
            return 0.0
        return self.pairs_recomputed / self.pairs_evaluated

    @property
    def skip_ratio(self) -> float:
        """Share of pairs decided without exact distance work."""
        if self.pairs_evaluated == 0:
            return 0.0
        return self.pairs_skipped / self.pairs_evaluated

    @property
    def refine_ratio(self) -> float:
        """Share of pairs that paid exactly one exact refinement."""
        if self.pairs_evaluated == 0:
            return 0.0
        return self.pairs_refined / self.pairs_evaluated

    @property
    def recomputes_per_update(self) -> float:
        """Standing-query re-executions (bound fallbacks) per absorbed
        update — the query-level fallback rate."""
        if self.updates_seen == 0:
            return 0.0
        return self.full_recomputes / self.updates_seen

    def merge(self, other: "MonitorStats") -> "MonitorStats":
        """Counter-wise sum (sharded monitors aggregate shard stats).

        ``updates_seen`` sums too — callers aggregating shards that saw
        the *same* updates must override it (see
        :attr:`repro.queries.shard.ShardedMonitor.stats`)."""
        return MonitorStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )


class QueryMonitor:
    """Standing queries maintained over streaming updates.

    Usage::

        monitor = QueryMonitor(index)
        kiosk = monitor.register(RangeSpec(q_kiosk, 60.0))
        desk = monitor.register(KNNSpec(q_desk, 5))
        vip = monitor.register(ProbRangeSpec(q_door, 30.0, 0.8))
        for batch in stream.batches(100, 50):
            for delta in monitor.apply_moves(batch):   # index + results
                push_to_subscribers(delta)             # ...updated
        monitor.apply_event(CloseDoor("d7"))           # full resync, once

    The monitor owns the update path: :meth:`apply_moves`,
    :meth:`apply_insert`, :meth:`apply_delete` and :meth:`apply_event`
    mutate the underlying index *and* maintain every standing result,
    returning the per-query deltas.  The ``ingest_*`` twins maintain
    results for an index mutation that already happened (the sharded
    front-end's entry points).  External topology mutations are also
    tolerated — any ``topology_version`` bump is detected on the next
    access, all standing queries resynchronise, and the resync deltas
    surface on the next mutation or :meth:`drain_pending_deltas`.

    ``session`` may be shared between monitors over the same index
    (shards share one cache so a query point pays its Dijkstra once).
    """

    def __init__(
        self,
        index: CompositeIndex,
        session: QuerySession | None = None,
    ) -> None:
        if session is not None and session.index is not index:
            raise QueryError("session must wrap the monitor's own index")
        self.index = index
        self.session = session or QuerySession(index)
        self.stats = MonitorStats()
        self._queries: dict[str, StandingQuery] = {}
        self._id_counter = itertools.count(1)
        self._topology_version = index.space.topology_version
        self._pending: list[ResultDelta] = []
        #: Bumped whenever the per-query influence radii *may* have
        #: changed: registration churn, or an emitted delta for a
        #: dynamic-reach maintainer (an ikNNQ whose ``tau`` moved).
        #: The sharded router caches its reach tables against this.
        self.reach_epoch = 0
        # Serialises the maintenance-only ingest hooks: the parallel
        # sharded front-end runs different shards' hooks on pool
        # threads, and this lock is what makes one *shard* safe even if
        # a caller ever routes two batches into it concurrently.
        self._ingest_lock = threading.Lock()
        # Pre-mutation copies of the results actually touched in the
        # current mutation scope (lazy: an untouched query costs
        # nothing), consumed by _collect().
        self._before: dict[str, dict[str, float | None]] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(
        self,
        spec: QuerySpec,
        query_id: str | None = None,
    ) -> str:
        """Register a standing query from its declarative spec; returns
        its id.  The one registration path: every surface (sharded
        front-end, serving layer, :class:`repro.api.QueryService`)
        funnels through here, and the maintainer registry in
        :mod:`repro.queries.maintainers` supplies the per-kind
        maintenance — so a new watchable query kind needs no change
        here.  The initial result is emitted as a ``register`` delta
        (pending until the next mutation / drain)."""
        spec = standing_spec(spec)
        query_id = self._claim_id(query_id, spec.kind)
        self._register(maintainer_for(spec, query_id, self))
        return query_id

    def _register(self, sq: StandingQuery) -> None:
        # Under the ingest lock: a registration from the event-loop
        # thread must not mutate _queries/_pending while an offloaded
        # parallel batch iterates them on a pool thread.
        with self._ingest_lock:
            self._ensure_topology_current()
            # Execute first, commit after: a failing first execution
            # (query point outside every partition, say) must not leave
            # a broken standing query — or its session pin — behind.
            try:
                sq.recompute()  # touches sq with its pre-result ({})
            except Exception:
                self._before.pop(sq.query_id, None)
                raise
            self._queries[sq.query_id] = sq
            self.session.pin(sq.q)
            self.reach_epoch += 1
            self._pending.extend(self._collect("register"))

    def restore_query(
        self, spec: QuerySpec, query_id: str, state
    ) -> None:
        """Reinstate a checkpointed standing query *exactly*: the
        maintainer is constructed from ``spec`` and handed the captured
        :meth:`~repro.queries.maintainers.StandingQuery.snapshot`
        ``state`` via ``restore()`` — no recompute, no register delta,
        no ``reach_epoch`` bump.  The restore path of
        :mod:`repro.persist` uses this so a restored monitor is
        bit-identical to the checkpointed one (identical deltas from
        identical subsequent updates); the caller owns restoring
        ``reach_epoch`` itself."""
        spec = standing_spec(spec)
        with self._ingest_lock:
            if query_id in self._queries:
                raise QueryError(
                    f"standing query id {query_id!r} already used"
                )
            sq = maintainer_for(spec, query_id, self)
            sq.restore(state)
            self._queries[query_id] = sq
            self.session.pin(sq.q)

    def deregister(self, query_id: str) -> None:
        """Remove a standing query.

        Emits a ``deregister`` delta (every member leaves) and releases
        the query point's pin on the session-cached full Dijkstra; the
        last pin at a point evicts the search, so long-running monitors
        with churning query populations do not accumulate dead searches.
        Pins are counted on the (possibly shared) session itself, so
        monitors sharing one session never evict each other's searches.
        """
        with self._ingest_lock:
            sq = self._queries.pop(query_id, None)
            if sq is None:
                raise QueryError(f"unknown standing query {query_id!r}")
            self._before.pop(query_id, None)
            self.reach_epoch += 1
            if sq.result:
                self._push_pending(
                    ResultDelta(
                        query_id,
                        "deregister",
                        left=tuple(sorted(sq.result)),
                    )
                )
            self.session.unpin(sq.q)

    def _claim_id(self, query_id: str | None, kind: str) -> str:
        return claim_query_id(
            self._queries, query_id, kind, self._id_counter
        )

    # ------------------------------------------------------------------
    # result access
    # ------------------------------------------------------------------

    def result_ids(self, query_id: str) -> set[str]:
        """The standing query's current result set (object ids)."""
        return set(self._standing(query_id).result)

    def result_distances(self, query_id: str) -> dict[str, float | None]:
        """Member id -> per-member annotation: the exact expected
        distance (or, for a standing iPRQ, the exact qualifying
        probability), with ``None`` marking a member accepted by bounds
        alone.  Reads the *published* result — distinct from
        :meth:`snapshot_query`, whose payload is the maintainer's full
        persistence state (possibly more than the result)."""
        return dict(self._standing(query_id).result)

    def snapshot_query(self, query_id: str):
        """The standing query's full persistence state — the value its
        maintainer's ``restore()`` reinstates exactly (see
        :meth:`restore_query`)."""
        return self._standing(query_id).snapshot()

    def snapshot_queries(self) -> list[tuple[str, QuerySpec, object]]:
        """``(query_id, spec, state)`` for every standing query, in
        registration order — the order matters: the checkpoint restores
        queries in this order so delta *emission* order (dict iteration
        over ``_queries``) survives the round trip."""
        with self._ingest_lock:
            self._ensure_topology_current()
            return [
                (qid, sq.spec(), sq.snapshot())
                for qid, sq in self._queries.items()
            ]

    def results(self) -> dict[str, set[str]]:
        """Every standing query's current result ids."""
        self._ensure_topology_current()
        return {qid: set(sq.result) for qid, sq in self._queries.items()}

    def query_ids(self) -> list[str]:
        return list(self._queries)

    def query_spec(self, query_id: str) -> QuerySpec:
        """The declarative :class:`~repro.api.specs.QuerySpec` of a
        standing query (a real spec object — serializable through
        :mod:`repro.api.wire`, re-registrable as-is)."""
        sq = self._queries.get(query_id)
        if sq is None:
            raise QueryError(f"unknown standing query {query_id!r}")
        return sq.spec()

    def influence_radii(self) -> list[tuple[str, Point, float]]:
        """``(query_id, q, reach)`` per standing query: the indoor
        distance beyond which an object provably cannot change the
        result right now (iRQ/iPRQ radius / current ikNNQ ``tau``).
        The shard router turns these into conservative skip decisions."""
        with self._ingest_lock:
            self._ensure_topology_current()
            return [
                (qid, sq.q, sq.influence_radius())
                for qid, sq in self._queries.items()
            ]

    def influence_radii_by_floor(
        self,
    ) -> dict[int, list[tuple[str, Point, float]]]:
        """:meth:`influence_radii` grouped by the query point's floor —
        the shape the sharded router's per-floor reach table consumes
        (queries on one floor share their z elevation, so their reaches
        bucket into tight same-floor boxes)."""
        with self._ingest_lock:
            self._ensure_topology_current()
            out: dict[int, list[tuple[str, Point, float]]] = {}
            for qid, sq in self._queries.items():
                out.setdefault(sq.q.floor, []).append(
                    (qid, sq.q, sq.influence_radius())
                )
            return out

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._queries

    def _standing(self, query_id: str) -> StandingQuery:
        self._ensure_topology_current()
        try:
            return self._queries[query_id]
        except KeyError:
            raise QueryError(
                f"unknown standing query {query_id!r}"
            ) from None

    # ------------------------------------------------------------------
    # stream consumption (index mutation + maintenance)
    # ------------------------------------------------------------------

    def apply_moves(self, moves: list[ObjectMove]) -> DeltaBatch:
        """Absorb a batch of position updates: the index takes them via
        its batched path, then every standing result is maintained
        incrementally.  Returns the per-query deltas (plus the moved
        objects in ``batch.moved``)."""
        self._ensure_topology_current()
        moved = self.index.update_objects(moves)
        return self.ingest_moves(moved)

    def apply_insert(self, obj: UncertainObject) -> DeltaBatch:
        """A brand-new object appears (index insert + maintenance)."""
        self._ensure_topology_current()
        self.index.insert_object(obj)
        return self.ingest_insert(obj)

    def apply_delete(self, object_id: str) -> DeltaBatch:
        """An object disappears; each maintainer absorbs the departure
        its own way (an iRQ/iPRQ drops the member, an ikNNQ refills the
        vacated slot from scratch).  The removed object rides along as
        ``batch.deleted``."""
        self._ensure_topology_current()
        obj = self.index.delete_object(object_id)
        return self.ingest_delete(object_id, deleted=obj)

    def apply_event(self, event: TopologyEvent) -> DeltaBatch:
        """Apply a topology event through the index, then resynchronise
        every standing query (cached searches are all invalid).  The
        space-level outcome rides along as ``batch.event_result``."""
        result = self.index.apply_event(event)
        self._ensure_topology_current()
        return DeltaBatch(
            deltas=self._drain_pending(), event_result=result
        )

    # ------------------------------------------------------------------
    # maintenance-only ingestion (the sharded front-end's entry points)
    # ------------------------------------------------------------------

    def ingest_moves(
        self, moved: list[UncertainObject], block=None
    ) -> DeltaBatch:
        """Maintain standing results for objects the *shared* index
        already moved (no index mutation here).  Thread-safe: shards run
        their hooks concurrently under the parallel front-end.

        ``block`` is an optional pre-packed
        :class:`~repro.distances.batch.ObjectBlock` covering exactly
        ``moved`` (the sharded front-end packs the batch once and hands
        each shard its routed subset); without it the monitor packs the
        batch itself.
        """
        with self._ingest_lock:
            self._ensure_topology_current()
            self._absorb_block(moved, block)
            return DeltaBatch(
                deltas=self._drain_pending() + self._collect("move"),
                moved=tuple(moved),
            )

    def ingest_insert(self, obj: UncertainObject) -> DeltaBatch:
        """Maintain standing results for an already-inserted object:
        the same absorb path as a move, over a one-object block."""
        with self._ingest_lock:
            self._ensure_topology_current()
            self._absorb_block([obj], None)
            return DeltaBatch(
                deltas=self._drain_pending() + self._collect("insert")
            )

    def ingest_delete(
        self, object_id: str, deleted: UncertainObject | None = None
    ) -> DeltaBatch:
        """Maintain standing results for an already-deleted object.

        Only queries that actually *hold* the id (result/candidate
        set membership, per
        :meth:`~repro.queries.maintainers.StandingQuery.holds`) are
        dispatched — and counted: a deletion touching none of a query's
        members is no evaluated pair, so the pair counters (and the
        recompute-ratio columns derived from them) measure real work.
        """
        with self._ingest_lock:
            self._ensure_topology_current()
            self.stats.updates_seen += 1
            for sq in self._queries.values():
                if not sq.holds(object_id):
                    continue
                self.stats.pairs_evaluated += 1
                sq.on_delete(object_id)
            return DeltaBatch(
                deltas=self._drain_pending() + self._collect("delete"),
                deleted=deleted,
            )

    def drain_pending_deltas(self) -> DeltaBatch:
        """Collect deltas parked by out-of-band work: registrations,
        deregistrations, and topology resyncs triggered by result
        access instead of a mutation call."""
        with self._ingest_lock:
            self._ensure_topology_current()
            return DeltaBatch(deltas=self._drain_pending())

    def peek_pending_deltas(self) -> tuple[ResultDelta, ...]:
        """The parked deltas, *without* draining them.  The process
        shard engine mirrors these parent-side after every request so a
        crashed worker's replacement can re-park them
        (:meth:`park_deltas`) — a register delta parked between batches
        must survive the restart or the delta stream loses it."""
        with self._ingest_lock:
            return tuple(self._pending)

    def park_deltas(self, deltas) -> None:
        """Append already-emitted deltas to the pending list, to flow
        out on the next mutation or :meth:`drain_pending_deltas`.

        Restart-only plumbing (see :meth:`peek_pending_deltas`): the
        deltas were counted when first emitted, so this does not touch
        ``stats.deltas_emitted``.
        """
        with self._ingest_lock:
            self._pending.extend(deltas)

    # ------------------------------------------------------------------
    # delta bookkeeping
    # ------------------------------------------------------------------

    def touch(self, sq: StandingQuery) -> None:
        """Record ``sq``'s pre-mutation result (first write wins; later
        touches in the same scope are free).  Every maintainer code
        path that writes ``sq.result`` calls this first, so _collect()
        diffs only the queries that actually changed."""
        self._before.setdefault(sq.query_id, dict(sq.result))

    def _collect(self, cause: str) -> tuple[ResultDelta, ...]:
        """Close the current mutation scope: diff every touched query
        against its recorded pre-state, in query *registration* order —
        not first-touch order, which depends on how an engine happens
        to iterate pairs.  One emission order for every engine keeps
        delta histories bit-comparable across backends.  A result change of
        a dynamic-reach maintainer bumps :attr:`reach_epoch` (its
        influence radius may have moved with the result)."""
        if not self._before:
            return ()
        out = []
        reach_moved = False
        for qid, sq in self._queries.items():
            before = self._before.get(qid)
            if before is None:  # untouched this scope
                continue
            delta = diff_results(
                qid,
                cause,
                before,
                sq.result,
                probabilities=sq.annotates == "probability",
            )
            if delta is not None:
                out.append(delta)
                reach_moved = reach_moved or sq.dynamic_reach
        self._before.clear()
        if reach_moved:
            self.reach_epoch += 1
        self.stats.deltas_emitted += len(out)
        return tuple(out)

    def _push_pending(self, delta: ResultDelta) -> None:
        self._pending.append(delta)
        self.stats.deltas_emitted += 1

    def _drain_pending(self) -> tuple[ResultDelta, ...]:
        drained = tuple(self._pending)
        self._pending.clear()
        return drained

    # ------------------------------------------------------------------
    # incremental maintenance (protocol dispatch)
    # ------------------------------------------------------------------

    def _ensure_topology_current(self) -> None:
        version = self.index.space.topology_version
        if version == self._topology_version:
            return
        self._topology_version = version
        self.stats.topology_invalidations += 1
        for sq in self._queries.values():
            sq.recompute()  # touches each query pre-resync
            self.stats.event_recomputes += 1
        self._pending.extend(self._collect("topology"))

    def _absorb_block(self, moved: list[UncertainObject], block) -> None:
        """The one update absorb path: pack the batch once, then hand
        the whole block to each maintainer's ``on_update_batch``.

        ``kernel_pruned`` is measured as the ``pairs_skipped`` delta
        around each dispatch, so the counter partition (evaluated =
        skipped + refined + recomputed) is preserved exactly."""
        if not moved:
            return
        self.stats.updates_seen += len(moved)
        if not self._queries:
            return
        space = self.index.space
        if block is None or (
            block.layout.topology_version != space.topology_version
        ):
            # Not pre-packed by a sharded front-end (or packed against a
            # topology that has since changed): pack here.
            block = pack_block(
                moved,
                space,
                self.index.population.grid,
                self.session.door_layout(),
            )
        n = len(moved)
        for sq in self._queries.values():
            self.stats.pairs_evaluated += n
            self.stats.kernel_pairs += n
            skipped_before = self.stats.pairs_skipped
            sq.on_update_batch(block)
            self.stats.kernel_pruned += (
                self.stats.pairs_skipped - skipped_before
            )
