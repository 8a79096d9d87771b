"""Process-based shard execution: the ``backend="process"`` engine of
:class:`~repro.queries.shard.ShardedMonitor`.

Thread workers measured flat (0.94-0.99x) because the GIL serialises
pair maintenance; this module moves the shard monitors into **worker
processes** so routed maintenance runs on real cores.  The parent
keeps the authoritative :class:`~repro.index.composite.CompositeIndex`
(registration claims, one-shot queries, routing, checkpoints all stay
parent-side); each worker process owns a disjoint subset of the shard
:class:`~repro.queries.monitor.QueryMonitor` instances over its own
**world replica** — a space + population rebuilt from messages, exactly
the rebuild the persist layer already proves bit-identical (every
distance and probability bound the maintainers consume is
tree-independent).

Wire format
-----------

Requests and responses are JSON objects sent as length-prefixed byte
messages over a :func:`multiprocessing.Pipe` — strictly lockstep (one
request in flight per worker), which is what makes crash recovery
reasoning tractable.  Result deltas cross the boundary as the existing
:mod:`repro.api.wire` records (canonical JSON lines, exact float
round-trip: the wire protocol *is* the serialization, as ROADMAP item
2 specifies); object/move inputs use the :mod:`repro.persist.codec`
dict forms, except instance coordinates, which ride a shared-memory
numpy table (:class:`_PositionTable`) — the parent writes each batch's
``(x, y, prob)`` rows once, the message carries only ``(row, n)``
spans, and every worker reads the same slab with zero copies per
float.

Parent -> worker ops: ``init`` (world replica + owned shards +
restored query states), ``moves`` / ``insert`` / ``delete`` /
``event`` / ``drain`` (an index mutation plus the router's per-shard
plan), ``register`` / ``deregister`` / ``restore`` / ``set_epoch``
(shard-targeted), ``stop``.  Every data-op response carries one
section per owned shard: the wire-encoded
:class:`~repro.queries.deltas.DeltaBatch`, the parked pending deltas,
``reach_epoch`` / topology version / influence radii (what the
parent-side router needs), monitor stats, and — whenever states may
have moved — every query's spec, snapshot state and result.  The
parent mirrors all of it on :class:`_ShardProxy` objects, so result
access, reach routing, checkpointing and crash re-initialisation never
need an extra round trip.

Supervision
-----------

A worker that dies (or hangs past ``request_timeout_s``) degrades
gracefully instead of hanging ingest: the supervisor kills it, spawns
a replacement initialised from the parent-side mirrors (states as of
the last *successful* response), re-issues the in-flight request, and
counts the restart against :attr:`ProcPoolConfig.max_restarts` —
beyond the budget, :class:`~repro.errors.ProcPoolError` surfaces to
the caller.  Replaying the in-flight request against the
current-parent world is safe by construction: moves are absolute
(idempotent), a replayed insert/delete tolerates the already-applied
population, and a replayed topology event is version-guarded.  Parked
pending deltas (a register delta between batches) are mirrored and
re-parked so no delta is lost across a crash — the property suite's
kill-a-worker test asserts the full delta history stays bit-identical
to the serial engine.

Limitations: all index/space mutations must flow through the sharded
monitor's ``apply_*`` paths (an out-of-band mutation of the parent's
space never reaches the replicas), and a process-backed monitor is
unusable after ``close()``.
"""

from __future__ import annotations

import json
import math
import multiprocessing as mp
import time
import traceback
from dataclasses import asdict, dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from repro.api.specs import QuerySpec, spec_from_dict
from repro.api.wire import decode_record, encode_record
from repro.errors import ProcPoolError, QueryError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.index.composite import CompositeIndex
from repro.objects.instances import InstanceSet
from repro.objects.population import ObjectMove, ObjectPopulation
from repro.objects.uncertain import UncertainObject
from repro.persist.codec import (
    event_from_dict,
    event_to_dict,
    object_from_dict,
    object_to_dict,
)
from repro.queries.deltas import DeltaBatch
from repro.queries.monitor import MonitorStats, QueryMonitor
from repro.queries.session import QuerySession
from repro.space.io import space_from_dict, space_to_dict

#: Ops whose response must refresh the per-query mirrors (states or
#: results may have moved).  ``drain`` and ``set_epoch`` cannot change
#: any maintainer state, so their responses skip the query payload.
_STATEFUL_OPS = frozenset(
    ("moves", "insert", "delete", "event", "register", "deregister",
     "restore")
)


@dataclass(frozen=True)
class ProcPoolConfig:
    """Tuning knobs of a :class:`ProcessShardPool`.

    ``max_restarts`` is the pool-lifetime budget of worker restarts
    (``0`` = a single crash is fatal); ``request_timeout_s`` bounds how
    long one request may take before the worker is presumed hung and
    killed (``None`` = wait for death only); ``start_method`` forces a
    :mod:`multiprocessing` start method (default: ``fork`` where
    available — worker worlds are rebuilt from messages, so ``spawn``
    is equally correct, just slower to boot); ``table_rows`` is the
    initial shared position-table capacity in instance rows (grown
    automatically).
    """

    max_restarts: int = 3
    request_timeout_s: float | None = 60.0
    start_method: str | None = None
    table_rows: int = 1024

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ProcPoolError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if (
            self.request_timeout_s is not None
            and self.request_timeout_s <= 0
        ):
            raise ProcPoolError(
                "request_timeout_s must be positive or None, "
                f"got {self.request_timeout_s}"
            )
        if self.table_rows < 1:
            raise ProcPoolError(
                f"table_rows must be >= 1, got {self.table_rows}"
            )


class _WorkerDied(Exception):
    """Internal: one request attempt failed at the transport level
    (broken pipe, EOF, dead process, or timeout) — the supervisor's
    cue to restart and re-issue, never surfaced to callers."""


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment without letting *this* process's cleanup
    destroy it.

    Attaching registers the segment with the resource tracker for
    unlink-at-exit.  When the worker shares the parent's tracker
    process — always on POSIX: ``fork``/``forkserver`` inherit its
    pipe, ``spawn`` hands the fd over in the preparation data —
    unregistering here would erase the parent's own registration (the
    tracker cache is one name set, not refcounted) and break its
    unlink-at-close, so the registration must stand.  Only a worker
    whose tracker would start fresh (no inherited fd or pid) may undo
    it, because *that* tracker unlinks its whole cache when the worker
    exits, which would destroy the parent's live table.
    """
    tracker = resource_tracker._resource_tracker
    inherited = (
        getattr(tracker, "_fd", None) is not None
        or getattr(tracker, "_pid", None) is not None
    )
    shm = shared_memory.SharedMemory(name=name)
    if not inherited:
        try:  # pragma: no cover - tracker internals vary per version
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


class _PositionTable:
    """Parent side of the shared-memory instance table: one float64
    ``(rows, 3)`` slab of ``x, y, prob`` rows, rewritten per batch.

    The lockstep request/response protocol makes one slab enough: the
    parent writes a batch's rows, sends the message, and never writes
    again until every worker has responded (and therefore finished
    reading).  Growth allocates a fresh segment whose name travels in
    the next message; workers re-attach when the name changes, and the
    old segment is unlinked immediately — POSIX keeps it alive for any
    reader still mapped.
    """

    def __init__(self, rows: int) -> None:
        self._shm: shared_memory.SharedMemory | None = None
        self._array: np.ndarray | None = None
        self.rows = 0
        self._alloc(max(1, rows))

    def _alloc(self, rows: int) -> None:
        self._shm = shared_memory.SharedMemory(
            create=True, size=rows * 3 * 8
        )
        self._array = np.ndarray(
            (rows, 3), dtype=np.float64, buffer=self._shm.buf
        )
        self.rows = rows

    def descriptor(self) -> dict[str, Any]:
        """The attach handle carried in messages."""
        return {"shm": self._shm.name, "rows": self.rows}

    def write(self, instance_sets: list[InstanceSet]) -> list[list[int]]:
        """Write each instance set's rows contiguously; returns the
        ``[row, n]`` span per set, in order.  Grows the table first if
        the batch needs more rows than the current slab holds."""
        total = sum(len(inst) for inst in instance_sets)
        if total > self.rows:
            grown = max(total, self.rows * 2)
            self.close()
            self._alloc(grown)
        spans: list[list[int]] = []
        row = 0
        for inst in instance_sets:
            n = len(inst)
            self._array[row : row + n, 0:2] = inst.xy
            self._array[row : row + n, 2] = inst.probs
            spans.append([row, n])
            row += n
        return spans

    def close(self) -> None:
        """Release and unlink the current segment (idempotent)."""
        if self._shm is None:
            return
        self._array = None
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._shm = None


class _AttachedTable:
    """Worker side of the shared position table: a read-only mapping of
    whatever segment the last message named."""

    def __init__(self, name: str, rows: int) -> None:
        self.name = name
        self._shm = _attach_untracked(name)
        self._array = np.ndarray(
            (rows, 3), dtype=np.float64, buffer=self._shm.buf
        )

    def read(self, row: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Copy one span out as ``(xy, probs)`` arrays (copies: the
        slab is rewritten by the parent every batch)."""
        block = np.array(self._array[row : row + n], dtype=np.float64)
        return block[:, 0:2], block[:, 2]

    def close(self) -> None:
        self._array = None
        self._shm.close()


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


def _worker_main(conn) -> None:
    """Entry point of one worker process: a strict request/response
    loop.  Any exception while handling a request becomes an ``error``
    response (the parent re-raises it — a deterministic error must not
    trigger a restart loop); a lost pipe means the parent is gone and
    the worker exits."""
    world: _WorkerWorld | None = None
    while True:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            break
        msg = json.loads(raw.decode("utf-8"))
        op = msg.get("op")
        if op == "stop":
            try:
                conn.send_bytes(b'{"status":"ok"}')
            except (BrokenPipeError, OSError):
                pass
            break
        try:
            if op == "init":
                world = _WorkerWorld(msg)
                resp: dict[str, Any] = {"status": "ok"}
            else:
                resp = world.handle(msg)
        except Exception:
            resp = {"status": "error", "error": traceback.format_exc()}
        try:
            conn.send_bytes(json.dumps(resp).encode("utf-8"))
        except (BrokenPipeError, OSError):
            break
    if world is not None:
        world.close()
    conn.close()


class _WorkerWorld:
    """One worker's world replica plus its owned shard monitors.

    Construction *is* crash recovery: the ``init`` message carries the
    parent's current space/population/index shape and, per owned
    shard, the mirrored query states, reach epoch, topology version,
    parked pending deltas and stats — so a replacement worker is
    indistinguishable from the one that died, as of the last
    successful response.
    """

    def __init__(self, msg: dict[str, Any]) -> None:
        space = space_from_dict(msg["space"])
        space.topology_version = int(msg["tv"])
        population = ObjectPopulation(space)
        for payload in msg["objects"]:
            population.insert(object_from_dict(payload))
        shape = msg["index"]
        self.index = CompositeIndex.build(
            space,
            population,
            fanout=int(shape["fanout"]),
            t_shape=float(shape["t_shape"]),
        )
        self.session = QuerySession(self.index)
        self.shards: dict[int, QueryMonitor] = {
            int(s): QueryMonitor(self.index, session=self.session)
            for s in msg["shards"]
        }
        for record in msg["queries"]:
            monitor = self.shards[int(record["shard"])]
            monitor.restore_query(
                spec_from_dict(record["spec"]),
                str(record["query_id"]),
                record["state"],
            )
        for s, monitor in self.shards.items():
            key = str(s)
            monitor.reach_epoch = int(msg["epochs"][key])
            # The mirrored (pre-crash) version, not the replica's: a
            # worker killed mid-event must resync on the re-issued
            # drain exactly as the dead one would have.
            monitor._topology_version = int(msg["tvs"][key])
            monitor.stats = MonitorStats(**msg["stats"][key])
            pending = [
                decode_record(line) for line in msg["pending"][key]
            ]
            if pending:
                monitor.park_deltas(pending)
        self.table: _AttachedTable | None = None
        self._attach(msg["table"])

    def close(self) -> None:
        if self.table is not None:
            self.table.close()
            self.table = None

    # -- input decoding ------------------------------------------------

    def _attach(self, descriptor: dict[str, Any] | None) -> None:
        if descriptor is None:
            return
        name = str(descriptor["shm"])
        if self.table is not None and self.table.name == name:
            return
        if self.table is not None:
            self.table.close()
        self.table = _AttachedTable(name, int(descriptor["rows"]))

    def _location_from(
        self, entry: dict[str, Any]
    ) -> tuple[Circle, InstanceSet]:
        x, y, floor = entry["center"]
        region = Circle(
            Point(float(x), float(y), int(floor)),
            float(entry["radius"]),
        )
        xy, probs = self.table.read(int(entry["row"]), int(entry["n"]))
        return region, InstanceSet(xy, int(floor), probs)

    # -- request handling ----------------------------------------------

    def handle(self, msg: dict[str, Any]) -> dict[str, Any]:
        op = str(msg["op"])
        if op == "set_epoch":
            self.shards[int(msg["shard"])].reach_epoch = int(
                msg["epoch"]
            )
            return self._respond(op, {})
        if op == "register":
            monitor = self.shards[int(msg["shard"])]
            monitor.register(
                spec_from_dict(msg["spec"]),
                query_id=str(msg["query_id"]),
            )
            return self._respond(op, {})
        if op == "deregister":
            self.shards[int(msg["shard"])].deregister(
                str(msg["query_id"])
            )
            return self._respond(op, {})
        if op == "restore":
            self.shards[int(msg["shard"])].restore_query(
                spec_from_dict(msg["spec"]),
                str(msg["query_id"]),
                msg["state"],
            )
            return self._respond(op, {})
        if op == "moves":
            self._attach(msg.get("table"))
            moves = []
            for entry in msg["objects"]:
                region, instances = self._location_from(entry)
                moves.append(
                    ObjectMove(str(entry["id"]), region, instances)
                )
            self.index.update_objects(moves)
            return self._respond(op, msg["plan"])
        if op == "insert":
            self._attach(msg.get("table"))
            entry = msg["object"]
            oid = str(entry["id"])
            if oid not in self.index.population:
                # Replayed after a crash: the original attempt already
                # inserted it before dying mid-response.
                region, instances = self._location_from(entry)
                self.index.insert_object(
                    UncertainObject(oid, region, instances)
                )
            return self._respond(op, msg["plan"])
        if op == "delete":
            oid = str(msg["id"])
            if oid in self.index.population:
                self.index.delete_object(oid)
            return self._respond(op, msg["plan"])
        if op == "event":
            target = int(msg["tv"])
            if self.index.space.topology_version < target:
                self.index.apply_event(event_from_dict(msg["event"]))
            return self._respond(op, msg["plan"])
        if op == "drain":
            return self._respond(op, msg["plan"])
        raise ProcPoolError(f"unknown worker op {op!r}")

    def _respond(
        self, op: str, plan: dict[str, Any]
    ) -> dict[str, Any]:
        include_queries = op in _STATEFUL_OPS
        sections: dict[str, Any] = {}
        for s in sorted(self.shards):
            monitor = self.shards[s]
            action = plan.get(str(s))
            if action is None:
                batch: DeltaBatch | None = None
            elif action[0] == "moves":
                relevant = [
                    self.index.population.get(oid) for oid in action[1]
                ]
                batch = DeltaBatch(
                    deltas=monitor.ingest_moves(relevant).deltas
                )
            elif action[0] == "insert":
                batch = monitor.ingest_insert(
                    self.index.population.get(str(action[1]))
                )
            elif action[0] == "delete":
                batch = monitor.ingest_delete(str(action[1]))
            else:
                batch = monitor.drain_pending_deltas()
            sections[str(s)] = self._section(
                monitor, batch, include_queries
            )
        return {"status": "ok", "sections": sections}

    def _section(
        self,
        monitor: QueryMonitor,
        batch: DeltaBatch | None,
        include_queries: bool,
    ) -> dict[str, Any]:
        section: dict[str, Any] = {
            "batch": None if batch is None else encode_record(batch),
            "pending": [
                encode_record(d)
                for d in monitor.peek_pending_deltas()
            ],
            "epoch": monitor.reach_epoch,
            "tv": monitor._topology_version,
            "radii": [
                [qid, [q.x, q.y, q.floor], reach]
                for qid, q, reach in monitor.influence_radii()
            ],
            "stats": asdict(monitor.stats),
            "queries": None,
        }
        if include_queries:
            section["queries"] = [
                [
                    qid,
                    monitor.query_spec(qid).to_dict(),
                    monitor.snapshot_query(qid),
                    monitor.result_distances(qid),
                ]
                for qid in monitor.query_ids()
            ]
        return section


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class _ShardProxy:
    """Parent-side stand-in for one remote shard monitor.

    Implements exactly the surface :class:`ShardedMonitor` consumes
    from a shard — registration, result access, reach inputs, stats —
    against mirrors refreshed from every worker response, and forwards
    the mutating calls as pool requests.  Mirror reads never touch the
    pipe, so routing and checkpointing stay as cheap as the in-process
    backend.
    """

    def __init__(self, pool: "ProcessShardPool", shard: int) -> None:
        self._pool = pool
        self.shard = shard
        self._specs: dict[str, QuerySpec] = {}
        self._states: dict[str, Any] = {}
        self._results: dict[str, dict[str, float | None]] = {}
        self._radii: list[tuple[str, Point, float]] = []
        self._stats = MonitorStats()
        self._epoch = 0
        self._tv = pool.index.space.topology_version
        self._pending_lines: list[str] = []

    # -- mirror maintenance --------------------------------------------

    def _absorb(self, section: dict[str, Any]) -> DeltaBatch | None:
        """Fold one response section into the mirrors; returns the
        decoded delta batch (``None`` for batch-less ops)."""
        self._epoch = int(section["epoch"])
        self._tv = int(section["tv"])
        self._radii = [
            (str(qid), Point(float(x), float(y), int(floor)), reach)
            for qid, (x, y, floor), reach in section["radii"]
        ]
        self._stats = MonitorStats(**section["stats"])
        self._pending_lines = list(section["pending"])
        if section["queries"] is not None:
            specs: dict[str, QuerySpec] = {}
            states: dict[str, Any] = {}
            results: dict[str, dict[str, float | None]] = {}
            for qid, spec, state, result in section["queries"]:
                qid = str(qid)
                specs[qid] = spec_from_dict(spec)
                states[qid] = state
                results[qid] = dict(result)
            self._specs, self._states, self._results = (
                specs, states, results,
            )
        if section["batch"] is None:
            return None
        return decode_record(section["batch"])

    # -- QueryMonitor-compatible surface -------------------------------

    @property
    def reach_epoch(self) -> int:
        return self._epoch

    @reach_epoch.setter
    def reach_epoch(self, value: int) -> None:
        self._pool.set_epoch(self.shard, int(value))

    @property
    def _topology_version(self) -> int:
        return self._tv

    @property
    def stats(self) -> MonitorStats:
        return self._stats

    def register(
        self, spec: QuerySpec, query_id: str | None = None
    ) -> str:
        if query_id is None:
            raise ProcPoolError(
                "process shards require an explicit query_id "
                "(the sharded front-end claims ids parent-side)"
            )
        self._pool.register(self.shard, spec, query_id)
        return query_id

    def deregister(self, query_id: str) -> None:
        self._require(query_id)
        self._pool.deregister(self.shard, query_id)

    def restore_query(
        self, spec: QuerySpec, query_id: str, state
    ) -> None:
        self._pool.restore_query(self.shard, spec, query_id, state)

    def result_ids(self, query_id: str) -> set[str]:
        return set(self._require(query_id))

    def result_distances(self, query_id: str) -> dict[str, float | None]:
        return dict(self._require(query_id))

    def results(self) -> dict[str, set[str]]:
        return {
            qid: set(members) for qid, members in self._results.items()
        }

    def query_ids(self) -> list[str]:
        return list(self._specs)

    def query_spec(self, query_id: str) -> QuerySpec:
        self._require(query_id)
        return self._specs[query_id]

    def snapshot_query(self, query_id: str):
        self._require(query_id)
        return self._states[query_id]

    def influence_radii(self) -> list[tuple[str, Point, float]]:
        return list(self._radii)

    def influence_radii_by_floor(
        self,
    ) -> dict[int, list[tuple[str, Point, float]]]:
        out: dict[int, list[tuple[str, Point, float]]] = {}
        for qid, q, reach in self._radii:
            out.setdefault(q.floor, []).append((qid, q, reach))
        return out

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._specs

    def _require(self, query_id: str) -> dict[str, float | None]:
        result = self._results.get(query_id)
        if result is None:
            raise QueryError(f"unknown standing query {query_id!r}")
        return result


@dataclass
class _WorkerHandle:
    """One live worker: its process and the parent end of its pipe."""

    process: Any
    conn: Any


class ProcessShardPool:
    """Supervisor of the worker processes behind a process-backed
    :class:`~repro.queries.shard.ShardedMonitor`.

    Owns worker lifecycle (spawn, restart-on-crash within
    :attr:`ProcPoolConfig.max_restarts`, clean shutdown), the shared
    position table, and the request fan-out: :meth:`execute` broadcasts
    one mutation + routing plan to every worker concurrently and
    reassembles the per-shard delta batches in shard-index order — the
    serial merge order, so results are bit-identical to the in-process
    backends.  ``restarts`` counts recoveries performed so far.
    """

    def __init__(
        self,
        index: CompositeIndex,
        n_shards: int,
        workers: int = 1,
        config: ProcPoolConfig | None = None,
    ) -> None:
        self.index = index
        self.config = config or ProcPoolConfig()
        self.n_workers = max(1, min(workers, n_shards))
        self.proxies = [_ShardProxy(self, s) for s in range(n_shards)]
        self._owners = [s % self.n_workers for s in range(n_shards)]
        self._worker_shards = [
            [s for s in range(n_shards) if s % self.n_workers == w]
            for w in range(self.n_workers)
        ]
        method = self.config.start_method
        if method is None:
            method = (
                "fork"
                if "fork" in mp.get_all_start_methods()
                else "spawn"
            )
        self._ctx = mp.get_context(method)
        self._table = _PositionTable(self.config.table_rows)
        self.restarts = 0
        self._closed = False
        self._workers: list[_WorkerHandle | None] = [None] * (
            self.n_workers
        )
        for w in range(self.n_workers):
            # Boot through the supervised path: a worker that dies
            # during its very first init already consumes the budget.
            self._ensure_worker(w)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop every worker (best effort, bounded wait) and release
        the shared table.  Idempotent; the pool is unusable after."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            if handle is None:
                continue
            try:
                handle.conn.send_bytes(b'{"op":"stop"}')
            except (BrokenPipeError, OSError):
                pass
        for w, handle in enumerate(self._workers):
            if handle is None:
                continue
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            handle.conn.close()
            self._workers[w] = None
        self._table.close()

    # ------------------------------------------------------------------
    # supervised transport
    # ------------------------------------------------------------------

    def _ensure_worker(self, w: int) -> None:
        """Make sure worker ``w`` is alive and initialised, consuming
        restart budget for every failed attempt."""
        while self._workers[w] is None:
            try:
                self._spawn(w)
            except _WorkerDied as exc:
                self._note_death(w, exc)

    def _spawn(self, w: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"shard-worker-{w}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(process, parent_conn)
        self._workers[w] = handle
        try:
            self._send(w, self._init_payload(w))
            self._await(w)
        except _WorkerDied:
            raise

    def _init_payload(self, w: int) -> dict[str, Any]:
        space = self.index.space
        queries = []
        epochs: dict[str, int] = {}
        tvs: dict[str, int] = {}
        pending: dict[str, list[str]] = {}
        stats: dict[str, dict[str, int]] = {}
        for s in self._worker_shards[w]:
            proxy = self.proxies[s]
            for qid in proxy._specs:
                queries.append(
                    {
                        "shard": s,
                        "query_id": qid,
                        "spec": proxy._specs[qid].to_dict(),
                        "state": proxy._states[qid],
                    }
                )
            key = str(s)
            epochs[key] = proxy._epoch
            tvs[key] = proxy._tv
            pending[key] = list(proxy._pending_lines)
            stats[key] = asdict(proxy._stats)
        return {
            "op": "init",
            "space": space_to_dict(space),
            "tv": space.topology_version,
            "index": {
                "fanout": self.index.indr.fanout,
                "t_shape": self.index.indr.t_shape,
            },
            "objects": [
                object_to_dict(obj) for obj in self.index.objects()
            ],
            "shards": self._worker_shards[w],
            "queries": queries,
            "epochs": epochs,
            "tvs": tvs,
            "pending": pending,
            "stats": stats,
            "table": self._table.descriptor(),
        }

    def _send(self, w: int, payload: dict[str, Any]) -> None:
        handle = self._workers[w]
        try:
            handle.conn.send_bytes(json.dumps(payload).encode("utf-8"))
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerDied(f"send failed: {exc}") from None

    def _await(self, w: int) -> dict[str, Any]:
        handle = self._workers[w]
        timeout = self.config.request_timeout_s
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            wait = 0.05
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            try:
                ready = handle.conn.poll(wait)
            except (BrokenPipeError, OSError) as exc:
                raise _WorkerDied(f"poll failed: {exc}") from None
            if ready:
                try:
                    raw = handle.conn.recv_bytes()
                except (EOFError, OSError) as exc:
                    raise _WorkerDied(f"recv failed: {exc}") from None
                resp = json.loads(raw.decode("utf-8"))
                if resp.get("status") == "error":
                    # A deterministic in-request exception: re-raise
                    # parent-side, do NOT burn a restart (the replay
                    # would fail identically, looping the budget away).
                    raise ProcPoolError(
                        "worker request failed:\n"
                        + str(resp.get("error"))
                    )
                return resp
            if not handle.process.is_alive():
                raise _WorkerDied(
                    f"worker exited with code {handle.process.exitcode}"
                )
            if (
                deadline is not None
                and time.monotonic() >= deadline
            ):
                raise _WorkerDied(
                    f"request timed out after {timeout}s"
                )

    def _note_death(self, w: int, exc: _WorkerDied) -> None:
        """Tear the dead worker down and charge the restart budget;
        raises :class:`ProcPoolError` once it is spent."""
        handle = self._workers[w]
        if handle is not None:
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(timeout=2.0)
            handle.conn.close()
            self._workers[w] = None
        if self.restarts >= self.config.max_restarts:
            raise ProcPoolError(
                f"shard worker {w} died ({exc}) with the restart "
                f"budget ({self.config.max_restarts}) already spent"
            ) from None
        self.restarts += 1

    def _request(self, w: int, payload: dict[str, Any]) -> dict[str, Any]:
        """One supervised request: restart-and-replay on crash until it
        succeeds or the budget is spent."""
        if self._closed:
            raise ProcPoolError("process shard pool is closed")
        while True:
            self._ensure_worker(w)
            try:
                self._send(w, payload)
                return self._await(w)
            except _WorkerDied as exc:
                self._note_death(w, exc)

    # ------------------------------------------------------------------
    # the ShardedMonitor execution backend
    # ------------------------------------------------------------------

    def execute(
        self,
        mutation: tuple[str, Any],
        plan: list[tuple[str, Any]],
    ) -> list[DeltaBatch]:
        """Run one routed mutation on every worker concurrently and
        return the per-shard delta batches in shard-index order."""
        if self._closed:
            raise ProcPoolError("process shard pool is closed")
        payload = self._mutation_payload(mutation, plan)
        responses = self._broadcast(payload)
        batches: list[DeltaBatch] = []
        for s, proxy in enumerate(self.proxies):
            section = responses[self._owners[s]]["sections"][str(s)]
            batches.append(proxy._absorb(section))
        return batches

    def _mutation_payload(
        self,
        mutation: tuple[str, Any],
        plan: list[tuple[str, Any]],
    ) -> dict[str, Any]:
        kind, payload = mutation
        plan_wire: dict[str, Any] = {}
        for s, (action, action_payload) in enumerate(plan):
            if action == "moves":
                plan_wire[str(s)] = [
                    "moves",
                    [obj.object_id for obj in action_payload],
                ]
            elif action == "insert":
                plan_wire[str(s)] = [
                    "insert", action_payload.object_id,
                ]
            elif action == "delete":
                plan_wire[str(s)] = ["delete", str(action_payload)]
            else:
                plan_wire[str(s)] = ["drain"]
        msg: dict[str, Any] = {"op": kind, "plan": plan_wire}
        if kind == "moves":
            spans = self._table.write(
                [obj.instances for obj in payload]
            )
            msg["objects"] = [
                self._location_entry(obj, span)
                for obj, span in zip(payload, spans)
            ]
            msg["table"] = self._table.descriptor()
        elif kind == "insert":
            spans = self._table.write([payload.instances])
            msg["object"] = self._location_entry(payload, spans[0])
            msg["table"] = self._table.descriptor()
        elif kind == "delete":
            msg["id"] = str(payload)
        elif kind == "event":
            msg["event"] = event_to_dict(payload)
            msg["tv"] = self.index.space.topology_version
        elif kind != "drain":
            raise ProcPoolError(f"unknown mutation kind {kind!r}")
        return msg

    @staticmethod
    def _location_entry(
        obj: UncertainObject, span: list[int]
    ) -> dict[str, Any]:
        center = obj.region.center
        return {
            "id": obj.object_id,
            "center": [
                float(center.x), float(center.y), int(center.floor),
            ],
            "radius": float(obj.region.radius),
            "row": span[0],
            "n": span[1],
        }

    def _broadcast(
        self, payload: dict[str, Any]
    ) -> list[dict[str, Any]]:
        """Send one request to every worker, then collect — the send
        phase is what lets workers run concurrently.  A worker that
        fails anywhere in the round is restarted from mirrors and the
        request replayed for it alone (other workers' successful work
        stands: replay is idempotent per worker, never cross-worker)."""
        needs_retry: list[int] = []
        for w in range(self.n_workers):
            if self._workers[w] is None:
                needs_retry.append(w)
                continue
            try:
                self._send(w, payload)
            except _WorkerDied as exc:
                self._note_death(w, exc)
                needs_retry.append(w)
        responses: list[dict[str, Any] | None] = [None] * self.n_workers
        for w in range(self.n_workers):
            if w in needs_retry:
                responses[w] = self._request(w, payload)
                continue
            try:
                responses[w] = self._await(w)
            except _WorkerDied as exc:
                self._note_death(w, exc)
                responses[w] = self._request(w, payload)
        return responses

    # ------------------------------------------------------------------
    # shard-targeted requests (registration, restore, epochs)
    # ------------------------------------------------------------------

    def _shard_request(
        self, shard: int, payload: dict[str, Any]
    ) -> None:
        w = self._owners[shard]
        resp = self._request(w, payload)
        for s in self._worker_shards[w]:
            self.proxies[s]._absorb(resp["sections"][str(s)])

    def register(
        self, shard: int, spec: QuerySpec, query_id: str
    ) -> None:
        self._shard_request(
            shard,
            {
                "op": "register",
                "shard": shard,
                "query_id": query_id,
                "spec": spec.to_dict(),
            },
        )

    def deregister(self, shard: int, query_id: str) -> None:
        self._shard_request(
            shard,
            {"op": "deregister", "shard": shard, "query_id": query_id},
        )

    def restore_query(
        self, shard: int, spec: QuerySpec, query_id: str, state
    ) -> None:
        self._shard_request(
            shard,
            {
                "op": "restore",
                "shard": shard,
                "query_id": query_id,
                "spec": spec.to_dict(),
                "state": state,
            },
        )

    def set_epoch(self, shard: int, epoch: int) -> None:
        self._shard_request(
            shard,
            {"op": "set_epoch", "shard": shard, "epoch": epoch},
        )

    # ------------------------------------------------------------------
    # fault-injection hooks (tests / benchmarks)
    # ------------------------------------------------------------------

    def kill_worker(self, w: int) -> None:
        """SIGKILL one worker (test hook for crash recovery: the next
        request detects the death, restarts, and replays)."""
        handle = self._workers[w]
        if handle is not None and handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=5.0)
