"""Unit tests for the process shard pool: proxy surface, routed
mutation equivalence against the in-process engine, crash recovery
(kill-a-worker bit-identity, pending-delta survival, restart budget),
shared-table growth, configuration validation and lifecycle."""

import math

import pytest

from repro.api.specs import KNNSpec, ProbRangeSpec, RangeSpec
from repro.errors import ProcPoolError, QueryError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import InstanceSet, ObjectPopulation, UncertainObject
from repro.objects.population import ObjectMove
from repro.queries import ProcPoolConfig, ShardedMonitor
from repro.geometry import Rect
from repro.space import SpaceBuilder
from repro.space.events import CloseDoor

Q_LEFT = Point(5.0, 5.0, 0)    # in r1 (west zone)
Q_RIGHT = Point(25.0, 5.0, 0)  # in r3 (east zone)


def _point_object(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return UncertainObject(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _point_move(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return ObjectMove(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _five_rooms():
    """A private copy of the canonical five-rooms space: topology
    events mutate the space, so twin engines need twin spaces."""
    b = SpaceBuilder()
    b.add_hallway("h", Rect(0, 10, 30, 14))
    b.add_room("r1", Rect(0, 0, 10, 10))
    b.add_room("r2", Rect(10, 0, 20, 10))
    b.add_room("r3", Rect(20, 0, 30, 10))
    b.add_room("r4", Rect(0, 14, 15, 24))
    b.add_room("r5", Rect(15, 14, 30, 24))
    b.connect("r1", "h", door_id="d1")
    b.connect("r2", "h", door_id="d2")
    b.connect("r3", "h", door_id="d3")
    b.connect("r4", "h", door_id="d4")
    b.connect("r5", "h", door_id="d5")
    b.connect("r1", "r2", door_id="d12")
    return b.build()


def _build_index(space=None):
    space = space or _five_rooms()
    pop = ObjectPopulation(space)
    pop.insert(_point_object("near", 4.0, 5.0))    # r1
    pop.insert(_point_object("mid", 8.0, 5.0))     # r1
    pop.insert(_point_object("far", 25.0, 5.0))    # r3
    return CompositeIndex.build(space, pop)


@pytest.fixture
def twin_monitors():
    """A serial and a process-backed sharded monitor over twin worlds,
    with the same standing queries; closed after the test."""
    serial = ShardedMonitor(_build_index(), n_shards=2)
    procs = ShardedMonitor(
        _build_index(),
        n_shards=2,
        workers=2,
        proc_config=ProcPoolConfig(max_restarts=50, table_rows=2),
    )
    for monitor in (serial, procs):
        monitor.register(RangeSpec(Q_LEFT, 6.0), query_id="rq")
        monitor.register(KNNSpec(Q_RIGHT, 2), query_id="knn")
        monitor.register(
            ProbRangeSpec(Q_LEFT, 10.0, 0.5), query_id="prq"
        )
    yield serial, procs
    procs.close()
    serial.close()


def _assert_twins_agree(serial, procs):
    for qid in serial.query_ids():
        assert procs.result_distances(qid) == \
            serial.result_distances(qid)


class TestEquivalence:
    def test_query_surface_mirrors_serial(self, twin_monitors):
        serial, procs = twin_monitors
        assert sorted(procs.query_ids()) == sorted(serial.query_ids())
        assert "rq" in procs and "nope" not in procs
        assert len(procs) == 3
        assert procs.query_spec("rq") == RangeSpec(Q_LEFT, 6.0)
        assert procs.result_ids("rq") == serial.result_ids("rq")
        assert procs.results() == serial.results()
        with pytest.raises(QueryError):
            procs.result_ids("nope")
        with pytest.raises(QueryError):
            procs.query_spec("nope")

    def test_register_deltas_are_bit_identical(self, twin_monitors):
        serial, procs = twin_monitors
        want = serial.drain_pending_deltas()
        got = procs.drain_pending_deltas()
        assert got.deltas == want.deltas

    def test_mutation_stream_is_bit_identical(self, twin_monitors):
        """Moves, insert, delete and a topology event produce the
        exact delta sequence of the in-process engine."""
        serial, procs = twin_monitors
        serial.drain_pending_deltas(), procs.drain_pending_deltas()
        steps = [
            [_point_move("near", 24.0, 5.0)],       # r1 -> r3
            [_point_move("far", 5.0, 4.0),
             _point_move("mid", 26.0, 6.0)],
        ]
        for moves in steps:
            assert procs.apply_moves(moves).deltas == \
                serial.apply_moves(moves).deltas
        newcomer = _point_object("new", 6.0, 6.0)
        assert procs.apply_insert(newcomer).deltas == \
            serial.apply_insert(newcomer).deltas
        assert procs.apply_delete("mid").deltas == \
            serial.apply_delete("mid").deltas
        event = CloseDoor("d12")
        want = serial.apply_event(event)
        got = procs.apply_event(event)
        assert got.deltas == want.deltas
        assert [d.door_id for d in got.event_result.modified_doors] \
            == [d.door_id for d in want.event_result.modified_doors]
        _assert_twins_agree(serial, procs)

    def test_deregister_is_bit_identical(self, twin_monitors):
        serial, procs = twin_monitors
        serial.drain_pending_deltas(), procs.drain_pending_deltas()
        serial.deregister("knn")
        procs.deregister("knn")
        assert "knn" not in procs
        assert procs.drain_pending_deltas().deltas == \
            serial.drain_pending_deltas().deltas

    def test_shared_table_grows_past_initial_capacity(self, twin_monitors):
        """table_rows=2 cannot hold one batch of these moves — the
        table regrows and workers re-attach, transparently."""
        serial, procs = twin_monitors
        serial.drain_pending_deltas(), procs.drain_pending_deltas()
        moves = [
            _point_move("near", 12.0, 5.0),
            _point_move("mid", 14.0, 5.0),
            _point_move("far", 16.0, 5.0),
        ]
        assert procs.apply_moves(moves).deltas == \
            serial.apply_moves(moves).deltas
        assert procs._pool._table.rows >= 3


class TestCrashRecovery:
    def test_kill_between_batches_stays_bit_identical(self, twin_monitors):
        serial, procs = twin_monitors
        serial.drain_pending_deltas(), procs.drain_pending_deltas()
        for i, (oid, x) in enumerate(
            [("near", 9.0), ("mid", 23.0), ("near", 4.0), ("far", 8.0)]
        ):
            procs._pool.kill_worker(i % procs._pool.n_workers)
            moves = [_point_move(oid, x, 5.0)]
            assert procs.apply_moves(moves).deltas == \
                serial.apply_moves(moves).deltas
        assert procs._pool.restarts == 4
        _assert_twins_agree(serial, procs)

    def test_parked_register_delta_survives_a_crash(self, twin_monitors):
        """A register delta parked but not yet drained lives only in
        worker memory and the parent mirror; killing the worker before
        the drain must not lose it."""
        serial, procs = twin_monitors
        serial.drain_pending_deltas(), procs.drain_pending_deltas()
        spec = RangeSpec(Q_RIGHT, 7.0)
        serial.register(spec, query_id="late")
        procs.register(spec, query_id="late")
        for w in range(procs._pool.n_workers):
            procs._pool.kill_worker(w)
        assert procs.drain_pending_deltas().deltas == \
            serial.drain_pending_deltas().deltas

    def test_kill_before_event_replays_resync(self, twin_monitors):
        """Crash-restart straddling a topology event: the replacement
        worker rebuilds over the *post-event* space but must re-emit
        the resync deltas the dead worker never delivered."""
        serial, procs = twin_monitors
        serial.drain_pending_deltas(), procs.drain_pending_deltas()
        procs._pool.kill_worker(0)
        event = CloseDoor("d12")
        assert procs.apply_event(event).deltas == \
            serial.apply_event(event).deltas
        _assert_twins_agree(serial, procs)

    def test_restart_budget_exhaustion_raises(self):
        procs = ShardedMonitor(
            _build_index(),
            n_shards=2,
            workers=2,
            proc_config=ProcPoolConfig(max_restarts=0),
        )
        try:
            procs._pool.kill_worker(0)
            with pytest.raises(ProcPoolError, match="budget"):
                procs.drain_pending_deltas()
        finally:
            procs.close()

    def test_worker_error_is_reraised_without_restart(self, twin_monitors):
        """A deterministic in-request exception comes back as a
        ProcPoolError and burns no restart (a replay would fail
        identically and loop the budget away)."""
        _serial, procs = twin_monitors
        pool = procs._pool
        with pytest.raises(ProcPoolError, match="worker request"):
            pool._request(0, {"op": "no-such-op"})
        assert pool.restarts == 0


class TestLifecycleAndConfig:
    def test_close_is_idempotent_and_terminal(self):
        procs = ShardedMonitor(
            _build_index(),
            n_shards=2,
            workers=2,
        )
        workers = [h.process for h in procs._pool._workers]
        procs.close()
        procs.close()
        assert all(not p.is_alive() for p in workers)
        with pytest.raises(ProcPoolError, match="closed"):
            procs.drain_pending_deltas()

    def test_workers_clamped_to_shards(self):
        procs = ShardedMonitor(
            _build_index(),
            n_shards=2,
            workers=8,
        )
        try:
            assert procs._pool.n_workers == 2
        finally:
            procs.close()

    def test_spawn_start_method(self):
        procs = ShardedMonitor(
            _build_index(),
            n_shards=2,
            workers=2,
            proc_config=ProcPoolConfig(start_method="spawn"),
        )
        try:
            procs.register(RangeSpec(Q_LEFT, 6.0), query_id="rq")
            assert procs.result_ids("rq") == {"near", "mid"}
            batch = procs.apply_moves(
                [_point_move("far", 5.5, 5.5)]
            )
            assert "far" in procs.result_ids("rq")
            assert any(d.query_id == "rq" for d in batch.deltas)
        finally:
            procs.close()

    def test_backend_and_config_validation(self):
        index = _build_index()
        # Serial shards (workers=1) have no pool to configure.
        with pytest.raises(QueryError, match="proc_config"):
            ShardedMonitor(
                index, n_shards=2, proc_config=ProcPoolConfig()
            )
        with pytest.raises(ProcPoolError, match="max_restarts"):
            ProcPoolConfig(max_restarts=-1)
        with pytest.raises(ProcPoolError, match="request_timeout_s"):
            ProcPoolConfig(request_timeout_s=0.0)
        with pytest.raises(ProcPoolError, match="table_rows"):
            ProcPoolConfig(table_rows=0)

    def test_infinite_reach_crosses_the_wire(self):
        """An ikNNQ with fewer reachable objects than k has infinite
        influence reach — the radius mirror must round-trip ``inf``
        through the message layer."""
        procs = ShardedMonitor(
            _build_index(),
            n_shards=2,
            workers=2,
        )
        try:
            procs.register(KNNSpec(Q_LEFT, 50), query_id="big")
            home = procs._homes["big"]
            radii = procs.shards[home].influence_radii()
            assert any(math.isinf(reach) for _, _, reach in radii)
            # ...and the router still runs every update through it.
            procs.apply_moves([_point_move("near", 6.0, 6.0)])
            assert "near" in procs.result_ids("big")
        finally:
            procs.close()
