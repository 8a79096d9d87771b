"""The durable-state subsystem: checkpoint format, service round
trips, and store-driven crash recovery.

The contract under test, from :mod:`repro.persist`: a checkpoint plus
its WAL tail brings a service back **bit-identical** — same results,
same delta sequences from the same subsequent updates, same auto-id
allocation — and every corruption mode is either tolerated exactly
where the design says (one torn final WAL record) or raises
:class:`~repro.errors.PersistError` loudly (digest mismatch, unknown
version, mid-log corruption) with recovery falling back to the
previous manifest entry rather than restoring silently-wrong state.
"""

import json
import random

import pytest

from repro.api.service import QueryService, ServiceConfig
from repro.api.specs import CountSpec, KNNSpec, ProbRangeSpec, RangeSpec
from repro.errors import PersistError, QueryError
from repro.geometry import Circle, Point
from repro.index import CompositeIndex
from repro.objects import (
    InstanceSet,
    ObjectGenerator,
    ObjectPopulation,
    UncertainObject,
)
from repro.objects.generator import MovementStream
from repro.objects.population import ObjectMove
from repro.persist import (
    CheckpointStore,
    read_checkpoint,
    recover,
    write_checkpoint,
)
from repro.persist.codec import move_from_dict, object_from_dict
from repro.persist.wal import WalMoves, decode_wal_record, encode_wal_record
from repro.space.events import CloseDoor
from repro.space.mall import build_mall


def _point_object(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return UncertainObject(object_id, Circle(p, 0.0), InstanceSet.single(p))


def _point_move(object_id: str, x: float, y: float, floor: int = 0):
    p = Point(x, y, floor)
    return ObjectMove(object_id, Circle(p, 0.0), InstanceSet.single(p))


@pytest.fixture
def five_rooms_index(five_rooms):
    pop = ObjectPopulation(five_rooms)
    pop.insert(_point_object("near", 4.0, 5.0))
    pop.insert(_point_object("mid", 8.0, 5.0))
    pop.insert(_point_object("far", 25.0, 5.0))
    return CompositeIndex.build(five_rooms, pop)


Q1 = Point(5.0, 5.0, 0)
Q3 = Point(25.0, 5.0, 0)


def _delta_key(delta):
    """Everything a delta says, as a comparable value — bit-identity
    means these match one for one across a checkpoint boundary."""
    return (
        delta.query_id,
        delta.cause,
        dict(delta.entered),
        tuple(delta.left),
        dict(delta.distance_changed),
        dict(delta.probability_changed),
    )


def _batch_keys(batch):
    return [_delta_key(d) for d in batch if not d.is_empty]


def _mall_world(seed=7, n_objects=40):
    space = build_mall(
        floors=2, bands=2, rooms_per_band_side=2, floor_size=100.0,
        hallway_width=4.0, stair_size=10.0, seed=seed,
    )
    gen = ObjectGenerator(space, radius=3.0, n_instances=6, seed=seed)
    pop = gen.generate(n_objects)
    index = CompositeIndex.build(space, pop)
    stream = MovementStream(space, pop, gen, seed=seed)
    return space, stream, index


def _mall_specs(space, seed=7):
    rng = random.Random(seed)
    return [
        RangeSpec(space.random_point(rng=rng), 40.0),
        KNNSpec(space.random_point(rng=rng), 5),
        ProbRangeSpec(space.random_point(rng=rng), 30.0, 0.4),
        CountSpec(space.random_point(rng=rng), 35.0, 2),
    ]


# ---------------------------------------------------------------------
# checkpoint file format
# ---------------------------------------------------------------------


class TestCheckpointFormat:
    def _checkpoint(self, five_rooms_index, tmp_path):
        service = QueryService(five_rooms_index)
        service.watch(RangeSpec(Q1, 8.0), query_id="kiosk")
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        return path

    def test_file_is_sealed_and_tmp_free(
        self, five_rooms_index, tmp_path
    ):
        path = self._checkpoint(five_rooms_index, tmp_path)
        lines = path.read_text().splitlines()
        tail = json.loads(lines[-1])
        assert tail["type"] == "digest"
        assert tail["records"] == len(lines) - 1
        assert not list(tmp_path.glob("*.tmp"))
        state = read_checkpoint(path)
        assert state.queries[0]["query_id"] == "kiosk"
        assert [o["id"] for o in state.objects] == ["near", "mid", "far"]

    def test_flipped_bit_raises(self, five_rooms_index, tmp_path):
        path = self._checkpoint(five_rooms_index, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 3] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(PersistError, match="digest mismatch"):
            read_checkpoint(path)

    def test_missing_digest_line_is_torn(
        self, five_rooms_index, tmp_path
    ):
        path = self._checkpoint(five_rooms_index, tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(PersistError, match="torn"):
            read_checkpoint(path)

    def test_truncated_body_raises(self, five_rooms_index, tmp_path):
        path = self._checkpoint(five_rooms_index, tmp_path)
        lines = path.read_text().splitlines()
        del lines[1]  # drop an object record, keep the digest
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError):
            read_checkpoint(path)

    def test_unknown_version_rejected(
        self, five_rooms_index, tmp_path
    ):
        path = self._checkpoint(five_rooms_index, tmp_path)
        state = read_checkpoint(path)
        import repro.persist.checkpoint as cp

        original = cp.CHECKPOINT_VERSION
        cp.CHECKPOINT_VERSION = 99  # writer from the future
        try:
            write_checkpoint(path, state)
        finally:
            cp.CHECKPOINT_VERSION = original
        with pytest.raises(PersistError, match="version"):
            read_checkpoint(path)


# ---------------------------------------------------------------------
# service round trip
# ---------------------------------------------------------------------


class TestServiceRoundTrip:
    @pytest.mark.parametrize(
        "config",
        [
            ServiceConfig(),
            ServiceConfig(n_shards=4, workers=2),
            ServiceConfig(n_shards=4, workers=2, backend="process"),
        ],
        ids=["single", "sharded-parallel", "sharded-process"],
    )
    def test_restore_is_bit_identical(self, tmp_path, config):
        """Same results, same subsequent delta sequences, same auto-id
        allocation — for single and sharded (parallel) engines, across
        all three builtin maintainers plus the count watch."""
        space, stream, index = _mall_world()
        service = QueryService(index, config)
        ids = [service.watch(s) for s in _mall_specs(space)]
        for _ in range(6):
            service.ingest(list(stream.next_moves(10)))

        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        restored = QueryService.restore(path)

        for qid in ids:
            assert restored.result_distances(qid) == \
                service.result_distances(qid)
        for _ in range(4):
            batch = list(stream.next_moves(10))
            assert _batch_keys(restored.ingest(batch)) == \
                _batch_keys(service.ingest(batch))
        a = service.watch(KNNSpec(space.random_point(seed=5), 3))
        b = restored.watch(KNNSpec(space.random_point(seed=5), 3))
        assert a == b
        service.close()
        restored.close()

    def test_config_override_reshapes_the_engine(self, tmp_path):
        """A single-engine checkpoint restored sharded (and vice
        versa) still lands on the same results — the checkpoint
        captures state, not engine shape."""
        space, stream, index = _mall_world()
        service = QueryService(index)
        ids = [service.watch(s) for s in _mall_specs(space)]
        for _ in range(3):
            service.ingest(list(stream.next_moves(10)))
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        resharded = QueryService.restore(
            path, config=ServiceConfig(n_shards=3)
        )
        for qid in ids:
            assert resharded.result_distances(qid) == \
                service.result_distances(qid)
        service.close()
        resharded.close()

    def test_count_watch_state_round_trips(
        self, five_rooms_index, tmp_path
    ):
        """The two-layer CountMaintainer state (private membership +
        published count) survives the trip: the next crossing emits
        the right delta, not a phantom re-entry."""
        service = QueryService(five_rooms_index)
        qid = service.watch(CountSpec(Q1, 8.0, 2), query_id="crowd")
        assert service.result_distances(qid) == {"count": 2.0}
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        restored = QueryService.restore(path)
        assert restored.result_distances(qid) == {"count": 2.0}
        # Drop below threshold on both: identical "left" delta.
        move = _point_move("mid", 25.0, 5.0)
        assert _batch_keys(restored.ingest([move])) == \
            _batch_keys(service.ingest([move]))
        assert restored.result_distances(qid) == {}
        service.close()
        restored.close()

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_checkpoint_with_retired_knobs_recovers(
        self, tmp_path, n_shards
    ):
        """A checkpoint written while the config still carried
        ``kernel="scalar"`` and ``bucketed_router=False`` recovers to
        the live results and the live service's later deltas."""
        space, stream, index = _mall_world()
        service = QueryService(index, ServiceConfig(n_shards=n_shards))
        ids = [service.watch(s) for s in _mall_specs(space)]
        for _ in range(4):
            service.ingest(list(stream.next_moves(10)))
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        state = read_checkpoint(path)
        state.config.update(kernel="scalar", bucketed_router=False)
        old = tmp_path / "old.jsonl"
        write_checkpoint(old, state)
        restored = QueryService.restore(old)
        assert restored.config == service.config
        for qid in ids:
            assert restored.result_distances(qid) == \
                service.result_distances(qid)
        for _ in range(4):
            batch = list(stream.next_moves(10))
            assert _batch_keys(restored.ingest(batch)) == \
                _batch_keys(service.ingest(batch))
        service.close()
        restored.close()

    def test_checkpoint_with_unknown_kernel_is_unusable(self, tmp_path):
        space, _stream, index = _mall_world()
        service = QueryService(index)
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        state = read_checkpoint(path)
        state.config["kernel"] = "gpu"
        with pytest.raises(PersistError, match="unusable config"):
            QueryService.from_state(state)
        service.close()

    def test_count_spec_is_watch_only(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        with pytest.raises(QueryError, match="watch"):
            service.run(CountSpec(Q1, 8.0, 2))
        service.close()

    def test_topology_version_survives(
        self, five_rooms_index, tmp_path
    ):
        """A restored engine must not trust pre-event caches: the
        space's topology version rides the checkpoint."""
        service = QueryService(five_rooms_index)
        qid = service.watch(RangeSpec(Q1, 8.0), query_id="kiosk")
        service.apply_event(CloseDoor("d12"))
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path)
        restored = QueryService.restore(path)
        assert restored.index.space.topology_version == \
            service.index.space.topology_version
        assert restored.result_distances(qid) == \
            service.result_distances(qid)
        service.close()
        restored.close()

    def test_extra_payload_round_trips(
        self, five_rooms_index, tmp_path
    ):
        service = QueryService(five_rooms_index)
        path = tmp_path / "ckpt.jsonl"
        service.checkpoint(path, extra={"net_sessions": [{"token": "t"}]})
        state = read_checkpoint(path)
        assert state.extra == {"net_sessions": [{"token": "t"}]}
        service.close()


# ---------------------------------------------------------------------
# store: manifest, rotation, compaction, recovery
# ---------------------------------------------------------------------


class TestStoreRecovery:
    def _service(self, five_rooms_index):
        service = QueryService(five_rooms_index)
        service.watch(RangeSpec(Q1, 8.0), query_id="kiosk")
        service.watch(KNNSpec(Q3, 2), query_id="board")
        return service

    def test_wal_tail_replays_onto_the_checkpoint(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)
        # Mutations of every kind land in the WAL, not a checkpoint.
        service.ingest([_point_move("far", 6.0, 5.0)])
        service.insert(_point_object("new", 24.0, 5.0))
        service.delete("mid")
        service.apply_event(CloseDoor("d12"))
        watched = service.watch(RangeSpec(Q3, 6.0))

        recovered, report = CheckpointStore(tmp_path).recover()
        assert report.restored_seq == 1
        assert report.wal_records == 5
        assert report.torn_tail == 0
        assert report.fell_back == 0
        for qid in ("kiosk", "board", watched):
            assert recovered.result_distances(qid) == \
                service.result_distances(qid)
        # Replay restored the auto-id counter too.
        assert recovered.watch(KNNSpec(Q1, 1)) == \
            service.watch(KNNSpec(Q1, 1))
        service.close()
        recovered.close()

    def test_corrupt_newest_falls_back_to_previous(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)                      # seq 1
        service.ingest([_point_move("far", 6.0, 5.0)])
        store.checkpoint(service)                  # seq 2
        service.ingest([_point_move("far", 25.0, 5.0)])

        newest = tmp_path / "checkpoint-000002.jsonl"
        raw = bytearray(newest.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        newest.write_bytes(bytes(raw))

        recovered, report = CheckpointStore(tmp_path).recover()
        assert report.fell_back == 1
        assert report.restored_seq == 1
        # Both WAL segments (>= seq 1) replay, so the post-seq-2
        # mutation is not lost with the bad checkpoint.
        assert report.wal_records == 2
        for qid in ("kiosk", "board"):
            assert recovered.result_distances(qid) == \
                service.result_distances(qid)
        service.close()
        recovered.close()

    def test_all_checkpoints_bad_raises(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        CheckpointStore(tmp_path).attach(service)
        path = tmp_path / "checkpoint-000001.jsonl"
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.raises(PersistError, match="no readable checkpoint"):
            CheckpointStore(tmp_path).recover()
        service.close()

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(PersistError, match="nothing to recover"):
            CheckpointStore(tmp_path).recover()

    def test_torn_wal_tail_tolerated(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)
        service.ingest([_point_move("far", 6.0, 5.0)])
        pre_tear = service.result_distances("kiosk")
        # The crash interrupts the next append mid-record.
        wal = tmp_path / "wal-000001.jsonl"
        with open(wal, "a", encoding="utf-8") as fp:
            fp.write('{"w":1,"op":"moves","moves":[{"id"')

        recovered, report = CheckpointStore(tmp_path).recover()
        assert report.torn_tail == 1
        assert report.wal_records == 1
        assert recovered.result_distances("kiosk") == pre_tear
        service.close()
        recovered.close()

    def test_mid_wal_corruption_raises(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)
        service.ingest([_point_move("far", 6.0, 5.0)])
        service.ingest([_point_move("far", 25.0, 5.0)])
        wal = tmp_path / "wal-000001.jsonl"
        lines = wal.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]
        wal.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError):
            CheckpointStore(tmp_path).recover()
        service.close()

    def test_compaction_keeps_the_last_two(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path, keep=2)
        for i in range(4):
            store.checkpoint(service)
            service.ingest(
                [_point_move("far", 6.0 + i, 5.0)]
            )
        entries = store.read_manifest()
        assert [e["seq"] for e in entries] == [3, 4]
        names = sorted(p.name for p in tmp_path.glob("checkpoint-*"))
        assert names == [
            "checkpoint-000003.jsonl",
            "checkpoint-000004.jsonl",
        ]
        wal_names = sorted(p.name for p in tmp_path.glob("wal-*"))
        assert wal_names == ["wal-000003.jsonl", "wal-000004.jsonl"]
        service.close()

    def test_rotation_is_atomic_with_the_capture(
        self, five_rooms_index, tmp_path
    ):
        """No mutation lands astride a checkpoint: everything before
        the cut is in the old segment (and the snapshot), everything
        after in the new one."""
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)
        service.ingest([_point_move("far", 6.0, 5.0)])
        store.checkpoint(service)
        service.ingest([_point_move("far", 25.0, 5.0)])
        wal1 = (tmp_path / "wal-000001.jsonl").read_text().splitlines()
        wal2 = (tmp_path / "wal-000002.jsonl").read_text().splitlines()
        assert len(wal1) == 1
        assert len(wal2) == 1
        service.close()

    def test_orphan_segment_still_replays(
        self, five_rooms_index, tmp_path
    ):
        """Crash between rotation and manifest append: the new segment
        exists but no manifest entry references it.  Recovery globs by
        sequence number, so its records are not lost."""
        service = self._service(five_rooms_index)
        store = CheckpointStore(tmp_path)
        store.attach(service)                    # seq 1 (manifested)
        manifest = (tmp_path / "MANIFEST.jsonl").read_bytes()
        store.checkpoint(service)                # seq 2
        service.ingest([_point_move("far", 6.0, 5.0)])
        # Undo the manifest append — as if the crash hit before it.
        (tmp_path / "MANIFEST.jsonl").write_bytes(manifest)

        recovered, report = CheckpointStore(tmp_path).recover()
        assert report.restored_seq == 1
        assert report.wal_records == 1  # the orphan wal-000002 record
        assert recovered.result_distances("kiosk") == \
            service.result_distances("kiosk")
        service.close()
        recovered.close()

    def test_recovery_cuts_a_fresh_durable_point(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        CheckpointStore(tmp_path).attach(service)
        service.ingest([_point_move("far", 6.0, 5.0)])
        recovered, report = CheckpointStore(tmp_path).recover()
        assert report.checkpoint_seq == report.restored_seq + 1
        # The fresh cut is immediately recoverable with no WAL tail.
        again, report2 = CheckpointStore(tmp_path).recover()
        assert report2.restored_seq == report.checkpoint_seq
        assert again.result_distances("kiosk") == \
            recovered.result_distances("kiosk")
        service.close()
        recovered.close()
        again.close()

    def test_module_level_recover_shorthand(
        self, five_rooms_index, tmp_path
    ):
        service = self._service(five_rooms_index)
        CheckpointStore(tmp_path).attach(service)
        recovered, report = recover(tmp_path)
        assert report.restored_seq == 1
        assert recovered.result_distances("kiosk") == \
            service.result_distances("kiosk")
        service.close()
        recovered.close()


# ---------------------------------------------------------------------
# non-finite instance data in persisted inputs
# ---------------------------------------------------------------------


class TestNonFiniteLocations:
    """JSON admits ``NaN``/``Infinity`` literals, so a move or object
    record read back from the WAL (or handed over the wire to a shard
    worker) can carry them; the codec must refuse with a typed error
    instead of letting maintenance fail half-way."""

    @staticmethod
    def _location(xy, probs):
        return {
            "center": [1.0, 1.0, 0],
            "radius": 1.0,
            "xy": xy,
            "probs": probs,
        }

    @pytest.mark.parametrize(
        "xy, probs",
        [
            ([[float("nan"), 1.0], [2.0, 3.0]], [0.5, 0.5]),
            ([[1.0, float("inf")], [2.0, 3.0]], [0.5, 0.5]),
            ([[1.0, 1.0], [2.0, 3.0]], [float("nan"), 0.5]),
        ],
    )
    def test_codec_refuses_non_finite(self, xy, probs):
        data = {"id": "o1", **self._location(xy, probs)}
        with pytest.raises(PersistError, match="finite"):
            move_from_dict(data)
        with pytest.raises(PersistError, match="finite"):
            object_from_dict(data)

    def test_nan_wal_move_record_is_a_persist_error(self):
        line = encode_wal_record(WalMoves((_point_move("o1", 1.0, 2.0),)))
        poisoned = line.replace("[1.0,2.0]", "[NaN,2.0]")
        assert poisoned != line
        with pytest.raises(PersistError, match="finite"):
            decode_wal_record(poisoned)
