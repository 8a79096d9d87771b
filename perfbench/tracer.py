"""In-memory span tracing installed from the benchmark's own files.

The traced run wraps the public callables of each layer *where their
caller looks them up* (``repro.queries.monitor.pack_block``, not
``repro.distances.batch.pack_block``) and records one span per call:
name, start, end and the span that caused it.  Nothing in ``src/``
changes, and untraced runs never install a wrapper.

A span's *self time* is its duration minus the part of it that its
child spans cover.  Within one thread the parent is the innermost open
span; a span opened on another thread (the server's event loop) with
nothing open there takes the main thread's innermost open span as
its parent, so the time a blocking call waits for the loop is charged
to the work the loop did for it.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: ``(target, span name)``: every callable the traced run wraps, named
#: after the layer (module) it belongs to.  A target is
#: ``"module:attr"`` or ``"module:Class.method"``.
SPANS = (
    (
        "repro.index.composite:CompositeIndex.update_objects",
        "index.update_objects",
    ),
    (
        "repro.index.composite:CompositeIndex.insert_object",
        "index.insert_delete",
    ),
    (
        "repro.index.composite:CompositeIndex.delete_object",
        "index.insert_delete",
    ),
    (
        "repro.index.composite:CompositeIndex.range_search",
        "index.range_search",
    ),
    ("repro.queries.shard:ShardedMonitor.apply_moves", "shard.apply_moves"),
    ("repro.queries.monitor:pack_block", "batch.pack_block"),
    ("repro.queries.shard:pack_block", "batch.pack_block"),
    (
        "repro.queries.maintainers:block_object_bounds",
        "batch.block_object_bounds",
    ),
    (
        "repro.queries.maintainers:block_probability_bounds",
        "batch.block_probability_bounds",
    ),
    ("repro.queries.engine:object_bounds", "bounds.object_bounds"),
    ("repro.queries.maintainers:object_bounds", "bounds.object_bounds"),
    (
        "repro.queries.engine:expected_indoor_distance",
        "expected.expected_indoor_distance",
    ),
    (
        "repro.queries.maintainers:expected_indoor_distance",
        "expected.expected_indoor_distance",
    ),
    ("repro.queries.range_query:filtering_phase", "engine.filtering_phase"),
    ("repro.queries.knn:filtering_phase", "engine.filtering_phase"),
    ("repro.queries.prob_range:filtering_phase", "engine.filtering_phase"),
    ("repro.queries.maintainers:filtering_phase", "engine.filtering_phase"),
    ("repro.queries.range_query:subgraph_phase", "engine.subgraph_phase"),
    ("repro.queries.knn:subgraph_phase", "engine.subgraph_phase"),
    ("repro.queries.prob_range:subgraph_phase", "engine.subgraph_phase"),
    ("repro.queries.range_query:pruning_phase", "engine.pruning_phase"),
    ("repro.queries.knn:pruning_phase", "engine.pruning_phase"),
    (
        "repro.queries.maintainers:KNNMaintainer.recompute",
        "maintainers.knn_recompute",
    ),
    ("repro.queries.monitor:QueryMonitor.ingest_moves", "monitor.ingest"),
    ("repro.queries.monitor:QueryMonitor.ingest_insert", "monitor.ingest"),
    ("repro.queries.monitor:QueryMonitor.ingest_delete", "monitor.ingest"),
    (
        "repro.queries.session:QuerySession.door_distances",
        "session.door_distances",
    ),
    ("repro.queries.serving:MonitorServer.publish", "serving.publish"),
    ("repro.api.net:encode_net_record", "framing.encode"),
    ("repro.api.wire:encode_record", "framing.encode"),
    ("repro.api.net:decode_net_record", "framing.decode"),
    ("repro.api.wire:decode_record", "framing.decode"),
    ("repro.api.net:ServerThread.ingest", "net.ingest"),
    ("repro.api.net:ServerThread.checkpoint_now", "net.checkpoint_now"),
    ("repro.api.net:NetClient.sync", "net.sync"),
    ("repro.persist.wal:WalWriter.write", "wal.write"),
    ("repro.persist.store:CheckpointStore.checkpoint", "checkpoint"),
)

#: ``(target, counter, extra)``: callables whose result size (its
#: length plus ``extra``, or the int it returns) is added to a counter
#: without opening a span of their own.
SIZE_COUNTERS = (
    # The WAL appends each encoded record plus a newline.
    ("repro.persist.wal:encode_wal_record", "wal.write.bytes", 1),
    ("repro.api.service:write_checkpoint", "checkpoint.bytes", 0),
)


#: Spans whose result (an encoded record) is also counted in bytes.
SIZED_SPANS = frozenset({"framing.encode"})


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


# ---------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals (empty or
    inverted intervals cover nothing)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span ``(start, end, parent_index | None)``: its duration
    minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, (_s, _e, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (start, end, _p) in enumerate(spans):
        covered = union_length(
            (max(spans[c][0], start), min(spans[c][1], end))
            for c in children[i]
        )
        out.append((end - start) - covered)
    return out


def account(spans, t0: float, t1: float) -> dict[str, float]:
    """Check that self times plus the untraced remainder add up to the
    wall time ``t1 - t0``.  Properly nested spans make this exact;
    overlapping roots or children outliving their parent show up as
    ``error`` (the relative gap)."""
    wall = t1 - t0
    selfs = self_times(spans)
    roots = [(max(s, t0), min(e, t1)) for s, e, p in spans if p is None]
    remainder = wall - union_length(roots)
    total = sum(selfs) + remainder
    return {
        "wall": wall,
        "self_total": sum(selfs),
        "remainder": remainder,
        "error": (total - wall) / wall if wall > 0 else 0.0,
    }


def layer_table(names, spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_ms`` and inclusive ``total_ms``."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
    )
    for name, (start, end, _p), self_s in zip(names, spans, selfs):
        row = table[name]
        row["calls"] += 1
        row["self_ms"] += self_s * 1e3
        row["total_ms"] += (end - start) * 1e3
    return dict(table)


# ---------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------


class Tracer:
    """Records spans in memory while installed (see module docstring).

    A call to a wrapped callable nested directly inside a span of the
    same name is folded into the outer span (``encode_net_record``
    calls ``wire.encode_record``: one encode, not two).
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent_record]`` per span, in start order.
        self.records: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Seconds from each ``ServerThread.ingest`` call until the
        #: served ``apply_moves`` coroutine starts.
        self.loop_waits: list[float] = []
        self._local = threading.local()
        self._main: list[list] = []
        self._main_ident: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._main_ident:
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, fn, name: str):
        tracer = self
        clock = time.perf_counter
        size_counter = name + ".bytes" if name in SIZED_SPANS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main
                parent = main[-1] if main else None
            record = [name, clock(), 0.0, parent]
            tracer.records.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size_counter is not None:
                tracer.counters[size_counter] += len(result)
            return result

        return wrapper

    def _size_counter(self, fn, counter: str, extra: int):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[counter] += (
                result if isinstance(result, int) else len(result) + extra
            )
            return result

        return wrapper

    def _loop_wait(self, fn):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            main = tracer._main
            if main and main[-1][0] == "net.ingest":
                tracer.loop_waits.append(time.perf_counter() - main[-1][1])
            return await fn(*args, **kwargs)

        return wrapper

    def _patch(self, target: str, make) -> None:
        owner, attr = _resolve(target)
        original = getattr(owner, "__dict__", {}).get(attr)
        if original is None:
            original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block; the thread
        entering it is the main thread."""
        self._main_ident = threading.get_ident()
        try:
            for target, counter, extra in SIZE_COUNTERS:
                make = functools.partial(
                    self._size_counter, counter=counter, extra=extra
                )
                self._patch(target, make)
            for target, name in SPANS:
                self._patch(target, lambda fn, n=name: self._span(fn, n))
            self._patch(
                "repro.queries.serving:MonitorServer.apply_moves",
                self._loop_wait,
            )
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)
            self._main_ident = None

    # -- analysis ------------------------------------------------------

    def spans(self) -> tuple[list[str], list[tuple]]:
        """Span names and ``(start, end, parent_index)`` tuples."""
        index = {id(rec): i for i, rec in enumerate(self.records)}
        names = [rec[0] for rec in self.records]
        spans = [
            (
                rec[1],
                rec[2],
                None if rec[3] is None else index.get(id(rec[3])),
            )
            for rec in self.records
        ]
        return names, spans

    def durations(self, name: str) -> list[float]:
        """Durations (s) of every span called ``name``."""
        return [rec[2] - rec[1] for rec in self.records if rec[0] == name]
