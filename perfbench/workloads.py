"""The benchmark's four workloads, their correctness gate and metrics.

Every workload is built on the SMALL profile's venue from
:class:`repro.bench.workloads.WorkloadFactory` (2 floors, 600 objects x
20 instances, radius 5, iRQ r=50, k=20).  The venue, the initial
population and every query point are fixed by the profile seed;
``--seed`` draws the whole operation trace, whose length follows from
the run's seconds alone (:meth:`Workload.trace_length`).

A run (``--trace 0``) sets the system up :data:`SETUP_REPEATS` times
(reporting the median as ``setup_s``), drives the generated trace for
the requested seconds with probe reads spread over it, and gates on
correctness.  Timed durations are reported at the reference speed of
:class:`~perfbench.harness.SpeedGauge`.  A traced run (``--trace 1``)
drives the fixed prefix of :attr:`Workload.prefix` ops twice on fresh
systems, untraced and then traced, checks that both report identical
work counters, and reports per-layer numbers from the traced pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from perfbench import harness
from perfbench.tracer import Tracer, account, layer_table
from repro.api import (
    CheckpointStore,
    KNNSpec,
    NetClient,
    ProbRangeSpec,
    QueryService,
    RangeSpec,
    ServerThread,
    ServiceConfig,
    wire,
)
from repro.baselines import NaiveEvaluator
from repro.bench.workloads import SMALL, WorkloadFactory
from repro.errors import ReproError
from repro.index.composite import CompositeIndex
from repro.objects.population import ObjectPopulation

PROFILE = SMALL
R = PROFILE.default_range
K = PROFILE.default_k
P_MIN = 0.5
READ_KINDS = ("irq", "iknnq", "iprq")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Points of the read probe of the standing and served workloads; each
#: is read once per kind (3 x 66 reads leave 20 beyond ``query_p90_ms``).
PROBE_READS = 66
#: Reads per kind of the probe that are checked against the oracle.
PROBE_CHECKS = 2


def make_spec(kind: str, q):
    """The workload's query spec of ``kind`` at ``q``."""
    if kind == "irq":
        return RangeSpec(q, R)
    if kind == "iknnq":
        return KNNSpec(q, K)
    return ProbRangeSpec(q, R, P_MIN)


def spec_kind(spec) -> str:
    """The read kind (``irq``, ``iknnq`` or ``iprq``) of a spec."""
    if isinstance(spec, KNNSpec):
        return "iknnq"
    if isinstance(spec, ProbRangeSpec):
        return "iprq"
    return "irq"


# ---------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything a run feeds the system, generated before timing."""

    walk: harness.ShadowWalk
    standing: list[tuple[str, object]]
    ops: list[tuple[str, object]]
    probe: list


# ---------------------------------------------------------------------
# in-process feed consumer
# ---------------------------------------------------------------------


class FeedReplica:
    """The text sink of a service's wire feed plus its consumer: after
    each write op the harness decodes the new lines, as a subscriber
    tailing the feed would; the gate replays them with
    :func:`repro.api.wire.replay_feed`."""

    def __init__(self) -> None:
        self._chunks: list[str] = []
        self.records: list = []

    def write(self, text: str) -> int:
        """Text-stream sink of the service's feed writer."""
        self._chunks.append(text)
        return len(text)

    def drain(self) -> None:
        """Decode every line written since the last drain."""
        chunks, self._chunks = self._chunks, []
        for chunk in chunks:
            for line in chunk.splitlines():
                self.records.append(wire.decode_record(line))


# ---------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------


@dataclass
class Loop:
    """Samples and outcomes of one driven trace.

    Every timed duration is kept as measured, together with the
    :class:`~perfbench.harness.SpeedGauge` scale read just before it
    (their product is the duration at the reference speed) and whether
    it was *calm*: the hypervisor stole no CPU time while it ran.
    Names: ``work`` (every timed op), ``ingest``, ``delivery``,
    ``late`` and one per read kind; seconds throughout.
    """

    samples: dict[str, list[tuple[float, float, bool]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    speed: harness.SpeedGauge = field(default_factory=harness.SpeedGauge)
    ops: int = 0
    updates: int = 0
    #: Loop wall time, less probe reads, oracle checks and gauge runs.
    wall: float = 0.0
    t0: float = 0.0
    t1: float = 0.0
    attempted: int = 0
    probes_done: int = 0
    errors: list[str] = field(default_factory=list)
    counters: dict | None = None
    #: Peak RSS when the trace is done, before the gate builds its
    #: from-scratch copies.
    peak_rss_mb: float = 0.0

    def add(self, name: str, seconds: float, calm: bool = True) -> None:
        """Record one duration (seconds) under ``name``."""
        self.samples[name].append((seconds, self.speed.scale, calm))

    def values(self, name: str, scaled: bool = True) -> list[float]:
        """The durations under ``name``: at the reference speed or, with
        ``scaled=False``, as measured."""
        return [s * k if scaled else s for s, k, _c in self.samples[name]]

    def latencies(self, name: str, q: float, scaled: bool = True):
        """The durations under ``name`` to take the ``q``-quantile of:
        the calm ones when they support it, else all of them."""
        samples = self.samples[name]
        calm = [x for x in samples if x[2]]
        if harness.supports(len(calm), q):
            samples = calm
        return [s * k if scaled else s for s, k, _c in samples]

    def stolen(self) -> dict[str, int]:
        """Per name, the samples during which CPU time was stolen."""
        return {
            name: sum(not calm for _s, _k, calm in samples)
            for name, samples in sorted(self.samples.items())
        }


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def work_counters(service: QueryService) -> dict:
    """The exact work counters the program keeps itself."""
    out = {f"monitor.{k}": v for k, v in asdict(service.stats).items()}
    session = service.session
    out["session.hits"] = session.hits
    out["session.misses"] = session.misses
    out["session.evictions"] = session.evictions
    routing = service.routing
    if routing is not None:
        out.update({f"shard.{k}": v for k, v in asdict(routing).items()})
    out["serving.deltas_published"] = service.deltas_published
    out["serving.deltas_dropped"] = service.deltas_dropped
    # The WAL writer lives on the service while a store is attached.
    wal = getattr(service, "_wal", None)
    out["wal.records"] = wal.records_written if wal is not None else 0
    return out


def counters_digest(counters: dict) -> str:
    """Short SHA-256 of a counter mapping, for comparing runs."""
    blob = json.dumps(counters, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------
# correctness oracle
# ---------------------------------------------------------------------


def naive_ids(naive: NaiveEvaluator, spec) -> set[str]:
    """The oracle's answer to ``spec`` (object ids)."""
    kind = spec_kind(spec)
    if kind == "irq":
        return set(naive.range_query(spec.q, spec.r))
    if kind == "iknnq":
        return {oid for oid, _d in naive.knn_query(spec.q, spec.k)}
    return set(naive.prob_range_query(spec.q, spec.r, spec.p_min))


def from_scratch(space, service: QueryService) -> QueryService:
    """A fresh service over a fresh index of the current objects."""
    population = ObjectPopulation(space, grid=service.index.population.grid)
    for obj in service.index.objects():
        population.insert(harness.fresh_copy(obj))
    index = CompositeIndex.build(space, population, fanout=PROFILE.fanout)
    return QueryService(index)


def live_results(service: QueryService) -> dict:
    """Every standing query's current member map."""
    return {qid: service.result_distances(qid) for qid in service.query_ids()}


def standing_mismatches(space, service: QueryService, live=None) -> list[str]:
    """Every standing result against a from-scratch ``run``.  ``live``
    maps query id to member map when the results must be read on
    another thread first."""
    fresh = from_scratch(space, service)
    out = []
    for qid in service.query_ids():
        spec = service.query_spec(qid)
        got = set(live[qid]) if live is not None else service.result_ids(qid)
        want = fresh.run(spec).ids()
        if got != want:
            out.append(
                f"standing {qid}: {len(got ^ want)} members differ from "
                "a from-scratch run"
            )
    fresh.close()
    return out


# ---------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------


def enough(loop: Loop, probes: int) -> bool:
    """Whether a closed loop has the samples its reported percentiles
    need (and has issued its ``probes`` probe reads): a run goes on
    past its deadline until it does, or until its trace ends."""
    if loop.probes_done < probes:
        return False
    reads = [len(loop.samples[kind]) for kind in READ_KINDS]
    if any(reads):
        if not all(harness.supports(n, 0.5) for n in reads):
            return False
        if not harness.supports(sum(reads), 0.9):
            return False
    writes = [len(loop.samples[name]) for name in ("ingest", "delivery")]
    return all(harness.supports(n, 0.9) for n in writes)


class Workload:
    """One workload: its inputs, its system under test, how a run
    drives it, and its correctness gate."""

    name = ""
    why = ""
    #: Moves per move batch of the trace.
    batch = 0
    #: Ops of trace generated per second of run: for a closed loop,
    #: 1.4-3x the ops a run gets through today on a 2-core x86-64 box;
    #: for an open one, the schedule's rate.
    ops_per_second = 0
    #: Ops a trace has however short the run: the counted prefix and
    #: the samples every reported percentile and the probe need.
    min_ops = 0
    #: Ops driven by a traced run and counted for the determinism check.
    prefix = 0
    #: Probe reads per move batch (0: no probe).  Spreading the probe
    #: over the run exposes reads to the same machine conditions as the
    #: writes they sit beside.
    probe_rate = 0.0
    #: Every ``check_every``-th one-shot read of the trace is checked
    #: against the oracle (0: none).
    check_every = 0
    #: Whether ops follow a fixed schedule (rates are then what the
    #: schedule achieved) instead of each waiting for the previous one.
    open_loop = False
    standing_counts: tuple = ()

    def __init__(self, space) -> None:
        self.space = space

    # -- inputs ----------------------------------------------------------

    def trace_length(self, seconds: float) -> int:
        """Ops in the trace of a run of ``seconds``.  A run ends when its
        trace does and never replays an op, so two commits see the same
        inputs however fast either runs."""
        return max(self.min_ops, math.ceil(self.ops_per_second * seconds))

    def inputs(self, seed: int, seconds: float) -> Inputs:
        """Generate every input of a run from ``seed``: by default a
        trace of move batches."""
        walk = harness.ShadowWalk(self.space, PROFILE, seed)
        ops = [
            ("moves", walk.moves(self.batch))
            for _ in range(self.trace_length(seconds))
        ]
        return Inputs(walk, self.standing_specs(), ops, self.probe_specs())

    def standing_specs(self) -> list[tuple[str, object]]:
        """Standing queries at fixed points of the venue (the profile
        seed places them, so every ``--seed`` watches the same spots)."""
        total = sum(n for _kind, n in self.standing_counts)
        points = harness.query_points(self.space, PROFILE.seed + 17, total)
        points = iter(points)
        return [
            (f"{kind}-{j}", make_spec(kind, next(points)))
            for kind, n in self.standing_counts
            for j in range(n)
        ]

    def probe_specs(self) -> list:
        """The read probe: ``PROBE_READS`` fixed points, each read once
        per kind (kinds interleaved)."""
        if not self.probe_rate:
            return []
        seed = PROFILE.seed + 505
        points = harness.query_points(self.space, seed, PROBE_READS)
        return [make_spec(kind, q) for q in points for kind in READ_KINDS]

    # -- the system ------------------------------------------------------

    def setup(self, inputs: Inputs, workdir: Path):
        """Build the system under test; returns it and the set-up seconds."""
        raise NotImplementedError

    def run_read(self, system, spec):
        """Answer one one-shot read on the system."""
        raise NotImplementedError

    def counters(self, system) -> dict:
        """The system's work counters right now."""
        raise NotImplementedError

    def drive(self, system, inputs, seconds, n_max=None, probes=True):
        """Drive the trace (at most ``n_max`` ops) for ``seconds``, with
        the read probe unless ``probes`` is false; returns the Loop."""
        raise NotImplementedError

    def gate(self, system, inputs: Inputs) -> list[str]:
        """Correctness failures of the system after a run."""
        raise NotImplementedError

    def close(self, system) -> None:
        """Shut the system down, stopping every thread it started."""
        raise NotImplementedError

    def oracle(self, system) -> NaiveEvaluator:
        """The system's :class:`NaiveEvaluator`, built on first use."""
        if system.naive is None:
            population = system.service.index.population
            system.naive = NaiveEvaluator(self.space, population)
        return system.naive

    def timed_read(self, system, loop: Loop, spec, check: bool) -> float:
        """One one-shot read, timed into the loop's samples; with ``check``
        its result is compared with the oracle.  Returns the seconds
        spent checking (not part of any timed metric)."""
        kind = spec_kind(spec)
        loop.attempted += 1
        stolen = harness.steal_ticks()
        t0 = time.perf_counter()
        try:
            result = self.run_read(system, spec)
        except ReproError as exc:
            loop.errors.append(f"read {kind}: {exc!r}")
            return 0.0
        t1 = time.perf_counter()
        loop.add(kind, t1 - t0, harness.steal_ticks() == stolen)
        if check and result.ids() != naive_ids(self.oracle(system), spec):
            loop.errors.append(
                f"read {kind} at {spec.q}: result differs from "
                "NaiveEvaluator"
            )
        return time.perf_counter() - t1

    def sample_speed(self, system, loop: Loop) -> float:
        """Read the speed gauge on the thread that does the program's
        work, if due; returns the seconds that took."""
        return loop.speed.sample()

    def probe_reads(self, system, loop: Loop, inputs, n_probes, batches):
        """The probe reads due after the ``batches``-th move batch, each
        after a gauge reading (the first ``PROBE_CHECKS`` of each kind
        checked against the oracle); returns the seconds they took."""
        target = min(n_probes, int(batches * self.probe_rate))
        t0 = time.perf_counter()
        while loop.probes_done < target:
            i = loop.probes_done
            loop.probes_done += 1
            check = i < PROBE_CHECKS * len(READ_KINDS)
            self.sample_speed(system, loop)
            self.timed_read(system, loop, inputs.probe[i], check)
        return time.perf_counter() - t0


@dataclass
class InProcess:
    """An in-process system under test: service and feed consumer."""

    service: QueryService
    replica: FeedReplica
    naive: NaiveEvaluator | None = None


class InProcessWorkload(Workload):
    """A closed loop of one in-process client over ``QueryService``."""

    config = ServiceConfig(kernel="vector")

    def setup(self, inputs: Inputs, workdir: Path):
        """Index build, standing queries and an attached wire feed."""
        population = inputs.walk.initial_population(self.space)
        t0 = time.perf_counter()
        index = CompositeIndex.build(
            self.space, population, fanout=PROFILE.fanout
        )
        service = QueryService(index, self.config)
        for qid, spec in inputs.standing:
            service.watch(spec, query_id=qid)
        replica = FeedReplica()
        service.attach_feed(replica)
        replica.drain()
        return InProcess(service, replica), time.perf_counter() - t0

    def run_read(self, system, spec):
        """Answer a read through ``QueryService.run``."""
        return system.service.run(spec)

    def counters(self, system) -> dict:
        """The service's work counters."""
        return work_counters(system.service)

    def write(self, system, loop: Loop, i: int, kind: str, payload) -> None:
        """Op ``i``, a write, timed until its feed lines are decoded."""
        service = system.service
        if kind == "moves":
            payload = list(payload)
        elif kind == "insert":
            payload = harness.fresh_copy(payload)
        loop.attempted += 1
        stolen = harness.steal_ticks()
        t0 = time.perf_counter()
        try:
            if kind == "moves":
                service.ingest(payload)
                ingested = time.perf_counter()
                loop.updates += len(payload)
            elif kind == "insert":
                service.insert(payload)
            else:
                service.delete(payload)
            system.replica.drain()
            done = time.perf_counter()
            calm = harness.steal_ticks() == stolen
            if kind == "moves":
                loop.add("ingest", ingested - t0, calm)
            loop.add("delivery", done - t0, calm)
        except ReproError as exc:
            loop.errors.append(f"op {i} ({kind}): {exc!r}")
        loop.add("work", time.perf_counter() - t0)

    def drive(self, system, inputs, seconds, n_max=None, probes=True):
        """Closed loop over the trace: each op starts when the previous
        one (and, for a write, its feed delivery) is done.  Probe reads
        and oracle checks are excluded from the loop's wall time."""
        n_probes = len(inputs.probe) if probes else 0
        loop = Loop()
        clock = time.perf_counter
        paused = 0.0
        batches = reads = 0
        loop.t0 = clock()
        deadline = loop.t0 + seconds
        for i, (kind, payload) in enumerate(inputs.ops[:n_max]):
            late = i >= self.prefix and clock() >= deadline
            if late and enough(loop, n_probes):
                break
            paused += self.sample_speed(system, loop)
            if kind in READ_KINDS:
                check = self.check_every > 0 and reads % self.check_every == 0
                reads += 1
                t0 = clock()
                checking = self.timed_read(system, loop, payload, check)
                paused += checking
                loop.add("work", clock() - t0 - checking)
            else:
                self.write(system, loop, i, kind, payload)
            if kind == "moves":
                batches += 1
                paused += self.probe_reads(
                    system, loop, inputs, n_probes, batches
                )
            loop.ops += 1
            if i + 1 == self.prefix:
                loop.counters = self.counters(system)
        loop.t1 = clock()
        loop.wall = loop.t1 - loop.t0 - paused
        loop.peak_rss_mb = harness.peak_rss_mb()
        return loop

    def gate(self, system, inputs) -> list[str]:
        """Standing results and the replayed feed against the truth."""
        service = system.service
        out = standing_mismatches(self.space, service)
        system.replica.drain()
        replayed = wire.replay_feed(system.replica.records)
        for qid in service.query_ids():
            if replayed.get(qid) != service.result_distances(qid):
                out.append(f"feed replay of {qid} differs from live result")
        return out

    def close(self, system) -> None:
        """Close the service."""
        system.service.close()


class StandingKNN(InProcessWorkload):
    """Standing iRQ/ikNNQ/iPRQ on one engine under move batches."""

    name = "standing-knn"
    why = (
        "50 iRQ + 4 ikNNQ + 2 iPRQ standing on one vector-kernel engine "
        "under 40-move batches: kNN full recompute dominates ingest"
    )
    batch = 40
    ops_per_second = 15
    #: 198 probe reads at 2 per batch need 99 batches.
    min_ops = 100
    prefix = 20
    probe_rate = 2.0
    standing_counts = (("irq", 50), ("iknnq", 4), ("iprq", 2))


class StandingRange(StandingKNN):
    """Standing iRQ/iPRQ on four serial shards, no kNN."""

    name = "standing-range"
    why = (
        "50 iRQ + 6 iPRQ on 4 serial shards, no kNN: bypasses kNN "
        "recompute; time goes to the bounds kernel, packing and routing"
    )
    config = ServiceConfig(n_shards=4, kernel="vector")
    ops_per_second = 50
    #: 198 probe reads at 1/2 per batch need 396 batches.
    min_ops = 400
    prefix = 100
    probe_rate = 0.5
    standing_counts = (("irq", 50), ("iprq", 6))


class OneshotRW(InProcessWorkload):
    """One-shot reads at Zipf-skewed points beside writes."""

    name = "oneshot-rw"
    why = (
        "closed loop of one-shot iRQ/ikNNQ/iPRQ at Zipf-skewed points "
        "(pool twice the session cache) with 30% move/insert/delete writes"
    )
    check_every = 60
    prefix = 250
    pool = 512
    zipf_s = 1.0
    #: The ops of every block of 50: 30% writes (60% of them move
    #: batches, 20% inserts, 20% deletes) and 70% reads, in a seeded
    #: order.  Any stretch of the trace then has the same mix of work
    #: whatever the seed, so the seed moves only what it should: which
    #: objects change and which points are read.
    block = (("moves", 9), ("insert", 3), ("delete", 3), ("read", 35))
    ops_per_second = 200
    #: Enough move-batch ingests (18% of ops) for their p90.
    min_ops = 1000
    batch = 8
    standing_counts = (("irq", 8),)

    def inputs(self, seed: int, seconds: float) -> Inputs:
        """A mixed trace of reads, move batches, inserts and deletes."""
        walk = harness.ShadowWalk(self.space, PROFILE, seed)
        # The pool and its popularity ranking are fixed venue spots;
        # the seed draws the read sequence over them.
        pool = harness.query_points(self.space, PROFILE.seed + 29, self.pool)
        weights = 1.0 / np.arange(1, self.pool + 1) ** self.zipf_s
        weights /= weights.sum()
        rng = np.random.default_rng(seed + 31)
        slots = [slot for slot, n in self.block for _ in range(n)]
        n_ops = self.trace_length(seconds)
        ops: list[tuple[str, object]] = []
        reads = 0
        while len(ops) < n_ops:
            for slot in rng.permutation(slots):
                if slot == "moves":
                    ops.append(("moves", walk.moves(self.batch)))
                elif slot == "insert":
                    ops.append(("insert", walk.insert()))
                elif slot == "delete":
                    ops.append(("delete", walk.delete()))
                else:  # read kinds take turns
                    kind = READ_KINDS[reads % len(READ_KINDS)]
                    reads += 1
                    q = pool[int(rng.choice(self.pool, p=weights))]
                    ops.append((kind, make_spec(kind, q)))
        del ops[n_ops:]
        return Inputs(walk, self.standing_specs(), ops, [])


@dataclass
class Served:
    """A served system under test: service, store, server and clients."""

    service: QueryService
    store: CheckpointStore
    thread: ServerThread
    clients: list[NetClient]
    naive: NaiveEvaluator | None = None


class ServedDurable(Workload):
    """A durable TCP server fed by an open loop of move batches."""

    name = "served-durable"
    why = (
        "TCP server with a fsyncing WAL and count-triggered checkpoints; "
        "2 NetClients watch 8 iRQ + 4 iPRQ; open loop of 10-move batches "
        "at 20/s"
    )
    config = ServiceConfig(kernel="vector")
    open_loop = True
    batch = 10
    #: The schedule: batches per second.
    ops_per_second = 20
    #: 198 probe reads at 2/3 per batch need 297 batches.
    min_ops = 300
    checkpoint_every = 50
    n_clients = 2
    prefix = 100
    probe_rate = 2 / 3
    standing_counts = (("irq", 8), ("iprq", 4))

    def setup(self, inputs: Inputs, workdir: Path):
        """Index build, server boot, standing queries, client watches."""
        population = inputs.walk.initial_population(self.space)
        store_dir = Path(tempfile.mkdtemp(dir=workdir))
        t0 = time.perf_counter()
        index = CompositeIndex.build(
            self.space, population, fanout=PROFILE.fanout
        )
        service = QueryService(index, self.config)
        store = CheckpointStore(store_dir)
        thread = ServerThread(service, store=store)
        thread.__enter__()
        clients: list[NetClient] = []
        system = Served(service, store, thread, clients)
        try:
            for qid, spec in inputs.standing:
                thread.watch(spec, query_id=qid)
            for _ in range(self.n_clients):
                client = NetClient(*thread.address)
                clients.append(client)
                client.connect()
                for qid, _spec in inputs.standing:
                    client.watch(query_id=qid)
        except BaseException:
            self.close(system)
            raise
        return system, time.perf_counter() - t0

    def run_read(self, system, spec):
        """Answer a read on the server's loop thread."""
        return system.thread.run(system.service.run, spec)

    def sample_speed(self, system, loop: Loop) -> float:
        """Read the speed gauge on the server's loop thread, if due."""
        return system.thread.run(loop.speed.sample)

    def counters(self, system) -> dict:
        """Work counters plus checkpoints cut and deltas received."""
        out = system.thread.run(work_counters, system.service)
        manifest = system.store.read_manifest()
        out["checkpoint.count"] = manifest[-1]["seq"] if manifest else 0
        for n, client in enumerate(system.clients):
            received = client.state.deltas_received
            out[f"net.client{n}.deltas_received"] = received
        return out

    def drive(self, system, inputs, seconds, n_max=None, probes=True):
        """Open loop over the whole trace, which is the schedule (so
        ``seconds`` is already in its length): batch ``b`` is due
        ``b / rate`` seconds after the start and is timed from its due
        time until every client's ``sync()`` returns, so a stall also
        delays the batches behind it.  Probe reads run on the server
        loop between two batches as an interlude: the schedule (and the
        loop's wall time) pauses for them and their oracle checks, so
        reads never delay a batch."""
        thread, clients = system.thread, system.clients
        n_probes = len(inputs.probe) if probes else 0
        loop = Loop()
        clock = time.perf_counter
        period = 1.0 / self.ops_per_second
        paused = 0.0
        loop.t0 = clock()
        for b, (_kind, batch) in enumerate(inputs.ops[:n_max]):
            due = loop.t0 + paused + b * period
            if due - clock() > 0.01:
                self.sample_speed(system, loop)
            now = clock()
            if now < due:
                time.sleep(due - now)
            moves = list(batch)
            loop.attempted += 1
            stolen = harness.steal_ticks()
            sent = clock()
            loop.add("late", sent - due)
            try:
                thread.ingest(moves)
                ingested = clock()
                loop.updates += len(moves)
                for client in clients:
                    client.sync()
                done = clock()
                calm = harness.steal_ticks() == stolen
                loop.add("ingest", ingested - sent, calm)
                loop.add("delivery", done - due, calm)
                loop.add("work", done - sent)
            except ReproError as exc:
                loop.errors.append(f"batch {b}: {exc!r}")
            loop.ops += 1
            if (b + 1) % self.checkpoint_every == 0:
                thread.checkpoint_now()
            if b + 1 == self.prefix:
                loop.counters = self.counters(system)
            paused += self.probe_reads(system, loop, inputs, n_probes, b + 1)
        loop.t1 = clock()
        loop.wall = loop.t1 - loop.t0 - paused
        loop.peak_rss_mb = harness.peak_rss_mb()
        return loop

    def gate(self, system, inputs) -> list[str]:
        """Client states and standing results against the truth."""
        service, thread = system.service, system.thread
        for client in system.clients:
            client.sync()
        live = thread.run(live_results, service)
        out = []
        for n, client in enumerate(system.clients):
            for qid, members in live.items():
                if client.states.get(qid) != members:
                    out.append(
                        f"client {n}: state of {qid} differs from the live "
                        "result"
                    )
        out += thread.run(standing_mismatches, self.space, service, live)
        return out

    def close(self, system) -> None:
        """Close the clients, then the server (final checkpoint)."""
        for client in system.clients:
            client.close()
        system.thread.close()


WORKLOADS = {
    cls.name: cls
    for cls in (StandingKNN, StandingRange, OneshotRW, ServedDurable)
}


# ---------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------


def end_to_end(loop: Loop, setups, open_loop: bool, scaled=True) -> dict:
    """The end-to-end metrics of a run, at the reference speed (or as
    measured, with ``scaled=False``).  ``setups`` holds ``(seconds,
    scale)`` per set-up.  A closed loop's rates divide by the time its
    ops took; an open loop's rates are what its fixed schedule
    achieved, so they divide by wall time and are never scaled."""

    def ms(name, q) -> float:
        return harness.percentile(loop.latencies(name, q, scaled), q) * 1e3

    # The pooled percentile keeps stolen reads: long reads meet stolen
    # time more often than short ones, so leaving them out would shift
    # the mix of read kinds it is taken over.
    reads = [x for kind in READ_KINDS for x in loop.values(kind, scaled)]

    setup_s = [s * k if scaled else s for s, k in setups]
    span = loop.wall if open_loop else sum(loop.values("work", scaled))
    return {
        "setup_s": (harness.median(setup_s), "s"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
        "updates_per_s": (loop.updates / span, "upd/s"),
        "ops_per_s": (loop.ops / span, "ops/s"),
        "ingest_p50_ms": (ms("ingest", 0.5), "ms"),
        "ingest_p90_ms": (ms("ingest", 0.9), "ms"),
        "irq_p50_ms": (ms("irq", 0.5), "ms"),
        "iknnq_p50_ms": (ms("iknnq", 0.5), "ms"),
        "iprq_p50_ms": (ms("iprq", 0.5), "ms"),
        "query_p90_ms": (harness.percentile(reads, 0.9) * 1e3, "ms"),
        "delivery_p50_ms": (ms("delivery", 0.5), "ms"),
        "delivery_p90_ms": (ms("delivery", 0.9), "ms"),
    }


#: Per-layer metrics read off the traced pass's span table, named
#: ``<span>.<column>``; the column gives the unit.
SPAN_METRICS = (
    "maintainers.knn_recompute.calls",
    "maintainers.knn_recompute.self_ms",
    "maintainers.knn_recompute.total_ms",
    "monitor.ingest.self_ms",
    "batch.pack_block.calls",
    "batch.pack_block.self_ms",
    "batch.block_object_bounds.self_ms",
    "batch.block_probability_bounds.self_ms",
    "shard.apply_moves.self_ms",
    "index.update_objects.calls",
    "index.update_objects.self_ms",
    "index.insert_delete.self_ms",
    "index.range_search.calls",
    "index.range_search.self_ms",
    "engine.filtering_phase.self_ms",
    "engine.subgraph_phase.self_ms",
    "engine.pruning_phase.self_ms",
    "bounds.object_bounds.calls",
    "bounds.object_bounds.self_ms",
    "expected.expected_indoor_distance.calls",
    "expected.expected_indoor_distance.self_ms",
    "session.door_distances.self_ms",
    "serving.publish.calls",
    "serving.publish.self_ms",
    "framing.encode.calls",
    "framing.encode.self_ms",
    "framing.decode.self_ms",
    "net.ingest.self_ms",
    "wal.write.calls",
    "wal.write.self_ms",
    "checkpoint.calls",
    "checkpoint.self_ms",
)
SPAN_UNITS = {"calls": "count", "self_ms": "ms", "total_ms": "ms"}

#: Per-layer metrics that are the program's own work counters.
COUNTER_METRICS = {
    "monitor.full_recomputes": "monitor.full_recomputes",
    "monitor.pairs_evaluated": "monitor.pairs_evaluated",
    "monitor.pairs_skipped": "monitor.pairs_skipped",
    "monitor.pairs_refined": "monitor.pairs_refined",
    "monitor.pairs_recomputed": "monitor.pairs_recomputed",
    "batch.kernel_pairs": "monitor.kernel_pairs",
    "batch.kernel_pruned": "monitor.kernel_pruned",
    "shard.shards_skipped": "shard.shards_skipped",
    "session.evictions": "session.evictions",
    "serving.deltas_published": "serving.deltas_published",
    "serving.deltas_dropped": "serving.deltas_dropped",
}

#: Per-layer ratios of work counters: ``(unit, numerator, denominator
#: terms)``.
RATIO_METRICS = {
    "monitor.recomputes_per_update": (
        "1/upd",
        "monitor.full_recomputes",
        ("monitor.updates_seen",),
    ),
    "monitor.skip_ratio": (
        "ratio",
        "monitor.pairs_skipped",
        ("monitor.pairs_evaluated",),
    ),
    "monitor.refine_ratio": (
        "ratio",
        "monitor.pairs_refined",
        ("monitor.pairs_evaluated",),
    ),
    "batch.kernel_prune_ratio": (
        "ratio",
        "monitor.kernel_pruned",
        ("monitor.kernel_pairs",),
    ),
    "shard.skip_ratio": (
        "ratio",
        "shard.shards_skipped",
        ("shard.shards_skipped", "shard.shard_visits"),
    ),
    "session.hit_rate": (
        "ratio",
        "session.hits",
        ("session.hits", "session.misses"),
    ),
}

#: Per-layer byte counts the tracer adds up.
BYTE_METRICS = ("framing.encode.bytes", "wal.write.bytes", "checkpoint.bytes")


def per_layer(tracer: Tracer, counters: dict, loop: Loop, untraced: Loop):
    """Per-layer metrics of a traced pass and its span accounting."""
    names, spans = tracer.spans()
    table = layer_table(names, spans)
    acct = account(spans, loop.t0, loop.t1)
    m = {}
    for name in SPAN_METRICS:
        span, _, column = name.rpartition(".")
        m[name] = (table.get(span, {}).get(column, 0), SPAN_UNITS[column])
    for name, key in COUNTER_METRICS.items():
        m[name] = (counters.get(key, 0), "count")
    for name, (unit, num, den) in RATIO_METRICS.items():
        total = sum(counters.get(key, 0) for key in den)
        m[name] = (counters.get(num, 0) / total if total else 0.0, unit)
    for name in BYTE_METRICS:
        m[name] = (tracer.counters.get(name, 0), "bytes")
    waits = tracer.loop_waits
    syncs = tracer.durations("net.sync")
    m["net.loop_wait_ms"] = (_median_ms(waits), "ms")
    m["net.sync_rtt_ms"] = (_median_ms(syncs), "ms")
    late = loop.values("late", scaled=False)
    late_p90 = harness.percentile(late, 0.9) * 1e3 if late else 0.0
    m["harness.generator_late_p90_ms"] = (late_p90, "ms")
    busy = sum(loop.values("work"))
    base = sum(untraced.values("work"))
    m["harness.tracing_overhead_pct"] = (100.0 * (busy - base) / base, "%")
    m["harness.traced_wall_ms"] = (acct["wall"] * 1e3, "ms")
    m["harness.untraced_ms"] = (acct["remainder"] * 1e3, "ms")
    m["harness.accounting_error_pct"] = (100.0 * acct["error"], "%")
    return m, {"table": table, "account": acct}


def _median_ms(seconds) -> float:
    return harness.median(seconds) * 1e3 if seconds else 0.0


#: Self times plus the untraced remainder must equal the traced wall
#: time within this share.
ACCOUNTING_TOLERANCE = 0.05


@dataclass
class Outcome:
    """What one benchmark run prints and returns."""

    lines: list[str]
    correct: bool
    attempted: int
    failed: int
    metrics: dict


def run(name: str, seed: int, seconds: int, trace: bool, root: Path):
    """Run workload ``name`` once and return its :class:`Outcome`; see
    the module docstring."""
    space = WorkloadFactory(PROFILE).space()
    workload = WORKLOADS[name](space)
    inputs = workload.inputs(seed, seconds)
    digest = harness.trace_digest(
        inputs.walk.initial,
        [("spec", spec) for _qid, spec in inputs.standing]
        + inputs.ops
        + [("spec", spec) for spec in inputs.probe],
    )
    workroot = root / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    prov = harness.provenance(
        root,
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        setup_repeats=SETUP_REPEATS,
        prefix_ops=workload.prefix,
        profile=PROFILE.name,
    )
    lines = [
        "provenance " + json.dumps(prov, sort_keys=True),
        f"inputs digest={digest} ops={len(inputs.ops)} "
        f"standing={len(inputs.standing)} probe={len(inputs.probe)}",
    ]
    try:
        if trace:
            return _traced(workload, inputs, workdir, lines)
        return _untraced(workload, inputs, seconds, workdir, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run still holds a directory there


def _finish(workload, system, inputs, loop: Loop, lines) -> list[str]:
    """Gate the run, close the system, and report counters."""
    try:
        errors = loop.errors + workload.gate(system, inputs)
    finally:
        workload.close(system)
    if loop.counters is not None:
        lines.append(
            f"counters at op {workload.prefix} "
            f"digest={counters_digest(loop.counters)} "
            + json.dumps(loop.counters, sort_keys=True)
        )
    return errors


def _untraced(workload, inputs, seconds, workdir, lines) -> Outcome:
    gauge = harness.SpeedGauge()
    setups = []
    system = None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            workload.close(system)
        for _ in range(gauge.window):
            gauge.sample(force=True)
        system, setup_s = workload.setup(inputs, workdir)
        setups.append((setup_s, gauge.scale))
    try:
        loop = workload.drive(system, inputs, seconds)
    except BaseException:
        workload.close(system)
        raise
    errors = _finish(workload, system, inputs, loop, lines)
    metrics = end_to_end(loop, setups, workload.open_loop)
    measured = end_to_end(loop, setups, workload.open_loop, scaled=False)
    counts = " ".join(
        f"{name}={len(loop.samples[name])}/{n}"
        for name, n in loop.stolen().items()
    )
    lines.append(
        f"ops={loop.ops} updates={loop.updates} wall_s={loop.wall:.3f} "
        f"samples/stolen {counts}"
    )
    lines.extend(f"FAIL {err}" for err in errors[:20])
    lines.append(f"error_rate {len(errors)}/{loop.attempted} failed/attempted")
    lines.append(f"{'metric':18s} {'reference':>12s} {'measured':>12s} unit")
    for metric, (value, unit) in metrics.items():
        raw = measured[metric][0]
        lines.append(f"{metric:18s} {value:12.6g} {raw:12.6g} {unit}")
    return Outcome(lines, not errors, loop.attempted, len(errors), metrics)


def _traced(workload, inputs, workdir, lines) -> Outcome:
    n = workload.prefix
    system, _ = workload.setup(inputs, workdir)
    try:
        base = workload.counters(system)
        untraced = workload.drive(system, inputs, 0.0, n, probes=False)
    except BaseException:
        workload.close(system)
        raise
    errors = _finish(workload, system, inputs, untraced, [])
    counters_a = _delta(untraced.counters or {}, base)

    system, _ = workload.setup(inputs, workdir)
    tracer = Tracer()
    try:
        base = workload.counters(system)
        with tracer.installed():
            loop = workload.drive(system, inputs, 0.0, n, probes=False)
    except BaseException:
        workload.close(system)
        raise
    errors += _finish(workload, system, inputs, loop, lines)
    counters_b = _delta(loop.counters or {}, base)
    if counters_a != counters_b:
        errors.append(
            "work counters differ between the untraced and the traced "
            f"pass: {counters_digest(counters_a)} vs "
            f"{counters_digest(counters_b)}"
        )
    metrics, detail = per_layer(tracer, counters_b, loop, untraced)
    acct = detail["account"]
    if abs(acct["error"]) > ACCOUNTING_TOLERANCE:
        errors.append(
            f"self times + untraced remainder miss the traced wall time "
            f"by {100 * acct['error']:.2f}% (tolerance "
            f"{100 * ACCOUNTING_TOLERANCE:.0f}%)"
        )
    wall_ms = acct["wall"] * 1e3
    rows = sorted(detail["table"].items(), key=lambda kv: -kv[1]["self_ms"])
    self_ms = acct["self_total"] * 1e3
    untraced_ms = acct["remainder"] * 1e3
    overhead = metrics["harness.tracing_overhead_pct"][0]
    lines.append(
        f"traced {n} ops: wall {wall_ms:.1f} ms = self {self_ms:.1f} ms"
        f" + untraced {untraced_ms:.1f} ms (error "
        f"{100 * acct['error']:+.3f}%, overhead {overhead:+.1f}%)"
    )
    lines.append(
        f"{'span':40s} {'calls':>8s} {'self_ms':>10s} "
        f"{'self%':>6s} {'total_ms':>10s}"
    )
    for span_name, row in rows:
        share = 100 * row["self_ms"] / wall_ms
        lines.append(
            f"{span_name:40s} {row['calls']:8d} {row['self_ms']:10.1f} "
            f"{share:6.1f} {row['total_ms']:10.1f}"
        )
    lines.extend(f"FAIL {err}" for err in errors[:20])
    attempted = untraced.attempted + loop.attempted
    return Outcome(lines, not errors, attempted, len(errors), metrics)
