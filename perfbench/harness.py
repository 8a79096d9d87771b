"""Harness primitives shared by every workload.

* the percentile rule (a percentile is reported only with at least
  :data:`MIN_BEYOND` samples beyond it);
* seed-addressed operation traces: a *shadow* population walk that
  generates every input before timing starts, and a digest of the
  result so two commits can be shown to have seen the same inputs;
* run provenance and the result line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import time
from collections import deque
from pathlib import Path

import numpy as np

from repro.bench.workloads import ScaleProfile
from repro.geometry.point import Point
from repro.objects.generator import MovementStream, ObjectGenerator
from repro.objects.population import ObjectPopulation
from repro.objects.uncertain import UncertainObject
from repro.space.floorplan import IndoorSpace

#: A percentile is only reported when at least this many samples lie
#: beyond it, so one outlier cannot move it.
MIN_BEYOND = 10


# ---------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the
    ``q``-quantile position ``q * (n - 1)``."""
    if n == 0:
        return 0
    return n - 1 - math.floor(q * (n - 1))


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q``-quantile."""
    return samples_beyond(n, q) >= MIN_BEYOND


def percentile(samples, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile; raises
    ``ValueError`` when the samples do not support it (see
    :data:`MIN_BEYOND`).

    The estimate weighs every order statistic by a beta density centred
    on rank ``q * (n + 1)``.  Where a latency distribution has a knee
    near ``q`` (a tenth of WAL fsyncs hitting a slow disk), a single
    order statistic jumps between the body and the tail from run to
    run; the weighted average moves smoothly with the tail's share.
    """
    n = len(samples)
    if not supports(n, q):
        raise ValueError(
            f"{n} samples cannot support p{q * 100:g}: fewer than "
            f"{MIN_BEYOND} would lie beyond it"
        )
    x = np.sort(np.asarray(samples, dtype=float))
    a, b = q * (n + 1), (1 - q) * (n + 1)
    # Beta(a, b) mass of each rank interval ((i-1)/n, i/n], integrated
    # on a grid GRID times finer than the ranks (a, b > 1 here).
    t = np.linspace(0.0, 1.0, _HD_GRID * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(cdf[::_HD_GRID]) / cdf[-1]
    return float(weights @ x)


#: Integration points per rank interval of :func:`percentile`.
_HD_GRID = 20


def median(samples) -> float:
    """Plain median (setup repeats are too few for the percentile
    rule; the median of three is what the rule allows there)."""
    return float(statistics.median(samples))


# ---------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------

#: Seconds :func:`reference_kernel` takes at the reference speed (its
#: typical time on a 2-core x86-64 box, Python 3.11, numpy 2.4).
REFERENCE_KERNEL_S = 1.5e-3


def reference_kernel() -> float:
    """A fixed mix of small numpy operations and dict work, the two
    kinds of work the query service spends its time on.  It runs no
    code of ``repro``, so no change to the program can move it."""
    xs = np.arange(64.0)
    acc = 0.0
    for i in range(300):
        acc += float(np.sqrt(xs * i).sum())
        d = {j: j * 0.5 for j in range(8)}
        acc += sum(d.values())
    return acc


#: Seconds the gauge sleeps before each timing, so that threads a
#: timed op left running (the server's loop and the clients' readers
#: finishing up, spin-waiting workers) have gone idle by then.
IDLE_GAP_S = 0.002


class SpeedGauge:
    """How fast the machine runs right now, relative to the reference.

    The CPU speed of a shared machine drifts by up to 2x over seconds
    (other tenants, frequency scaling), which swamps any change worth
    measuring.  The gauge times :func:`reference_kernel` between timed
    operations (at most every ``every`` seconds, each time after an
    idle gap of :data:`IDLE_GAP_S`) and keeps the median of the last
    few timings; a duration measured now times :attr:`scale` is that
    duration at the reference speed.
    """

    def __init__(self, every: float = 0.05, window: int = 5) -> None:
        self.every = every
        self.window = window
        self._times: deque[float] = deque(maxlen=window)
        self._last = -math.inf
        self.scale = 1.0

    def sample(self, force: bool = False) -> float:
        """Time the kernel unless it ran less than ``every`` seconds
        ago; returns the seconds spent (to leave out of timed work)."""
        t0 = time.perf_counter()
        if not force and t0 - self._last < self.every:
            return 0.0
        time.sleep(IDLE_GAP_S)
        t1 = time.perf_counter()
        reference_kernel()
        t2 = time.perf_counter()
        self._times.append(t2 - t1)
        self.scale = REFERENCE_KERNEL_S / statistics.median(self._times)
        self._last = t2
        return t2 - t0


# ---------------------------------------------------------------------
# seed-addressed inputs
# ---------------------------------------------------------------------


def fresh_copy(obj: UncertainObject) -> UncertainObject:
    """A new object value with the same location (objects cache their
    subregions, so each system under test gets its own copies)."""
    return UncertainObject(obj.object_id, obj.region, obj.instances)


def query_points(space: IndoorSpace, seed: int, n: int) -> list[Point]:
    """``n`` seeded query points, each inside a partition."""
    rng = random.Random(seed)
    return [space.random_point(rng=rng) for _ in range(n)]


class ShadowWalk:
    """Generates a workload's whole input trace before timing starts.

    The initial population is fixed by the profile seed, like the venue;
    ``seed`` draws the trace over it: which objects move where, their
    re-sampled instances, inserts and deletes.  ``MovementStream`` reads
    the live positions of the population it walks, so the walk runs
    over a private *shadow* population that receives every generated
    mutation itself; the system under test is built from
    :attr:`initial` and only ever sees the generated ops.
    """

    def __init__(self, space: IndoorSpace, profile: ScaleProfile, seed: int):
        population = ObjectGenerator(
            space,
            radius=profile.default_radius,
            n_instances=profile.n_instances,
            seed=profile.seed + 4242,
            id_prefix="s",
        ).generate(profile.default_objects)
        #: The population every system under test starts from.
        self.initial = [fresh_copy(o) for o in population]
        self.population = population
        #: Samples moved objects' instances and inserted objects (ids
        #: ``i1``, ``i2``, ... never clash with the population's).
        self.sampler = ObjectGenerator(
            space,
            radius=profile.default_radius,
            n_instances=profile.n_instances,
            seed=seed + 4242,
            id_prefix="i",
        )
        self.stream = MovementStream(
            space,
            self.population,
            self.sampler,
            hop_probability=0.5,
            seed=seed + 7,
        )
        self._rng = np.random.default_rng(seed + 11)

    def moves(self, n: int) -> tuple:
        """Generate one batch of ``n`` moves and apply it to the shadow."""
        batch = tuple(self.stream.next_moves(n))
        for move in batch:
            self.population.move(
                move.object_id, move.new_region, move.new_instances
            )
        return batch

    def insert(self) -> UncertainObject:
        """Generate a new object, insert it into the shadow; returns a copy."""
        obj = self.sampler.generate_one()
        self.population.insert(obj)
        return fresh_copy(obj)

    def delete(self) -> str:
        """Delete a random object from the shadow; returns its id."""
        ids = self.population.ids()
        object_id = ids[int(self._rng.integers(len(ids)))]
        self.population.delete(object_id)
        return object_id

    def initial_population(self, space: IndoorSpace) -> ObjectPopulation:
        """A fresh population holding copies of :attr:`initial`."""
        population = ObjectPopulation(space, grid=self.population.grid)
        for obj in self.initial:
            population.insert(fresh_copy(obj))
        return population


def _update_location(h, region, instances) -> None:
    c = region.center
    h.update(repr((c.x, c.y, c.floor, region.radius)).encode())
    h.update(np.ascontiguousarray(instances.xy).tobytes())
    h.update(np.ascontiguousarray(instances.probs).tobytes())


def trace_digest(initial, ops) -> str:
    """SHA-256 over the initial population, the standing specs and
    every generated op (``(kind, payload)`` pairs), in order."""
    h = hashlib.sha256()
    for obj in initial:
        h.update(obj.object_id.encode())
        _update_location(h, obj.region, obj.instances)
    for kind, payload in ops:
        h.update(kind.encode())
        if kind == "moves":
            for move in payload:
                h.update(move.object_id.encode())
                _update_location(h, move.new_region, move.new_instances)
        elif kind == "insert":
            h.update(payload.object_id.encode())
            _update_location(h, payload.region, payload.instances)
        elif kind == "delete":
            h.update(payload.encode())
        else:  # a spec: one-shot read or standing registration
            h.update(json.dumps(payload.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------
# provenance and results
# ---------------------------------------------------------------------


def steal_ticks() -> int | None:
    """CPU time the hypervisor has taken from this machine so far, in
    clock ticks (the ``steal`` field of ``/proc/stat``); ``None`` where
    the system does not report it."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/**/*.py`` (path and content), so a run names
    the code it measured even in a checkout that is not a git repo."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without a subprocess
    (``None`` outside a git checkout)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return None


def provenance(root: Path, **extra) -> dict:
    """What a run measured on: machine, versions, code and ``extra``."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": git_commit(root),
        "source_digest": source_digest(root),
        **extra,
    }


def result_line(correct: bool, attempted: int, failed: int, metrics) -> str:
    """The JSON object the benchmark prints as its last line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
