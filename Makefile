PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: tier1 tier2 test bench bench-stream bench-serving \
	bench-serving-parallel bench-serving-process bench-serving-net \
	bench-restart bench-grid bench-grid-quick lint docs-check figures

# Fast correctness gate (default pytest run already excludes tier2).
tier1:
	$(PYTHON) -m pytest -x -q

# Slow streaming/property workloads (monitor equivalence at scale,
# streaming benchmarks).
tier2:
	$(PYTHON) -m pytest -q -m tier2 tests benchmarks

test: tier1 tier2

# Paper-figure benchmark panels (pytest-benchmark harness).
bench:
	$(PYTHON) -m pytest -q -m "not tier2" benchmarks

# The continuous-monitoring stream benchmark alone.
bench-stream:
	$(PYTHON) -m pytest -q -m tier2 benchmarks/bench_stream.py

# The delta-serving benchmark (single vs sharded monitor).  The quick
# CLI variant (`python benchmarks/bench_serving.py --quick --workers 2`)
# is the CI smoke gate.
bench-serving:
	$(PYTHON) -m pytest -q -m tier2 benchmarks/bench_serving.py

# Full serving profile with the worker-scaling (1/2/4) sweep, printed
# as a table.
bench-serving-parallel:
	$(PYTHON) benchmarks/bench_serving.py --workers 4

# Process-backend serving: spawned shard workers (GIL-free ingest)
# behind the same ShardedMonitor surface, asserted bit-identical to
# serial.  Timing is only meaningful on a multi-core machine.
bench-serving-process:
	$(PYTHON) benchmarks/bench_serving.py --backend process --workers 4

# Network serving: N TCP subscribers x M standing queries against a
# live NetServer, asserting exact convergence at quiesce.
bench-serving-net:
	$(PYTHON) benchmarks/bench_serving.py --net --workers 1

# Crash recovery: checkpointed serving killed mid-stream, restarted
# from its manifest, every subscriber resuming to the exact result —
# plus the checkpoint/restore-latency sweep (nightly table).
bench-restart:
	$(PYTHON) benchmarks/bench_serving.py --restart --workers 1
	$(PYTHON) -m pytest -q -m tier2 \
		benchmarks/bench_serving.py::test_serving_restart

# Experiment grids (declarative sweeps; see benchmarks/grids/ and
# docs/operations.md).  Resumable: cells with a verified result.json
# are skipped, so rerunning a killed sweep picks up where it stopped.
bench-grid:
	$(PYTHON) -m repro.bench grid benchmarks/grids/serving_worker_scaling.xp \
		--tables benchmarks/tables
	$(PYTHON) -m repro.bench grid benchmarks/grids/scenario_fleet.xp \
		--tables benchmarks/tables

# CI-smoke grid: a tiny 2x2 scenario sweep, run twice to prove resume.
bench-grid-quick:
	$(PYTHON) -m repro.bench grid benchmarks/grids/quick_smoke.xp --quick
	$(PYTHON) -m repro.bench grid benchmarks/grids/quick_smoke.xp --quick

# Same checks the CI lint job runs (requires ruff, pinned in ci.yml).
lint:
	ruff check .
	ruff format --check .

# Same check the CI docs job runs: every relative link in the
# markdown docs must resolve (stdlib only, no network).
docs-check:
	$(PYTHON) scripts/check_md_links.py

# Regenerate the paper's figure tables via the CLI harness.
figures:
	$(PYTHON) -m repro.bench
