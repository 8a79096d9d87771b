"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload standing-knn --seed 1 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The lines before it give the run's provenance, the
digest of its generated inputs, its work counters and, for a traced
run, the span table.  The exit code is 1 when the correctness gate
fails and 2 when the checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main(argv=None) -> int:
    """Parse the arguments, run the workload, print the result."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro here; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            + ", ".join(workloads.WORKLOADS)
        )
    outcome = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), root
    )
    for line in outcome.lines:
        print(line)
    print(
        harness.result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            outcome.metrics,
        ),
        flush=True,
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
