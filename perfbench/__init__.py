"""End-to-end and per-layer benchmark of the ``repro`` query service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a checkout; see
``perfbench/README.md`` for the workloads and every metric.
"""
