"""Repository benchmark: host throughput, set-up cost and per-layer trace.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see ``perfbench/README.md`` for the metrics and the
workloads.
"""
