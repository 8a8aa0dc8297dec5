"""servebench — the repository's serving benchmark.

Drives a real ``repro serve --workers 1`` with three seeded workloads
(``kb_reads``, ``kb_materialize``, ``kb_live``), checks every response
against in-process ground truth, and reports end-to-end metrics (tracing
off) or per-layer metrics (a traced in-process replay).  Run it as
``python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; README.md in this directory documents the
workloads and the metric table.
"""
