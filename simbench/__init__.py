"""End-to-end benchmark of the simulator: wall-clock and virtual metrics.

``python -m simbench run`` runs the four workloads of ``BENCHMARK.json``
in interleaved rounds, each round in a fresh subprocess, and prints
every metric with its unit; ``python -m simbench compare BASE HEAD``
judges two such runs against the metric bounds.  ``simbench/run.py`` is
the single-workload entry point named in ``BENCHMARK.json``.  See
``simbench/README.md``.
"""
