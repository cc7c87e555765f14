"""Input sizes of the workloads, importable without the simulator.

The harness records a round that crashed or timed out as failed
operations, as many as the round would have materialized.  It must know
that number without importing ``repro``, so the sizes live here and
:mod:`simbench.workloads` builds its inputs from them.
"""

from __future__ import annotations

#: Serving tenants: (name, WRR weight).
SERVE_TENANTS = (("heavy", 2), ("light", 1))
#: Ops per serving tenant, by ``smoke``.
SERVE_OPS = {False: 10_000, True: 600}
CLUSTER_TENANTS = ("alpha", "beta")
#: Ops per cluster tenant, by ``smoke``.
CLUSTER_OPS = {False: 10_000, True: 600}
#: Demands of the queueing replay, by ``smoke``.
QUEUE_DEMANDS = {False: 200_000, True: 20_000}


def planned_ops(workload: str, smoke: bool) -> int:
    """Operations one round of ``workload`` materializes."""
    serve = SERVE_OPS[smoke] * len(SERVE_TENANTS)
    return {
        "serve-small-reads": serve,
        "serve-kv-update": serve,
        "cluster-hedged-stall": CLUSTER_OPS[smoke] * len(CLUSTER_TENANTS),
        "queueing-replay": QUEUE_DEMANDS[smoke],
    }[workload]
