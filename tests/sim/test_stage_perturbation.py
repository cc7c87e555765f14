"""Tie-break perturbation of the stage chain alone.

:class:`StagePipeline` is the one stage implementation behind the
closed-loop replay, the server and every cluster node.  The serve and
cluster suites perturb it only through those layers; this test replays
a seeded demand list through the bare chain on
``EventLoop(tiebreak_seed=s)`` and requires every request to complete
at the same virtual time under every shuffle of same-timestamp events.

Demands are quantized to 50 ns so host completions, channel
completions and PCIe arrivals collide often: each collision is a
same-timestamp contention that only the pipeline's dispatch keys
resolve independently of the tie-break.
"""

from __future__ import annotations

import random

import pytest

from repro.serve.engine import EventLoop, FifoResource
from repro.sim.queueing import RequestDemand, StagePipeline

HOST_SERVERS = 4
CHANNELS = 4
SEEDS = (None, 1, 2, 3, 4)


def seeded_demands(count: int, seed: int) -> list[RequestDemand]:
    rng = random.Random(seed)
    return [
        RequestDemand(
            host_ns=50.0 * rng.randint(1, 3),
            nand_ns=50.0 * rng.randint(2, 8),
            channel=rng.randrange(CHANNELS),
            pcie_ns=50.0 * rng.randint(1, 2),
        )
        for _ in range(count)
    ]


class ArrivalLog:
    """Stands in for a stage FIFO and logs each acquire's arrival time."""

    def __init__(self, stage: FifoResource, arrivals: list[float]) -> None:
        self.stage = stage
        self.arrivals = arrivals

    def acquire(self, service_ns, done, *, key=None) -> None:
        self.arrivals.append(self.stage.loop.now_ns)
        self.stage.acquire(service_ns, done, key=key)


def replay(
    demands: list[RequestDemand], queue_depth: int, tiebreak_seed: int | None
) -> tuple[list[float], list[float]]:
    """Closed-loop replay: each request's completion time, PCIe arrivals.

    Admission is in request order: a completion frees one slot and
    submits the next request, and completions leave the single PCIe
    server one at a time, so the submission order (hence each
    request's dispatch key) never depends on the tie-break.
    """
    loop = EventLoop(tiebreak_seed=tiebreak_seed)
    stages = StagePipeline(loop, host_servers=HOST_SERVERS, channels=CHANNELS)
    pcie_arrivals: list[float] = []
    stages.pcie = ArrivalLog(stages.pcie, pcie_arrivals)
    completed = [-1.0] * len(demands)
    cursor = iter(range(len(demands)))

    def admit() -> None:
        index = next(cursor, None)
        if index is None:
            return

        def done(end_ns: float) -> None:
            completed[index] = end_ns
            admit()

        stages.submit(demands[index], done)

    for _ in range(min(queue_depth, len(demands))):
        admit()
    loop.run()
    return completed, pcie_arrivals


@pytest.mark.parametrize("queue_depth", [8, 32, 400])
def test_stage_chain_completions_are_tiebreak_independent(queue_depth: int) -> None:
    demands = seeded_demands(400, seed=17)
    baseline, pcie_arrivals = replay(demands, queue_depth, None)
    assert min(baseline) > 0.0
    # Contention is real: many requests reach the PCIe link at a
    # timestamp shared with another request.
    assert len(set(pcie_arrivals)) < 0.9 * len(pcie_arrivals)
    for seed in SEEDS[1:]:
        completed, _ = replay(demands, queue_depth, seed)
        assert completed == baseline, f"tiebreak_seed={seed} changed completion times"
