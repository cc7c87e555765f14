"""Unit tests for the per-request stage-trace record."""

import pytest

from repro.sim.queueing import RequestDemand
from repro.sim.resources import ResourceModel
from repro.sim.trace import (
    HOST,
    NAND,
    PCIE,
    Stage,
    StageTrace,
    Tracer,
    channel_tag,
    fold_charges,
    parse_channel,
)


# --- resource tags -----------------------------------------------------


def test_channel_tag_round_trips():
    assert channel_tag(3) == "channel:3"
    assert parse_channel("channel:3") == 3
    assert parse_channel(HOST) is None
    assert parse_channel(PCIE) is None


def test_channel_tag_rejects_negative_index():
    with pytest.raises(ValueError):
        channel_tag(-1)


# --- Stage invariants --------------------------------------------------


def test_stage_rejects_negative_duration():
    with pytest.raises(ValueError):
        Stage(HOST, "bad", -1.0)


def test_generic_nand_stage_cannot_be_charged():
    with pytest.raises(ValueError):
        Stage(NAND, "nand_array", 10.0)
    # Uncharged is the only legal form of the derived serial stage.
    stage = Stage(NAND, "nand_array", 10.0, latency=True, charged=False)
    assert stage.ns == 10.0


# --- StageTrace views --------------------------------------------------


def _sample_trace() -> StageTrace:
    trace = StageTrace("read")
    trace.add(Stage(HOST, "fine_stack", 100.0))
    span = trace.child("device")
    span.add(Stage(channel_tag(2), "tR", 50_000.0, latency=False))
    span.add(Stage(channel_tag(1), "tR", 40_000.0, latency=False))
    span.add(Stage(NAND, "nand_array", 50_000.0, charged=False))
    span.add(Stage(PCIE, "pcie_xfer", 600.0))
    trace.add(Stage(HOST, "completion", 1_000.0, charged=False))
    trace.add(Stage(PCIE, "readahead_xfer", 800.0, latency=False))
    return trace


def test_latency_sums_critical_path_recursively():
    trace = _sample_trace()
    assert trace.latency_ns() == 100.0 + 50_000.0 + 600.0 + 1_000.0


def test_charges_cover_charged_stages_only():
    charges = _sample_trace().charges()
    assert charges == {
        HOST: 100.0,
        "channel:2": 50_000.0,
        "channel:1": 40_000.0,
        PCIE: 600.0 + 800.0,
    }


def test_latency_by_name_groups_critical_path():
    by_name = _sample_trace().latency_by_name()
    assert by_name["nand_array"] == 50_000.0
    assert "tR" not in by_name  # off the latency path
    assert sum(by_name.values()) == _sample_trace().latency_ns()


def test_demand_projection():
    demand = _sample_trace().demand()
    assert isinstance(demand, RequestDemand)
    assert demand.host_ns == 100.0 + 1_000.0  # all host stages
    assert demand.pcie_ns == 600.0 + 800.0  # includes overlapped transfers
    assert demand.nand_ns == 90_000.0  # charged channel work only
    assert demand.channel == 2  # most-loaded channel of the request


def test_fold_charges_aggregates_traces():
    totals = fold_charges([_sample_trace(), _sample_trace()])
    assert totals[HOST] == 200.0
    assert totals["channel:2"] == 100_000.0


# --- Tracer ------------------------------------------------------------


def test_tracer_records_into_ambient_without_request():
    tracer = Tracer()
    tracer.host("setup", 5.0)
    assert tracer.active is tracer.ambient
    assert tracer.ambient.stages[0].name == "setup"


def test_tracer_begin_end_stack():
    tracer = Tracer()
    trace = tracer.begin("read", size=64)
    assert tracer.active is trace
    tracer.host("fine_stack", 1.0)
    with tracer.span("device") as span:
        assert tracer.active is span
        tracer.pcie("pcie_xfer", 2.0)
    assert tracer.end() is trace
    assert tracer.active is tracer.ambient
    assert trace.latency_ns() == 3.0
    assert trace.meta == {"size": 64}


def test_tracer_folds_charges_eagerly():
    resources = ResourceModel(channels=4)
    tracer = Tracer(resources)
    tracer.begin("read")
    tracer.host("a", 10.0)
    tracer.pcie("b", 20.0)
    tracer.channel(3, "tR", 30.0)
    tracer.serial_nand("nand_array", 30.0)  # derived: never folded
    tracer.host("c", 40.0, charged=False)  # latency-only: never folded
    # The ledger reflects the stages before the trace even closes.
    assert resources.host_busy_ns == 10.0
    assert resources.pcie_busy_ns == 20.0
    assert resources.channel_busy_ns[3] == 30.0
    trace = tracer.end()
    assert trace.latency_ns() == 10.0 + 20.0 + 30.0 + 40.0


def test_tracer_rejects_unknown_charged_resource():
    tracer = Tracer(ResourceModel(channels=2))
    with pytest.raises(ValueError):
        tracer.add("gpu", "oops", 1.0)


def test_tracer_channel_out_of_range_propagates():
    tracer = Tracer(ResourceModel(channels=2))
    with pytest.raises(ValueError, match="out of range"):
        tracer.channel(7, "tR", 1.0)


def test_detached_span_bypasses_active_request():
    resources = ResourceModel(channels=2)
    tracer = Tracer(resources)
    trace = tracer.begin("read")
    with tracer.detached("writeback"):
        tracer.pcie("pcie_xfer", 9.0)
    tracer.end()
    # Charged (the link was busy) but invisible to the request.
    assert resources.pcie_busy_ns == 9.0
    assert trace.latency_ns() == 0.0
    assert trace.demand().pcie_ns == 0.0
    assert tracer.ambient.children[0].name == "writeback"
