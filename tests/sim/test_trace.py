"""Unit tests for the per-request stage-trace record and its Tracer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.queueing import RequestDemand
from repro.sim.resources import ResourceModel
from repro.sim.trace import HOST, NAND, PCIE, StageTrace, Tracer

CHANNELS = 4


def _sample_trace(tracer: Tracer | None = None) -> StageTrace:
    """A read with host, channel, serial-array and PCIe stages."""
    tracer = tracer or Tracer(ResourceModel(channels=CHANNELS))
    trace = tracer.begin("read")
    tracer.host("fine_stack", 100.0)
    tracer.channel(2, "tR", 50_000.0)
    tracer.channel(1, "tR", 40_000.0)
    tracer.serial_nand("nand_array", 50_000.0)
    tracer.pcie("pcie_xfer", 600.0)
    tracer.host("completion", 1_000.0, charged=False)
    tracer.pcie("readahead_xfer", 800.0, latency=False)
    assert tracer.end() is trace
    return trace


def _charged_nand(tracer: Tracer) -> None:
    # No public method builds a charged NAND stage; the check guards
    # the one recording method every public method goes through.
    tracer._record(NAND, "nand_array", 5.0, True, True)


# --- stages -------------------------------------------------------------


def test_stages_are_kept_flat_in_recording_order():
    trace = _sample_trace()
    assert [stage.name for stage in trace.stages] == [
        "fine_stack",
        "tR",
        "tR",
        "nand_array",
        "pcie_xfer",
        "completion",
        "readahead_xfer",
    ]
    assert [stage.resource for stage in trace.stages[:4]] == [HOST, 2, 1, NAND]
    assert trace.children == ()


def test_stage_rejects_negative_duration():
    tracer = Tracer(ResourceModel())
    with pytest.raises(ValueError, match="negative"):
        tracer.host("bad", -1.0)


def test_generic_nand_stage_cannot_be_charged():
    tracer = Tracer(ResourceModel(channels=CHANNELS))
    with pytest.raises(ValueError, match="cannot be charged"):
        _charged_nand(tracer)
    # Uncharged is the only form the derived serial stage takes.
    stage = tracer.serial_nand("nand_array", 10.0)
    assert (stage.resource, stage.latency, stage.charged) == (NAND, True, False)
    assert tracer.resources.nand_total_ns == 0.0


# --- StageTrace views ---------------------------------------------------


def test_latency_sums_critical_path_recursively():
    trace = _sample_trace()
    assert trace.latency_ns() == 100.0 + 50_000.0 + 600.0 + 1_000.0


def test_charges_cover_charged_stages_only():
    resources = ResourceModel(channels=CHANNELS)
    _sample_trace(Tracer(resources))
    assert resources.host_busy_ns == 100.0
    assert resources.pcie_busy_ns == 600.0 + 800.0
    assert resources.channel_busy_ns == [0.0, 40_000.0, 50_000.0, 0.0]


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


def test_demand_tie_goes_to_first_charged_channel():
    tracer = Tracer(ResourceModel(channels=CHANNELS))
    trace = tracer.begin("read")
    tracer.channel(3, "tR", 5.0)
    tracer.channel(0, "tR", 5.0)
    tracer.end()
    assert trace.demand().channel == 3


def test_fold_charges_aggregates_traces():
    resources = ResourceModel(channels=CHANNELS)
    tracer = Tracer(resources)
    _sample_trace(tracer)
    _sample_trace(tracer)
    assert resources.host_busy_ns == 200.0
    assert resources.channel_busy_ns[2] == 100_000.0


# --- Tracer -------------------------------------------------------------


def test_tracer_records_into_ambient_without_request():
    tracer = Tracer(ResourceModel())
    tracer.host("setup", 5.0)
    assert tracer.active is tracer.ambient
    assert tracer.ambient.stages[0].name == "setup"


def test_tracer_begin_end_stack():
    tracer = Tracer(ResourceModel())
    trace = tracer.begin("read")
    assert tracer.active is trace
    tracer.host("fine_stack", 1.0)
    tracer.pcie("pcie_xfer", 2.0)
    assert tracer.end() is trace
    assert tracer.active is tracer.ambient
    assert trace.latency_ns() == 3.0
    assert tracer.ambient.stages == []


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


def test_tracer_channel_out_of_range_propagates():
    tracer = Tracer(ResourceModel(channels=2))
    with pytest.raises(ValueError, match="out of range"):
        tracer.channel(7, "tR", 1.0)


def test_channel_charging_rejects_out_of_range_index():
    resources = ResourceModel(channels=4)
    tracer = Tracer(resources)
    tracer.channel(1, "tR", 3.0)
    with pytest.raises(ValueError, match="out of range"):
        tracer.channel(4, "tR", 2.0)
    with pytest.raises(ValueError, match="out of range"):
        tracer.channel(-1, "tR", 2.0)
    assert resources.channel_busy_ns == [0.0, 3.0, 0.0, 0.0]


@pytest.mark.parametrize(
    ("record", "message"),
    [
        (lambda tracer: tracer.host("bad", float("nan")), "non-finite"),
        (lambda tracer: tracer.pcie("bad", float("inf")), "non-finite"),
        (lambda tracer: tracer.host("bad", -1.0), "negative"),
        (_charged_nand, "cannot be charged"),
        (lambda tracer: tracer.channel(7, "tR", 5.0), "out of range"),
        (lambda tracer: tracer.channel(-1, "tR", 5.0), "out of range"),
    ],
    ids=["nan", "inf", "negative", "charged-nand", "channel-7", "channel-minus-1"],
)
def test_rejected_stage_leaves_trace_and_ledger_unchanged(record, message):
    resources = ResourceModel(channels=2)
    tracer = Tracer(resources)
    trace = tracer.begin("read")
    tracer.host("fine_stack", 10.0)
    tracer.channel(1, "tR", 20.0)
    with pytest.raises(ValueError, match=message):
        record(tracer)
    assert [stage.name for stage in trace.stages] == ["fine_stack", "tR"]
    assert trace.latency_ns() == 10.0
    assert trace.latency_by_name() == {"fine_stack": 10.0}
    assert trace.demand() == RequestDemand(host_ns=10.0, nand_ns=20.0, channel=1, pcie_ns=0.0)
    assert (resources.host_busy_ns, resources.pcie_busy_ns) == (10.0, 0.0)
    assert resources.channel_busy_ns == [0.0, 20.0]


def test_detached_span_bypasses_active_request():
    resources = ResourceModel(channels=2)
    tracer = Tracer(resources)
    trace = tracer.begin("read")
    with tracer.detached("writeback") as background:
        tracer.pcie("pcie_xfer", 9.0)
    tracer.end()
    # Charged (the link was busy) but invisible to the request.
    assert resources.pcie_busy_ns == 9.0
    assert trace.latency_ns() == 0.0
    assert trace.demand().pcie_ns == 0.0
    assert trace.stages == []
    # A standalone trace: nothing keeps it, not even the ambient trace.
    assert background.name == "writeback"
    assert [stage.ns for stage in background.stages] == [9.0]
    assert tracer.ambient.stages == []


# --- the views are folds over the stages ---------------------------------

_duration = st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False)
_stage = st.one_of(
    st.tuples(st.just(HOST), _duration, st.booleans(), st.booleans()),
    st.tuples(st.just(PCIE), _duration, st.booleans(), st.booleans()),
    st.tuples(st.integers(0, CHANNELS - 1), _duration, st.booleans(), st.booleans()),
    st.tuples(st.just(NAND), _duration, st.just(True), st.just(False)),
)
#: A program is a list of stages and nested detached blocks.
_program = st.recursive(
    st.lists(_stage, max_size=8),
    lambda inner: st.lists(st.one_of(_stage, inner), max_size=6),
    max_leaves=40,
)


def _run(tracer: Tracer, program: list, traces: list[StageTrace]) -> None:
    for step in program:
        if isinstance(step, list):
            with tracer.detached("background") as background:
                traces.append(background)
                _run(tracer, step, traces)
            continue
        resource, ns, latency, charged = step
        name = f"{resource}-{int(ns) % 3}"
        if resource == HOST:
            tracer.host(name, ns, latency=latency, charged=charged)
        elif resource == PCIE:
            tracer.pcie(name, ns, latency=latency, charged=charged)
        elif resource == NAND:
            tracer.serial_nand(name, ns)
        else:
            tracer.channel(resource, name, ns, latency=latency, charged=charged)


def _plain_demand(trace: StageTrace) -> RequestDemand:
    host = pcie = 0.0
    per_channel: dict[int, float] = {}
    for stage in trace.stages:
        if stage.resource == HOST:
            host += stage.ns
        elif stage.resource == PCIE:
            pcie += stage.ns
        elif stage.resource != NAND and stage.charged:
            per_channel[stage.resource] = per_channel.get(stage.resource, 0.0) + stage.ns
    channel = max(per_channel, key=per_channel.__getitem__) if per_channel else 0
    return RequestDemand(
        host_ns=host, nand_ns=sum(per_channel.values()), channel=channel, pcie_ns=pcie
    )


@given(setup=st.lists(_stage, max_size=4), program=_program)
@settings(max_examples=150, deadline=None)
def test_views_and_ledger_are_plain_folds_over_the_stages(setup, program):
    resources = ResourceModel(channels=CHANNELS)
    tracer = Tracer(resources)
    _run(tracer, setup, [])  # ambient work before any request
    background: list[StageTrace] = []
    root = tracer.begin("read")
    _run(tracer, program, background)
    assert tracer.end() is root

    # The root's views equal a plain fold over its own stages.
    latency = 0.0
    by_name: dict[str, float] = {}
    for stage in root.stages:
        if stage.latency:
            latency += stage.ns
            by_name[stage.name] = by_name.get(stage.name, 0.0) + stage.ns
    assert root.latency_ns() == latency
    assert root.latency_by_name() == by_name
    assert root.demand() == _plain_demand(root)

    # The ledger equals the fold over root, detached and ambient stages.
    host = pcie = 0.0
    per_channel = [0.0] * CHANNELS
    for trace in [tracer.ambient, root, *background]:
        for stage in trace.stages:
            if not stage.charged:
                continue
            if stage.resource == HOST:
                host += stage.ns
            elif stage.resource == PCIE:
                pcie += stage.ns
            else:
                per_channel[stage.resource] += stage.ns
    assert math.isclose(resources.host_busy_ns, host, rel_tol=1e-12, abs_tol=1e-6)
    assert math.isclose(resources.pcie_busy_ns, pcie, rel_tol=1e-12, abs_tol=1e-6)
    for busy, folded in zip(resources.channel_busy_ns, per_channel):
        assert math.isclose(busy, folded, rel_tol=1e-12, abs_tol=1e-6)
