"""Tests for the controller and assembled device."""

import pytest

from repro.config import MIB, CacheConfig, SimConfig, SSDSpec
from repro.ssd.controller import ByteRead
from repro.ssd.device import SSDDevice, _contiguous_runs
from repro.ssd.nand import page_pattern
from tests.conftest import root_trace


def make_device(**overrides) -> SSDDevice:
    spec = SSDSpec(capacity_bytes=64 * MIB, mapping_region_bytes=2 * MIB)
    config = SimConfig(
        ssd=spec,
        cache=CacheConfig(shared_memory_bytes=1 * MIB, fgrc_bytes=512 * 1024),
    )
    if overrides:
        config = config.scaled(**overrides)
    return SSDDevice(config)


def test_contiguous_runs_merging():
    assert _contiguous_runs([5, 3, 4, 9]) == [(3, 3), (9, 1)]
    assert _contiguous_runs([]) == []
    assert _contiguous_runs([1, 1, 1]) == [(1, 1)]


def test_block_read_returns_pattern_pages():
    device = make_device()
    pages = device.block_read([10, 11])
    assert pages[10] == page_pattern(10)
    assert pages[11] == page_pattern(11)


def test_block_read_meters_traffic_per_page():
    device = make_device()
    device.block_read([1, 2, 3])
    assert device.traffic.device_to_host_bytes == 3 * 4096


def test_block_read_latency_components():
    device = make_device()
    timing = device.config.timing
    with root_trace(device.tracer) as trace:
        device.block_read([0])
    expected_nand = (
        timing.nand_read(device.config.ssd.nand_type)
        + timing.channel_xfer_page_ns
        + timing.block_page_penalty_ns
    )
    expected = expected_nand + timing.pcie_transfer_ns(4096) + timing.completion_ns
    assert trace.latency_ns() == pytest.approx(expected)


def test_block_read_parallelizes_across_channels():
    device = make_device()
    # 8 pages on 8 distinct channels: one array round.
    with root_trace(device.tracer) as one_round:
        device.block_read(list(range(8)))
    device2 = make_device()
    # 9 pages: two rounds.
    with root_trace(device2.tracer) as two_rounds:
        device2.block_read(list(range(9)))
    assert two_rounds.latency_ns() > one_round.latency_ns()


def test_background_pages_add_traffic_not_latency():
    plain = make_device()
    with_ra = make_device()
    with root_trace(plain.tracer) as base:
        plain.block_read([0])
    with root_trace(with_ra.tracer) as trace:
        with_ra.block_read([0], background_lbas=[1, 2, 3])
    assert trace.latency_ns() == pytest.approx(base.latency_ns())
    assert with_ra.traffic.device_to_host_bytes == 4 * 4096
    assert with_ra.resources.nand_total_ns > plain.resources.nand_total_ns


def test_block_write_ack_from_buffer():
    device = make_device()
    timing = device.config.timing
    with root_trace(device.tracer) as trace:
        device.block_write([(5, bytes(4096))])
    # Acked after transfer + completion; NAND program is background.
    assert trace.latency_ns() == pytest.approx(timing.pcie_transfer_ns(4096) + timing.completion_ns)
    assert device.resources.nand_total_ns > 0


def test_write_then_read_roundtrip():
    device = make_device()
    payload = bytes([0x42]) * 4096
    device.block_write([(5, payload)])
    assert device.block_read([5])[5] == payload


def test_block_write_requires_full_pages():
    device = make_device()
    with pytest.raises(ValueError):
        device.block_write([(5, b"short")])


def test_byte_read_senses_a_shared_page_once():
    device = make_device()
    read = ByteRead(device.controller)
    first, first_ppns = read.extract(3, 4000, 200)  # spans pages 3 and 4
    second, second_ppns = read.extract(4, 100, 50)  # page 4 again
    read.finish()
    assert first == (page_pattern(3) + page_pattern(4))[4000:4200]
    assert second == page_pattern(4)[100:150]
    assert first_ppns == [device.ftl.translate(3), device.ftl.translate(4)]
    assert second_ppns == [device.ftl.translate(4)]
    assert device.controller.pages_sensed == 2
    phases = [stage for stage in device.tracer.ambient.stages if stage.name == "nand_array"]
    assert len(phases) == 1


def test_byte_read_stages_cmb_only_when_asked():
    device = make_device()
    ByteRead(device.controller).extract(3, 0, 8)
    assert device.cmb.staged_ppn(0) is None
    ByteRead(device.controller, cmb=device.cmb).extract(5, 0, 8)
    assert device.cmb.staged_ppn(0) == device.ftl.translate(5)
    assert device.cmb.read(0, 4096) == page_pattern(5)


def test_byte_read_payload_is_none_without_data():
    device = make_device(transfer_data=False)
    read = ByteRead(device.controller)
    payload, ppns = read.extract(3, 100, 10)
    assert payload is None
    assert ppns == [device.ftl.translate(3)]
    assert device.controller.pages_sensed == 1


def test_enable_hmb_once():
    device = make_device()
    first = device.enable_hmb()
    assert first > 0
    assert device.enable_hmb() == 0.0


def test_transfer_data_false_skips_payloads():
    device = make_device(transfer_data=False)
    assert device.block_read([0])[0] is None
    assert device.traffic.device_to_host_bytes == 4096


def test_read_buffer_bounded():
    device = make_device()
    for lba in range(device.config.ssd.read_buffer_pages + 10):
        device.controller.sense_page(lba)
    assert len(device.controller.read_buffer) <= device.config.ssd.read_buffer_pages


def test_nvme_queue_sees_block_reads():
    device = make_device()
    device.block_read([0, 1, 4])
    # Two contiguous runs -> two READ commands.
    assert device.queue.submitted == 2


def _count_translates(monkeypatch, ftl) -> list[int]:
    calls: list[int] = []
    translate = ftl.translate

    def counting(lba: int) -> int:
        calls.append(lba)
        return translate(lba)

    monkeypatch.setattr(ftl, "translate", counting)
    return calls


def test_block_read_translates_each_page_once(monkeypatch):
    device = make_device()
    calls = _count_translates(monkeypatch, device.ftl)
    device.block_read([10, 11, 12], background_lbas=[13, 14])
    assert sorted(calls) == [10, 11, 12, 13, 14]


def test_byte_read_translates_each_sensed_page_once(monkeypatch):
    device = make_device()
    calls = _count_translates(monkeypatch, device.ftl)
    read = ByteRead(device.controller)
    read.extract(7, 4000, 200)  # spans pages 7 and 8
    read.extract(8, 0, 64)  # page 8 is already sensed for this command
    read.finish()
    assert calls == [7, 8]


def test_pipette_fine_read_miss_translates_each_page_once(monkeypatch):
    from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
    from repro.system import build_system
    from tests.conftest import small_sim_config

    system = build_system("pipette", small_sim_config())
    system.create_file("/t", 1 * MIB)
    fd = system.open("/t", O_RDWR | O_FINE_GRAINED)
    calls = _count_translates(monkeypatch, system.device.ftl)
    system.read(fd, 1000, 128)
    assert len(calls) == 1
    system.read(fd, 2 * 4096 - 64, 128)  # one piece across two pages
    assert len(calls) == 3
