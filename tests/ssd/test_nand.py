"""Tests for the NAND flash array."""

import pytest

from repro.config import MIB, NandType, SimConfig, SSDSpec, TimingModel
from repro.ssd.nand import FlashArray, page_pattern


def make_array(**spec_overrides) -> FlashArray:
    spec = SSDSpec(capacity_bytes=spec_overrides.pop("capacity_bytes", 16 * MIB), **spec_overrides)
    return FlashArray.create(spec, TimingModel())


def test_pattern_deterministic():
    assert page_pattern(7) == page_pattern(7)


def test_pattern_varies_across_pages():
    assert page_pattern(1) != page_pattern(2)


def test_pattern_varies_within_page():
    content = page_pattern(0)
    assert content[0:64] != content[64:128]


def test_pattern_length_matches_page_size():
    assert len(page_pattern(3, 4096)) == 4096
    assert len(page_pattern(3, 8192)) == 8192


def test_unprogrammed_read_returns_pattern():
    array = make_array()
    assert array.read_page(5) == page_pattern(5, array.spec.page_size)


def test_program_then_read_roundtrip():
    array = make_array()
    payload = bytes([0xAB]) * array.spec.page_size
    array.program_page(9, payload)
    assert array.read_page(9) == payload


def test_in_place_program_rejected():
    array = make_array()
    payload = bytes(array.spec.page_size)
    array.program_page(9, payload)
    with pytest.raises(RuntimeError):
        array.program_page(9, payload)


def test_program_after_erase_allowed():
    array = make_array()
    payload = bytes(array.spec.page_size)
    array.program_page(9, payload)
    array.erase_block(array.block_of(9))
    array.program_page(9, payload)  # must not raise
    assert array.erases == 1


def test_erase_drops_contents():
    array = make_array()
    payload = bytes([1]) * array.spec.page_size
    array.program_page(9, payload)
    array.erase_block(array.block_of(9))
    assert array.read_page(9) == page_pattern(9, array.spec.page_size)


def test_partial_page_program_rejected():
    array = make_array()
    with pytest.raises(ValueError):
        array.program_page(0, b"short")


def test_read_without_data_returns_none_but_counts():
    array = make_array()
    assert array.read_page(3, with_data=False) is None
    assert array.reads == 1


def test_channel_striping():
    array = make_array(channels=8)
    assert array.channel_of(0) == 0
    assert array.channel_of(9) == 1
    assert array.channel_of(16) == 0


def test_out_of_range_ppn_rejected():
    array = make_array()
    with pytest.raises(ValueError):
        array.read_page(array.physical_pages)
    with pytest.raises(ValueError):
        array.read_page(-1)


def test_overprovisioning_exists():
    array = make_array()
    assert array.physical_pages > array.spec.total_pages


@pytest.mark.parametrize(
    "nand,expected_read",
    [(NandType.SLC, 25_000), (NandType.MLC, 50_000), (NandType.TLC, 60_000)],
)
def test_cell_type_read_latency(nand, expected_read):
    spec = SSDSpec(capacity_bytes=16 * MIB, nand_type=nand)
    array = FlashArray.create(spec, TimingModel())
    assert array.read_latency_ns() == expected_read


def test_fig5_spec_defaults():
    """Figure 5: the YS9203 rows the model reads are the defaults (the
    rest are checked in tests/experiments/test_fig5.py)."""
    spec = SSDSpec()
    assert spec.channels == 8
    assert spec.mapping_region_bytes == 64 * MIB
    assert spec.capacity_bytes == 477_000_000_000


def test_spec_validation():
    with pytest.raises(ValueError):
        SSDSpec(page_size=1000)
    with pytest.raises(ValueError):
        SSDSpec(channels=0)
    with pytest.raises(ValueError):
        SSDSpec(capacity_bytes=100)


def test_sim_config_scaled_override():
    config = SimConfig()
    other = config.scaled(transfer_data=False)
    assert other.transfer_data is False
    assert config.transfer_data is True
