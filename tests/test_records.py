"""The per-request records are immutable and check their fields."""

import pytest

from repro.core.read_cache.cache import CacheLookup
from repro.core.read_cache.info_area import InfoRecord
from repro.kernel.fs.ext4 import FileRange
from repro.sim.trace import HOST, RequestDemand, Stage

RECORDS = [
    (Stage(HOST, "fine_stack", 10.0), "ns"),
    (CacheLookup(item=None, prior_accesses=2), "prior_accesses"),
    (InfoRecord(dest_addr=64, byte_offset=8, byte_length=128), "byte_length"),
    (FileRange(lba=3, offset_in_page=100, length=28), "length"),
    (RequestDemand(host_ns=1.0, nand_ns=2.0, channel=1, pcie_ns=3.0), "channel"),
]


@pytest.mark.parametrize(
    ("record", "field"), RECORDS, ids=[type(record).__name__ for record, _ in RECORDS]
)
def test_records_reject_attribute_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_keep_keyword_construction_and_equality():
    assert RequestDemand(host_ns=1.0, channel=2) == RequestDemand(1.0, 0.0, 2, 0.0)
    assert RequestDemand().channel == 0
    assert FileRange(lba=3, offset_in_page=0, length=1) == FileRange(3, 0, 1)
    assert InfoRecord(dest_addr=0, byte_offset=0, byte_length=1).byte_length == 1
    assert not CacheLookup(item=None).hit
    assert Stage(HOST, "x", 1.0).charged and Stage(HOST, "x", 1.0).latency


# The other InfoRecord cases are in tests/core/test_info_tempbuf.py and
# the RequestDemand cases in tests/sim/test_queueing.py.
@pytest.mark.parametrize(
    "build",
    [
        lambda: InfoRecord(dest_addr=0, byte_offset=-1, byte_length=1),
        lambda: FileRange(lba=0, offset_in_page=-1, length=1),
        lambda: FileRange(lba=0, offset_in_page=0, length=0),
    ],
)
def test_records_reject_invalid_fields(build):
    with pytest.raises(ValueError, match="invalid"):
        build()
