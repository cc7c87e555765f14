"""Tests for block-layer request merging.

The kernel hands page LBAs straight to the device, which merges them
into the contiguous runs it issues as NVMe READ commands.
"""

from repro.ssd.device import _contiguous_runs


def test_merges_contiguous_lbas():
    assert _contiguous_runs([4, 5, 6, 10]) == [(4, 3), (10, 1)]


def test_sorts_and_dedups():
    assert _contiguous_runs([6, 4, 5, 5]) == [(4, 3)]


def test_empty_input():
    assert _contiguous_runs([]) == []
