"""Read-your-writes oracle for every registered system.

A read must return the bytes of every earlier write to the same file,
whether or not the write has been ``fsync``-ed.  Two checks:

- ``test_buffered_write_is_read_back``: a five-step probe (read a range
  spanning two pages, write two bytes inside it, re-read, ``fsync``,
  re-read) on each registered system.  The three Pipette systems with a
  fine-grained read cache fail it today: a fine read served from flash
  while the written page sits dirty in the page cache returns the old
  bytes and admits them to the FGRC, where they outlive the ``fsync``.
  Those cases are strict xfails, so the fix has to flip them.
- ``ReadYourWrites``: a stateful property test (create, open with and
  without ``O_FINE_GRAINED``, read, write, ``fsync``, close) checked
  against a ``bytearray`` per file, on the systems that pass the probe.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    precondition,
    rule,
)

from repro.kernel.vfs import O_FINE_GRAINED, O_RDWR
from repro.ssd.nand import page_pattern
from repro.system import available_systems, build_system
from tests.conftest import make_open_file, small_sim_config

#: Systems whose fine-grained read cache serves stale bytes after a write.
STALE = {"pipette", "pipette-cmb", "pipette-rw"}


def _probe_cases():
    for name in available_systems():
        marks = ()
        if name in STALE:
            marks = pytest.mark.xfail(
                strict=True, reason="fine read misses a buffered write (stale FGRC item)"
            )
        yield pytest.param(name, marks=marks)


@pytest.mark.parametrize("name", list(_probe_cases()))
def test_buffered_write_is_read_back(name):
    system = build_system(name, small_sim_config())
    fd = make_open_file(system)
    before = system.read(fd, 4090, 16)
    system.write(fd, 4100, b"!!")
    expected = before[:10] + b"!!" + before[12:]
    assert system.read(fd, 4090, 16) == expected
    system.fsync(fd)
    assert system.read(fd, 4090, 16) == expected


#: File sizes span up to three pages, so reads and writes cross pages.
PAGE = 4096
MAX_FILE_BYTES = 3 * PAGE + 100
MAX_FILES = 3


def _offsets(length: int) -> st.SearchStrategy[int]:
    """Offsets in ``[0, length)``, half of them near a page boundary.

    Fine reads that cross a page boundary are the ones that can mix
    buffered and flash-resident pages.
    """
    near_boundary = st.builds(
        lambda page, delta: page * PAGE + delta,
        st.integers(1, max(1, (length - 1) // PAGE)),
        st.integers(-24, 8),
    )
    return (st.integers(0, length - 1) | near_boundary).map(
        lambda offset: min(max(offset, 0), length - 1)
    )


class ReadYourWrites(RuleBasedStateMachine):
    """One system against a ``bytearray`` model of each file."""

    SYSTEM = "block-io"

    files = Bundle("files")
    fds = Bundle("fds")

    @initialize()
    def build(self):
        self.system = build_system(self.SYSTEM, small_sim_config())
        self.model: dict[str, bytearray] = {}
        self.path_of: dict[int, str] = {}

    def _image(self, path: str, size: int) -> bytearray:
        """The pre-imaged content: each page's never-programmed pattern."""
        system = self.system
        inode = system.fs.lookup(path)
        image = bytearray()
        for start in range(0, size, PAGE):
            (piece,) = system.fs.extract_ranges(inode, start, min(PAGE, size - start))
            image += page_pattern(system.device.ftl.translate(piece.lba))[: piece.length]
        return image

    @precondition(lambda self: len(self.model) < MAX_FILES)
    @rule(target=files, size=st.integers(1, MAX_FILE_BYTES))
    def create(self, size):
        path = f"/data/f{len(self.model)}.bin"
        self.system.create_file(path, size)
        self.model[path] = self._image(path, size)
        return path

    @rule(target=fds, path=files, fine=st.booleans())
    def open(self, path, fine):
        fd = self.system.open(path, O_RDWR | (O_FINE_GRAINED if fine else 0))
        self.path_of[fd] = path
        return fd

    @rule(fd=fds, data=st.data())
    def read(self, fd, data):
        content = self.model[self.path_of[fd]]
        offset = data.draw(_offsets(len(content)), label="offset")
        # Mostly fine-grained sizes, sometimes up to the end of the file.
        room = len(content) - offset
        size = data.draw(st.integers(1, min(64, room)) | st.integers(1, room), label="size")
        assert self.system.read(fd, offset, size) == bytes(content[offset : offset + size])

    @rule(fd=fds, data=st.data())
    def write(self, fd, data):
        content = self.model[self.path_of[fd]]
        offset = data.draw(_offsets(len(content)), label="offset")
        size = data.draw(st.integers(1, min(256, len(content) - offset)), label="size")
        payload = data.draw(st.binary(min_size=size, max_size=size), label="payload")
        self.system.write(fd, offset, payload)
        content[offset : offset + size] = payload

    @rule(fd=fds)
    def fsync(self, fd):
        self.system.fsync(fd)

    @rule(fd=consumes(fds))
    def close(self, fd):
        self.system.close(fd)
        del self.path_of[fd]


def _machine_test(name: str):
    machine = type(f"ReadYourWrites_{name}", (ReadYourWrites,), {"SYSTEM": name})
    case = machine.TestCase
    case.settings = settings(
        max_examples=15,
        stateful_step_count=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    return case


TestReadYourWritesBlockIo = _machine_test("block-io")
TestReadYourWritesPipetteNocache = _machine_test("pipette-nocache")
TestReadYourWrites2bSsdDma = _machine_test("2b-ssd-dma")
TestReadYourWrites2bSsdMmio = _machine_test("2b-ssd-mmio")


def test_machine_covers_every_system_that_holds():
    covered = {"block-io", "pipette-nocache", "2b-ssd-dma", "2b-ssd-mmio"}
    assert covered | STALE == set(available_systems())
