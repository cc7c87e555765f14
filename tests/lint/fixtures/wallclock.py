"""Fixture: virtual-time-purity counterexamples (never executed)."""

import time
from datetime import datetime
from time import monotonic  # expect: virtual-time-purity


def stamp():
    started = time.time()  # expect: virtual-time-purity
    time.sleep(0.1)  # expect: virtual-time-purity
    now = datetime.now()  # expect: virtual-time-purity
    return started, now, monotonic()


def run(heap):
    # A wall-clock watchdog: it never fires on a fast machine, so every
    # golden result still matches, and a slow one truncates the run.
    deadline = time.monotonic() + 600.0  # expect: virtual-time-purity
    while heap:
        if time.monotonic() > deadline:  # expect: virtual-time-purity
            break
        heap.pop()
