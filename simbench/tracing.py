"""Hooks the benchmark installs around the program, from outside ``src/``.

Two sets of hooks, both installed by patching public classes for the
duration of one round and restored afterwards:

- :func:`census` (every round): records each :class:`EventLoop` and
  :class:`FifoResource` the program constructs, so the harness can read
  ``EventLoop.processed`` and the stage busy times after the run.  It
  touches constructors only, never the event path.
- :class:`SpanRecorder` (the traced round only): wraps the public entry
  points of every layer in one timer stack.  A span's *self* time is its
  duration minus the time its nested spans cover, minus the calibrated
  cost of the wrappers that ran on its behalf.  Each span belongs to the
  layer of the module that defines the wrapped callable; the event
  loop's own machinery is the residual of the root span around
  ``program.run()``.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import math
import time
from typing import Callable, Iterator

from repro.cluster.ring import HashRing
from repro.cluster.router import Router
from repro.serve.engine import EventLoop, FifoResource
from repro.serve.nvme_mq import MultiQueueNvme
from repro.sim.trace import StageTrace, Tracer
from repro.system import StorageSystem

from simbench.metrics import wall_s
from simbench.workloads import Census, stage_kind

#: Spans written to the Chrome trace, in start order, per round.
SPAN_LIMIT = 2_000

#: Module prefix -> layer, first match wins; anything else is ``driver``
#: (clients, fault timelines, the queueing replay's own closures).
LAYER_OF_MODULE = (
    ("repro.serve.engine", "engine"),
    ("repro.sim.trace", "trace"),
    ("repro.serve.nvme_mq", "mq"),
    ("repro.serve.server", "server"),
    ("repro.cluster.node", "server"),
    ("repro.cluster.router", "router"),
    ("repro.cluster.ring", "ring"),
    ("repro.system", "storage"),
    ("repro.core", "storage"),
    ("repro.kernel", "storage"),
    ("repro.ssd", "storage"),
    ("repro.baselines", "storage"),
)
LAYERS = ("engine", "trace", "storage", "mq", "server", "router", "ring", "driver")


def layer_of(module: str) -> str:
    for prefix, layer in LAYER_OF_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "driver"


@contextlib.contextmanager
def _patched(patches: list[tuple[type, str, object]]) -> Iterator[None]:
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def _recording_init(init: Callable, into: list) -> Callable:
    def __init__(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        into.append(self)

    return __init__


@contextlib.contextmanager
def census() -> Iterator[Census]:
    """Record every event loop and stage FIFO built inside the block."""
    found = Census()
    with _patched(
        [
            (EventLoop, "__init__", _recording_init(EventLoop.__init__, found.loops)),
            (FifoResource, "__init__", _recording_init(FifoResource.__init__, found.fifos)),
        ]
    ):
        yield found


def _name_of(fn: Callable) -> tuple[str, str]:
    module = getattr(fn, "__module__", None) or ""
    qualname = getattr(fn, "__qualname__", None) or type(fn).__qualname__
    return f"{module}.{qualname}", module


class SpanRecorder:
    """One timer stack over every wrapped entry point of one round.

    A stack frame is ``[covered_s, child_spans, schedules, acquires,
    span_id]``: the time its child spans cover, how many wrappers ran on
    its behalf (child spans, patched ``schedule_at`` and ``acquire``
    calls), and its id (the parent link in the Chrome trace).
    Aggregates are kept per wrapped callable: ``[layer, calls, total_s,
    raw_self_s, truthy_results, child_spans, schedules, acquires]``.

    Self time is ``raw_self_s`` minus each wrapper count times that
    wrapper's cost, micro-benchmarked by :meth:`calibrate`.  Costs are
    applied when read, so calibrating again after the run (keeping the
    cheaper of the two measurements) still corrects every span.  What
    the micro-benchmarks miss (colder caches, the collections the
    wrappers' allocations cause) stays in the self times;
    ``tracing.overhead_frac`` reports the whole cost of tracing once.
    """

    def __init__(self) -> None:
        self._stack: list[list] = [[0.0, 0, 0, 0, -1]]
        self._ids = itertools.count()
        self.aggregates: dict[str, list] = {}
        self.spans: list[tuple] = []
        #: Names of callables registered through ``add_settler``.
        self.settlers: set[str] = set()
        #: Stage kind -> [acquires, summed virtual queue wait in ns].
        self.waits: dict[str, list[float]] = {}
        #: Root StageTraces opened through ``Tracer.begin``.
        self.roots: list[StageTrace] = []
        self._kinds: dict[str, str] = {}
        #: Code object (or explicit name) -> (label, aggregate).
        self._entries: dict[object, tuple[str, list]] = {}
        #: Seconds per span inside / outside its own interval, and the
        #: extra seconds per patched ``schedule_at`` / ``acquire`` call;
        #: unknown until :meth:`calibrate` has run.
        self.costs = dict.fromkeys(("span_inner", "span_outer", "schedule_at", "acquire"), math.inf)

    # --- spans ---------------------------------------------------------
    def wrap(
        self, fn: Callable, *, like: Callable | None = None, name: str = "", layer: str = ""
    ) -> Callable:
        """``fn`` timed as a span named after ``like`` (default: ``fn``)."""
        source = like or fn
        key = name or getattr(source, "__code__", source)
        entry = self._entries.get(key)
        if entry is None:
            label, module = _name_of(source)
            label = name or label
            fresh = [layer or layer_of(module), 0, 0.0, 0.0, 0, 0, 0, 0]
            entry = self._entries[key] = (label, self.aggregates.setdefault(label, fresh))
        label, agg = entry
        stack, ids, spans = self._stack, self._ids, self.spans
        # Bound once: every span reads the clock twice.
        clock = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, 0, 0, 0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[0] += duration
                parent[1] += 1
                agg[1] += 1
                agg[2] += duration
                agg[3] += duration - frame[0]
                agg[5] += frame[1]
                agg[6] += frame[2]
                agg[7] += frame[3]
                if frame[4] < SPAN_LIMIT:
                    spans.append((frame[4], parent[4], label, agg[0], start, duration))
            if result:
                agg[4] += 1
            return result

        return span

    def calibrate(self, repeats: int = 5) -> None:
        """Micro-benchmark the wrappers, with the garbage collector paused.

        Measures the cost of one span, split into the part inside its own
        interval and the part its parent sees, and the extra cost of the
        patched ``schedule_at`` and ``acquire``, on a scratch recorder.
        Called before and after the run; each cost keeps its cheaper
        measurement, so one slow moment of the host does not inflate it.
        Builds an event loop, so call it outside :func:`census`.
        """
        probe = SpanRecorder()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            inner, outer = probe._span_costs(repeats)
            schedule_at, acquire = probe._hook_costs(repeats)
        finally:
            if was_enabled:
                gc.enable()
        measured = {
            "span_inner": inner,
            "span_outer": outer,
            "schedule_at": schedule_at,
            "acquire": acquire,
        }
        for name, cost in measured.items():
            self.costs[name] = min(self.costs[name], cost)

    def _span_costs(self, repeats: int, calls: int = 20_000) -> tuple[float, float]:
        def noop() -> None:
            return None

        span = self.wrap(noop, name="calibration")
        inner = outer = math.inf
        for _ in range(repeats):
            began = wall_s()
            for _ in range(calls):
                noop()
            plain = wall_s() - began
            frame = [0.0, 0, 0, 0, -1]
            self._stack.append(frame)
            began = wall_s()
            for _ in range(calls):
                span()
            wrapped = wall_s() - began
            self._stack.pop()
            inner = min(inner, max(0.0, (frame[0] - plain) / calls))
            outer = min(outer, max(0.0, (wrapped - frame[0] - plain) / calls))
        return inner, outer

    def _hook_costs(self, repeats: int, calls: int = 5_000) -> tuple[float, float]:
        def noop(*_args) -> None:
            return None

        def cost(call: Callable) -> float:
            best = math.inf
            for _ in range(repeats):
                target = FifoResource(EventLoop(), name="calibration")
                began = wall_s()
                for _ in range(calls):
                    call(target)
                best = min(best, (wall_s() - began) / calls)
            return best

        schedule_at, acquire = self._hooks()
        extra_schedule = cost(lambda f: schedule_at(f.loop, 1.0, noop)) - cost(
            lambda f: EventLoop.schedule_at(f.loop, 1.0, noop)
        )
        extra_acquire = cost(lambda f: acquire(f, 1.0, noop)) - cost(
            lambda f: FifoResource.acquire(f, 1.0, noop)
        )
        return max(0.0, extra_schedule), max(0.0, extra_acquire)

    # --- hooks ---------------------------------------------------------
    def _stage(self, fifo_name: str) -> list[float]:
        kind = self._kinds.get(fifo_name)
        if kind is None:
            kind = self._kinds[fifo_name] = stage_kind(fifo_name)
        tally = self.waits.get(kind)
        if tally is None:
            tally = self.waits[kind] = [0, 0.0]
        return tally

    def _hooks(self) -> tuple[Callable, Callable]:
        """Patched ``EventLoop.schedule_at`` and ``FifoResource.acquire``."""
        stack = self._stack
        original_schedule_at = EventLoop.schedule_at
        original_acquire = FifoResource.acquire

        def schedule_at(loop, time_ns, callback):
            stack[-1][2] += 1
            return original_schedule_at(loop, time_ns, self.wrap(callback))

        def acquire(fifo, service_ns, done, *, key=None):
            stack[-1][3] += 1
            tally = self._stage(fifo.name)
            arrival_ns = fifo.loop.now_ns

            def finished(end_ns):
                tally[0] += 1
                tally[1] += end_ns - arrival_ns - service_ns
                return done(end_ns)

            return original_acquire(fifo, service_ns, self.wrap(finished, like=done), key=key)

        return schedule_at, acquire

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every layer's public entry points inside the block."""
        original_add_settler = EventLoop.add_settler
        original_begin = Tracer.begin

        def add_settler(loop, settler):
            self.settlers.add(_name_of(settler)[0])
            return original_add_settler(loop, self.wrap(settler))

        def begin(tracer, name, **meta):
            trace = original_begin(tracer, name, **meta)
            self.roots.append(trace)
            return trace

        schedule_at, acquire = self._hooks()
        patches: list[tuple[type, str, object]] = [
            (EventLoop, "add_settler", add_settler),
            (EventLoop, "schedule_at", schedule_at),
            (FifoResource, "acquire", acquire),
            (Tracer, "begin", begin),
        ]
        for owner, method in (
            (StageTrace, "demand"),
            (StageTrace, "latency_by_name"),
            (StageTrace, "latency_ns"),
            (StorageSystem, "read"),
            (StorageSystem, "write"),
            (MultiQueueNvme, "fetch"),
            (Router, "on_attempt_done"),
            (HashRing, "replicas"),
        ):
            patches.append((owner, method, self.wrap(owner.__dict__[method])))
        with _patched(patches):
            yield self

    def root(self, run: Callable[[], object]) -> object:
        """Run ``run`` as the root span; its self time is the loop's own."""
        return self.wrap(run, name="engine.run", layer="engine")()

    # --- results -------------------------------------------------------
    def wrapper_costs_ns(self) -> dict[str, float]:
        """The micro-benchmarked wrapper costs."""
        return {name: cost * 1e9 for name, cost in self.costs.items()}

    def _self(self, agg: list) -> float:
        costs = self.costs
        return (
            agg[3]
            - agg[1] * costs["span_inner"]
            - agg[5] * costs["span_outer"]
            - agg[6] * costs["schedule_at"]
            - agg[7] * costs["acquire"]
        )

    def calls(self, label: str) -> int:
        agg = self.aggregates.get(label)
        return agg[1] if agg else 0

    def truthy(self, label: str) -> int:
        """Calls of ``label`` that returned a true value."""
        agg = self.aggregates.get(label)
        return agg[4] if agg else 0

    def self_s(self, label: str) -> float:
        agg = self.aggregates.get(label)
        return self._self(agg) if agg else 0.0

    def settle_totals(self) -> tuple[int, int, float]:
        """Settler calls, calls that did work, and their summed self time."""
        calls = useful = 0
        self_s = 0.0
        for label in sorted(self.settlers):
            agg = self.aggregates[label]
            calls += agg[1]
            useful += agg[4]
            self_s += self._self(agg)
        return calls, useful, self_s

    def layers(self) -> dict[str, dict[str, float]]:
        """Per-layer span count and self time; shares of the total self time."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for agg in self.aggregates.values():
            totals[agg[0]][0] += agg[1]
            totals[agg[0]][1] += self._self(agg)
        overall = sum(self_s for _, self_s in totals.values())
        return {
            layer: {
                "spans": calls,
                "self_s": self_s,
                "share": self_s / overall if overall else 0.0,
            }
            for layer, (calls, self_s) in totals.items()
        }

    def chrome_trace(self, workload: str) -> dict[str, object]:
        """The first spans as Chrome trace-event JSON (Perfetto opens it)."""
        base = min((start for _, _, _, _, start, _ in self.spans), default=0.0)
        events = [
            {
                "name": label,
                "cat": layer,
                "ph": "X",
                "ts": (start - base) * 1e6,
                "dur": duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent_id},
            }
            for span_id, parent_id, label, layer, start, duration in sorted(self.spans)
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"workload": workload, "span_limit": SPAN_LIMIT},
        }

    def write_chrome_trace(self, path: str, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(workload), handle)


__all__ = ["LAYERS", "SpanRecorder", "census", "layer_of"]
