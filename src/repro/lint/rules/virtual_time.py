"""virtual-time-purity: no wall-clock reads inside the simulator.

Every duration in the reproduction comes from
:class:`repro.config.TimingModel` and accumulates on virtual time
(recorded stages, the event loop's ``now_ns``); a single ``time.time()`` call on
a costed path makes results depend on interpreter speed and breaks the
"config + seed fully determine the output" claim (DESIGN.md §2).  The
rule is enforced across the whole ``repro`` tree — legitimate wall-clock
use (progress reporting in ``experiments/cli.py``) carries an inline
``# simlint: allow[virtual-time-purity]`` justification.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, attr_chain, module_aliases, register

#: Wall-clock entry points of the ``time`` module.
BANNED_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "sleep",
        "localtime",
        "gmtime",
    }
)

#: Wall-clock constructors on ``datetime``/``date`` objects.
BANNED_DATETIME_FUNCS = frozenset({"now", "today", "utcnow"})


@register
class VirtualTimePurity(Rule):
    id = "virtual-time-purity"
    description = (
        "wall-clock reads (time.time, time.monotonic, datetime.now, "
        "time.sleep, ...) break virtual-time determinism; use the "
        "TimingModel and the event loop's virtual time instead"
    )

    def check(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        time_aliases = module_aliases(ctx.tree, "time")
        datetime_aliases = module_aliases(ctx.tree, "datetime")
        #: Names bound by ``from datetime import datetime/date``.
        datetime_types: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for item in node.names:
                        if item.name in BANNED_TIME_FUNCS:
                            findings.append(
                                self.finding(
                                    ctx,
                                    node,
                                    f"import of wall-clock `time.{item.name}`",
                                )
                            )
                elif node.module == "datetime":
                    for item in node.names:
                        if item.name in {"datetime", "date"}:
                            datetime_types.add(item.asname or item.name)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is None or len(chain) < 2:
                continue
            root, leaf = chain[0], chain[-1]
            if root in time_aliases and len(chain) == 2 and leaf in BANNED_TIME_FUNCS:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"wall-clock call `{'.'.join(chain)}()`; simulated time "
                        "must come from TimingModel / the event loop",
                    )
                )
            elif leaf in BANNED_DATETIME_FUNCS and (
                (root in datetime_aliases and len(chain) == 3 and chain[1] in {"datetime", "date"})
                or (root in datetime_types and len(chain) == 2)
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"wall-clock call `{'.'.join(chain)}()`; simulated time "
                        "must come from TimingModel / the event loop",
                    )
                )
        return findings


__all__ = ["VirtualTimePurity", "BANNED_TIME_FUNCS", "BANNED_DATETIME_FUNCS"]
