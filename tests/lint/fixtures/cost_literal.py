"""Fixture: suffixless-cost-literal counterexamples (never executed).

Magic numbers flowing straight into Tracer recording calls dodge
both the suffix convention and the TimingModel; the analysis cannot
check a cost nobody named.
"""

from repro.sim.trace import Tracer

WARMUP_NS = 1_500


def record(tracer, xfer_ns):
    tracer.host("warmup", 1500)  # expect: suffixless-cost-literal
    tracer.serial_nand("sense", 40_000)  # expect: suffixless-cost-literal
    tracer.channel(0, "xfer", 2_500)  # expect: suffixless-cost-literal
    tracer.pcie("xfer", xfer_ns + 64)  # expect: suffixless-cost-literal
    tracer.host("named", WARMUP_NS)  # ok: named, suffix-checked constant
    tracer.host("noop", 0)  # ok: zero cost is dimension-safe
    tracer.pcie("move", xfer_ns)  # ok: suffixed variable
    return Tracer
