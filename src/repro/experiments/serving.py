"""Serving experiment: tenant-mix arbitration sweep + QoS ablation.

Two questions the single-stream experiments cannot ask:

1. **Arbitration** — two identical closed-loop tenants saturate one
   Pipette instance; does NVMe WRR (weights 2:1) actually partition
   service 2:1, where plain RR splits it evenly?  Visible in the
   per-tenant mean/tail latencies: the weighted tenant's requests wait
   less at every ring fetch.
2. **QoS ablation** — an open-loop "interactive" tenant shares the
   device with a greedy closed-loop "batch" tenant; each variant turns
   on one isolation knob (arbitration weight, token-bucket rate limit,
   shed-on-full) and the report shows what it buys the interactive
   tenant's p99 and what it costs the batch tenant.

Same scale + seeds => byte-identical results (the serving layer is
deterministic end to end).
"""

from __future__ import annotations

from repro.analysis.metrics import ExperimentOutcome
from repro.analysis.report import text_table
from repro.experiments.runner import order_independence
from repro.experiments.scale import ExperimentScale, get_scale
from repro.serve.qos import SHED, TenantQoS
from repro.serve.server import ServeConfig, TenantSpec, serve
from repro.workloads.synthetic import SyntheticConfig, synthetic_trace

TITLE = "Multi-tenant serving: NVMe MQ arbitration + per-tenant QoS"

SYSTEM = "pipette"

#: Offered rate of the latency-sensitive open-loop tenant (virtual qps).
INTERACTIVE_QPS = 20_000.0
#: Token-bucket limit applied to the batch tenant in the rate variant.
BATCH_LIMIT_QPS = 50_000.0


def _trace(scale: ExperimentScale, seed: int):
    return synthetic_trace(
        SyntheticConfig(
            workload="E",
            requests=scale.sweep_requests,
            file_size=scale.synthetic_file_bytes,
            seed=seed,
        )
    )


def _arbitration_sweep(scale: ExperimentScale, config) -> tuple[list[list[str]], dict]:
    ops = scale.sweep_requests
    rows: list[list[str]] = []
    raw: dict[str, dict] = {}
    for arbitration in ("rr", "wrr"):
        serve_config = ServeConfig(
            tenants=(
                TenantSpec(
                    "heavy",
                    _trace(scale, 11),
                    qos=TenantQoS(weight=2),
                    concurrency=16,
                    max_ops=ops,
                ),
                TenantSpec(
                    "light",
                    _trace(scale, 12),
                    qos=TenantQoS(weight=1),
                    concurrency=16,
                    max_ops=ops,
                ),
            ),
            system=SYSTEM,
            arbitration=arbitration,
            max_inflight=8,
        )
        result = serve(serve_config, config)
        raw[arbitration] = result.to_dict()
        for tenant in ("heavy", "light"):
            stats = result.tenant(tenant)
            rows.append(
                [
                    arbitration,
                    tenant,
                    f"{stats['completed']:.0f}",
                    f"{stats['mean_latency_ns'] / 1000:.1f}",
                    f"{stats['p50_ns'] / 1000:.1f}",
                    f"{stats['p99_ns'] / 1000:.1f}",
                    f"{stats['p999_ns'] / 1000:.1f}",
                ]
            )
    return rows, raw


#: QoS ablation variants: which knob isolates the interactive tenant.
def _ablation_variants(scale: ExperimentScale) -> dict[str, tuple[TenantQoS, TenantQoS]]:
    return {
        "none": (TenantQoS(), TenantQoS()),
        "weight": (TenantQoS(weight=4), TenantQoS(weight=1)),
        "rate-limit": (TenantQoS(), TenantQoS(rate_limit_qps=BATCH_LIMIT_QPS)),
        "shed": (TenantQoS(), TenantQoS(queue_depth=16, full_policy=SHED)),
    }


def _qos_ablation(scale: ExperimentScale, config) -> tuple[list[list[str]], dict]:
    ops = scale.sweep_requests
    rows: list[list[str]] = []
    raw: dict[str, dict] = {}
    for variant, (interactive_qos, batch_qos) in _ablation_variants(scale).items():
        serve_config = ServeConfig(
            tenants=(
                TenantSpec(
                    "interactive",
                    _trace(scale, 21),
                    qos=interactive_qos,
                    mode="open",
                    rate_qps=INTERACTIVE_QPS,
                    max_ops=max(ops // 2, 50),
                ),
                TenantSpec(
                    "batch",
                    _trace(scale, 22),
                    qos=batch_qos,
                    concurrency=32,
                    max_ops=ops,
                ),
            ),
            system=SYSTEM,
            arbitration="wrr",
            max_inflight=8,
        )
        result = serve(serve_config, config)
        raw[variant] = result.to_dict()
        interactive = result.tenant("interactive")
        batch = result.tenant("batch")
        rows.append(
            [
                variant,
                f"{interactive['p50_ns'] / 1000:.1f}",
                f"{interactive['p99_ns'] / 1000:.1f}",
                f"{interactive['achieved_qps']:,.0f}",
                f"{batch['completed']:.0f}",
                f"{batch['shed']:.0f}",
                f"{batch['rate_delayed']:.0f}",
            ]
        )
    return rows, raw


#: Tie-break shuffle seeds for the perturbation pass (``--perturb``).
PERTURBATION_SEEDS = tuple(range(1, 9))


def _perturb_config(scale: ExperimentScale, arbitration: str) -> ServeConfig:
    """The arbitration smoke config the ``--perturb`` pass checks."""
    ops = scale.sweep_requests
    return ServeConfig(
        tenants=(
            TenantSpec(
                "heavy", _trace(scale, 11), qos=TenantQoS(weight=2), concurrency=16, max_ops=ops
            ),
            TenantSpec(
                "light", _trace(scale, 12), qos=TenantQoS(weight=1), concurrency=16, max_ops=ops
            ),
        ),
        system=SYSTEM,
        arbitration=arbitration,
        max_inflight=8,
    )


def run(scale: ExperimentScale | None = None, *, perturb: bool = False) -> ExperimentOutcome:
    scale = scale or get_scale()
    config = scale.sim_config()
    arbitration_rows, arbitration_raw = _arbitration_sweep(scale, config)
    ablation_rows, ablation_raw = _qos_ablation(scale, config)
    report = text_table(
        ["arb", "tenant", "done", "mean us", "p50 us", "p99 us", "p99.9 us"],
        arbitration_rows,
        title=TITLE + f" [scale={scale.name}]",
    )
    report += "\n\n" + text_table(
        [
            "variant",
            "inter p50 us",
            "inter p99 us",
            "inter qps",
            "batch done",
            "batch shed",
            "batch delayed",
        ],
        ablation_rows,
        title="QoS ablation: open-loop interactive vs greedy batch (WRR)",
    )
    extra = {"arbitration": arbitration_raw, "ablation": ablation_raw}
    if perturb:
        # Tie-break-perturb the arbitration smoke config.
        table, extra["perturbation"] = order_independence(
            "arb",
            {arbitration: _perturb_config(scale, arbitration) for arbitration in ("rr", "wrr")},
            lambda serve_config, seed: serve(serve_config, config, tiebreak_seed=seed),
            PERTURBATION_SEEDS,
        )
        report += "\n\n" + table
    return ExperimentOutcome(
        experiment="serving",
        title=TITLE,
        comparisons=[],
        report=report,
        extra=extra,
    )


def main() -> None:
    print(run().report)


if __name__ == "__main__":
    main()
