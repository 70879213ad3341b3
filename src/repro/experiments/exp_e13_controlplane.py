"""E13 -- The coordinated control plane (paper §1, trend 3; cite [36]).

The paper leans on the existence of AppP-side "control plane platforms"
(the C3 / coordinated-video-control-plane line of work) as an enabler:
EONA's A2I is only as good as the AppP's ability to aggregate and act
on its own telemetry.  This experiment quantifies that subsystem: a CDN
suffers a mid-run capacity fault, and we compare

* **reactive** -- today's per-session trial-and-error (each player
  independently suffers, then switches);
* **coordinated** -- the fleet-level control plane: shared per-CDN
  quality estimates steer new sessions instantly and migrate existing
  ones at a bounded rate.

Expected shape: the coordinated plane cuts fault-window buffering by a
large factor and steers new arrivals away from the faulty CDN almost
immediately; after recovery, exploration drifts traffic back.
"""

from __future__ import annotations

from typing import Dict

from repro.core.appp import StatusQuoAppP
from repro.core.controlplane import CoordinatedAppP
from repro.experiments.common import (
    ExperimentResult,
    launch_video_sessions,
    loop_latency_row,
)
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, VariantSpec, check
from repro.faults import register_plan
from repro.scenarios import build_scenario, load_library_spec
from repro.telemetry.timeline import TimelineProbe
from repro.video.qoe import summarize


def run_config(
    config: str,
    seed: int = 0,
    n_clients: int = 25,
    horizon_s: float = 700.0,
    degraded_mbps: float = 10.0,
) -> Dict[str, object]:
    # The uplink collapse/recovery is declared in the cdn-fault spec's
    # fault plan and armed through the injector at build time.
    scenario = build_scenario(
        "cdn-fault",
        seed=seed,
        params={"n_clients": n_clients, "degraded_mbps": degraded_mbps},
    )
    sim = scenario.sim

    if config == "reactive":
        policy = StatusQuoAppP(sim, scenario.cdns, name="appp")
    elif config == "coordinated":
        policy = CoordinatedAppP(
            sim, scenario.cdns, control_period_s=10.0, name="appp"
        )
    else:
        raise ValueError(f"unknown config {config!r}")

    players = launch_video_sessions(
        sim,
        scenario.network,
        scenario.catalog,
        policy,
        scenario.client_nodes,
        rng=sim.rng.get("arrivals"),
        rate_per_s=0.25,
        until=horizon_s - 150.0,
    )
    probe = TimelineProbe(
        sim,
        {
            "cdn1_sessions": lambda: float(scenario.cdns[0].active_sessions),
            "cdn2_sessions": lambda: float(scenario.cdns[1].active_sessions),
        },
        period_s=10.0,
    )
    sim.run(until=horizon_s)
    probe.stop()
    if hasattr(policy, "stop"):
        policy.stop()

    # QoE restricted to sessions that overlapped the fault window.
    fault_window = (scenario.fault_at_s, scenario.recover_at_s)
    affected = [
        player.qoe()
        for player in players
        if player.started_at is not None and player.started_at < fault_window[1]
    ]
    summary = summarize(affected)
    share_on_faulty_during = probe.window_mean(
        "cdn1_sessions", fault_window[0] + 60.0, fault_window[1]
    )
    total_during = share_on_faulty_during + probe.window_mean(
        "cdn2_sessions", fault_window[0] + 60.0, fault_window[1]
    )
    return {
        "config": config,
        "buffering_ratio": summary["mean_buffering_ratio"],
        "mean_bitrate_mbps": summary["mean_bitrate_mbps"],
        "cdn_switches": summary["cdn_switches_per_session"],
        "engagement": summary["mean_engagement"],
        "abandoned": sum(1 for q in affected if q.abandoned),
        "faulty_cdn_share_during_fault": (
            share_on_faulty_during / total_during if total_during > 0 else 0.0
        ),
        "migrations": getattr(policy, "migrations", 0),
        "_counters": scenario.ctx.allocation_counters(),
    }


def run(seed: int = 0, **kwargs) -> ExperimentResult:
    result = ExperimentResult(
        name="E13-controlplane",
        notes="CDN 1 uplink collapses mid-run; per-session vs fleet steering",
    )
    for config in ("reactive", "coordinated"):
        result.add_row(**run_config(config, seed=seed, **kwargs))
    return result


def run_loop_latency(seed: int = 0, **kwargs) -> ExperimentResult:
    """Action→recovery spans of the CDN-fault worlds (DESIGN.md §13).

    The control plane here is app-internal (no I2A glass), so the
    causal chain is beacons → flushes and actions → recoveries; the
    hint stages must be structurally absent in both configs.
    """
    from repro.obs import spans

    result = ExperimentResult(
        name="E13-loop-latency",
        notes="causal loop stages (sim s) from captured spans; DESIGN.md §13",
    )
    for config in ("reactive", "coordinated"):
        with spans.capture() as events:
            row = run_config(config, seed=seed, **kwargs)
        result.merge_counters(row["_counters"])  # type: ignore[arg-type]
        result.add_row(**loop_latency_row(events, config=config))
    return result


def _collapse_plan():
    """The spec's cdn1-uplink-collapse plan at default parameters."""
    spec, topology = load_library_spec("cdn-fault").resolve()
    (plan,) = spec.fault_plans(topology)
    return plan


register_plan(
    "cdn1-uplink-collapse",
    _collapse_plan,
    experiment="e13",
    description="CDN 1 uplink cut to degraded_mbps at 200s, restored at 500s",
)


register(
    ExperimentSpec(
        exp_id="e13",
        title="coordinated control plane (C3-style) vs per-session reaction (§1 trend 3)",
        source="paper §1 trend 3; cite [36]",
        module=__name__,
        variants=(
            VariantSpec(
                name="controlplane",
                runner=run,
                row_key="config",
                checks=(
                    # Fleet steering evacuates the faulty CDN; per-session
                    # reaction leaves most sessions suffering on it.
                    check(
                        "faulty_cdn_share_during_fault", "coordinated", "<", 0.15
                    ),
                    check("faulty_cdn_share_during_fault", "reactive", ">", 0.4),
                    check("mean_bitrate_mbps", "coordinated", ">", of="reactive"),
                    check("engagement", "coordinated", ">", of="reactive"),
                    check("migrations", "coordinated", ">", 0),
                ),
            ),
            VariantSpec(
                name="loop-latency",
                runner=run_loop_latency,
                row_key="config",
                checks=(
                    # App-internal control plane: beacons aggregate, but
                    # no I2A glass means no hint stages in either config.
                    check("a2i_reports", "*", ">", 0),
                    check("beacon_to_flush_n", "*", ">", 0),
                    check("i2a_hints", "*", "==", 0),
                    check("hint_to_action_n", "*", "==", 0),
                    check("action_to_recovery_n", "coordinated", ">", 0),
                ),
            ),
        ),
    )
)
