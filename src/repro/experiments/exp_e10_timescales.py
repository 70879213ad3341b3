"""E10 -- New oscillations from tighter coupling (paper §5).

Two findings, both anticipated by the paper:

1. **Full EONA is stable across timescales**: with demand-aware TE and
   published decisions, speeding the TE loop up to player timescales
   does not reintroduce oscillation (``run_full``).
2. **Partial deployments can churn**: an EONA-instrumented AppP (it
   receives the congestion signal, but no peering visibility) coupled
   to a legacy greedy ISP reacts to every TE flap; the faster the ISP
   loop, the more the AppP chases it.  Hysteresis damping on the AppP's
   CDN knob suppresses the churn (``run_partial`` ablates it).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.baselines.modes import Mode
from repro.core.appp import EonaAppP
from repro.core.damping import HysteresisGate
from repro.core.infp import EonaInfP, StatusQuoInfP
from repro.experiments import exp_e4_oscillation
from repro.experiments.common import ExperimentResult, launch_video_sessions, qoe_of
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, VariantSpec, check
from repro.video.qoe import summarize
from repro.scenarios import build_scenario


def run_partial_mode(
    te_period_s: float,
    with_damping: bool,
    seed: int = 0,
    n_clients: int = 24,
    horizon_s: float = 1200.0,
) -> Dict[str, object]:
    """Legacy greedy ISP + congestion-signal-only EONA AppP."""
    scenario = build_scenario(
        "oscillation", seed=seed, params={"n_clients": n_clients}
    )
    sim = scenario.sim
    registry = scenario.registry

    infp = StatusQuoInfP(
        sim, scenario.network, scenario.groups,
        te_period_s=te_period_s, stats_period_s=5.0,
    )
    damper = (
        HysteresisGate(sim, min_dwell_s=180.0, improvement_margin=0.1)
        if with_damping
        else None
    )
    # A twitchy player-side loop (react after 2 bad chunks) makes the
    # coupling visible; damping is what keeps it in check.
    policy = EonaAppP(
        sim, scenario.cdns, name="appp", damper=damper, bad_chunk_threshold=2
    )
    # Partial I2A: the AppP may ask about congestion but NOT about
    # peering state, so it cannot tell "the ISP is fixing this" from
    # "the CDN is broken" -- the coupling channel.
    eona_isp = EonaInfP(
        sim, scenario.network, [], registry=registry, stats_period_s=5.0
    )
    registry.grant("isp", "appp", "congestion")
    policy.isp_i2a = eona_isp.i2a

    players = launch_video_sessions(
        sim,
        scenario.network,
        scenario.catalog,
        policy,
        scenario.client_nodes,
        rng=sim.rng.get("arrivals"),
        rate_per_s=n_clients / 180.0,
        until=horizon_s - 200.0,
    )
    sim.run(until=horizon_s)
    infp.stop()
    eona_isp.stop()
    policy.stop()

    summary = summarize(qoe_of(players))
    return {
        "te_period_s": te_period_s,
        "damping": "on" if with_damping else "off",
        "te_switches": infp.te.switch_count("cdnX"),
        "cdn_switches": summary["cdn_switches_per_session"],
        "buffering_ratio": summary["mean_buffering_ratio"],
        "engagement": summary["mean_engagement"],
        "_counters": scenario.ctx.allocation_counters(),
    }


def run_partial(
    seed: int = 0,
    te_periods: Tuple[float, ...] = (15.0, 45.0, 120.0),
    **kwargs,
) -> ExperimentResult:
    result = ExperimentResult(
        name="E10-partial-coupling",
        notes="legacy greedy ISP + partially-informed AppP; damping ablation",
    )
    for period in te_periods:
        for with_damping in (False, True):
            result.add_row(**run_partial_mode(period, with_damping, seed=seed, **kwargs))
    return result


def run_full(
    seed: int = 0,
    te_periods: Tuple[float, ...] = (10.0, 60.0, 180.0),
    i2a_refresh_s: float = 20.0,
    **kwargs,
) -> ExperimentResult:
    """Full EONA stays stable as the TE loop accelerates."""
    result = ExperimentResult(
        name="E10-full-eona",
        notes=f"full EONA, TE period swept at {i2a_refresh_s:.0f}s snapshot age",
    )
    for period in te_periods:
        row = exp_e4_oscillation.run_mode(
            Mode.EONA,
            seed=seed,
            te_period_s=period,
            i2a_refresh_s=i2a_refresh_s,
            **kwargs,
        )
        result.add_row(
            te_period_s=period,
            te_switches=row["te_switches"],
            cdn_switches=row["cdn_switches"],
            buffering_ratio=row["buffering_ratio"],
            engagement=row["engagement"],
            _counters=row["_counters"],
        )
    return result


def run_te_damping(
    seed: int = 0,
    n_clients: int = 24,
    horizon_s: float = 1200.0,
    te_period_s: float = 30.0,
) -> ExperimentResult:
    """Adaptive damping on the ISP's own oscillating TE loop.

    The §5 remedy applied infrastructure-side: the greedy TE keeps its
    policy, but an :class:`~repro.core.oscillation.AdaptiveDamper`
    watches its decision history and backs off once the egress choice
    starts flapping -- no damping cost while the loop is calm.
    """
    from repro.core.appp import StatusQuoAppP
    from repro.core.damping import ExponentialBackoff
    from repro.core.infp import StatusQuoInfP
    from repro.core.oscillation import AdaptiveDamper, OscillationDetector

    result = ExperimentResult(
        name="E10-te-damping",
        notes="greedy TE in the Figure 5 world; adaptive damper ablation",
    )
    for damper_kind in ("none", "adaptive"):
        scenario = build_scenario(
        "oscillation", seed=seed, params={"n_clients": n_clients}
    )
        sim = scenario.sim
        infp = StatusQuoInfP(
            sim, scenario.network, scenario.groups,
            te_period_s=te_period_s, stats_period_s=5.0,
        )
        if damper_kind == "adaptive":
            infp.te.damper = AdaptiveDamper(
                sim,
                detector=OscillationDetector(flip_threshold=2),
                backoff=ExponentialBackoff(
                    sim, base_s=te_period_s * 4, reset_after_s=3600.0
                ),
            )
        policy = StatusQuoAppP(sim, scenario.cdns, name="appp")
        players = launch_video_sessions(
            sim,
            scenario.network,
            scenario.catalog,
            policy,
            scenario.client_nodes,
            rng=sim.rng.get("arrivals"),
            rate_per_s=n_clients / 180.0,
            until=horizon_s - 200.0,
        )
        sim.run(until=horizon_s)
        infp.stop()
        summary = summarize(qoe_of(players))
        suppressed = (
            infp.te.damper.suppressed if infp.te.damper is not None else 0
        )
        result.add_row(
            te_damper=damper_kind,
            te_switches=infp.te.switch_count("cdnX"),
            suppressed_changes=suppressed,
            buffering_ratio=summary["mean_buffering_ratio"],
            engagement=summary["mean_engagement"],
            _counters=scenario.ctx.allocation_counters(),
        )
    return result


register(
    ExperimentSpec(
        exp_id="e10",
        title="timescale coupling and damping ablation (§5)",
        source="paper §5 new oscillations",
        module=__name__,
        variants=(
            VariantSpec(
                name="partial-coupling",
                runner=run_partial,
                checks=(
                    # Faster legacy TE loop flaps more...
                    check(
                        "te_switches",
                        {"te_period_s": 15.0, "damping": "off"},
                        ">",
                        of={"te_period_s": 120.0, "damping": "off"},
                    ),
                    # ...and damping suppresses the AppP-side churn.
                    check(
                        "cdn_switches",
                        {"te_period_s": 45.0, "damping": "on"},
                        "<",
                        0.5,
                        of={"te_period_s": 45.0, "damping": "off"},
                    ),
                ),
            ),
            VariantSpec(
                name="full-eona",
                runner=run_full,
                row_key="te_period_s",
                checks=(
                    check("te_switches", "*", "<=", 3),
                    check("cdn_switches", "*", "==", 0),
                ),
            ),
            VariantSpec(
                name="te-damping",
                runner=run_te_damping,
                row_key="te_damper",
                checks=(
                    check("te_switches", "adaptive", "<", 0.5, of="none"),
                    check("suppressed_changes", "adaptive", ">", 0),
                    check("engagement", "adaptive", ">=", of="none"),
                ),
            ),
        ),
    )
)
