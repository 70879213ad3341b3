"""E9 -- Interface narrowing (paper §4's recipe, step 4).

The recipe derives a *wide* interface from the use cases, then narrows
it to the most useful fields.  This experiment runs the Figure 5 world
at several interface widths -- from zero shared fields (status quo)
through the narrowed sets to the full wide interface -- and against the
global-controller oracle, measuring the quality gap at each width.

Grants are driven by the recipe machinery itself: the wide interface is
derived from the standard EONA use cases, narrowed at each budget, and
the surviving fields are translated into looking-glass grants.

Expected shape: a handful of fields (demand estimate + peering state +
congestion attribution) captures most of the oracle's benefit; widening
beyond that adds little.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.baselines.modes import Mode
from repro.core.recipe import (
    InterfaceSpec,
    derive_wide_interface,
    eona_use_cases,
    narrow_interface,
)
from repro.experiments import exp_e4_oscillation
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, VariantSpec, check

#: Utility scores for recipe step 4 (in a real deployment these come
#: from measured quality impact / information gain; here they encode
#: the §4 discussion's ranking).
FIELD_UTILITY: Dict[str, float] = {
    "demand_estimate": 1.0,
    "access_congestion": 0.9,
    "peering_capacity": 0.8,
    "peering_decision": 0.7,
    "qoe": 0.6,
    "server_hints": 0.5,
    "server_load": 0.3,
}

#: Which looking-glass queries each recipe datum unlocks.
FIELD_TO_QUERIES: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    # datum -> ((owner, requester, query), ...)
    "demand_estimate": (("appp", "isp", "demand_estimate"),),
    "qoe": (("appp", "isp", "qoe_by_cdn"),),
    "access_congestion": (("isp", "appp", "congestion"),),
    "peering_capacity": (("isp", "appp", "peering_points"),),
    "peering_decision": (("isp", "appp", "peering_decisions"),),
    "server_hints": (("cdnX", "appp", "server_hints"), ("cdnY", "appp", "server_hints")),
    "server_load": (("cdnX", "appp", "mean_load"), ("cdnY", "appp", "mean_load")),
}


def narrowed_specs(budgets: Tuple[int, ...]) -> List[Tuple[int, InterfaceSpec]]:
    """Apply recipe steps 2-4 to the standard use cases."""
    use_cases = eona_use_cases()
    wide = derive_wide_interface(use_cases)
    return [
        (budget, narrow_interface(wide, FIELD_UTILITY, budget))
        for budget in budgets
    ]


def run_width(
    spec: InterfaceSpec,
    seed: int = 0,
    **kwargs,
) -> Dict[str, object]:
    """Run the oscillation world with only this spec's fields granted."""
    from repro.core.appp import EonaAppP
    from repro.core.infp import EonaInfP
    from repro.experiments.common import launch_video_sessions, qoe_of
    from repro.video.qoe import summarize
    from repro.scenarios import build_scenario

    scenario = build_scenario("oscillation", seed=seed)
    sim = scenario.sim
    registry = scenario.registry

    policy = EonaAppP(sim, scenario.cdns, name="appp")
    a2i = policy.make_a2i(registry)
    infp = EonaInfP(
        sim,
        scenario.network,
        scenario.groups,
        registry=registry,
        appp_a2i=a2i,
        te_period_s=kwargs.get("te_period_s", 60.0),
        stats_period_s=5.0,
    )
    policy.isp_i2a = infp.i2a

    # Translate the narrowed spec into grants.  No grant => the query
    # raises AccessDenied and the consumer falls back gracefully.
    shared = {name for name, _recipient in spec.shared_fields}
    for datum_name in shared:
        for owner, requester, query in FIELD_TO_QUERIES.get(datum_name, ()):
            registry.grant(owner, requester, query)

    horizon_s = kwargs.get("horizon_s", 1200.0)
    players = launch_video_sessions(
        sim,
        scenario.network,
        scenario.catalog,
        policy,
        scenario.client_nodes,
        rng=sim.rng.get("arrivals"),
        rate_per_s=len(scenario.client_nodes) / 180.0,
        until=horizon_s - 200.0,
    )
    sim.run(until=horizon_s)
    infp.stop()
    policy.stop()

    summary = summarize(qoe_of(players))
    return {
        "buffering_ratio": summary["mean_buffering_ratio"],
        "mean_bitrate_mbps": summary["mean_bitrate_mbps"],
        "te_switches": infp.te.switch_count("cdnX"),
        "cdn_switches": summary["cdn_switches_per_session"],
        "engagement": summary["mean_engagement"],
        "_counters": scenario.ctx.allocation_counters(),
    }


def run(
    seed: int = 0,
    budgets: Tuple[int, ...] = (1, 2, 4, 7),
    **kwargs,
) -> ExperimentResult:
    result = ExperimentResult(
        name="E9-recipe",
        notes="QoE vs. interface width in the Figure 5 world; oracle bound",
    )
    quo = exp_e4_oscillation.run_mode(Mode.STATUS_QUO, seed=seed, **kwargs)
    result.add_row(
        config="status_quo",
        width=0,
        fields="",
        buffering_ratio=quo["buffering_ratio"],
        mean_bitrate_mbps=quo["mean_bitrate_mbps"],
        te_switches=quo["te_switches"],
        engagement=quo["engagement"],
        _counters=quo["_counters"],
    )
    for budget, spec in narrowed_specs(budgets):
        shared = sorted({name for name, _ in spec.shared_fields})
        row = run_width(spec, seed=seed, **kwargs)
        result.add_row(
            config=f"narrow-{budget}",
            width=spec.width,
            fields=",".join(shared),
            **row,
        )
    oracle = exp_e4_oscillation.run_mode(Mode.ORACLE, seed=seed, **kwargs)
    result.add_row(
        config="oracle",
        width=-1,
        fields="(all, live)",
        buffering_ratio=oracle["buffering_ratio"],
        mean_bitrate_mbps=oracle["mean_bitrate_mbps"],
        te_switches=oracle["te_switches"],
        engagement=oracle["engagement"],
        _counters=oracle["_counters"],
    )
    return result


register(
    ExperimentSpec(
        exp_id="e9",
        title="interface narrowing recipe vs the oracle (§4)",
        source="paper §4 recipe, step 4",
        module=__name__,
        variants=(
            VariantSpec(
                name="recipe",
                runner=run,
                row_key="config",
                checks=(
                    # A handful of fields captures the benefit...
                    check("buffering_ratio", "narrow-1", "<", 0.2, of="status_quo"),
                    check("te_switches", "narrow-1", "<=", 3),
                    check("te_switches", "status_quo", ">", 3),
                    # ...widening adds essentially nothing...
                    check("buffering_ratio", "narrow-7", "<=", 1.5, of="narrow-1"),
                    # ...and narrow-1 sits within noise of the oracle.
                    check("engagement", "narrow-1", ">=", of="oracle", plus=-0.05),
                ),
            ),
        ),
    )
)
