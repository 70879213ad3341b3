#!/usr/bin/env python3
"""Figure 3 live: a flash crowd behind a congested access ISP.

Builds the paper's "lack of visibility" world twice -- once with the
status-quo blackbox AppP (players thrash across CDNs), once with the
EONA-I2A congestion signal wired in (the AppP's fleet governor steps
bitrate down instead) -- and prints the side-by-side outcome.

Run:  python examples/flash_crowd_video.py
"""

from repro.core import EonaAppP, EonaInfP, StatusQuoAppP, StatusQuoInfP
from repro.experiments.common import launch_video_sessions, qoe_of
from repro.video.qoe import summarize
from repro.scenarios import build_scenario
from repro.workloads import flash_crowd_rate


def run_world(use_eona: bool) -> dict:
    scenario = build_scenario(
        "flash-crowd",
        seed=3,
        params={"n_clients": 30, "access_capacity_mbps": 45.0},
    )
    sim = scenario.sim

    if use_eona:
        # The ISP publishes congestion attribution over I2A...
        infp = EonaInfP(
            sim,
            scenario.network,
            groups=[],
            registry=scenario.registry,
            access_links=[scenario.access_link],
            stats_period_s=2.0,
            i2a_refresh_s=5.0,
        )
        scenario.registry.grant("isp", "appp")
        # ...and the AppP's control loop consumes it.
        policy = EonaAppP(sim, scenario.cdns, isp_i2a=infp.i2a, name="appp")
    else:
        infp = StatusQuoInfP(sim, scenario.network, groups=[], stats_period_s=2.0)
        policy = StatusQuoAppP(sim, scenario.cdns, name="appp")

    crowd = flash_crowd_rate(
        base_per_s=0.05, peak_per_s=1.5, onset_s=30.0, ramp_s=30.0, duration_s=60.0
    )
    players = launch_video_sessions(
        sim,
        scenario.network,
        scenario.catalog,
        policy,
        scenario.client_nodes,
        rng=sim.rng.get("arrivals"),
        rate_fn=crowd,
        max_rate_per_s=1.5,
        until=360.0,
        content_picker=lambda i: scenario.catalog.by_rank(0),  # one hot title
    )
    sim.run(until=600.0)
    infp.stop()
    summary = summarize(qoe_of(players))
    summary["world"] = "EONA" if use_eona else "status quo"
    return summary


def main() -> None:
    for use_eona in (False, True):
        summary = run_world(use_eona)
        print(f"\n--- {summary['world']} ---")
        print(f"  sessions          : {summary['sessions']}")
        print(f"  buffering ratio   : {summary['mean_buffering_ratio']:.4f}")
        print(f"  mean bitrate      : {summary['mean_bitrate_mbps']:.2f} Mbit/s")
        print(f"  CDN switches/sess : {summary['cdn_switches_per_session']:.2f}")
        print(f"  engagement        : {summary['mean_engagement']:.3f}")
    print(
        "\nThe EONA world trades a little bitrate for much less buffering\n"
        "and stops the futile CDN thrashing -- Figure 3's exact argument."
    )


if __name__ == "__main__":
    main()
