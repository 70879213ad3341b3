"""Integration shapes for the extension experiments E9..E15.

Small/fast configurations; the benchmarks run the full-size versions.
"""

import pytest

from repro.experiments import (
    exp_e9_recipe,
    exp_e10_timescales,
    exp_e11_privacy,
    exp_e12_attributes,
    exp_e13_controlplane,
    exp_e14_splits,
    exp_e15_resilience,
)
from repro.faults import PlanBuilder


class TestE9Recipe:
    def test_narrow_interface_closes_most_of_the_gap(self):
        result = exp_e9_recipe.run(
            seed=1, budgets=(1,), n_clients=16, horizon_s=700.0,
            te_period_s=40.0,
        )
        quo = result.row(config="status_quo")
        narrow = result.row(config="narrow-1")
        assert narrow["te_switches"] < quo["te_switches"] / 2
        assert narrow["engagement"] > quo["engagement"]


class TestE10Damping:
    def test_adaptive_te_damper_cuts_flapping(self):
        result = exp_e10_timescales.run_te_damping(
            seed=1, n_clients=14, horizon_s=800.0, te_period_s=25.0
        )
        undamped = result.row(te_damper="none")
        damped = result.row(te_damper="adaptive")
        assert damped["te_switches"] < undamped["te_switches"]
        assert damped["suppressed_changes"] > 0


class TestE11Privacy:
    def test_frontier_is_monotone_ish(self):
        light = exp_e11_privacy.run_epsilon(
            epsilon=10.0, seed=2, n_clients=14, horizon_s=700.0
        )
        heavy = exp_e11_privacy.run_epsilon(
            epsilon=0.02, seed=2, n_clients=14, horizon_s=700.0
        )
        assert light["te_switches"] <= heavy["te_switches"]
        assert light["on_green_path"]


class TestE12Attributes:
    @pytest.fixture(scope="class")
    def rows(self):
        return {
            config: exp_e12_attributes.run_config(
                config, seed=1, n_clients_per_isp=10, horizon_s=400.0
            )
            for config in ("status_quo", "eona_unscoped", "eona_scoped")
        }

    def test_scoping_spares_the_healthy_isp(self, rows):
        assert (
            rows["eona_scoped"]["isp2_bitrate"]
            > rows["eona_unscoped"]["isp2_bitrate"]
        )

    def test_both_eona_variants_fix_the_congested_isp(self, rows):
        assert (
            rows["eona_scoped"]["isp1_buffering"]
            <= rows["status_quo"]["isp1_buffering"]
        )
        assert (
            rows["eona_unscoped"]["isp1_buffering"]
            <= rows["status_quo"]["isp1_buffering"]
        )

    def test_scoped_matches_status_quo_on_healthy_isp(self, rows):
        assert rows["eona_scoped"]["isp2_bitrate"] == pytest.approx(
            rows["status_quo"]["isp2_bitrate"]
        )


class TestE13ControlPlane:
    def test_fleet_steering_evacuates_faulty_cdn(self):
        reactive = exp_e13_controlplane.run_config(
            "reactive", seed=1, n_clients=15, horizon_s=550.0
        )
        coordinated = exp_e13_controlplane.run_config(
            "coordinated", seed=1, n_clients=15, horizon_s=550.0
        )
        assert (
            coordinated["faulty_cdn_share_during_fault"]
            < reactive["faulty_cdn_share_during_fault"]
        )
        assert coordinated["migrations"] > 0
        assert coordinated["engagement"] >= reactive["engagement"]


class TestE14Splits:
    def test_split_unlocks_stranded_capacity(self):
        single = exp_e14_splits.run_config(
            "eona_single", seed=1, n_clients=20, horizon_s=600.0
        )
        split = exp_e14_splits.run_config(
            "eona_split", seed=1, n_clients=20, horizon_s=600.0
        )
        assert split["split_active"]
        assert split["mean_bitrate_mbps"] > single["mean_bitrate_mbps"]
        assert (
            split["peerB_util_loaded"] + split["peerC_util_loaded"]
            > single["peerB_util_loaded"] + single["peerC_util_loaded"]
        )


class TestE15Resilience:
    def test_link_flap_recovers_exactly(self):
        result = exp_e15_resilience.run_link_flap(seed=1)
        row = result.rows[0]
        assert row["mid_fault_divergence"] > 1.0
        assert row["post_recovery_divergence"] <= 1e-6
        assert row["faults_injected"] > 0
        assert row["faults_injected"] == row["faults_recovered"]

    def test_outage_trips_fallback_and_holds_baseline(self):
        small = dict(
            n_clients=12, access_capacity_mbps=18.0, horizon_s=420.0
        )
        plan = (
            PlanBuilder("shape-outage")
            .glass_outage("isp", at=40.0, until=240.0)
            .build()
        )
        quo = exp_e15_resilience._run_degraded_mode(
            "status_quo", 1, None, **small
        )
        degraded = exp_e15_resilience._run_degraded_mode(
            "eona_fallback", 1, plan, **small
        )
        assert degraded["glass_errors"] > 0
        assert degraded["fallback_activations"] >= 1
        assert degraded["fallback_reengagements"] >= 1
        assert degraded["engagement"] >= quo["engagement"] - 0.05
