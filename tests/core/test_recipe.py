"""The §4 interface-design recipe machinery."""

import pytest

from repro.core.recipe import (
    Datum,
    Knob,
    UseCase,
    derive_wide_interface,
    eona_use_cases,
    narrow_interface,
    utility_from_observations,
)


def _use_case():
    qoe = Datum("qoe", "appp")
    load = Datum("link_load", "isp")
    bitrate = Knob("bitrate", "appp")
    peering = Knob("peering", "isp")
    return UseCase(name="uc", knobs=(bitrate, peering), data=(qoe, load))


class TestWideInterface:
    def test_cross_ownership_pairs_become_crossings(self):
        spec = derive_wide_interface([_use_case()])
        # qoe must flow appp->isp (peering knob); link_load isp->appp.
        assert ("qoe", "isp") in spec.shared_fields
        assert ("link_load", "appp") in spec.shared_fields

    def test_same_owner_not_shared(self):
        spec = derive_wide_interface([_use_case()])
        assert ("qoe", "appp") not in spec.shared_fields
        assert ("link_load", "isp") not in spec.shared_fields

    def test_duplicates_deduplicated_per_use_case(self):
        spec = derive_wide_interface([_use_case(), _use_case()])
        crossings_for_qoe = [
            crossing for crossing in spec.crossings
            if crossing.datum.name == "qoe"
        ]
        assert len(crossings_for_qoe) == 1  # same use-case name deduped

    def test_direction_label(self):
        spec = derive_wide_interface([_use_case()])
        directions = {crossing.direction for crossing in spec.crossings}
        assert "appp->isp" in directions
        assert "isp->appp" in directions

    def test_fields_to(self):
        spec = derive_wide_interface([_use_case()])
        assert spec.fields_to("isp") == frozenset({"qoe"})


class TestNarrowing:
    def test_budget_keeps_top_utility(self):
        spec = derive_wide_interface([_use_case()])
        narrowed = narrow_interface(spec, {"qoe": 1.0, "link_load": 0.1}, budget=1)
        assert narrowed.shared_fields == frozenset({("qoe", "isp")})

    def test_budget_zero_empties(self):
        spec = derive_wide_interface([_use_case()])
        assert narrow_interface(spec, {}, budget=0).width == 0

    def test_budget_above_width_keeps_all(self):
        spec = derive_wide_interface([_use_case()])
        narrowed = narrow_interface(spec, {}, budget=99)
        assert narrowed.shared_fields == spec.shared_fields

    def test_negative_budget_rejected(self):
        spec = derive_wide_interface([_use_case()])
        with pytest.raises(ValueError):
            narrow_interface(spec, {}, budget=-1)

    def test_deterministic_tie_breaking(self):
        spec = derive_wide_interface([_use_case()])
        first = narrow_interface(spec, {}, budget=1).shared_fields
        second = narrow_interface(spec, {}, budget=1).shared_fields
        assert first == second


class TestUtilityFromObservations:
    def test_relevant_datum_scores_high(self):
        quality = [1.0, 2.0, 3.0, 4.0, 5.0]
        scores = utility_from_observations(
            {
                "relevant": [10.0, 20.0, 30.0, 40.0, 50.0],
                "inverse": [5.0, 4.0, 3.0, 2.0, 1.0],
                "constant": [7.0, 7.0, 7.0, 7.0, 7.0],
            },
            quality,
        )
        assert scores["relevant"] == pytest.approx(1.0)
        assert scores["inverse"] == pytest.approx(1.0)  # |corr|, sign-free
        assert scores["constant"] == 0.0

    def test_noise_scores_lower_than_signal(self):
        import random

        rng = random.Random(0)
        quality = [float(i) for i in range(50)]
        noise = [rng.random() for _ in range(50)]
        scores = utility_from_observations(
            {"signal": quality, "noise": noise}, quality
        )
        assert scores["signal"] > scores["noise"]

    def test_scores_feed_narrowing(self):
        spec = derive_wide_interface([_use_case()])
        scores = utility_from_observations(
            {"qoe": [1.0, 2.0, 3.0], "link_load": [1.0, 1.0, 1.0]},
            [1.0, 2.0, 3.0],
        )
        narrowed = narrow_interface(spec, scores, budget=1)
        assert narrowed.shared_fields == frozenset({("qoe", "isp")})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            utility_from_observations({"a": [1.0]}, [1.0, 2.0, 3.0])

    def test_too_few_observations_rejected(self):
        with pytest.raises(ValueError):
            utility_from_observations({"a": [1.0, 2.0]}, [1.0, 2.0])


class TestStandardOwnership:
    def test_covers_all_paper_scenarios(self):
        use_cases = eona_use_cases()
        names = {use_case.name for use_case in use_cases}
        assert names == {
            "coarse-control", "flash-crowd", "oscillation", "energy-saving",
        }

    def test_wide_interface_is_bidirectional(self):
        use_cases = eona_use_cases()
        spec = derive_wide_interface(use_cases)
        recipients = {recipient for _, recipient in spec.shared_fields}
        # QoE flows to both infrastructure parties; hints flow to appp.
        assert "isp" in recipients
        assert "appp" in recipients
        assert "cdn" in recipients

    def test_qoe_is_shared_with_every_infrastructure_owner(self):
        use_cases = eona_use_cases()
        spec = derive_wide_interface(use_cases)
        assert ("qoe", "isp") in spec.shared_fields
        assert ("qoe", "cdn") in spec.shared_fields
