"""Scalar vs vectorized step equivalence: the cohort engine's contract.

Every vectorized twin in :mod:`repro.cohorts.vecsteps` must agree
element-wise with its scalar source of truth on arbitrary inputs; these
properties are what lets the equivalence experiment (e7-cohort) trust
the fluid path.
"""

import math
import warnings

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cohorts.vecsteps import (
    buffer_advance_vec,
    engagement_vec,
    highest_at_most_vec,
    rung_for_throughput,
)
from repro.video.abr import AbrContext, RateBasedAbr
from repro.video.buffer import buffer_advance_step
from repro.video.ladder import DEFAULT_LADDER, BitrateLadder
from repro.video.qoe import engagement_terms
from repro.web.qoe import satisfaction_from_plt, satisfaction_from_plt_array

# Scalar math.* and numpy ufuncs may differ by an ulp on transcendental
# functions; everything else is exact double arithmetic.
ULP_TOL = 1e-12

LADDERS = (
    DEFAULT_LADDER,
    BitrateLadder(bitrates_mbps=(1.0,)),
    BitrateLadder(bitrates_mbps=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)),
)

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestBufferAdvance:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=60.0),
                st.floats(min_value=-2.0, max_value=10.0),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=32,
        )
    )
    def test_elementwise_agreement(self, rows):
        level = numpy.array([r[0] for r in rows])
        elapsed = numpy.array([r[1] for r in rows])
        started = numpy.array([r[2] for r in rows])
        stalled = numpy.array([r[3] for r in rows])
        new_level, played, waiting, now_stalled = buffer_advance_vec(
            level, elapsed, started, stalled
        )
        for i, row in enumerate(rows):
            s_level, s_played, s_waiting, s_stalled = buffer_advance_step(*row)
            assert new_level[i] == pytest.approx(s_level, abs=0.0)
            assert played[i] == pytest.approx(s_played, abs=0.0)
            assert waiting[i] == pytest.approx(s_waiting, abs=0.0)
            assert bool(now_stalled[i]) == s_stalled

    def test_conservation(self):
        # played + waiting == elapsed for every ticking row.
        level = numpy.array([0.0, 1.0, 5.0])
        elapsed = numpy.array([2.0, 2.0, 2.0])
        started = numpy.array([True, True, True])
        stalled = numpy.array([False, False, False])
        _, played, waiting, _ = buffer_advance_vec(level, elapsed, started, stalled)
        numpy.testing.assert_allclose(played + waiting, elapsed)


class TestEngagement:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-0.5, max_value=1.5),
                st.floats(min_value=-1.0, max_value=12.0),
                st.floats(min_value=-5.0, max_value=120.0),
            ),
            min_size=1,
            max_size=32,
        ),
        st.sampled_from([6.0, 3.5, 0.0, -1.0]),
    )
    def test_elementwise_agreement(self, rows, max_bitrate):
        ratio = numpy.array([r[0] for r in rows])
        bitrate = numpy.array([r[1] for r in rows])
        join = numpy.array([r[2] for r in rows])
        scores = engagement_vec(ratio, bitrate, join, max_bitrate_mbps=max_bitrate)
        for i, row in enumerate(rows):
            scalar = engagement_terms(*row, max_bitrate_mbps=max_bitrate)
            assert scores[i] == pytest.approx(scalar, abs=ULP_TOL)

    def test_scalar_input_gives_scalar_shape(self):
        score = engagement_vec(0.0, 6.0, 0.0)
        assert float(score) == pytest.approx(1.0)


class TestLadderLookup:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(LADDERS),
        st.lists(
            st.floats(min_value=-2.0, max_value=20.0), min_size=1, max_size=32
        ),
    )
    def test_highest_at_most_agrees(self, ladder, caps):
        chosen = highest_at_most_vec(ladder, numpy.array(caps))
        for i, cap in enumerate(caps):
            assert chosen[i] == ladder.highest_at_most(cap)

    def test_exact_rung_is_eligible(self):
        for rung in DEFAULT_LADDER.bitrates_mbps:
            assert float(highest_at_most_vec(DEFAULT_LADDER, rung)) == rung


class TestRungForThroughput:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(LADDERS),
        st.lists(
            st.tuples(
                st.floats(min_value=-1.0, max_value=30.0),
                st.one_of(
                    st.just(math.inf),
                    st.floats(min_value=0.1, max_value=20.0),
                ),
            ),
            min_size=1,
            max_size=32,
        ),
        st.sampled_from([0.85, 0.5, 1.0]),
    )
    def test_matches_rate_based_abr(self, ladder, rows, safety):
        abr = RateBasedAbr(safety=safety)
        estimate = numpy.array([r[0] for r in rows])
        cap = numpy.array([r[1] for r in rows])
        chosen = rung_for_throughput(ladder, estimate, cap, safety)
        for i, (est, cap_i) in enumerate(rows):
            # A single positive sample makes the harmonic-mean estimate
            # exactly that sample; non-positive samples are filtered so
            # the scalar falls back to the lowest rung, like the vector.
            ctx = AbrContext(
                ladder=ladder,
                buffer_level_s=0.0,
                throughput_samples_mbps=[est],
                rate_cap_mbps=cap_i,
            )
            assert chosen[i] == abr.choose(ctx)

    def test_results_are_ladder_rungs(self):
        chosen = rung_for_throughput(
            DEFAULT_LADDER, numpy.linspace(-1.0, 30.0, 64)
        )
        assert set(numpy.unique(chosen)) <= set(DEFAULT_LADDER.bitrates_mbps)


class TestWebSatisfaction:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, allow_nan=False),
            ),
            min_size=1,
            max_size=32,
        )
    )
    @example([900.0, math.inf, 0.0])
    def test_elementwise_agreement(self, plts):
        # Loads slow enough to overflow ``exp`` (~892 s and up) included:
        # both forms return 0.0, and neither raises or warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = satisfaction_from_plt_array(numpy.array(plts))
        for i, plt in enumerate(plts):
            assert values[i] == pytest.approx(
                satisfaction_from_plt(plt), abs=ULP_TOL
            )

    def test_overflowing_plt_is_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = satisfaction_from_plt_array([900.0, math.inf])
        assert values.tolist() == [0.0, 0.0]

    def test_values_below_overflow_unchanged(self):
        plts = numpy.linspace(0.0, 880.0, 4001)
        expected = 1.0 / (1.0 + numpy.exp(0.8 * (plts - 5.0)))
        assert satisfaction_from_plt_array(plts).tolist() == expected.tolist()

    def test_negative_plt_rejected(self):
        with pytest.raises(ValueError):
            satisfaction_from_plt_array([-1.0])
