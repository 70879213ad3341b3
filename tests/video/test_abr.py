"""ABR algorithms: selection logic and cap compliance."""

import math
import statistics

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.video.abr import (
    AbrContext,
    BolaAbr,
    BufferBasedAbr,
    FestiveAbr,
    RateBasedAbr,
    harmonic_mean,
)
from repro.video.ladder import DEFAULT_LADDER


def _ctx(samples=(), buffer=10.0, last=None, cap=math.inf):
    return AbrContext(
        ladder=DEFAULT_LADDER,
        buffer_level_s=buffer,
        throughput_samples_mbps=list(samples),
        last_bitrate_mbps=last,
        rate_cap_mbps=cap,
    )


def _outcome(mean, samples):
    try:
        return mean(samples)
    except (OverflowError, statistics.StatisticsError) as exc:
        return type(exc)


_positive = st.floats(min_value=0.0, exclude_min=True, allow_subnormal=True)


class TestHarmonicMean:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(_positive, st.floats(0.05, 200.0)), min_size=1, max_size=12))
    @example([5e-324, 1.0])            # a reciprocal overflows to inf
    @example([math.inf, math.inf])      # every reciprocal is 0
    @example([1.7976931348623157e308, 1.7976931348623157e308])  # subnormal reciprocals
    @example([3.0])
    @example([8.0, 1.0, 2.5, 0.3])
    def test_equals_the_stdlib_bit_for_bit(self, samples):
        ours, stdlib = _outcome(harmonic_mean, samples), _outcome(statistics.harmonic_mean, samples)
        assert ours == stdlib and type(ours) is type(stdlib), (ours, stdlib)

    def test_estimate_uses_it(self):
        samples = [8.0, 1.0, 2.5]
        assert _ctx(samples=samples).throughput_estimate() == statistics.harmonic_mean(samples)


class TestRateBased:
    def test_no_samples_starts_low(self):
        assert RateBasedAbr().choose(_ctx()) == DEFAULT_LADDER.lowest

    def test_picks_below_safety_fraction(self):
        # 0.85 * 4 = 3.4 -> rung 3.0
        assert RateBasedAbr().choose(_ctx(samples=[4.0])) == 3.0

    def test_harmonic_mean_punishes_dips(self):
        # arithmetic mean of (8, 1) is 4.5 but harmonic is ~1.78
        assert RateBasedAbr().choose(_ctx(samples=[8.0, 1.0])) == 1.5

    def test_cap_applies(self):
        abr = RateBasedAbr()
        assert abr.choose(_ctx(samples=[100.0], cap=1.5)) == 1.5

    def test_invalid_safety(self):
        with pytest.raises(ValueError):
            RateBasedAbr(safety=0.0)


class TestBufferBased:
    def test_reservoir_floor(self):
        abr = BufferBasedAbr(reservoir_s=5.0, cushion_s=15.0)
        assert abr.choose(_ctx(buffer=3.0)) == DEFAULT_LADDER.lowest

    def test_cushion_ceiling(self):
        abr = BufferBasedAbr(reservoir_s=5.0, cushion_s=15.0)
        assert abr.choose(_ctx(buffer=25.0)) == DEFAULT_LADDER.highest

    def test_linear_middle_monotone(self):
        abr = BufferBasedAbr(reservoir_s=5.0, cushion_s=15.0)
        chosen = [abr.choose(_ctx(buffer=level)) for level in (6.0, 10.0, 14.0, 19.0)]
        assert chosen == sorted(chosen)

    def test_ignores_throughput(self):
        abr = BufferBasedAbr()
        rich = abr.choose(_ctx(samples=[100.0], buffer=3.0))
        poor = abr.choose(_ctx(samples=[0.1], buffer=3.0))
        assert rich == poor

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BufferBasedAbr(reservoir_s=-1.0)
        with pytest.raises(ValueError):
            BufferBasedAbr(cushion_s=0.0)


class TestFestive:
    def test_first_chunk_is_lowest(self):
        assert FestiveAbr().choose(_ctx(samples=[10.0])) == DEFAULT_LADDER.lowest

    def test_upgrade_needs_patience(self):
        abr = FestiveAbr(up_patience=3)
        ctx = _ctx(samples=[10.0], last=1.5)
        assert abr.choose(ctx) == 1.5     # vote 1
        assert abr.choose(ctx) == 1.5     # vote 2
        assert abr.choose(ctx) == 3.0     # vote 3 -> one rung up

    def test_downgrade_is_immediate_but_single_step(self):
        abr = FestiveAbr()
        chosen = abr.choose(_ctx(samples=[0.3], last=6.0))
        assert chosen == 3.0  # one rung down from 6.0

    def test_downgrade_resets_up_votes(self):
        abr = FestiveAbr(up_patience=2)
        up_ctx = _ctx(samples=[10.0], last=1.5)
        abr.choose(up_ctx)                       # vote 1
        abr.choose(_ctx(samples=[0.3], last=1.5))  # down -> reset
        assert abr.choose(up_ctx) == 1.5           # vote 1 again

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FestiveAbr(safety=2.0)
        with pytest.raises(ValueError):
            FestiveAbr(up_patience=0)


class TestBola:
    def test_empty_buffer_is_lowest(self):
        assert BolaAbr().choose(_ctx(buffer=0.0)) == DEFAULT_LADDER.lowest

    def test_monotone_in_buffer(self):
        abr = BolaAbr()
        chosen = [
            abr.choose(_ctx(buffer=level)) for level in (0.0, 4.0, 8.0, 12.0, 18.0)
        ]
        assert chosen == sorted(chosen)

    def test_reaches_top_at_target(self):
        abr = BolaAbr(buffer_target_s=20.0)
        assert abr.choose(_ctx(buffer=20.0)) == DEFAULT_LADDER.highest

    def test_ignores_throughput(self):
        abr = BolaAbr()
        assert abr.choose(_ctx(samples=[100.0], buffer=2.0)) == abr.choose(
            _ctx(samples=[0.1], buffer=2.0)
        )

    def test_cap_applies(self):
        assert BolaAbr().choose(_ctx(buffer=25.0, cap=1.5)) == 1.5

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BolaAbr(gamma_p=0.0)
        with pytest.raises(ValueError):
            BolaAbr(buffer_target_s=-1.0)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), max_size=8),
        st.floats(min_value=0.0, max_value=60.0),
        st.sampled_from(DEFAULT_LADDER.bitrates_mbps),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_always_on_ladder_and_capped(self, samples, buffer, last, cap):
        for abr in (RateBasedAbr(), BufferBasedAbr(), FestiveAbr(), BolaAbr()):
            chosen = abr.choose(_ctx(samples=samples, buffer=buffer, last=last, cap=cap))
            assert chosen in DEFAULT_LADDER
            assert chosen <= max(cap, DEFAULT_LADDER.lowest)
