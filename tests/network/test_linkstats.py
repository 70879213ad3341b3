"""Link statistics integration and congestion detection hysteresis."""

import pytest

from repro.network.linkstats import CongestionDetector, LinkTable
from repro.network.topology import Link


def _one_link(capacity_mbps):
    """A one-link table and the stats view of its link."""
    table = LinkTable([Link("l", "a", "b", capacity_mbps=capacity_mbps)])
    return table, table.stats("l")


class TestLinkStats:
    def test_piecewise_integration(self):
        table, stats = _one_link(10.0)
        table.load[1] = 5.0
        table.advance(2.0)   # 5 Mbps for 2 s -> 10 Mbit
        table.load[1] = 10.0
        table.advance(3.0)   # 10 Mbps for 1 s -> 10 Mbit
        assert stats.mbit_carried == pytest.approx(20.0)
        assert stats.mean_utilization == pytest.approx(20.0 / 30.0)
        assert type(stats.mbit_carried) is float

    def test_busy_fraction(self):
        table, stats = _one_link(10.0)
        table.load[1] = 10.0
        table.advance(1.0)
        table.load[1] = 1.0
        table.advance(2.0)
        assert stats.busy_seconds == 1.0
        assert stats.congested_fraction == pytest.approx(0.5)

    def test_time_backwards_rejected(self):
        table, _ = _one_link(10.0)
        table.advance(5.0)
        with pytest.raises(ValueError):
            table.advance(4.0)

    def test_utilization_instantaneous(self):
        table, stats = _one_link(10.0)
        table.load[1] = 2.5
        assert stats.utilization == 0.25
        assert type(stats.current_load_mbps) is float


class TestCongestionDetector:
    def test_triggers_above_threshold(self):
        detector = CongestionDetector(threshold=0.9, alpha=1.0)
        assert not detector.observe(0.5)
        assert detector.observe(0.95)

    def test_hysteresis_holds_until_clear_threshold(self):
        detector = CongestionDetector(threshold=0.9, clear_threshold=0.5, alpha=1.0)
        detector.observe(0.95)
        assert detector.observe(0.7)      # between thresholds: still congested
        assert not detector.observe(0.4)  # below clear: released

    def test_ewma_smooths_spikes(self):
        detector = CongestionDetector(threshold=0.9, alpha=0.3)
        # One spike must not trigger with low alpha.
        assert not detector.observe(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CongestionDetector(threshold=0.0)
        with pytest.raises(ValueError):
            CongestionDetector(alpha=0.0)
        with pytest.raises(ValueError):
            CongestionDetector(threshold=0.5, clear_threshold=0.9)
