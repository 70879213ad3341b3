"""The sanctioned host-clock read."""

from __future__ import annotations

from repro.obs.profile import wall_clock


class TestWallClock:
    def test_is_monotonic(self):
        first = wall_clock()
        second = wall_clock()
        assert second >= first
