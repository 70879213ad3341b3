"""Flow object state machine and progress accounting."""

import math

import pytest

from repro.network.flows import Flow, FlowState
from repro.network.topology import Link


def _link():
    return Link("l", "a", "b", capacity_mbps=10.0)


class TestValidation:
    def test_non_positive_demand_rejected(self):
        for demand in (0.0, math.nan):
            with pytest.raises(ValueError):
                Flow("f", "a", "b", [], demand_mbps=demand)

    def test_negative_size_rejected(self):
        for size in (-1.0, math.nan):
            with pytest.raises(ValueError):
                Flow("f", "a", "b", [], size_mbit=size)


class TestProgress:
    def test_finite_transfer_decrements(self):
        flow = Flow("f", "a", "b", [_link()], size_mbit=10.0)
        flow.rate_mbps = 2.0
        delivered = flow.progress(3.0)
        assert delivered == 6.0
        assert flow.remaining_mbit == 4.0

    def test_progress_clamps_at_zero_remaining(self):
        flow = Flow("f", "a", "b", [_link()], size_mbit=5.0)
        flow.rate_mbps = 10.0
        delivered = flow.progress(100.0)
        assert delivered == 5.0
        assert flow.remaining_mbit == 0.0

    def test_time_backwards_rejected(self):
        flow = Flow("f", "a", "b", [])
        flow.progress(5.0)
        with pytest.raises(ValueError):
            flow.progress(4.0)

    def test_persistent_flow_never_finishes(self):
        flow = Flow("f", "a", "b", [_link()], demand_mbps=3.0)
        flow.rate_mbps = 3.0
        flow.progress(1000.0)
        assert flow.remaining_mbit == math.inf
        assert flow.eta(1000.0) == math.inf


class TestEta:
    def test_eta_from_rate(self):
        flow = Flow("f", "a", "b", [_link()], size_mbit=10.0)
        flow.rate_mbps = 2.0
        assert flow.eta(now=1.0) == 6.0

    def test_eta_zero_rate_is_inf(self):
        flow = Flow("f", "a", "b", [_link()], size_mbit=10.0)
        assert flow.eta(0.0) == math.inf

    def test_done_reflects_state(self):
        flow = Flow("f", "a", "b", [])
        assert not flow.done
        flow.state = FlowState.ABORTED
        assert flow.done
