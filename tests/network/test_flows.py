"""Flow object state machine, and the engine's progress and ETA passes."""

import math

import pytest

from repro.network.allocator import AllocationEngine
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


def _engine_with(flow, demand=None):
    """Register ``flow`` and solve, so its rate is min(demand, link)."""
    engine = AllocationEngine()
    engine.add_flow(flow)
    if demand is not None:
        flow.demand_mbps = demand
        engine.invalidate()
    engine.solve()
    return engine


class TestProgress:
    def test_finite_transfer_decrements(self):
        flow = Flow("f", "a", "b", [_link()], size_mbit=10.0)
        engine = _engine_with(flow, demand=2.0)
        assert flow.rate_mbps == 2.0
        engine.progress(3.0)
        assert flow.size_mbit - flow.remaining_mbit == 6.0
        assert flow.remaining_mbit == 4.0

    def test_progress_clamps_at_zero_remaining(self):
        flow = Flow("f", "a", "b", [_link()], size_mbit=5.0)
        engine = _engine_with(flow)
        assert flow.rate_mbps == 10.0
        engine.progress(100.0)
        assert flow.remaining_mbit == 0.0
        assert engine.finished_flows() == [flow]

    def test_time_backwards_rejected(self):
        engine = _engine_with(Flow("f", "a", "b", []))
        engine.progress(5.0)
        with pytest.raises(ValueError):
            engine.progress(4.0)

    def test_persistent_flow_never_finishes(self):
        flow = Flow("f", "a", "b", [_link()], demand_mbps=3.0)
        engine = _engine_with(flow)
        assert flow.rate_mbps == 3.0
        engine.progress(1000.0)
        assert flow.remaining_mbit == math.inf
        assert engine.next_completion(1000.0) == math.inf
        assert engine.finished_flows() == []


class TestEta:
    def test_eta_from_rate(self):
        flow = Flow("f", "a", "b", [_link()], size_mbit=10.0)
        engine = _engine_with(flow, demand=2.0)
        assert engine.next_completion(now=1.0) == 6.0

    def test_eta_zero_rate_is_inf(self):
        engine = AllocationEngine()
        engine.add_flow(Flow("f", "a", "b", [_link()], size_mbit=10.0))
        assert engine.next_completion(0.0) == math.inf

    def test_done_reflects_state(self):
        flow = Flow("f", "a", "b", [])
        assert not flow.done
        flow.state = FlowState.ABORTED
        assert flow.done
