"""Simulator clock semantics, run bounds, and error handling."""

import pytest

from repro.simkernel.kernel import SimError, Simulator


class TestScheduling:
    def test_schedule_relative(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_schedule_absolute(self, sim):
        fired = []
        sim.schedule_at(7.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.schedule_at(5.0, lambda: None)

    def test_nested_scheduling_from_event(self, sim):
        fired = []

        def first():
            sim.schedule(1.0, lambda: fired.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [2.0]

    def test_call_soon_runs_at_current_time(self, sim):
        fired = []
        sim.schedule(3.0, lambda: sim.call_soon(lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [3.0]


class TestRunBounds:
    def test_run_until_stops_clock_exactly(self, sim):
        sim.schedule(100.0, lambda: None)
        stopped = sim.run(until=30.0)
        assert stopped == 30.0
        assert sim.now == 30.0
        assert sim.pending_events == 1

    def test_events_at_until_boundary_fire(self, sim):
        fired = []
        sim.schedule(30.0, lambda: fired.append(True))
        sim.run(until=30.0)
        assert fired == [True]

    def test_max_events_guard(self, sim):
        count = [0]

        def loop():
            count[0] += 1
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        sim.run(max_events=10)
        assert count[0] == 10

    def test_run_empty_advances_to_until(self, sim):
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_clock_monotone_over_run(self, sim):
        times = []
        for delay in (5.0, 1.0, 3.0, 1.0):
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)

    def test_reentrant_run_rejected(self, sim):
        def inner():
            with pytest.raises(SimError):
                sim.run()

        sim.schedule(1.0, inner)
        sim.run()


class TestDeterminism:
    def test_identical_seeds_identical_draws(self):
        a = Simulator(seed=7).rng.get("x").random()
        b = Simulator(seed=7).rng.get("x").random()
        assert a == b

    def test_events_executed_counter(self, sim):
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 4



class TestDispatchHook:
    """The seam an external timer (the repository benchmark) installs into."""

    def test_hook_sees_every_event_and_preserves_behavior(self):
        log, seen = [], []

        def hook(now, fn, args):
            seen.append(now)
            fn(*args)

        Simulator.default_dispatch_hook = hook
        try:
            sim = Simulator(seed=0)
        finally:
            Simulator.default_dispatch_hook = None
        sim.schedule(2.0, log.append, 2)
        sim.schedule(1.0, log.append, 1)
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert log == [1, 2]
        assert seen == [1.0, 2.0, 3.0]

    def test_existing_simulators_are_untouched(self):
        before = Simulator(seed=0)
        seen = []
        Simulator.default_dispatch_hook = lambda now, fn, args: seen.append(now)
        try:
            before.schedule(1.0, lambda: None)
            before.run()
        finally:
            Simulator.default_dispatch_hook = None
        assert seen == []
