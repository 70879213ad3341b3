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


class TestInstantEnd:
    def test_runs_after_every_same_time_event(self, sim):
        log = []

        def first():
            log.append("first")
            sim.at_instant_end(lambda: log.append(("end", sim.now)))
            # Queued by an earlier event at the same time: runs first.
            sim.call_soon(log.append, "queued")

        sim.schedule(1.0, first)
        sim.schedule(1.0, log.append, "second")
        sim.schedule(2.0, log.append, "later")
        sim.run()
        assert log == ["first", "second", "queued", ("end", 1.0), "later"]

    def test_runs_once_in_registration_order(self, sim):
        log = []
        sim.schedule(1.0, sim.at_instant_end, lambda: log.append("a"))
        sim.schedule(1.0, sim.at_instant_end, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b"]
        sim.run()
        assert log == ["a", "b"]

    def test_runs_before_run_until_returns(self, sim):
        log = []
        sim.schedule(1.0, sim.at_instant_end, lambda: log.append(sim.now))
        sim.schedule(9.0, log.append, "late")
        assert sim.run(until=5.0) == 5.0
        assert log == [1.0]

    def test_registered_outside_run_runs_before_the_clock_moves(self, sim):
        log = []
        sim.at_instant_end(lambda: log.append(("end", sim.now)))
        sim.schedule(0.0, log.append, "now")
        sim.schedule(1.0, log.append, "later")
        sim.run()
        assert log == ["now", ("end", 0.0), "later"]

    def test_runs_with_an_empty_queue(self, sim):
        log = []
        sim.at_instant_end(lambda: log.append(sim.now))
        assert sim.run() == 0.0
        assert log == [0.0]

    def test_delay_zero_work_runs_in_the_same_instant(self, sim):
        log = []

        def settle():
            log.append(("settle", sim.now))
            sim.schedule(0.0, follow_up)

        def follow_up():
            log.append(("follow-up", sim.now))
            sim.at_instant_end(lambda: log.append(("again", sim.now)))

        sim.schedule(1.0, sim.at_instant_end, settle)
        sim.schedule(2.0, log.append, "later")
        sim.run()
        assert log == [("settle", 1.0), ("follow-up", 1.0), ("again", 1.0), "later"]

    def test_max_events_stop_leaves_it_pending(self, sim):
        log = []

        def event():
            log.append("event")
            sim.at_instant_end(lambda: log.append("end"))

        sim.schedule(1.0, event)
        sim.schedule(1.0, log.append, "second")
        sim.run(max_events=1)
        assert log == ["event"]
        sim.run(max_events=1)
        assert log == ["event", "second"]
        sim.run(max_events=0)
        assert log == ["event", "second"]
        sim.run()
        assert log == ["event", "second", "end"]

    def test_not_counted_and_not_dispatched(self):
        seen = []
        Simulator.default_dispatch_hook = lambda now, fn, args: (seen.append(fn), fn(*args))
        try:
            sim = Simulator(seed=0)
        finally:
            Simulator.default_dispatch_hook = None
        log = []

        def end():
            log.append("end")

        sim.schedule(1.0, sim.at_instant_end, end)
        sim.run()
        assert log == ["end"]
        assert sim.events_executed == 1
        assert end not in seen and len(seen) == 1
        assert sim.pending_events == 0
