"""The discrete-event simulator.

A :class:`Simulator` owns the clock and the event queue.  Components
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the main loop fires
them in time order.  The simulator never advances time except by
executing events, so the clock is exact and deterministic.

:meth:`Simulator.at_instant_end` registers work that must see the
outcome of every event at the current time, such as a network that
re-solves its rates once per instant rather than once per change.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.simkernel.events import EventHandle, EventQueue
from repro.simkernel.rngstreams import RngStreams

#: Signature of a dispatch hook: ``hook(now, fn, args)``.  The hook takes
#: over execution of the event -- it must call ``fn(*args)`` itself.
DispatchHook = Callable[[float, Callable[..., Any], Tuple[Any, ...]], None]


class SimError(RuntimeError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class Simulator:
    """Event-driven simulator with a float-seconds clock.

    Args:
        seed: Root seed for the simulator's named RNG streams.

    Example:
        >>> sim = Simulator(seed=1)
        >>> fired = []
        >>> _ = sim.schedule(2.0, fired.append, "a")
        >>> _ = sim.schedule(1.0, fired.append, "b")
        >>> sim.run()
        >>> fired
        ['b', 'a']
    """

    #: Hook copied onto new instances at construction.  The kernel knows
    #: nothing about observers; the repository benchmark (see
    #: ``perfbench/README.md``) installs its per-layer timing hook here.
    #: ``None`` (the default) keeps dispatch a direct call.
    default_dispatch_hook: Optional[DispatchHook] = None

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self.rng = RngStreams(seed)
        self._events_executed = 0
        self._running = False
        self._dispatch_hook: Optional[DispatchHook] = type(self).default_dispatch_hook
        self._instant_end: List[Callable[[], Any]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (for bench/introspection)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay!r})")
        return self._queue.push(self._now + delay, fn, args, priority)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimError(
                f"cannot schedule into the past (time={time!r} < now={self._now!r})"
            )
        return self._queue.push(time, fn, args, priority)

    def at_instant_end(self, fn: Callable[[], Any]) -> None:
        """Call ``fn()`` once the current instant has no events left.

        Registered callbacks run in registration order, after the last
        event at the current time and before the clock moves or
        :meth:`run` returns.  They are kernel bookkeeping, not events:
        the dispatch hook never sees them and :attr:`events_executed`
        does not count them.  Work they schedule at delay 0 runs in the
        same instant, followed by any callbacks registered meanwhile.
        A run stopped by ``max_events`` leaves them pending for the next
        :meth:`run`.
        """
        self._instant_end.append(fn)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Execute events in time order.

        Args:
            until: Stop once the clock would pass this time; the clock is
                left at ``until`` (events at exactly ``until`` do fire).
            max_events: Stop after executing this many events (a guard
                against runaway feedback loops in experiments).

        Returns:
            The simulated time when the run stopped.
        """
        if self._running:
            raise SimError("run() called re-entrantly from within an event")
        self._running = True
        executed = 0
        hook = self._dispatch_hook
        instant_end = self._instant_end
        heap = self._queue.heap
        heappop = heapq.heappop
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                while heap and heap[0][3].cancelled:
                    heappop(heap)
                if instant_end and (not heap or heap[0][0] > self._now):
                    callbacks = instant_end[:]
                    instant_end.clear()
                    for fn in callbacks:
                        fn()
                    continue
                if not heap:
                    if until is not None:
                        self._now = max(self._now, until)
                    break
                if until is not None and heap[0][0] > until:
                    self._now = until
                    break
                self._now, _, _, event = heappop(heap)
                if hook is None:
                    event.fn(*event.args)
                else:
                    hook(self._now, event.fn, event.args)
                self._events_executed += 1
                executed += 1
        finally:
            self._running = False
        return self._now

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current time (after pending same-time events)."""
        return self.schedule(0.0, fn, *args)
