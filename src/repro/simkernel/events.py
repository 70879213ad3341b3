"""Event objects and the time-ordered event queue.

Events are ordered by ``(time, priority, sequence)``.  The sequence
number breaks ties deterministically, so two runs with the same seed
schedule identical histories -- a property the reproduction experiments
rely on and the test suite checks.  The queue's heap holds plain
``(time, priority, seq, event)`` tuples, so every sift compares in C;
``seq`` is unique, so the comparison never reaches the event.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple


@dataclass(order=True)
class Event:
    """A single scheduled callback.

    Attributes:
        time: Simulated time at which the event fires.
        priority: Lower fires first among events at the same time.
        seq: Monotone tie-breaker assigned by the queue.
        fn: Callback invoked as ``fn(*args)`` when the event fires.
        args: Positional arguments for ``fn``.
        cancelled: Set by :meth:`EventHandle.cancel`; cancelled events
            are skipped (and discarded) when popped.
    """

    time: float
    priority: int
    seq: int
    fn: Callable[..., Any] = field(compare=False)
    args: Tuple[Any, ...] = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Simulated time the event will fire (or would have)."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._event.cancelled = True


#: A heap entry: ``(time, priority, seq, event)``.
Entry = Tuple[float, int, int, Event]


class EventQueue:
    """A heap of events ordered by (time, priority, insertion order).

    Attributes:
        heap: The :mod:`heapq` heap of :data:`Entry` tuples, cancelled
            events included until they reach the head.  The simulator's
            main loop reads and pops it directly.
    """

    def __init__(self) -> None:
        self.heap: list[Entry] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for entry in self.heap if not entry[3].cancelled)

    def __bool__(self) -> bool:
        return any(not entry[3].cancelled for entry in self.heap)

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at ``time`` and return a handle."""
        seq = next(self._counter)
        event = Event(time=time, priority=priority, seq=seq, fn=fn, args=args)
        heapq.heappush(self.heap, (time, priority, seq, event))
        return EventHandle(event)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._drop_cancelled_head()
        if not self.heap:
            return None
        return self.heap[0][0]

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        self._drop_cancelled_head()
        if not self.heap:
            return None
        return heapq.heappop(self.heap)[3]

    def _drop_cancelled_head(self) -> None:
        heap = self.heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
