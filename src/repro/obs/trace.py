"""Deterministic, sim-time-stamped event tracing.

One process-global :data:`TRACER` answers "why did the control plane do
that at t=412s?".  Instrumentation sites guard every emission with::

    if TRACER.enabled:
        TRACER.emit("cdn-switch", session=..., to_cdn=...)

so disabled tracing (the default) costs exactly one attribute check.
Events are stamped with *simulated* time through a clock bound by
:func:`repro.core.context.build_context`, carry only run-deterministic
fields, and serialize with sorted keys -- two traced runs of the same
seed therefore produce byte-identical JSONL.

Event taxonomy (DESIGN.md §9): ``a2i-report``, ``i2a-hint``,
``cdn-switch``, ``infp-reroute``, ``allocator-solve``,
``phase-transition``, ``scenario-built``, plus ``span`` records from
:meth:`Tracer.span`.  The causal-span layer (DESIGN.md §13) adds
``agg-flush``, ``bitrate-cap``, ``server-switch``, and
``qoe-recovery``, and threads ``cause``/``parent``/``parents`` fields
through the loop events so :mod:`repro.obs.spans` can rebuild the
beacon → flush → hint → action → recovery chain from a trace alone.
Cause IDs are minted *only* by :meth:`Tracer.new_cause` -- a per-enable
monotonic counter, so same-seed runs assign identical IDs (the
span-discipline simlint rule enforces the seam).

Forked ``multiseed`` workers inherit an enabled tracer; an interleaved
multi-process trace would be nondeterministic, so the worker entry point
calls :meth:`Tracer.deactivate_inherited`, which disables any tracer
enabled by a *different* process.  A worker that wants its own trace
simply calls :meth:`Tracer.enable` again.
"""

from __future__ import annotations

import json
import os
from collections import deque
from contextlib import contextmanager
from typing import (
    IO,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
)

#: Default ring-buffer capacity (events kept in memory; a JSONL sink
#: receives every event regardless).
DEFAULT_CAPACITY = 65536


def _zero_clock() -> float:
    return 0.0


class TraceOrderError(RuntimeError):
    """An event was emitted at an earlier sim time than its predecessor.

    Sim time within one world is monotone, so this always means a stale
    clock: a new world was built without :func:`~repro.core.context.
    build_context` rebinding the tracer's clock, or two worlds are
    interleaving into one trace.  Either would silently corrupt span
    reconstruction, so it is rejected loudly at the emission site.
    """


class Tracer:
    """Bounded ring buffer of structured events with an optional sink.

    Attributes:
        enabled: The one hot-path flag; instrumentation sites read it
            before building any event payload.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._clock: Callable[[], float] = _zero_clock
        self._events: Deque[Dict[str, object]] = deque(maxlen=DEFAULT_CAPACITY)
        self._sink: Optional[IO[str]] = None
        self._sink_path: Optional[str] = None
        self._owner_pid: Optional[int] = None
        self.emitted = 0
        self._next_cause = 0
        self._watermark_t: Optional[float] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink: Optional[str] = None,
    ) -> None:
        """Start tracing into a fresh buffer (and optional JSONL file).

        Args:
            capacity: Ring-buffer size; older events fall off the front.
            sink: Path of a JSONL file receiving *every* event (the ring
                buffer only bounds in-memory retention).
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.close()
        self._events = deque(maxlen=capacity)
        self.emitted = 0
        self._next_cause = 0
        self._watermark_t = None
        if sink is not None:
            directory = os.path.dirname(sink)
            if directory:
                os.makedirs(directory, exist_ok=True)
            # Line-buffered: every event reaches the file as soon as it
            # is emitted, so a fork-inherited copy of this handle holds
            # no unflushed lines to replay at child exit, and a crashed
            # run's trace is complete up to the crash.
            self._sink = open(sink, "w", encoding="utf-8", buffering=1)
            self._sink_path = sink
        self._owner_pid = os.getpid()
        self.enabled = True

    def disable(self) -> None:
        """Stop tracing; buffered events stay readable, the sink closes."""
        self.enabled = False
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def close(self) -> None:
        """Disable and drop all buffered state, counters, and the clock."""
        self.disable()
        self._events.clear()
        self._sink_path = None
        self._owner_pid = None
        self.emitted = 0
        self._next_cause = 0
        self._watermark_t = None
        self._clock = _zero_clock

    def deactivate_inherited(self) -> None:
        """Make a fork-inherited tracer inert (multiseed worker guard).

        A worker process inherits ``enabled`` and the parent's open sink
        handle; writing through it would interleave processes into one
        file.  If this tracer was enabled by a different pid, drop the
        handle *without* closing it (the parent owns the descriptor's
        buffered state) and disable.  No-op in the enabling process.
        """
        if self.enabled and self._owner_pid != os.getpid():
            self._sink = None
            self._sink_path = None
            self.enabled = False
            self._events.clear()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Stamp subsequent events with ``clock()`` (the sim's ``now``).

        :func:`repro.core.context.build_context` binds every new world's
        simulator here, so sequentially built worlds (the usual
        experiment pattern) each stamp their own events correctly.
        Rebinding resets the monotonicity watermark: the new world's sim
        time legitimately restarts at 0.
        """
        self._clock = clock
        self._watermark_t = None

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def new_cause(self) -> int:
        """Mint the next causal span ID (monotone within one enable).

        Every loop event that can *cause* a downstream event carries a
        ``cause`` field minted here; downstream events point back with
        ``parent`` (or ``parents`` for fan-in like an aggregation
        flush).  The counter restarts at 1 on :meth:`enable`/:meth:`close`,
        so same-seed runs mint identical IDs -- the byte-identical span
        gate depends on it.  This is the only sanctioned minting site
        (simlint's span-discipline rule).
        """
        self._next_cause += 1
        return self._next_cause

    def emit(self, kind: str, **fields: object) -> None:
        """Record one event at the current simulated time.

        Raises:
            TraceOrderError: If the bound clock went backwards since the
                last emission (stale clock from an unbound world).
        """
        now = self._clock()
        if self._watermark_t is not None and now < self._watermark_t:
            raise TraceOrderError(
                f"out-of-order trace event {kind!r}: t={now:g} is earlier "
                f"than the last emission at t={self._watermark_t:g}; a new "
                "world must rebind the tracer clock (build_context does "
                "this) before emitting"
            )
        self._watermark_t = now
        event: Dict[str, object] = {"t": now, "kind": kind}
        event.update(fields)
        self._events.append(event)
        self.emitted += 1
        if self._sink is not None:
            self._sink.write(json.dumps(event, sort_keys=True, default=str))
            self._sink.write("\n")

    @contextmanager
    def span(self, kind: str, **fields: object) -> Iterator[None]:
        """Emit one event covering a sim-time interval (``t`` .. ``t_end``).

        The event is recorded at *exit* so ``dur`` (simulated seconds
        spent inside the span) is known; spans are for control actions
        that advance the clock, not for wall-clock timing (the repository
        benchmark, ``perfbench/``, times layers from outside the program).
        """
        started = self._clock()
        try:
            yield
        finally:
            ended = self._clock()
            self.emit(kind, t_start=started, dur=ended - started, **fields)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def events(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        """Buffered events in emission order, optionally one kind only."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event["kind"] == kind]

    def kind_counts(self) -> Dict[str, int]:
        """How many buffered events of each kind (sorted by kind)."""
        counts: Dict[str, int] = {}
        for event in self._events:
            name = str(event["kind"])
            counts[name] = counts.get(name, 0) + 1
        return {name: counts[name] for name in sorted(counts)}

    def to_jsonl(self) -> str:
        """The buffered events as JSONL (sorted keys: byte-stable)."""
        return "".join(
            json.dumps(event, sort_keys=True, default=str) + "\n"
            for event in self._events
        )

    @property
    def sink_path(self) -> Optional[str]:
        return self._sink_path


#: The process-global tracer.  Import the module or this name directly
#: (``from repro.obs.trace import TRACER``); it is never reassigned, so
#: both import styles observe enable/disable.
TRACER = Tracer()
