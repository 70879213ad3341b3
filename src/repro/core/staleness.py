"""Explicit staleness for exported state (§5 "dealing with staleness").

Looking-glass answers are not live reads of the producer's internals:
the producer refreshes a published snapshot on a period, and queries
see the snapshot plus its age.  Control logic that consumes EONA data
must tolerate this lag; experiment E6 sweeps the refresh period to
measure how much of EONA's benefit survives staleness.
"""

from __future__ import annotations

from typing import Callable, Generic, Optional, Tuple, TypeVar

from repro.simkernel.kernel import Simulator
from repro.simkernel.processes import PeriodicProcess

ValueT = TypeVar("ValueT")


class StaleView(Generic[ValueT]):
    """A periodically refreshed snapshot of a producer-side value.

    Args:
        sim: Simulator (provides the clock and the refresh process).
        fetch: Zero-argument producer of the current true value.
        refresh_period_s: Snapshot interval.  ``0`` means live (no
            staleness): every query re-fetches.
        publish_delay_s: Extra delay between when a snapshot is taken
            and when queries see it (propagation/processing lag).
    """

    def __init__(
        self,
        sim: Simulator,
        fetch: Callable[[], ValueT],
        refresh_period_s: float = 0.0,
        publish_delay_s: float = 0.0,
    ):
        if refresh_period_s < 0 or publish_delay_s < 0:
            raise ValueError("periods must be non-negative")
        self.sim = sim
        self.fetch = fetch
        self.refresh_period_s = refresh_period_s
        self.publish_delay_s = publish_delay_s
        self._value: Optional[ValueT] = None
        self._taken_at: float = sim.now
        self._visible_at: float = sim.now
        self._process: Optional[PeriodicProcess] = None
        if refresh_period_s > 0:
            self._refresh()
            self._process = PeriodicProcess(
                sim, refresh_period_s, self._refresh, name="stale-view"
            )

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()

    def get(self) -> Tuple[ValueT, float]:
        """Return ``(value, age_seconds)`` as a querier sees it."""
        value, age, _published = self.read()
        return value, age

    def read(self) -> Tuple[ValueT, float, bool]:
        """:meth:`get` plus whether the value is the published snapshot.

        ``published`` is False for a live read: a zero period, or the
        fallback inside the first publish delay.  A published value is
        the same object on every read until the next publish.
        """
        if self.refresh_period_s <= 0:
            return self.fetch(), 0.0, False
        if self._value is None or self.sim.now < self._visible_at:
            # Nothing published yet (only possible inside the first
            # publish delay); fall back to a live read with zero age so
            # consumers need no special bootstrap case.
            return self.fetch(), 0.0, False
        return self._value, self.sim.now - self._taken_at, True

    def value(self) -> ValueT:
        return self.get()[0]

    def age(self) -> float:
        return self.get()[1]

    def _refresh(self) -> None:
        snapshot = self.fetch()
        taken_at = self.sim.now

        def publish() -> None:
            self._value = snapshot
            self._taken_at = taken_at
            self._visible_at = self.sim.now

        if self.publish_delay_s > 0:
            self.sim.schedule(self.publish_delay_s, publish)
        else:
            publish()
