"""Flow objects shared by the allocator and the fluid simulator."""

from __future__ import annotations

import enum
import math
from typing import List, Optional

from repro.network.topology import Link


class FlowState(enum.Enum):
    ACTIVE = "active"
    COMPLETED = "completed"
    ABORTED = "aborted"


class Flow:
    """A fluid flow along a fixed path of links.

    A flow is either a *finite transfer* (``size_mbit`` set; it completes
    when the remaining volume reaches zero) or a *persistent stream*
    (``size_mbit`` is ``None``; it runs until aborted).  ``demand_mbps``
    caps the rate the flow will use even when the network could give it
    more (e.g. a video player pacing at the encoded bitrate).

    Attributes:
        flow_id: Unique identifier.
        path: Links traversed, in order.  May be empty for co-located
            endpoints, in which case the flow is never bottlenecked.
        demand_mbps: Rate cap in Mbit/s (``math.inf`` = unconstrained).
        rate_mbps: Current allocated rate, set by the allocator.
        weight: Fair-share weight.  A flow of weight *w* receives *w*
            times the rate of a weight-1 flow sharing its bottleneck,
            which is how an aggregate (e.g. a cohort of *w* sessions)
            competes as *w* individual flows would.
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "path",
        "demand_mbps",
        "weight",
        "size_mbit",
        "remaining_mbit",
        "rate_mbps",
        "state",
        "started_at",
        "finished_at",
        "last_progress_at",
        "owner",
    )

    def __init__(
        self,
        flow_id: str,
        src: str,
        dst: str,
        path: List[Link],
        demand_mbps: float = math.inf,
        size_mbit: Optional[float] = None,
        owner: str = "",
        weight: float = 1.0,
    ) -> None:
        if not demand_mbps > 0:
            raise ValueError(f"flow {flow_id}: demand must be positive")
        if size_mbit is not None and not size_mbit >= 0:
            raise ValueError(f"flow {flow_id}: size must be non-negative")
        if weight <= 0 or not math.isfinite(weight):
            raise ValueError(f"flow {flow_id}: weight must be positive and finite")
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.path = list(path)
        self.demand_mbps = demand_mbps
        self.weight = weight
        self.size_mbit = size_mbit
        self.remaining_mbit = size_mbit if size_mbit is not None else math.inf
        self.rate_mbps = 0.0
        self.state = FlowState.ACTIVE
        self.started_at = 0.0
        self.finished_at: Optional[float] = None
        self.last_progress_at = 0.0
        self.owner = owner

    @property
    def is_finite(self) -> bool:
        return self.size_mbit is not None

    @property
    def done(self) -> bool:
        return self.state is not FlowState.ACTIVE

    def progress(self, now: float) -> float:
        """Advance the transfer to ``now`` at the current rate.

        Returns the volume (Mbit) delivered since the last progress call.
        """
        elapsed = now - self.last_progress_at
        if elapsed < 0:
            raise ValueError(f"flow {self.flow_id}: time moved backwards")
        delivered = self.rate_mbps * elapsed
        if self.is_finite:
            delivered = min(delivered, self.remaining_mbit)
            self.remaining_mbit -= delivered
        self.last_progress_at = now
        return delivered

    def eta(self, now: float) -> float:
        """Predicted completion time at the current rate (may be ``inf``)."""
        if not self.is_finite or self.rate_mbps <= 0:
            return math.inf
        return now + self.remaining_mbit / self.rate_mbps

    def __repr__(self) -> str:
        return (
            f"Flow({self.flow_id}, {self.src}->{self.dst}, "
            f"rate={self.rate_mbps:.2f}Mbps, state={self.state.value})"
        )
