"""Per-link load accounting and congestion detection.

These statistics are the InfP's *internal* view of its network: they
feed the SDN stats service, the traffic-engineering app, and -- when
the InfP opts in -- the EONA-I2A congestion hints.  They live in the
allocation engine's :class:`LinkTable`; a :class:`LinkStats` is a view
of one of its rows.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np
import numpy.typing as npt

from repro.network.topology import Link


def _settled() -> None:
    """The settle hook of a table no network drives: nothing is pending."""


class LinkTable:
    """Per-link columns of an allocation engine, one row per link.

    Row 0 (:data:`~repro.network.maxmin.NO_LINK`) is an uncapacitated
    stand-in (the padding of path matrices); every other row is a link,
    in the order first seen (a network seeds its topology's links in
    topology order).  Columns: capacity, current load, a touched mark
    (the load may have moved since the last solve), Mbit carried and
    seconds near saturation.  Every row is advanced together, so one
    clock and one observed-time total serve them all.  The columns are
    exactly one entry per row: links are appended rarely (a network
    seeds its table once), and whole-array passes need no slicing.

    :attr:`settle` is called before any load is read through a
    :class:`LinkStats` view, so a rate change still pending in the
    current instant lands first.
    """

    def __init__(self, links: Iterable[Link] = ()) -> None:
        self.links: List[Link] = [Link("", "", "", capacity_mbps=math.inf)]
        self.index: Dict[str, int] = {}
        self.capacity: npt.NDArray[np.float64] = np.full(1, math.inf)
        self.load: npt.NDArray[np.float64] = np.zeros(1)
        self.touched: npt.NDArray[np.bool_] = np.zeros(1, dtype=np.bool_)
        self.mbit_carried: npt.NDArray[np.float64] = np.zeros(1)
        self.busy_seconds: npt.NDArray[np.float64] = np.zeros(1)
        self.observed_seconds = 0.0
        self.time = 0.0
        self.settle: Callable[[], None] = _settled
        for link in links:
            self.slot(link)

    def __len__(self) -> int:
        return len(self.links)

    def slot(self, link: Link) -> int:
        """Row of ``link``, appending it on first sight."""
        row = self.index.get(link.link_id)
        if row is None:
            row = self.index[link.link_id] = len(self.links)
            self.links.append(link)
            self.capacity = np.append(self.capacity, link.capacity_mbps)
            self.load = np.append(self.load, 0.0)
            self.touched = np.append(self.touched, False)
            self.mbit_carried = np.append(self.mbit_carried, 0.0)
            self.busy_seconds = np.append(self.busy_seconds, 0.0)
        return row

    def read_capacities(self) -> None:
        """Re-read every link's capacity from its :class:`Link`."""
        self.capacity[:] = [link.capacity_mbps for link in self.links]

    def advance(self, now: float) -> None:
        """Integrate every row's current load up to ``now``.

        Loads are piecewise constant between solves, so the integrals
        are exact when this runs at every time a load changes.
        """
        elapsed = now - self.time
        if elapsed < 0:
            raise ValueError(f"link table: time moved backwards ({now!r} < {self.time!r})")
        if elapsed > 0:
            load = self.load
            self.mbit_carried += load * elapsed
            self.observed_seconds += elapsed
            busy = self.busy_seconds
            np.add(busy, elapsed, out=busy, where=load >= 0.95 * self.capacity)
            self.time = now

    def stats(self, link_id: str) -> "LinkStats":
        """A :class:`LinkStats` view of the row of ``link_id``."""
        return LinkStats(self, self.index[link_id])


class LinkStats:
    """Time-weighted load statistics for one link: a row of a :class:`LinkTable`.

    Every value is read from the table when asked for, as a Python
    ``float``; load reads call the table's settle hook first.
    """

    __slots__ = ("link_id", "_table", "_row")

    def __init__(self, table: LinkTable, row: int) -> None:
        self.link_id = table.links[row].link_id
        self._table = table
        self._row = row

    @property
    def capacity_mbps(self) -> float:
        return float(self._table.capacity[self._row])

    @property
    def current_load_mbps(self) -> float:
        self._table.settle()
        return float(self._table.load[self._row])

    @property
    def mbit_carried(self) -> float:
        return float(self._table.mbit_carried[self._row])

    @property
    def busy_seconds(self) -> float:
        """Seconds with load at or above 95 % of capacity."""
        return float(self._table.busy_seconds[self._row])

    @property
    def observed_seconds(self) -> float:
        return self._table.observed_seconds

    @property
    def utilization(self) -> float:
        """Instantaneous utilization in [0, 1+]."""
        load = self.current_load_mbps
        capacity = self.capacity_mbps
        if capacity <= 0:
            return 0.0
        return load / capacity

    @property
    def mean_utilization(self) -> float:
        """Time-averaged utilization since the start of the run."""
        observed = self.observed_seconds
        capacity = self.capacity_mbps
        if observed <= 0 or capacity <= 0:
            return 0.0
        return self.mbit_carried / (capacity * observed)

    @property
    def congested_fraction(self) -> float:
        """Fraction of observed time the link spent near saturation."""
        observed = self.observed_seconds
        if observed <= 0:
            return 0.0
        return self.busy_seconds / observed


class CongestionDetector:
    """EWMA-smoothed congestion signal for one link.

    The detector declares congestion when the smoothed utilization
    exceeds ``threshold``; hysteresis (``clear_threshold``) prevents the
    signal from flapping right at the boundary -- flapping signals are
    exactly what re-introduces oscillation in coupled control loops.
    """

    def __init__(
        self,
        threshold: float = 0.9,
        clear_threshold: Optional[float] = None,
        alpha: float = 0.3,
    ) -> None:
        if not 0 < threshold <= 1.5:
            raise ValueError(f"threshold out of range: {threshold!r}")
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha out of range: {alpha!r}")
        self.threshold = threshold
        self.clear_threshold = (
            clear_threshold if clear_threshold is not None else 0.8 * threshold
        )
        if self.clear_threshold > self.threshold:
            raise ValueError("clear_threshold must not exceed threshold")
        self.alpha = alpha
        self.smoothed = 0.0
        self.congested = False

    def observe(self, utilization: float) -> bool:
        """Feed one utilization sample; returns the congestion state."""
        self.smoothed = self.alpha * utilization + (1 - self.alpha) * self.smoothed
        if self.congested:
            if self.smoothed < self.clear_threshold:
                self.congested = False
        elif self.smoothed >= self.threshold:
            self.congested = True
        return self.congested
