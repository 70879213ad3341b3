"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Before this module the repository had three disjoint counter
mechanisms: the allocation engine's
:class:`~repro.network.allocator.EngineCounters` dataclass,
``FluidNetwork.allocation_counters()``'s merged dict, and the per-row
``_counters`` convention of the experiment tables.  A
:class:`MetricsRegistry` absorbs any of them (:meth:`absorb`) and
serves one deterministic ``snapshot() -> dict`` -- the ``metrics``
block of the ``eona-run-artifact/2`` schema.

Naming convention (DESIGN.md §9): lowercase ``snake_case`` leaf names,
dot-separated subsystem prefixes added by the absorber, e.g.
``alloc.solve_calls``, ``run.seeds``, ``run.variant_wall_s``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Default histogram bucket edges for wall-clock seconds.
WALL_SECONDS_EDGES: Tuple[float, ...] = (
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """A point-in-time float (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Counts of observations against fixed, ascending bucket edges.

    ``counts[i]`` counts observations ``<= edges[i]``; the final slot
    counts overflow.  Fixed edges keep snapshots mergeable and
    deterministic -- there is no adaptive resizing to drift between
    runs.
    """

    __slots__ = ("name", "edges", "counts", "total", "sum")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if not edges:
            raise ValueError(f"histogram {self.__class__.__name__} needs edges")
        ordered = tuple(float(edge) for edge in edges)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram edges must be strictly ascending: {edges!r}")
        self.name = name
        self.edges = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        # First bucket whose edge >= value; past the end means overflow.
        self.counts[bisect_left(self.edges, value)] += 1
        self.total += 1
        self.sum += value

    def percentile(self, q: float) -> float:
        """The q-quantile (``0 <= q <= 1``) interpolated within buckets.

        Observations are assumed uniform inside their bucket, the
        standard fixed-bucket estimate (Prometheus ``histogram_quantile``
        semantics).  The first bucket interpolates from 0 (or its edge,
        if negative); the overflow bucket is clamped to the last edge --
        the histogram does not know how far past it observations fell.
        An empty histogram returns 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        cumulative = 0
        lower = min(0.0, self.edges[0])
        for index, edge in enumerate(self.edges):
            count = self.counts[index]
            if count and cumulative + count >= rank:
                fraction = (rank - cumulative) / count
                return lower + (edge - lower) * fraction
            cumulative += count
            lower = edge
        return self.edges[-1]


class MetricsRegistry:
    """Get-or-create registry with one deterministic snapshot API."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # get-or-create accessors
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        return found

    def histogram(
        self, name: str, edges: Sequence[float] = WALL_SECONDS_EDGES
    ) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name, edges)
        elif found.edges != tuple(float(edge) for edge in edges):
            raise ValueError(
                f"histogram {name!r} already registered with edges {found.edges}"
            )
        return found

    # ------------------------------------------------------------------
    # absorption of legacy counter dicts
    # ------------------------------------------------------------------
    def absorb(self, counters: Mapping[str, object], prefix: str = "") -> None:
        """Sum a plain counter mapping into namesake counters.

        Accepts the legacy shapes (``EngineCounters.as_dict()``,
        ``allocation_counters()``, experiment ``_counters``): numeric
        values only, booleans and non-numerics skipped.  Keys that are
        already dotted (``faults.injected``) carry their own group name
        and absorb as-is; the prefix applies only to bare keys.
        """
        for key in sorted(counters):
            value = counters[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            name = key if "." in key else f"{prefix}{key}"
            self.counter(name).inc(int(value))

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Everything, as sorted plain dicts (JSON-ready, run-stable)."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "edges": list(histogram.edges),
                    "counts": list(histogram.counts),
                    "total": histogram.total,
                    "sum": histogram.sum,
                    "p50": histogram.percentile(0.50),
                    "p95": histogram.percentile(0.95),
                    "p99": histogram.percentile(0.99),
                }
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def counter_value(self, name: str) -> Optional[int]:
        found = self._counters.get(name)
        return None if found is None else found.value
