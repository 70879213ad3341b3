"""Unified observability layer: tracing, metrics, and the host clock.

The simulator's three ad-hoc introspection mechanisms -- the allocation
engine's :class:`~repro.network.allocator.EngineCounters`,
``Simulator.events_executed``, and the per-row ``_counters`` convention
-- answer "how much", but not "why did the AppP switch CDNs at t=412s"
or "where does the wall time go".  This package adds the missing three
views (DESIGN.md §9):

* :mod:`repro.obs.trace` -- sim-time-stamped structured events from the
  EONA control loops (A2I reports, I2A hints, CDN switches, reroutes,
  allocator solves, scenario phases), process-global and inert by
  default so a disabled tracer costs one attribute check on hot paths.
* :mod:`repro.obs.metrics` -- a registry of counters, gauges, and
  fixed-bucket histograms behind one ``snapshot() -> dict`` API, which
  absorbs the legacy counter dicts and feeds the
  ``eona-run-artifact/2`` ``metrics`` block.
* :mod:`repro.obs.profile` -- :func:`wall_clock`, the one sanctioned
  host-timer read; simlint's ``obs-hotpath`` rule enforces that
  everything outside this layer routes timing through it.  Per-layer
  wall time is measured from outside the program (``perfbench/``).
* :mod:`repro.obs.spans` / :mod:`repro.obs.analyze` -- the causal-span
  layer (DESIGN.md §13): span forests rebuilt from ``cause``/``parent``
  IDs threaded through the control loop, loop-latency distributions,
  trace diffs, Chrome-trace export, and the bench-regression gate.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import wall_clock
from repro.obs.spans import SpanForest, build_span_forest, loop_latencies
from repro.obs.trace import TRACER, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanForest",
    "TRACER",
    "Tracer",
    "build_span_forest",
    "loop_latencies",
    "wall_clock",
]
