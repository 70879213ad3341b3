"""Trace analytics: loop-latency tables, diffs, Chrome export, bench gate.

The reporting half of the causal-span subsystem (DESIGN.md §13).
Everything here is a pure function from trace events (or run-artifact
dicts) to plain data and preformatted strings; printing belongs to the
CLI layer.  Four tools:

* :func:`loop_latency_rows` / :func:`render_latency_table` -- per-stage,
  per-phase (or per-CDN/group) loop-reaction distributions with
  p50/p95/p99 from :class:`~repro.obs.metrics.Histogram`.
* :func:`slowest_spans` / :func:`render_slowest` -- drilldown into the
  slowest spans of each stage, with their causal ancestry.
* :func:`trace_diff` / :func:`render_diff` -- structural (event kinds,
  causal chain edges) plus latency diff of two traces, e.g. EONA vs the
  status-quo ablation of the same seed.
* :func:`chrome_trace` -- ``chrome://tracing`` / Perfetto JSON export
  (instants + spans + flow arrows along causal edges).
* :func:`compare_artifacts` -- the bench-regression gate: diffs a
  committed ``BENCH_*.json`` run artifact against a fresh run of the
  same experiment, with tolerances; environment-dependent columns
  (wall time, RSS, throughput) are ignored by default.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import Histogram
from repro.obs.spans import (
    Event,
    LOOP_STAGES,
    SpanForest,
    loop_latencies,
    parent_ids,
)

#: Bucket edges (simulated seconds) for loop-reaction histograms.  The
#: loop reacts on beacon windows and control periods of seconds to a
#: few minutes; the explicit 0 edge keeps same-tick hint→action spans
#: (a legitimate, common latency) exact instead of smeared over (0, 0.5].
LOOP_LATENCY_EDGES: Tuple[float, ...] = (
    0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0,
)

#: Substrings marking a row column as environment-dependent -- never
#: compared by the bench gate (wall clock, RSS, and rates derived from
#: them vary by host; everything else in an artifact is deterministic).
ENV_DEPENDENT_MARKERS: Tuple[str, ...] = ("wall", "rss", "per_sec")


# ----------------------------------------------------------------------
# loop-latency tables
# ----------------------------------------------------------------------
def loop_latency_rows(
    events: Iterable[Event], by: str = "phase"
) -> List[Dict[str, object]]:
    """Aggregate loop-latency samples into table rows.

    Args:
        events: Trace events.
        by: Attribution column -- ``"phase"`` (scenario phase at the
            span's end) or ``"group"`` (CDN / TE group / ISP).

    Returns one row per (stage, bucket) with count/mean/p50/p95/p99/max,
    stages in loop order, buckets sorted; plus an ``all`` bucket per
    stage when more than one bucket exists.
    """
    if by not in ("phase", "group"):
        raise ValueError(f"unknown attribution {by!r} (use 'phase' or 'group')")
    samples = loop_latencies(events)
    rows: List[Dict[str, object]] = []
    for stage in LOOP_STAGES:
        stage_samples = samples[stage]
        if not stage_samples:
            continue
        buckets: Dict[str, List[float]] = {}
        for sample in stage_samples:
            buckets.setdefault(str(sample[by]), []).append(
                float(sample["latency_s"])  # type: ignore[arg-type]
            )
        keys = sorted(buckets)
        if len(keys) > 1:
            buckets["all"] = [
                float(s["latency_s"]) for s in stage_samples  # type: ignore[arg-type]
            ]
            keys = keys + ["all"]
        for key in keys:
            values = buckets[key]
            histogram = Histogram(f"loop.{stage}", LOOP_LATENCY_EDGES)
            for value in values:
                histogram.observe(value)
            rows.append(
                {
                    "stage": stage,
                    by: key,
                    "count": len(values),
                    "mean_s": histogram.sum / histogram.total,
                    "p50_s": histogram.percentile(0.50),
                    "p95_s": histogram.percentile(0.95),
                    "p99_s": histogram.percentile(0.99),
                    "max_s": max(values),
                }
            )
    return rows


def loop_metrics_snapshot(events: Iterable[Event]) -> Dict[str, object]:
    """Loop latencies as a ``metrics``-block fragment for run artifacts.

    Returns ``{"counters": {...}, "histograms": {...}}`` with one
    ``loop.<stage>`` histogram (and a ``loop.<stage>_samples`` counter)
    per non-empty stage, shaped exactly like
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` so the CLI can
    merge it into an ``eona-run-artifact`` ``metrics`` block.
    """
    samples = loop_latencies(events)
    counters: Dict[str, int] = {}
    histograms: Dict[str, object] = {}
    for stage in LOOP_STAGES:
        values = [float(s["latency_s"]) for s in samples[stage]]  # type: ignore[arg-type]
        if not values:
            continue
        histogram = Histogram(f"loop.{stage}", LOOP_LATENCY_EDGES)
        for value in values:
            histogram.observe(value)
        counters[f"loop.{stage}_samples"] = histogram.total
        histograms[f"loop.{stage}"] = {
            "edges": list(histogram.edges),
            "counts": list(histogram.counts),
            "total": histogram.total,
            "sum": histogram.sum,
            "p50": histogram.percentile(0.50),
            "p95": histogram.percentile(0.95),
            "p99": histogram.percentile(0.99),
        }
    return {"counters": counters, "histograms": histograms}


def render_latency_table(
    rows: Sequence[Mapping[str, object]], by: str = "phase"
) -> str:
    """Fixed-width table of :func:`loop_latency_rows` output."""
    if not rows:
        return "(no loop-latency samples: no causal chains in this trace)"
    headers = ["stage", by, "count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s"]
    table = [headers]
    for row in rows:
        rendered = []
        for header in headers:
            value = row.get(header, "")
            if isinstance(value, float):
                rendered.append(f"{value:.2f}")
            else:
                rendered.append(str(value))
        table.append(rendered)
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# slowest-span drilldown
# ----------------------------------------------------------------------
def slowest_spans(
    events: Iterable[Event], top: int = 3
) -> List[Dict[str, object]]:
    """The ``top`` slowest samples of each stage, with causal ancestry."""
    ordered = list(events)
    forest = SpanForest(ordered)
    samples = loop_latencies(ordered)
    out: List[Dict[str, object]] = []
    for stage in LOOP_STAGES:
        ranked = sorted(
            samples[stage],
            key=lambda s: (-float(s["latency_s"]), float(s["t"])),  # type: ignore[arg-type]
        )[:top]
        for sample in ranked:
            entry: Dict[str, object] = {"stage": stage, **sample}
            cause = sample.get("cause")
            if isinstance(cause, int):
                entry["ancestry"] = [
                    f"{e['kind']}@t={float(e['t']):g}"  # type: ignore[arg-type]
                    for e in forest.ancestry(cause)
                ]
            out.append(entry)
    return out


def render_slowest(entries: Sequence[Mapping[str, object]]) -> str:
    lines = []
    for entry in entries:
        chain = entry.get("ancestry")
        suffix = f"  [{' <- '.join(chain)}]" if isinstance(chain, list) else ""
        lines.append(
            f"{entry['stage']}: {float(entry['latency_s']):.2f}s "  # type: ignore[arg-type]
            f"ending {entry['kind']}@t={float(entry['t']):g} "  # type: ignore[arg-type]
            f"(phase={entry['phase']}, group={entry['group']}){suffix}"
        )
    return "\n".join(lines) if lines else "(no spans)"


# ----------------------------------------------------------------------
# trace diff
# ----------------------------------------------------------------------
def trace_diff(
    events_a: Iterable[Event],
    events_b: Iterable[Event],
    label_a: str = "a",
    label_b: str = "b",
) -> Dict[str, object]:
    """Structural + latency diff of two traces.

    Structure is compared as event-kind counts and causal chain-edge
    counts (``"i2a-hint->cdn-switch"``); latency as per-stage
    count/mean/p95.  Keys present in either trace appear in the diff,
    so a chain existing only in one run (the EONA-vs-ablation
    signature) shows up as ``[n, 0]``.
    """
    a, b = list(events_a), list(events_b)

    def kind_counts(events: List[Event]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in events:
            kind = str(event["kind"])
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def merge(
        left: Mapping[str, int], right: Mapping[str, int]
    ) -> Dict[str, List[int]]:
        return {
            key: [left.get(key, 0), right.get(key, 0)]
            for key in sorted(set(left) | set(right))
        }

    def stage_stats(events: List[Event]) -> Dict[str, Dict[str, float]]:
        stats: Dict[str, Dict[str, float]] = {}
        for stage, samples in loop_latencies(events).items():
            if not samples:
                continue
            histogram = Histogram(stage, LOOP_LATENCY_EDGES)
            for sample in samples:
                histogram.observe(float(sample["latency_s"]))  # type: ignore[arg-type]
            stats[stage] = {
                "count": float(histogram.total),
                "mean_s": histogram.sum / histogram.total,
                "p95_s": histogram.percentile(0.95),
            }
        return stats

    stats_a, stats_b = stage_stats(a), stage_stats(b)
    latency = {
        stage: {label_a: stats_a.get(stage), label_b: stats_b.get(stage)}
        for stage in LOOP_STAGES
        if stage in stats_a or stage in stats_b
    }
    return {
        "labels": [label_a, label_b],
        "events": [len(a), len(b)],
        "kinds": merge(kind_counts(a), kind_counts(b)),
        "chains": merge(
            SpanForest(a).chain_counts(), SpanForest(b).chain_counts()
        ),
        "latency": latency,
    }


def render_diff(diff: Mapping[str, object]) -> str:
    label_a, label_b = diff["labels"]  # type: ignore[misc]
    lines = [
        f"events: {label_a}={diff['events'][0]} {label_b}={diff['events'][1]}",  # type: ignore[index]
        "",
        f"{'event kind':<24} {label_a:>10} {label_b:>10}  delta",
    ]
    for key, (na, nb) in diff["kinds"].items():  # type: ignore[union-attr]
        marker = "" if na == nb else "  *"
        lines.append(f"{key:<24} {na:>10} {nb:>10}  {nb - na:+d}{marker}")
    lines += ["", f"{'causal chain':<32} {label_a:>8} {label_b:>8}"]
    chains = diff["chains"]  # type: ignore[assignment]
    if chains:
        for key, (na, nb) in chains.items():  # type: ignore[union-attr]
            only = ""
            if na and not nb:
                only = f"  (only in {label_a})"
            elif nb and not na:
                only = f"  (only in {label_b})"
            lines.append(f"{key:<32} {na:>8} {nb:>8}{only}")
    else:
        lines.append("(no causal chains in either trace)")
    latency = diff["latency"]  # type: ignore[assignment]
    if latency:
        lines += ["", f"{'stage':<20} {'side':>6} {'count':>7} {'mean_s':>8} {'p95_s':>8}"]
        for stage, sides in latency.items():  # type: ignore[union-attr]
            for label in (label_a, label_b):
                stats = sides[label]
                if stats is None:
                    lines.append(f"{stage:<20} {label:>6} {'-':>7} {'-':>8} {'-':>8}")
                else:
                    lines.append(
                        f"{stage:<20} {label:>6} {int(stats['count']):>7} "
                        f"{stats['mean_s']:>8.2f} {stats['p95_s']:>8.2f}"
                    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
def chrome_trace(events: Iterable[Event]) -> Dict[str, object]:
    """Events as Chrome Trace Event Format (``chrome://tracing``).

    Sim seconds become microseconds.  Events with a duration (tracer
    spans) render as complete slices (``X``), the rest as instants
    (``i``); causal ``parent``/``parents`` edges become flow arrows
    (``s``/``f``) so the beacon→hint→action chain is visible as arrows
    across threads.  Threads are one per event owner/policy, in order
    of first appearance -- deterministic for same-seed traces.
    """
    ordered = list(events)
    tids: Dict[str, int] = {}
    trace_events: List[Dict[str, object]] = []

    def tid_of(event: Event) -> int:
        owner = str(event.get("owner") or event.get("policy") or event["kind"])
        if owner not in tids:
            tids[owner] = len(tids) + 1
        return tids[owner]

    position: Dict[int, Tuple[float, int]] = {}
    for event in ordered:
        t = float(event["t"])  # type: ignore[arg-type]
        tid = tid_of(event)
        args = {
            key: value
            for key, value in event.items()
            if key not in ("t", "kind", "t_start", "dur")
        }
        record: Dict[str, object] = {
            "name": str(event["kind"]),
            "cat": str(event["kind"]),
            "pid": 1,
            "tid": tid,
            "args": args,
        }
        if "dur" in event and "t_start" in event:
            record["ph"] = "X"
            record["ts"] = float(event["t_start"]) * 1e6  # type: ignore[arg-type]
            record["dur"] = float(event["dur"]) * 1e6  # type: ignore[arg-type]
        else:
            record["ph"] = "i"
            record["s"] = "t"
            record["ts"] = t * 1e6
        trace_events.append(record)
        cause = event.get("cause")
        if isinstance(cause, int):
            position[cause] = (t, tid)

    arrow = 0
    for event in ordered:
        cause = event.get("cause")
        if not isinstance(cause, int):
            continue
        end_t = float(event["t"])  # type: ignore[arg-type]
        end_tid = tid_of(event)
        for parent in parent_ids(event):
            start = position.get(parent)
            if start is None:
                continue
            arrow += 1
            start_t, start_tid = start
            common = {"cat": "cause", "name": "cause", "pid": 1, "id": arrow}
            trace_events.append(
                {**common, "ph": "s", "ts": start_t * 1e6, "tid": start_tid}
            )
            trace_events.append(
                {**common, "ph": "f", "bp": "e", "ts": end_t * 1e6, "tid": end_tid}
            )
    thread_names = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": owner},
        }
        for owner, tid in sorted(tids.items(), key=lambda item: item[1])
    ]
    return {"traceEvents": thread_names + trace_events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# bench-regression gate
# ----------------------------------------------------------------------
def _is_env_dependent(column: str, markers: Sequence[str]) -> bool:
    lowered = column.lower()
    return any(marker in lowered for marker in markers)


def compare_artifacts(
    baseline: Mapping[str, object],
    current: Mapping[str, object],
    rtol: float = 0.05,
    atol: float = 1e-9,
    ignore: Sequence[str] = ENV_DEPENDENT_MARKERS,
) -> List[Dict[str, object]]:
    """Regressions of ``current`` against a committed run artifact.

    Three regression classes, in severity order:

    * ``check-regressed`` / ``check-missing`` -- a declarative check
      that passed in the baseline fails (or vanished) now.  Checks that
      already failed in the baseline are not regressions (the "no worse
      than seed" rule).
    * ``structure`` -- a baseline variant or row has no counterpart.
    * ``value-drift`` -- a deterministic numeric column moved by more
      than ``atol + rtol * |baseline|``.  Columns matching ``ignore``
      substrings (wall clock, RSS, rates) are skipped; so are
      non-numeric values and columns absent from the current row.

    Returns a list of plain dicts (``where``/``what``/``baseline``/
    ``current``/``kind``), empty when the run is clean.
    """
    regressions: List[Dict[str, object]] = []

    def check_key(check: Mapping[str, object]) -> Tuple[str, str, str]:
        return (
            str(check.get("variant", "")),
            str(check.get("seed", "")),
            str(check.get("check", "")),
        )

    current_checks = {
        check_key(check): check
        for check in current.get("checks", [])  # type: ignore[union-attr]
    }
    for check in baseline.get("checks", []):  # type: ignore[union-attr]
        if not check.get("passed"):
            continue
        key = check_key(check)
        counterpart = current_checks.get(key)
        where = f"check {key[2]!r} (variant={key[0]}, seed={key[1]})"
        if counterpart is None:
            regressions.append(
                {
                    "kind": "check-missing",
                    "where": where,
                    "what": "check passed in baseline but is absent now",
                    "baseline": check.get("detail", ""),
                    "current": None,
                }
            )
        elif not counterpart.get("passed"):
            regressions.append(
                {
                    "kind": "check-regressed",
                    "where": where,
                    "what": "check passed in baseline but fails now",
                    "baseline": check.get("detail", ""),
                    "current": counterpart.get("detail", ""),
                }
            )

    current_tables = {
        str(table.get("variant", "")): table
        for table in current.get("tables", [])  # type: ignore[union-attr]
    }
    for table in baseline.get("tables", []):  # type: ignore[union-attr]
        variant = str(table.get("variant", ""))
        counterpart = current_tables.get(variant)
        if counterpart is None:
            regressions.append(
                {
                    "kind": "structure",
                    "where": f"variant {variant!r}",
                    "what": "variant present in baseline but absent now",
                    "baseline": len(table.get("rows", [])),
                    "current": None,
                }
            )
            continue
        base_rows = table.get("rows", [])
        cur_rows = counterpart.get("rows", [])
        if len(base_rows) != len(cur_rows):
            regressions.append(
                {
                    "kind": "structure",
                    "where": f"variant {variant!r}",
                    "what": "row count changed",
                    "baseline": len(base_rows),
                    "current": len(cur_rows),
                }
            )
            continue
        for index, (base_row, cur_row) in enumerate(zip(base_rows, cur_rows)):
            for column in sorted(base_row):
                base_value = base_row[column]
                if isinstance(base_value, bool) or not isinstance(
                    base_value, (int, float)
                ):
                    continue
                if _is_env_dependent(column, ignore):
                    continue
                cur_value = cur_row.get(column)
                if isinstance(cur_value, bool) or not isinstance(
                    cur_value, (int, float)
                ):
                    continue
                if abs(cur_value - base_value) > atol + rtol * abs(base_value):
                    regressions.append(
                        {
                            "kind": "value-drift",
                            "where": f"variant {variant!r} row {index} column {column!r}",
                            "what": f"moved beyond rtol={rtol:g}",
                            "baseline": base_value,
                            "current": cur_value,
                        }
                    )
    return regressions


def render_regressions(
    regressions: Sequence[Mapping[str, object]], experiment: str
) -> str:
    if not regressions:
        return f"{experiment}: no regressions"
    lines = [f"{experiment}: {len(regressions)} regression(s)"]
    for reg in regressions:
        lines.append(
            f"  [{reg['kind']}] {reg['where']}: {reg['what']} "
            f"(baseline={reg['baseline']!r}, current={reg['current']!r})"
        )
    return "\n".join(lines)


def dump_chrome_trace(events: Iterable[Event], path: str) -> None:
    """Write :func:`chrome_trace` output as JSON (sorted keys)."""
    import os

    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(events), handle, sort_keys=True)
        handle.write("\n")


__all__ = [
    "ENV_DEPENDENT_MARKERS",
    "LOOP_LATENCY_EDGES",
    "chrome_trace",
    "compare_artifacts",
    "dump_chrome_trace",
    "loop_latency_rows",
    "loop_metrics_snapshot",
    "render_diff",
    "render_latency_table",
    "render_regressions",
    "render_slowest",
    "slowest_spans",
    "trace_diff",
]
