"""E7 -- Scalability of the A2I analytics path (paper §5).

"A typical AppP can collect user experience for tens of millions of
sessions each day" -- the InfP-side control logic must digest that.
This experiment measures the windowed group-by pipeline's throughput
(records/second of wall clock) and state size as the attribute
cardinality and window length grow, plus the max-min allocator's cost
versus concurrent flow count (the simulator's own scalability).

Expected shape: aggregation throughput is flat in window length and
degrades slowly with group cardinality (hash-grouping, O(1) per
record); allocator cost grows superlinearly but stays comfortably fast
at laptop scale.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec, VariantSpec, check
from repro.network.flows import Flow
from repro.network.maxmin import max_min_allocation
from repro.network.topology import NodeKind, Topology
from repro.obs.profile import wall_clock
from repro.telemetry.aggregate import GroupByAggregator
from repro.telemetry.records import SessionRecord


def _synthetic_records(
    n_records: int,
    n_cdns: int,
    n_isps: int,
    window_span_s: float,
) -> List[SessionRecord]:
    records = []
    for index in range(n_records):
        records.append(
            SessionRecord(
                time=(index / n_records) * window_span_s,
                attrs={
                    "cdn": f"cdn{index % n_cdns}",
                    "isp": f"isp{(index // n_cdns) % n_isps}",
                },
                metrics={
                    "buffering_ratio": (index % 97) / 970.0,
                    "mean_bitrate_mbps": 0.4 + (index % 13) * 0.4,
                },
            )
        )
    return records


def measure_aggregation(
    n_records: int = 200_000,
    n_cdns: int = 4,
    n_isps: int = 50,
    window_s: float = 60.0,
    span_s: float = 3600.0,
) -> Dict[str, object]:
    """Throughput and state of one aggregation configuration."""
    records = _synthetic_records(n_records, n_cdns, n_isps, span_s)
    aggregator = GroupByAggregator(
        window_s=window_s,
        group_keys=("cdn", "isp"),
        metrics=("buffering_ratio", "mean_bitrate_mbps"),
    )
    start = wall_clock()
    for record in records:
        aggregator.add(record)
    aggregator.flush()
    elapsed = wall_clock() - start
    return {
        "n_records": n_records,
        "cardinality": n_cdns * n_isps,
        "window_s": window_s,
        "records_per_sec": n_records / elapsed if elapsed > 0 else math.inf,
        "rows_emitted": aggregator.rows_emitted,
        "wall_s": elapsed,
    }


def measure_allocator(n_flows: int, n_links: int = 50) -> Dict[str, object]:
    """Max-min allocation cost at a given flow count."""
    topo = Topology("alloc-bench")
    topo.add_node("src", NodeKind.SERVER)
    topo.add_node("dst", NodeKind.CLIENT)
    links = []
    previous = "src"
    for index in range(n_links):
        node = f"r{index}"
        topo.add_node(node)
        links.append(topo.add_link(previous, node, capacity_mbps=1000.0))
        previous = node
    links.append(topo.add_link(previous, "dst", capacity_mbps=1000.0))

    flows = []
    for index in range(n_flows):
        # Each flow crosses a contiguous slice of the chain, so links
        # carry overlapping but distinct flow sets (the hard case).
        start_index = index % max(1, n_links - 5)
        path = links[start_index : start_index + 5]
        flows.append(
            Flow(
                flow_id=f"f{index}",
                src="src",
                dst="dst",
                path=path,
                demand_mbps=5.0 + (index % 7),
            )
        )
    start = wall_clock()
    rates = max_min_allocation(flows)
    elapsed = wall_clock() - start
    return {
        "n_flows": n_flows,
        "n_links": n_links,
        "alloc_wall_ms": elapsed * 1000.0,
        "allocated": len(rates),
    }


def run_aggregation_table(
    seed: int = 0,
    cardinalities: Tuple[int, ...] = (8, 200, 2000),
    n_records: int = 100_000,
) -> ExperimentResult:
    """The canonical E7-aggregation sweep (the seed is unused: the
    workload is synthetic and deterministic; only wall clock varies)."""
    del seed
    result = ExperimentResult(
        name="E7-aggregation",
        notes="windowed group-by throughput vs. attribute cardinality",
    )
    for cardinality in cardinalities:
        result.add_row(
            **measure_aggregation(
                n_records=n_records, n_cdns=4, n_isps=max(1, cardinality // 4)
            )
        )
    return result


def run_allocator_table(
    seed: int = 0,
    flow_counts: Tuple[int, ...] = (100, 1000, 5000),
) -> ExperimentResult:
    """The canonical E7-allocator sweep (seed unused, as above)."""
    del seed
    result = ExperimentResult(
        name="E7-allocator",
        notes="max-min allocation cost vs. concurrent flows (50-link chain)",
    )
    for n_flows in flow_counts:
        result.add_row(**measure_allocator(n_flows))
    return result


register(
    ExperimentSpec(
        exp_id="e7",
        title="A2I analytics and allocator scalability (§5)",
        source="paper §5 scalability",
        module=__name__,
        variants=(
            VariantSpec(
                name="aggregation",
                runner=run_aggregation_table,
                row_key="cardinality",
                checks=(
                    # Hash-grouping: sublinear degradation in cardinality,
                    # and laptop-scale throughput well past the paper's
                    # "tens of millions of sessions each day".
                    check("records_per_sec", "@min", ">", 0.1, of="@max"),
                    check("records_per_sec", "@min", ">", 30_000),
                ),
            ),
            VariantSpec(
                name="allocator",
                runner=run_allocator_table,
                row_key="n_flows",
                checks=(
                    check("allocated", "*", "==", of_column="n_flows"),
                    check("alloc_wall_ms", "@last", "<", 1000.0),
                ),
            ),
        ),
    )
)
