"""Bench: incremental allocation engine vs from-scratch re-solve.

A high-churn flash crowd (hundreds of short transfers arriving in a
burst behind one access bottleneck, with capacity flaps) is the
allocation hot path's worst case: every start/finish used to trigger a
full network-wide max-min solve.  The incremental engine re-solves only
the dirty component, so flows on untouched islands cost nothing.

The two configurations run the *same* deterministic workload; the table
reports solver counters and wall-clock for each.
"""

import time

from repro.core.context import build_context
from repro.experiments.common import ExperimentResult
from repro.network.allocator import EngineConfig
from repro.network.topology import NodeKind, Topology

N_ISLANDS = 6
CLIENTS_PER_ISLAND = 8
N_TRANSFERS = 600
HORIZON_S = 240.0


def _topology() -> Topology:
    """Access islands, each served by its own edge cache.

    Flows never leave their island, so the flow–link sharing graph
    decomposes into per-island components -- the locality the
    incremental engine exploits (one island's churn cannot change
    another island's rates).
    """
    topo = Topology("allocator-bench")
    for island in range(N_ISLANDS):
        edge = f"edge{island}"
        agg = f"agg{island}"
        topo.add_node(edge, NodeKind.SERVER, owner="cdn")
        topo.add_node(agg, NodeKind.ROUTER, owner="isp")
        topo.add_link(edge, agg, 60.0, delay_ms=2, owner="isp", tags=("access",))
        for index in range(CLIENTS_PER_ISLAND):
            node = f"c{island}.{index}"
            topo.add_node(node, NodeKind.CLIENT, owner="isp")
            topo.add_link(agg, node, 100.0, delay_ms=5, owner="isp")
    return topo


def _run_workload(incremental: bool) -> dict:
    ctx = build_context(
        topology=_topology(),
        seed=17,
        engine_config=(
            EngineConfig() if incremental else EngineConfig(full_solve_fraction=0.0)
        ),
    )
    net = ctx.network
    rng = ctx.rng.get("churn")
    clients = [
        f"c{island}.{index}"
        for island in range(N_ISLANDS)
        for index in range(CLIENTS_PER_ISLAND)
    ]
    # Flash-crowd arrivals: a burst between t=20 and t=80, each client
    # fetching from its island's edge cache.
    for i in range(N_TRANSFERS):
        at = 20.0 + 60.0 * rng.random() ** 0.5
        client = clients[i % len(clients)]
        edge = f"edge{client[1:].split('.')[0]}"
        size = rng.uniform(2.0, 25.0)
        ctx.sim.schedule_at(
            at,
            lambda edge=edge, client=client, size=size: net.start_transfer(
                edge, client, size_mbit=size, demand_mbps=8.0
            ),
        )
    # Capacity flaps on one island's access link mid-crowd.
    flapped = "edge0->agg0"
    for at, capacity in ((40.0, 20.0), (70.0, 60.0), (100.0, 30.0), (130.0, 60.0)):
        ctx.sim.schedule_at(
            at,
            lambda capacity=capacity: net.set_link_capacity(flapped, capacity),
        )
    started = time.perf_counter()
    ctx.run(until=HORIZON_S)
    wall_ms = (time.perf_counter() - started) * 1000.0
    counters = net.allocation_counters()
    return {
        "engine": "incremental" if incremental else "full-resolve",
        "completed": net.completed_transfers,
        "solve_calls": counters["solve_calls"],
        "full_solves": counters["full_solves"],
        "incremental_solves": counters["incremental_solves"],
        "flows_touched": counters["flows_touched"],
        "wall_ms": wall_ms,
        "_counters": counters,
    }


def test_incremental_engine_beats_full_resolve(benchmark, table_sink, counter_sink):
    def run_both():
        return [_run_workload(incremental=False), _run_workload(incremental=True)]

    full, incr = benchmark.pedantic(run_both, rounds=1, iterations=1)
    for row in (full, incr):
        counter_sink(f"allocator[{row['engine']}]", row.pop("_counters"))

    result = ExperimentResult(
        name="allocator-incremental",
        notes=(
            f"{N_TRANSFERS} flash-crowd transfers over {N_ISLANDS} access "
            f"islands; full-solve reduction "
            f"{full['full_solves'] / max(1, incr['full_solves']):.1f}x"
        ),
    )
    result.add_row(**full)
    result.add_row(**incr)
    table_sink(result)

    # Identical workload, identical outcome: the incremental solve is
    # exact, so the simulated trajectory must not change.
    assert incr["completed"] == full["completed"]
    assert incr["solve_calls"] == full["solve_calls"]
    # The headline: the engine turns most solves into component-local
    # ones -- at least 2x fewer full solves than the baseline.
    assert incr["full_solves"] * 2 <= full["full_solves"]
    assert incr["incremental_solves"] > 0
    # And it does strictly less solver work overall.
    assert incr["flows_touched"] < full["flows_touched"]
