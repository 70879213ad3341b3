"""Failure injection and chaos properties of the fluid network.

A random interleaving of transfer starts, aborts, demand changes, and
link-capacity faults must never violate the substrate's invariants:
volumes conserved, link loads within capacity, completions exact.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.fluidsim import FluidNetwork
from repro.network.topology import NodeKind, Topology
from repro.simkernel.kernel import Simulator


def _grid_network(sim):
    """Two sources, two sinks, shared middle link."""
    topo = Topology()
    topo.add_node("s1", NodeKind.SERVER)
    topo.add_node("s2", NodeKind.SERVER)
    topo.add_node("m1", NodeKind.ROUTER)
    topo.add_node("m2", NodeKind.ROUTER)
    topo.add_node("d1", NodeKind.CLIENT)
    topo.add_node("d2", NodeKind.CLIENT)
    topo.add_link("s1", "m1", 20.0)
    topo.add_link("s2", "m1", 20.0)
    topo.add_link("m1", "m2", 15.0)
    topo.add_link("m2", "d1", 20.0)
    topo.add_link("m2", "d2", 20.0)
    return FluidNetwork(sim, topo)


_operation = st.tuples(
    st.sampled_from(["start", "abort", "demand", "capacity", "advance"]),
    st.integers(min_value=0, max_value=7),
    st.floats(min_value=0.5, max_value=30.0),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_operation, min_size=1, max_size=40), st.integers())
def test_chaos_invariants(operations, seed):
    sim = Simulator(seed=seed)
    net = _grid_network(sim)
    rng = random.Random(seed)
    live = []
    completed = []

    def on_done(transfer):
        completed.append(transfer)

    for op, index, value in operations:
        if op == "start":
            src = rng.choice(["s1", "s2"])
            dst = rng.choice(["d1", "d2"])
            live.append(
                net.start_transfer(src, dst, size_mbit=value, on_complete=on_done)
            )
        elif op == "abort" and live:
            net.abort(live[index % len(live)])
        elif op == "demand" and live:
            target = live[index % len(live)]
            if not target.done:
                net.set_demand(target, max(0.1, value))
        elif op == "capacity":
            link = rng.choice(["s1->m1", "m1->m2", "m2->d1"])
            net.set_link_capacity(link, max(0.5, value))
        elif op == "advance":
            sim.run(until=sim.now + value)

        # Invariant: no link carries more than its (current) capacity.
        net.sync()
        for link_id, stats in net.link_stats.items():
            assert stats.current_load_mbps <= stats.capacity_mbps * (1 + 1e-6)
        # Invariant: no flow has negative remaining volume.
        for flow in net.active_flows():
            assert flow.remaining_mbit >= -1e-9

    sim.run(until=sim.now + 10_000.0)
    # Every transfer either completed (exactly drained) or was aborted.
    for transfer in live:
        assert transfer.done
        if transfer.flow.finished_at is not None and transfer in completed:
            assert transfer.remaining_mbit == pytest.approx(0.0, abs=1e-6)


class TestFullStackDeterminism:
    def test_experiment_repeatable(self):
        from repro.experiments.exp_e1_coarse_control import run_mode
        from repro.baselines.modes import Mode

        first = run_mode(Mode.EONA, seed=3, n_clients=8, n_sessions=10,
                         horizon_s=400.0)
        second = run_mode(Mode.EONA, seed=3, n_clients=8, n_sessions=10,
                          horizon_s=400.0)
        assert first == second

    def test_different_seeds_differ(self):
        from repro.experiments.exp_e1_coarse_control import run_mode
        from repro.baselines.modes import Mode

        first = run_mode(Mode.EONA, seed=3, n_clients=8, n_sessions=10,
                         horizon_s=400.0)
        second = run_mode(Mode.EONA, seed=4, n_clients=8, n_sessions=10,
                          horizon_s=400.0)
        assert first != second
