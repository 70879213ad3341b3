"""One settle per instant gives exactly what a solve per change gives.

The same seeded churn script runs twice on a fresh network: once as
written, where every change only marks the rates stale and the network
settles when the instant ends, and once with an ``active_flows()`` read
after every change, which settles on the spot and so solves eagerly.
Bursts put several changes in one instant (and completion callbacks
start follow-up transfers in the completion instant); the runs must
agree, with ``==``, on every rate, remaining volume, link load, Mbit
carried, busy time, completion time, ``on_complete`` order and every
mid-burst read.
"""

import math
import random

import pytest

from repro.network.fluidsim import FluidNetwork
from repro.network.topology import NodeKind, Topology
from repro.simkernel.kernel import Simulator

VIAS = ("p1", "p2", "p3")


def _mesh(sim):
    """Two sources, three peering points, two sinks: every pair has 3 paths."""
    topo = Topology("mesh")
    for src in ("s1", "s2"):
        topo.add_node(src, NodeKind.SERVER)
    for via in VIAS:
        topo.add_node(via, NodeKind.PEERING)
    for dst in ("d1", "d2"):
        topo.add_node(dst, NodeKind.CLIENT)
    for i, via in enumerate(VIAS):
        for src in ("s1", "s2"):
            topo.add_link(src, via, 7.0 + 3.0 * i, delay_ms=1.0 + i)
        for dst in ("d1", "d2"):
            topo.add_link(via, dst, 11.0 - 2.0 * i, delay_ms=1.0 + i)
    return FluidNetwork(sim, topo)


def _snapshot(net):
    flows = [
        (flow.flow_id, flow.rate_mbps, flow.remaining_mbit, [link.link_id for link in flow.path])
        for flow in net.active_flows()
    ]
    links = [
        (
            link_id,
            stats.current_load_mbps,
            stats.mbit_carried,
            stats.busy_seconds,
            stats.capacity_mbps,
            stats.observed_seconds,
        )
        for link_id, stats in net.link_stats.items()
    ]
    return flows, links, net.engine.link_loads


def _churn(seed, eager):
    rng = random.Random(seed)
    sim = Simulator(seed=seed)
    net = _mesh(sim)
    transfers = []
    completions = []
    reads = []
    snapshots = []

    def changed():
        if eager:
            net.active_flows()

    def live():
        return [t for t in transfers if not t.done]

    def endpoints():
        return rng.choice(("s1", "s2")), rng.choice(("d1", "d2")), rng.choice("AB")

    def demand():
        return math.inf if rng.random() < 0.3 else rng.uniform(0.5, 9.0)

    def on_complete(transfer):
        completions.append((sim.now, transfer.flow.flow_id, transfer.duration))
        if rng.random() < 0.6:
            # The next chunk starts in the completion instant.
            src, dst, owner = endpoints()
            transfers.append(net.start_transfer(
                src, dst, rng.uniform(0.5, 12.0), on_complete=on_complete,
                demand_mbps=demand(), owner=owner,
            ))
            changed()

    def burst():
        for _ in range(rng.randint(1, 6)):
            op = rng.choice(
                ["add", "add", "stream", "complete", "abort", "demand", "weight",
                 "reroute", "capacity", "via", "split", "batch", "read"]
            )
            src, dst, owner = endpoints()
            if op == "add" or not live():
                transfers.append(net.start_transfer(
                    src, dst, rng.uniform(0.5, 15.0), on_complete=on_complete,
                    demand_mbps=demand(), owner=owner,
                ))
            elif op == "stream":
                transfers.append(net.start_stream(
                    src, dst, rng.uniform(0.5, 9.0), owner=owner,
                    weight=rng.choice((1.0, 2.5, 40.0)),
                ))
            elif op == "complete":
                # A zero-size transfer completes as it starts.
                transfers.append(net.start_transfer(
                    src, dst, 0.0, on_complete=on_complete, owner=owner,
                ))
            elif op == "abort":
                net.abort(rng.choice(live()))
            elif op == "demand":
                net.set_demand(rng.choice(live()), demand())
            elif op == "weight":
                net.set_weight(rng.choice(live()), rng.uniform(0.5, 30.0))
            elif op == "reroute":
                net.reroute(rng.choice(live()), via=rng.choice(VIAS))
            elif op == "capacity":
                link = rng.choice(net.topology.links())
                net.set_link_capacity(link.link_id, rng.uniform(1.0, 15.0))
            elif op == "via":
                net.set_via_policy(owner, rng.choice(VIAS + (None,)))
            elif op == "split":
                net.set_split_policy(owner, {via: rng.uniform(0.0, 1.0) + 0.1 for via in VIAS})
            elif op == "batch":
                picked = rng.sample(live(), min(3, len(live())))
                net.update_streams(
                    (t, rng.uniform(0.5, 9.0), rng.choice((None, 3.0))) for t in picked
                )
            else:
                # A mid-burst read settles first in both runs.
                stats = net.link_stats[rng.choice(net.topology.links()).link_id]
                read = rng.choice(("rate", "load", "utilization", "link_load_mbps"))
                if read == "rate":
                    value = rng.choice(live()).rate_mbps
                elif read == "load":
                    value = stats.current_load_mbps
                elif read == "utilization":
                    value = stats.utilization
                else:
                    value = net.link_load_mbps(stats.link_id)
                reads.append((sim.now, read, value))
                continue
            changed()

    # Half-second grid: several bursts share an instant.
    for _ in range(60):
        sim.schedule_at(0.5 * rng.randint(0, 120), burst)
    step = 0.0
    while step < 90.0:
        step += 0.25
        sim.run(until=step)
        snapshots.append(_snapshot(net))
        net.engine.check_consistency(t.flow for t in transfers)
    net.sync()
    snapshots.append(_snapshot(net))
    return snapshots, completions, reads, net.allocation_counters()


@pytest.mark.parametrize("seed", range(6))
def test_one_settle_per_instant_equals_a_solve_per_change(seed):
    lazy = _churn(seed, eager=False)
    eager = _churn(seed, eager=True)
    snapshots, completions, reads, counters = lazy
    assert completions and reads
    for step, (got, want) in enumerate(zip(snapshots, eager[0])):
        assert got == want, f"step {step}"
    assert len(snapshots) == len(eager[0])
    assert completions == eager[1]
    assert reads == eager[2]
    # The eager run really solved more often.
    assert counters["solve_calls"] < eager[3]["solve_calls"]
    assert counters["noop_solves"] == eager[3]["noop_solves"] == 0


def test_settle_happens_once_per_changed_instant(sim):
    net = _mesh(sim)
    done = []
    first = net.start_transfer("s1", "d1", 5.0, on_complete=done.append)
    net.start_stream("s2", "d2", 3.0)
    net.set_demand(first, 4.0)
    assert net.allocation_counters()["solve_calls"] == 0
    assert first.rate_mbps == 4.0  # the read settles
    assert net.allocation_counters()["solve_calls"] == 1
    net.set_demand(first, 2.0)
    sim.run()
    assert net.allocation_counters()["solve_calls"] == 3  # the end of t=0, the completion
    assert [t.flow.finished_at for t in done] == [2.5]
