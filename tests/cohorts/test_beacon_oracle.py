"""Cohort beacons against the row-at-a-time oracle, and session conservation.

Seeded churn worlds drive a :class:`CohortEngine` one tick at a time:
a healthy video and web population on one link, and a starved video
and web population on another, whose prefilled sessions stall and
abandon while its arrivals never join.  Every record the engine builds,
on retirement and from :meth:`CohortEngine.sample_individuals`, must
equal :func:`scalar_beacon` exactly: same time, attributes, metric keys
in the same order, and ``==`` metric values.
"""

import math

import pytest

from repro.cohorts.engine import CohortEngine
from repro.cohorts.specs import WEB, CohortSpec
from repro.core.context import build_context
from repro.network.topology import NodeKind, Topology

from tests.cohorts.scalar_beacons import scalar_beacon

HORIZON_S = 90.0
SAMPLES_PER_TICK = 12


def _world(seed, dt_s, beacon_sink=None):
    topology = Topology("beacon-oracle")
    for server in ("edge", "starved-edge"):
        topology.add_node(server, NodeKind.SERVER)
    for client in ("c0", "c1"):
        topology.add_node(client, NodeKind.CLIENT)
    topology.add_link("edge", "c0", capacity_mbps=400.0)
    topology.add_link("starved-edge", "c1", capacity_mbps=0.5)
    ctx = build_context(topology=topology, seed=seed)
    specs = [
        CohortSpec(
            node="c0", cdn="cdnX", tier="hd", device="tv", src_node="edge",
            arrival_rate_per_s=3.0, content_duration_s=20.0, device_cap_mbps=6.0,
        ),
        CohortSpec(
            node="c0", cdn="cdnX", tier="page", device="laptop", src_node="edge",
            kind=WEB, arrival_rate_per_s=2.0, page_mbit=8.0,
        ),
        CohortSpec(
            node="c1", cdn="cdnY", tier="hd", device="tv", src_node="starved-edge",
            isp="isp-slow", arrival_rate_per_s=1.0, content_duration_s=60.0,
        ),
        CohortSpec(
            node="c1", cdn="cdnY", tier="page", device="mobile",
            src_node="starved-edge", kind=WEB, arrival_rate_per_s=0.5, page_mbit=4.0,
        ),
    ]
    engine = CohortEngine(
        ctx,
        specs,
        dt_s=dt_s,
        beacon_sink=beacon_sink,
        until=HORIZON_S,
        abandon_rebuffer_s=8.0,
    )
    engine.prefill([60.0, 10.0, 40.0, 0.0])
    return ctx, engine


def _facts(record):
    return (record.time, list(record.attrs.items()), list(record.metrics.items()))


def _checked_builds(engine):
    """Check every record the engine builds against the oracle.

    Returns the log the checked builds append ``(rows, records)`` to.
    """
    build = engine._beacons
    log = []

    def checked(rows, now, abandoned):
        records = build(rows, now, abandoned)
        expected = [
            scalar_beacon(engine, row, now, gave_up)
            for row, gave_up in zip(rows.tolist(), abandoned.tolist())
        ]
        assert [_facts(r) for r in records] == [_facts(r) for r in expected]
        log.extend(zip(rows.tolist(), records))
        return records

    engine._beacons = checked
    return log


def _ticks(ctx, engine):
    """Run the engine one tick at a time, yielding after each."""
    engine.start()
    tick = 0
    while engine._running:
        tick += 1
        ctx.sim.run(until=tick * engine.dt_s)
        assert engine.counters["cohort.ticks"] == tick
        yield tick


@pytest.mark.parametrize("dt_s", [1.0, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_beacon_equals_the_scalar_oracle(seed, dt_s):
    delivered = []
    ctx, engine = _world(seed, dt_s, lambda record, sessions: delivered.append(record))
    log = _checked_builds(engine)
    retired, sampled = [], []
    for _ in _ticks(ctx, engine):
        retired.extend(log)
        log.clear()
        # Retired records reach the sink unchanged, in row order.
        assert delivered == [record for _, record in retired]
        # Sampled rows (repeats allowed) go through the same builder.
        assert len(engine.sample_individuals(SAMPLES_PER_TICK)) == SAMPLES_PER_TICK
        sampled.extend(log)
        log.clear()

    # The worlds reach every branch of the builder.
    records = [record for _, record in retired + sampled]
    video = [r.metrics for r in records if "engagement" in r.metrics]
    assert any(r.metrics.get("abandoned") == 1.0 for _, r in retired)
    assert any(m["abandoned"] == 0.0 and m["play_time_s"] > 0 for m in video)
    unjoined = [m for m in video if m["join_time_s"] == -1.0]
    assert unjoined and all(m["engagement"] == 0.0 for m in unjoined)
    assert any(m["play_time_s"] == 0.0 and m["buffering_ratio"] == 1.0 for m in unjoined)
    web = [r.metrics for r in records if "plt_s" in r.metrics]
    assert any(m["total_mbit"] > 0 for m in web)
    assert len({row for row, _ in sampled}) < len(sampled)


@pytest.mark.parametrize("dt_s", [1.0, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sessions_conserved_every_tick(seed, dt_s):
    carried = [0.0]
    abandoned = []

    def sink(record, sessions):
        carried[0] += sessions
        if record.metrics.get("abandoned") == 1.0:
            abandoned.append(sessions)

    ctx, engine = _world(seed, dt_s, sink)
    counters = engine.counters
    for _ in _ticks(ctx, engine):
        assert math.isclose(
            counters["cohort.arrivals"],
            engine.concurrent_sessions + carried[0],
            rel_tol=1e-9,
        )
        retired = counters["cohort.completed"] + counters["cohort.abandoned"]
        assert abs(retired - carried[0]) <= 0.5 * counters["cohort.beacons"] + 1e-6
    assert abandoned
    assert counters["cohort.completed"] > 0
