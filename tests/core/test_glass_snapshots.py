"""The looking glass's snapshot serialization and its copy contract.

A published snapshot is serialized once and every answer is a copy of
that form: no caller can change what the next one sees, a refresh or a
swapped view is served anew, and live answers are never cached.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.interfaces import LookingGlass
from repro.core.registry import OptInRegistry
from repro.core.schemas import DemandEstimate
from repro.simkernel.kernel import Simulator

NARROW = ("time", "demand_mbps")


class _World:
    """A glass whose handlers return fresh estimates stamped by a counter."""

    def __init__(self, fields=("*",)):
        self.sim = Simulator(seed=0)
        self.registry = OptInRegistry()
        self.registry.grant("appp", "isp", fields=fields)
        self.glass = LookingGlass(self.sim, "appp", self.registry, kind="a2i")
        self.fetches = 0

    def estimates(self):
        self.fetches += 1
        return [
            DemandEstimate(
                time=self.sim.now,
                demand_mbps={"cdnA": float(self.fetches), "cdnB": 2.0},
            ),
            DemandEstimate(time=self.sim.now, demand_mbps={"cdnA": 0.5}),
        ]

    def ask(self, query="demand"):
        return self.glass.query("isp", query).payload


@pytest.fixture
def dumps(monkeypatch):
    """Counts every serialization of a DemandEstimate."""
    calls = []
    real = DemandEstimate.to_dict

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(DemandEstimate, "to_dict", counting)
    return calls


def _mutate(payload):
    payload.append({"injected": True})
    payload[0]["extra"] = "key"
    payload[0]["demand_mbps"]["cdnA"] = -1.0


@pytest.mark.parametrize("fields", [("*",), NARROW], ids=["all", "narrowed"])
def test_mutating_an_answer_leaves_the_next_one_unchanged(fields, dumps):
    world = _World(fields)
    world.glass.register("demand", world.estimates, refresh_period_s=10.0)
    world.sim.run(until=1.0)
    first = world.ask()
    pristine = copy.deepcopy(first)
    _mutate(first)
    assert world.ask() == pristine
    _mutate(world.ask())
    assert world.ask() == pristine
    assert pristine[0]["demand_mbps"] == {"cdnA": 1.0, "cdnB": 2.0}
    # One snapshot of two estimates, serialized once for all four answers.
    assert len(dumps) == 2


def test_the_answer_changes_after_the_next_refresh(dumps):
    world = _World()
    world.glass.register("demand", world.estimates, refresh_period_s=10.0)
    world.sim.run(until=1.0)
    before = world.ask()
    world.sim.run(until=11.0)
    after = world.ask()
    assert before[0]["demand_mbps"]["cdnA"] == 1.0
    assert after[0]["demand_mbps"]["cdnA"] == 2.0
    assert after[0]["time"] == 10.0
    assert len(dumps) == 4


def test_set_refresh_period_serves_the_new_view(dumps):
    world = _World()
    world.glass.register("demand", world.estimates, refresh_period_s=10.0)
    world.sim.run(until=1.0)
    assert world.ask()[0]["demand_mbps"]["cdnA"] == 1.0
    world.glass.set_refresh_period("demand", 5.0)
    assert world.ask()[0]["demand_mbps"]["cdnA"] == 2.0
    assert len(dumps) == 4


def test_freeze_keeps_the_snapshot_and_unfreeze_serves_a_new_one(dumps):
    world = _World()
    world.glass.register("demand", world.estimates, refresh_period_s=10.0)
    world.sim.run(until=1.0)
    frozen = world.ask()
    world.glass.set_fault_mode("freeze")
    world.sim.run(until=25.0)
    assert world.ask() == frozen
    assert len(dumps) == 2
    world.glass.set_fault_mode(None)
    thawed = world.ask()
    assert thawed[0]["demand_mbps"]["cdnA"] == 2.0
    assert thawed[0]["time"] == 25.0
    assert len(dumps) == 4


def test_zero_period_answers_are_served_fresh_each_time(dumps):
    world = _World()
    world.glass.register("demand", world.estimates)
    first, second = world.ask(), world.ask()
    assert first[0]["demand_mbps"]["cdnA"] == 1.0
    assert second[0]["demand_mbps"]["cdnA"] == 2.0
    assert len(dumps) == 4


def test_answers_inside_the_publish_delay_are_served_fresh_each_time(dumps):
    world = _World()
    world.glass.register(
        "demand", world.estimates, refresh_period_s=10.0, publish_delay_s=2.0
    )
    world.sim.run(until=1.0)
    # The snapshot taken at t=0 is not visible before t=2: live reads.
    first, second = world.ask(), world.ask()
    assert first[0]["demand_mbps"]["cdnA"] == 2.0
    assert second[0]["demand_mbps"]["cdnA"] == 3.0
    assert len(dumps) == 4
    world.sim.run(until=3.0)
    published = world.ask()
    assert published[0]["demand_mbps"]["cdnA"] == 1.0
    assert world.ask() == published
    assert len(dumps) == 6


def test_plain_dict_snapshots_are_copied_too():
    world = _World()
    rows = [{"server_id": "s1", "load": 0.5}]
    world.glass.register(
        "hints", lambda: [dict(row) for row in rows], refresh_period_s=10.0
    )
    world.sim.run(until=1.0)
    answer = world.ask("hints")
    answer[0]["load"] = 9.0
    assert world.ask("hints") == rows
