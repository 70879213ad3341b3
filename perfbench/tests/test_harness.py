"""Tests of the benchmark harness itself (not of the program).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

import glasswire
import hostspeed
import run
import tracing
import worker
import worlds

ROOT = Path(__file__).resolve().parents[2]

#: Simulated seconds each traced test world runs (the full horizon is
#: the benchmark's job; a minute exercises every layer).
SHORT_S = 60


def _originals():
    """Every attribute a recorder may replace, as currently bound."""
    import importlib
    import sys

    bound = {}
    for module_name, class_name, method, _layer in tracing.CLASS_METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        bound[(class_name, method)] = cls.__dict__[method]
    names = {function for _module, function, _layer in tracing.FUNCTIONS}
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro"):
            for function in names:
                if function in vars(module):
                    bound[(module_name, function)] = vars(module)[function]
    return bound


def _traced(world_factory, seed=0):
    """Build and step a world under a recorder; returns (recorder, world)."""
    recorder = tracing.Recorder(tracing.layer_table(ROOT))
    with recorder:
        world = world_factory(seed)
        for second in range(1, SHORT_S + 1):
            world.step(float(second))
    return recorder, world


@pytest.fixture(scope="module")
def flash():
    import repro.scenarios  # noqa: F401 -- bind names before the snapshot

    before = _originals()
    recorder, world = _traced(worlds.FlashCrowdWorld)
    return before, recorder, world


@pytest.fixture(scope="module")
def cohort():
    recorder, world = _traced(worlds.CohortScaleWorld)
    return recorder, world


def test_wrappers_and_hook_are_restored(flash):
    from repro.simkernel.kernel import Simulator

    before, recorder, _world = flash
    assert not recorder.installed
    assert Simulator.default_dispatch_hook is None
    assert tracing.installed_wrappers() == []
    after = _originals()
    for key, original in before.items():
        assert after[key] is original, key


def test_restored_after_an_error_inside_the_traced_run():
    recorder = tracing.Recorder(tracing.layer_table(ROOT))
    with pytest.raises(ZeroDivisionError):
        with recorder:
            1 / 0
    assert tracing.installed_wrappers() == []


def test_every_handler_module_maps_to_a_layer(flash, cohort):
    layers = tracing.layer_table(ROOT)
    for recorder in (flash[1], cohort[0]):
        assert recorder.handler_modules
        for module, layer in recorder.handler_modules.items():
            assert layer is not None, module
            assert layer in layers
    assert set(flash[1].handler_modules.values()) >= {"network", "video", "workloads"}
    # The engine's ticks, and the A2I glass's snapshot refreshes.
    assert set(cohort[0].handler_modules.values()) == {"cohorts", "core"}


def test_self_time_never_exceeds_inclusive(flash, cohort):
    for recorder in (flash[1], cohort[0]):
        assert len(recorder.ids) > 100
        for index in range(len(recorder.ids)):
            inclusive = recorder.ends[index] - recorder.starts[index]
            assert -1e-9 <= recorder.selfs[index] <= inclusive + 1e-12


def test_layer_self_times_sum_to_at_most_the_wall_time(flash, cohort):
    for recorder in (flash[1], cohort[0]):
        totals = recorder.totals()
        layer_self = sum(
            value for key, value in totals.items()
            if key.endswith(".self_s") and not key.startswith("call:")
        )
        assert 0 < layer_self <= recorder.wall_s


def test_recorder_counts_agree_with_program_counters(flash, cohort):
    _before, recorder, world = flash
    assert worker.cross_check(recorder.totals(), world.program_counts()) == []
    recorder, world = cohort
    assert worker.cross_check(recorder.totals(), world.program_counts()) == []


def test_cross_check_reports_a_mismatch(cohort):
    recorder, world = cohort
    program = dict(world.program_counts(), solve_calls=world.program_counts()["solve_calls"] + 1)
    problems = worker.cross_check(recorder.totals(), program)
    assert len(problems) == 1 and problems[0].startswith("network.solves")


def test_layer_metrics_cover_the_per_layer_list(cohort):
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = run.layer_metrics(cohort[0].totals(), {})
    assert set(metrics) == {entry["name"] for entry in spec["per_layer"]}
    assert metrics["cohorts.ticks"] == SHORT_S
    assert metrics["network.solves"] > 0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile([3.0], 99) == 3.0


def test_world_set_depends_on_seed_and_seconds_only():
    assert run.world_seeds("flash-crowd", 0, 30) == run.world_seeds("flash-crowd", 0, 30)
    # flash-crowd: one fixed panel, ordered by the seed.
    assert sorted(run.world_seeds("flash-crowd", 0, 30)) == [0, 1]
    assert sorted(run.world_seeds("flash-crowd", 7, 30)) == [0, 1]
    assert run.world_seeds("cohort-scale", 3, 30) == [3000, 3001]
    assert len(run.world_seeds("cohort-scale", 3, 60)) == 5


def test_fastest_is_elementwise_on_the_common_prefix():
    assert run.fastest([[3.0, 1.0, 5.0], [2.0, 4.0]]) == [2.0, 1.0]


def test_scaled_timings_follow_the_measured_host_speed():
    reference = hostspeed.REFERENCE_KERNEL_S
    reports = [
        {"step_s": [1.0, 2.0], "kernel_s": [reference] * 3},
        {"step_s": [1.0, 2.0], "kernel_s": [2 * reference] * 3},
    ]
    assert run.timings(reports, "step_s", "raw") == [[1.0, 2.0], [1.0, 2.0]]
    # The second process ran the kernel at half speed: its host seconds
    # are worth half a reference second each.
    assert run.timings(reports, "step_s", "scaled") == [[1.0, 2.0], [0.5, 1.0]]
    assert 0 < hostspeed.time_kernel() < 1.0


def test_untraced_world_times_the_programs_own_queries():
    world = worlds.FlashCrowdWorld(0)
    latencies, failures = [], []
    worker.time_queries(world.glass, latencies, failures)
    for second in range(1, SHORT_S + 1):
        world.step(float(second))
    assert world.harness_queries == ()
    assert len(latencies) == world.policy.i2a_queries > 0
    assert failures == []


class _Recorded(glasswire.InfpServer):
    instances: list = []

    def __enter__(self):
        _Recorded.instances.append(self)
        return super().__enter__()


class _BrokenRng:
    def choices(self, options, weights):
        raise RuntimeError("client failed mid-loop")


def test_glass_server_is_reaped_when_the_client_errors(monkeypatch):
    monkeypatch.setattr(glasswire, "InfpServer", _Recorded)
    _Recorded.instances.clear()
    with pytest.raises(RuntimeError, match="client failed"):
        glasswire.run_segment(ROOT, seed=0, queries=1000, rng=_BrokenRng())
    (server,) = _Recorded.instances
    assert server.process.returncode is not None
    assert server.process.poll() is not None


def test_glass_segment_answers_the_query_asked():
    segment = glasswire.run_segment(ROOT, seed=0, queries=300, rng=random.Random(0),
                                    schema_budget=20)
    assert segment.attempted > 0 and segment.failed == 0
    assert {entry[0] for entry in segment.schema} <= set(glasswire.QUERIES)
    assert segment.server["maxrss_kb"] > 0


def test_glass_segment_of_fixed_length_stops_its_server(monkeypatch):
    monkeypatch.setattr(glasswire, "InfpServer", _Recorded)
    _Recorded.instances.clear()
    started = time.perf_counter()
    segment = glasswire.run_segment(ROOT, seed=0, queries=200, rng=random.Random(0))
    assert segment.attempted == 200 and segment.failed == 0
    # The set-up query on the fresh connection, then the 200.
    assert segment.frames_expected == 201
    (server,) = _Recorded.instances
    assert server.process.returncode == 0
    # Interrupted once the queries were done, long before its lifetime cap.
    assert time.perf_counter() - started < glasswire.SERVE_CAP_S / 4


def test_glass_client_and_server_share_one_cpu():
    import os
    import subprocess
    import sys

    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    before = os.sched_getaffinity(0)
    try:
        cpu = glasswire.pin_to_one_cpu()
        assert cpu in before and os.sched_getaffinity(0) == {cpu}
        # A process started afterwards, such as the server, inherits it.
        child = subprocess.run(
            [sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"],
            capture_output=True, text=True, check=True,
        )
        assert child.stdout.strip() == str([cpu])
    finally:
        os.sched_setaffinity(0, before)
