"""One simulated world in a fresh process: build, run, check, report.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload flash-crowd --seed 7
    python3 perfbench/worker.py --workload cohort-scale --seed 7 --trace perfbench/out/x.jsonl

The worker prints ``READY`` once the world is built (the parent times
set-up from process start to that line), then runs the world to its
horizon one simulated second at a time, checks its outputs, and prints
one JSON object as its last line.  Untraced, it times every simulated
second and every call of the world's glass ``query`` -- the program's
own calls, plus the world's ``harness_queries`` asked between
simulated seconds -- and measures the host's speed
(:mod:`hostspeed`) after every simulated second.  With ``--trace`` it installs a
:class:`tracing.Recorder` before building, writes the spans to the
given path, and cross-checks the recorder's counts against the
program's own counters.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import List

import hostspeed
import tracing
import worlds


def time_queries(glass: object, latencies: List[float], failures: List[str]) -> None:
    """Time every ``glass.query`` call, the program's own included.

    The timer is set on this one glass object only (an instance
    attribute shadowing the class method); it records each call's
    latency and counts a raised error or a reply for another query as
    a failure.
    """
    query = glass.query

    def timed(requester: str, name: str, *args: object, **kwargs: object) -> object:
        started = time.perf_counter()
        try:
            result = query(requester, name, *args, **kwargs)
        except Exception as error:
            latencies.append(time.perf_counter() - started)
            failures.append(f"{name}: {type(error).__name__}: {error}")
            raise
        latencies.append(time.perf_counter() - started)
        if result.query != name:
            failures.append(f"asked {name!r}, answered {result.query!r}")
        return result

    glass.query = timed


def run_world(world: object, timed: bool) -> dict:
    """Advance ``world`` to the horizon one simulated second at a time.

    Returns ``step_s``, the host time of each simulated second (the last
    entry is :meth:`finish`), and with ``timed`` also
    ``query_latencies_s``, each glass query's call-to-return latency,
    ``kernel_s``, a :func:`hostspeed.time_kernel` after every simulated
    second, and ``failures``.  The harness's own queries and the kernel
    run between steps and are not part of ``step_s``.  Output checks are
    left to ``world.check()``.
    """
    out = {"step_s": [], "query_latencies_s": [], "kernel_s": [], "failures": []}
    if timed:
        time_queries(world.glass, out["query_latencies_s"], out["failures"])
    now = 0.0
    while now < worlds.HORIZON_S:
        now = min(worlds.HORIZON_S, now + 1.0)
        started = time.perf_counter()
        world.step(now)
        out["step_s"].append(time.perf_counter() - started)
        if now >= worlds.QUERY_FROM_S:
            for name in world.harness_queries:
                world.glass.query(world.requester, name)
        if timed:
            out["kernel_s"].append(hostspeed.time_kernel())
    started = time.perf_counter()
    world.finish()
    out["step_s"].append(time.perf_counter() - started)
    return out


def cross_check(totals: dict, program: dict) -> list:
    """Recorder counts that disagree with the program's own counters."""
    pairs = [
        ("simkernel.events", sum(v for k, v in totals.items() if k.endswith(".handlers")),
         program["events"]),
        ("network.solves", totals.get("call:AllocationEngine.solve.n", 0.0),
         program["solve_calls"]),
        ("telemetry.records", totals.get("call:GroupByAggregator.add.n", 0.0),
         program["records_processed"]),
    ]
    if "ticks" in program:
        pairs.append(("cohorts.ticks", totals.get("cohorts.handlers", 0.0), program["ticks"]))
    return [
        f"{name}: traced {traced!r} != program {expected!r}"
        for name, traced, expected in pairs
        if traced != expected
    ]


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(worlds.WORLDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, help="write spans here (JSON lines)")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        root = Path(__file__).resolve().parent.parent
        recorder = tracing.Recorder(tracing.layer_table(root))
        recorder.install()
    world = worlds.WORLDS[args.workload](args.seed)
    print("READY", flush=True)

    timings = run_world(world, timed=recorder is None)
    world.problems.extend(timings.pop("failures"))

    report = {
        "seed": args.seed,
        "sim_s": world.ctx.sim.now,
        "run_s": sum(timings["step_s"]),
        "program": world.program_counts(),
    }
    if recorder is not None:
        recorder.uninstall()
        left = tracing.installed_wrappers()
        if left:
            world.problems.append(f"wrappers left installed: {left}")
        totals = recorder.totals()
        world.problems.extend(cross_check(totals, report["program"]))
        recorder.save(Path(args.trace))
        report["trace"] = totals
        report["handler_modules"] = recorder.handler_modules
    else:
        report.update(timings)
    world.check()
    report["digest"] = world.digest()
    report["problems"] = world.problems
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
