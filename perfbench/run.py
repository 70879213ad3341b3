"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flash-crowd --seed 0 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``flash-crowd``  -- E2's EONA world, one fresh process per world;
* ``cohort-scale`` -- e7-cohort's million-session scale point;
* ``glass-wire``   -- a closed loop of I2A queries to ``eona serve infp``.

With ``--trace 0`` the run measures every end-to-end metric of
``BENCHMARK.json`` untraced, running each world or query sequence
:data:`REPEATS` times; with ``--trace 1`` a separate traced run over a
fixed amount of work reports every per-layer metric.  Every run checks
the program's outputs; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  A run that cannot
start (no ``src/repro`` beside ``perfbench/``) exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import glasswire
import hostspeed
import tracing
from glasswire import HASH_SEED, STARTUP_TIMEOUT_S, BenchError, read_line

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: ``fail_ratio`` is reported no lower than this, the benchmark's
#: resolution: a clean run reads 1e-6, never 0.
FAIL_RATIO_FLOOR = 1e-6

#: Every world (sim workloads) and every query sequence (glass-wire) is
#: run this many times in a run.  Each simulated second and each query
#: is timed on every repetition and counted at its fastest: a shared
#: host's speed swings by tens of percent for seconds to minutes at a
#: time, and the fastest of three repetitions spread over the run is
#: slow only if all three fell into one slow spell.  Spells longer than
#: a run still show (see NOISE.md).
REPEATS = 3

#: Nominal host seconds of one world, which size a run: a run simulates
#: n = seconds / (REPEATS x nominal) worlds (at least one), each
#: REPEATS times, so the set of worlds depends on ``--seed`` and
#: ``--seconds`` alone, never on how fast the host is.
WORLD_S = {"flash-crowd": 6.0, "cohort-scale": 4.0}

#: Nominal closed-loop rate of ``glass-wire``, which sizes its runs: each
#: of a run's REPEATS server lifetimes answers seconds / REPEATS x
#: GLASS_QPS queries, so the query sequence, and the server's memory,
#: depend on ``--seed`` and ``--seconds`` alone.
GLASS_QPS = 1500

#: Host seconds one world process may take before it is killed.
WORLD_TIMEOUT_S = 150.0

#: Queries the traced glass-wire segment sends.
TRACED_QUERIES = 3000


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def fastest(samples: List[List[float]]) -> List[float]:
    """Element-wise minimum over repetitions, on their common prefix."""
    return [min(values) for values in zip(*samples)]


def query_metrics(latencies: List[float]) -> Dict[str, float]:
    """p50, p99 and closed-loop rate of per-query fastest latencies.

    ``latencies`` are the fastest of each query's repetitions (see
    :data:`REPEATS`); a closed loop completes one query per latency, so
    the rate is their count over their sum.
    """
    if len(latencies) < 1000:
        raise BenchError(f"{len(latencies)} queries timed; a p99 needs 1000")
    return {
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "query_p99_ms": percentile(latencies, 99) * 1e3,
        "queries_per_s": len(latencies) / math.fsum(latencies),
    }


def digest_of(parts: List[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def log(line: str) -> None:
    print(line, flush=True)


def spawn_world(workload: str, seed: int, trace: Optional[Path]) -> Tuple[float, dict]:
    """Run one world in a fresh ``worker.py`` process.

    Returns ``(setup_s, report)``: set-up runs from starting the process
    to its ``READY`` line (imports, scenario compile, prefill).
    """
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", workload, "--seed", str(seed)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    started = time.perf_counter()
    process = subprocess.Popen(
        argv, stdout=subprocess.PIPE, cwd=ROOT, env=glasswire.program_env(ROOT), text=True
    )
    try:
        ready = read_line(process, STARTUP_TIMEOUT_S)
        setup_s = time.perf_counter() - started
        if ready.strip() != "READY":
            raise BenchError(f"{workload} world {seed} did not get ready: {ready!r}")
        out, _ = process.communicate(timeout=WORLD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
    if process.returncode != 0:
        raise BenchError(f"{workload} world {seed} exited {process.returncode}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def world_seeds(workload: str, seed: int, seconds: float) -> List[int]:
    """The scenario seeds of a run's worlds, in the run's order.

    ``cohort-scale`` draws them from ``--seed``.  ``flash-crowd``'s
    simulated work varies severalfold with the scenario seed (see
    ``perfbench/README.md``), so a run's throughput would measure which
    seeds it drew: every run simulates the same panel of scenario seeds
    0..n-1, in an order drawn from ``--seed``.
    """
    n = max(1, round(seconds / (REPEATS * WORLD_S[workload])))
    if workload == "flash-crowd":
        panel = list(range(n))
        random.Random(seed).shuffle(panel)
        return panel
    return [seed * 1000 + index for index in range(n)]


# ----------------------------------------------------------------------
# per-layer metrics from span totals
# ----------------------------------------------------------------------
def layer_metrics(t: Dict[str, float], extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, from summed span totals and program gauges."""

    def get(key: str) -> float:
        return float(t.get(key, 0.0))

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    events = sum(value for key, value in t.items() if key.endswith(".handlers"))
    solves = get("call:AllocationEngine.solve.n")
    solve_s = get("call:AllocationEngine.solve.incl_s")
    worked = get("network.full_solves") + get("network.incremental_solves")
    frames = get("call:TcpTransport.request.n")
    request_s = get("call:TcpTransport.request.incl_s")
    handle_s = get("call:GlassService.handle_frame.incl_s")
    return {
        "simkernel.events": events,
        "simkernel.self_s": get("simkernel.self_s"),
        "simkernel.us_per_event": ratio(get("simkernel.self_s"), events, 1e6),
        "workloads.self_s": get("workloads.self_s"),
        "network.solves": solves,
        "network.flows_per_solve": ratio(get("network.flows_solved"), worked),
        "network.full_solve_ratio": ratio(get("network.full_solves"), solves),
        "network.solve_s": solve_s,
        "network.us_per_solve": ratio(solve_s, solves, 1e6),
        "network.self_s": get("network.self_s"),
        "video.handler_calls": get("video.handlers"),
        "video.self_s": get("video.self_s"),
        "core.self_s": get("core.self_s"),
        "core.glass_queries": get("call:LookingGlass.query.n"),
        "core.glass_query_s": get("call:LookingGlass.query.incl_s"),
        "sdn.polls": get("call:StatsService.poll_once.n"),
        "sdn.self_s": get("sdn.self_s"),
        "cohorts.ticks": get("cohorts.handlers"),
        "cohorts.self_s": get("cohorts.self_s"),
        "cohorts.us_per_row": ratio(get("cohorts.self_s"), get("cohorts.rows"), 1e6),
        "cohorts.peak_state_kb": extra.get("peak_state_bytes", 0.0) / 1024.0,
        "telemetry.records": get("call:GroupByAggregator.add.n"),
        "telemetry.add_s": get("call:GroupByAggregator.add.self_s"),
        "telemetry.flushes": get("call:GroupByAggregator.flush.n"),
        "telemetry.flush_s": get("call:GroupByAggregator.flush.incl_s"),
        "scenarios.build_s": get("call:build_scenario.incl_s"),
        "transport.frames": frames,
        "transport.frame_bytes": ratio(get("transport.frame_bytes"), frames),
        "transport.encode_s": get("call:encode.incl_s"),
        "transport.decode_s": get("call:decode.incl_s"),
        "transport.request_s": request_s,
        "transport.server_handle_s": handle_s,
        "transport.wire_s": request_s - handle_s if frames else 0.0,
        "transport.server_tick_s": get("call:SimPacer.tick.incl_s"),
        "transport.retries": extra.get("retries", 0.0),
        "transport.reconnects": extra.get("reconnects", 0.0),
        "trace.overhead_ratio": extra.get("overhead_ratio", 0.0),
    }


def add_totals(into: Dict[str, float], totals: Dict[str, float]) -> None:
    for key, value in totals.items():
        into[key] = into.get(key, 0.0) + value


def unmapped(handler_modules: Dict[str, Optional[str]]) -> List[str]:
    return sorted(module for module, layer in handler_modules.items() if layer is None)


# ----------------------------------------------------------------------
# flash-crowd / cohort-scale
# ----------------------------------------------------------------------
def run_sim(workload: str, seed: int, seconds: float) -> Tuple[int, int, Dict[str, float]]:
    """Untraced: every world of the run, each :data:`REPEATS` times."""
    seeds = world_seeds(workload, seed, seconds)
    reports: Dict[int, List[dict]] = {world: [] for world in seeds}
    setups: List[float] = []
    rss_kb = 0
    failed = 0
    # Repetitions of one world are spread over the run, not back to back.
    for repeat in range(REPEATS):
        for world in seeds:
            setup_s, report = spawn_world(workload, world, None)
            setups.append(setup_s)
            rss_kb = max(rss_kb, report["maxrss_kb"])
            problems = list(report["problems"])
            if repeat and report["digest"] != reports[world][0]["digest"]:
                problems.append("a repetition changed the simulated statistics")
            if repeat and len(report["query_latencies_s"]) != len(
                reports[world][0]["query_latencies_s"]
            ):
                problems.append("a repetition asked a different number of queries")
            failed += 1 if problems else 0
            reports[world].append(report)
            log(
                f"world seed={world} repeat={repeat} setup_s={setup_s:.4f} "
                f"run_s={report['run_s']:.4f} sim_s={report['sim_s']:g} "
                f"speed={hostspeed.scale(report['kernel_s']):.4f} "
                f"queries={len(report['query_latencies_s'])} digest={report['digest']} "
                f"checks={'ok' if not problems else problems}"
            )
    sim_s = 0.0
    run_s = {"scaled": 0.0, "raw": 0.0}
    latencies: Dict[str, List[float]] = {"scaled": [], "raw": []}
    for world in seeds:
        sim_s += reports[world][0]["sim_s"]
        for kind in run_s:
            run_s[kind] += math.fsum(fastest(timings(reports[world], "step_s", kind)))
            latencies[kind].extend(
                fastest(timings(reports[world], "query_latencies_s", kind))
            )
    digest = digest_of([reports[world][0]["digest"] for world in seeds])
    log(f"digest {workload} seed={seed} worlds={seeds} sha256={digest}")
    raw = query_metrics(latencies["raw"])
    log(
        f"raw host time: sim_s_per_wall_s={sim_s / run_s['raw']:.6g} "
        + " ".join(f"{name}={value:.6g}" for name, value in raw.items())
    )
    attempted = len(seeds) * REPEATS
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_s_per_wall_s": sim_s / run_s["scaled"],
        "peak_rss_mb": rss_kb / 1024.0,
        **query_metrics(latencies["scaled"]),
        "fail_ratio": max(failed / attempted, FAIL_RATIO_FLOOR),
    }
    log(
        f"samples: setups={len(setups)} queries={len(latencies['scaled'])} "
        f"(fastest of {REPEATS}, scaled to the reference host speed)"
    )
    return attempted, failed, metrics


def timings(reports: List[dict], key: str, kind: str) -> List[List[float]]:
    """One host-time series per repetition, ``raw`` or ``scaled``.

    ``scaled`` multiplies each repetition's times by its process's
    :func:`hostspeed.scale` factor.
    """
    if kind == "raw":
        return [report[key] for report in reports]
    return [
        [value * hostspeed.scale(report["kernel_s"]) for value in report[key]]
        for report in reports
    ]


def trace_sim(workload: str, seed: int, seconds: float) -> Tuple[int, int, Dict[str, float]]:
    """Traced: the run's first world, untraced for reference, then traced."""
    world = world_seeds(workload, seed, seconds)[0]
    _setup, reference = spawn_world(workload, world, None)
    path = OUT / f"spans-{workload}-{world}.jsonl"
    _setup, report = spawn_world(workload, world, path)
    problems = list(report["problems"]) + [
        f"handler module without a layer: {module}"
        for module in unmapped(report["handler_modules"])
    ]
    if report["digest"] != reference["digest"]:
        problems.append("tracing changed the simulated statistics")
    extra = {
        "peak_state_bytes": report["program"].get("peak_state_bytes", 0.0),
        "overhead_ratio": report["run_s"] / reference["run_s"],
    }
    log(
        f"traced world seed={world} run_s={report['run_s']:.4f} "
        f"untraced run_s={reference['run_s']:.4f} spans={path.name} "
        f"digest={report['digest']} checks={'ok' if not problems else problems}"
    )
    failed = (1 if reference["problems"] else 0) + (1 if problems else 0)
    return 2, failed, layer_metrics(report["trace"], extra)


# ----------------------------------------------------------------------
# glass-wire
# ----------------------------------------------------------------------
def run_glass(seed: int, seconds: float) -> Tuple[int, int, Dict[str, float]]:
    """Untraced: the run's query sequence once per server lifetime."""
    cpu = glasswire.pin_to_one_cpu()
    queries = max(1000, round(seconds / REPEATS * GLASS_QPS))
    log(f"client and server on cpu {cpu}; {queries} queries per server lifetime")
    segments = []
    for repeat in range(REPEATS):
        segment = glasswire.run_segment(
            ROOT, seed, queries, random.Random(seed),
            schema_budget=0 if repeat else glasswire.DIGEST_QUERIES,
        )
        segments.append(segment)
        log(
            f"server seed={seed} repeat={repeat} setup_s={segment.setup_s:.4f} "
            f"queries={segment.attempted} failed={segment.failed} "
            f"sim_s_per_wall_s={segment.sim_s_per_wall_s:.4f} "
            f"checks={'ok' if not segment.problems else segment.problems[:3]}"
        )
    schema = [json.dumps(entry) for entry in segments[0].schema]
    log(f"digest glass-wire seed={seed} sha256={digest_of(schema)}")
    latencies = fastest([s.latencies_s for s in segments])
    attempted = sum(s.attempted for s in segments)
    failed = sum(s.failed for s in segments)
    metrics = {
        "setup_s": statistics.median(s.setup_s for s in segments),
        "sim_s_per_wall_s": statistics.median(s.sim_s_per_wall_s for s in segments),
        "peak_rss_mb": max(float(s.server["maxrss_kb"]) for s in segments) / 1024.0,
        **query_metrics(latencies),
        "fail_ratio": max(failed / attempted, FAIL_RATIO_FLOOR),
    }
    log(f"samples: setups={len(segments)} queries={len(latencies)} (fastest of {REPEATS})")
    return attempted, failed, metrics


def trace_glass(seed: int, seconds: float) -> Tuple[int, int, Dict[str, float]]:
    """Traced: TRACED_QUERIES untraced, then the same queries traced."""
    glasswire.pin_to_one_cpu()
    plain = glasswire.run_segment(ROOT, seed, TRACED_QUERIES, random.Random(seed))
    recorder = tracing.Recorder(tracing.layer_table(ROOT))
    path = OUT / f"spans-glass-wire-server-{seed}.jsonl"
    with recorder:
        traced = glasswire.run_segment(
            ROOT, seed, TRACED_QUERIES, random.Random(seed), path
        )
    recorder.save(OUT / f"spans-glass-wire-client-{seed}.jsonl")
    totals = recorder.totals()
    add_totals(totals, traced.server["trace"])
    checks = [f"server left installed: {name}" for name in traced.server["left_installed"]]
    checks += [f"client left installed: {name}" for name in tracing.installed_wrappers()]
    checks += [
        f"handler module without a layer: {module}"
        for module in unmapped(traced.server["handler_modules"])
    ]
    frames = totals.get("call:TcpTransport.request.n", 0.0)
    if frames != traced.frames_expected:
        checks.append(
            f"transport.frames: traced {frames!r} != proxy sent + retries "
            f"{traced.frames_expected!r}"
        )
    extra = {
        "retries": float(traced.retries),
        "reconnects": float(traced.reconnects),
        "overhead_ratio": math.fsum(traced.latencies_s) / math.fsum(plain.latencies_s),
    }
    problems = plain.problems + traced.problems + checks
    log(
        f"traced server seed={seed} queries={traced.attempted} "
        f"checks={'ok' if not problems else problems[:3]}"
    )
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed + (1 if checks else 0)
    return attempted, failed, layer_metrics(totals, extra)


#: workload -> (untraced run, traced run); each takes (seed, seconds).
WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "flash-crowd": (partial(run_sim, "flash-crowd"), partial(trace_sim, "flash-crowd")),
    "cohort-scale": (partial(run_sim, "cohort-scale"), partial(trace_sim, "cohort-scale")),
    "glass-wire": (run_glass, trace_glass),
}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(parents=True, exist_ok=True)
    untraced, traced = WORKLOADS[args.workload]
    runner = traced if args.trace else untraced
    attempted, failed, values = runner(args.seed, args.seconds)

    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        log(f"{entry['name']:<28} {value:>16.6g} {entry['unit']:<6} ({entry['better']} is better)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Start over with the harness's hash seed (see glasswire.HASH_SEED):
        # the glass-wire client runs in this process.
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        )
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        print(f"benchmark: {error}", file=sys.stderr)
        sys.exit(1)
