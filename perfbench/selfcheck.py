"""Measure the benchmark's own noise: run it against itself.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py --workloads flash-crowd,cohort-scale,glass-wire \\
        --seeds 10 --sets 2 --out perfbench/out/selfcheck.json

Runs ``run.py --trace 0`` on seeds 0..N-1 for each workload, ``--sets``
times over on the same code.  The sets are interleaved: for each seed
every workload runs once per set, and the order of the sets alternates
from seed to seed, so no set is favoured by running first or at a
quieter moment of the host.  Per workload and end-to-end metric it
reports:

* ``spread`` -- the distance between the first and third quartile of a
  set's values (``statistics.quantiles(values, n=4)``) as a share of
  their median, for each set;
* ``drift`` -- how much worse one set's median is than another's, as a
  share of the other, taken in both directions; the larger is shown;
* ``pair_fp`` -- the share of same-seed run pairs in which either run
  reads worse than the other by more than the metric's bound: the
  false-positive rate of a gate that compares single runs.

A set-level false positive is a drift beyond the bound.  Every run's
result line is kept in the ``--out`` file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
RAW_PREFIX = "raw host time:"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {completed.returncode}\n"
                           f"{completed.stderr[-2000:]}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    # The sim workloads also print their figures in raw host time.
    for line in lines:
        if line.startswith(RAW_PREFIX):
            pairs = (field.split("=") for field in line[len(RAW_PREFIX):].split())
            result["raw"] = {name: float(value) for name, value in pairs}
    return result


def worse_by(value: float, reference: float, better: str) -> float:
    """How much worse ``value`` is than ``reference``, as a share of it."""
    change = (value - reference) / reference
    return change if better == "lower" else -change


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summarize(spec: dict, runs: Dict[str, List[List[dict]]]) -> Dict[str, Dict[str, dict]]:
    """Spread, two-way drift and pair false positives per metric."""
    summary: Dict[str, Dict[str, dict]] = {}
    for workload, sets in runs.items():
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            values = [[r["metrics"][name]["value"] for r in results] for results in sets]
            medians = [statistics.median(v) for v in values]
            drift = max(
                (
                    worse_by(medians[j], medians[i], better)
                    for i, j in itertools.permutations(range(len(sets)), 2)
                ),
                default=0.0,
            )
            pairs = [
                max(worse_by(b, a, better), worse_by(a, b, better)) > bound
                for a, b in zip(values[0], values[-1])
            ]
            summary[workload][name] = {
                "medians": medians,
                "spreads": [spread(v) for v in values],
                "drift": drift,
                "pair_fp": sum(pairs) / len(pairs),
                "bound": bound,
            }
    return summary


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out" / "selfcheck.json"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    workloads = args.workloads.split(",")
    runs: Dict[str, List[List[dict]]] = {w: [[] for _ in range(args.sets)] for w in workloads}
    for seed in range(args.seeds):
        order = list(range(args.sets))
        if seed % 2:
            order.reverse()
        for workload in workloads:
            for set_index in order:
                result = run_once(workload, seed, seconds)
                print(f"{workload} set={set_index} seed={seed} wall_s={result['wall_s']:.1f} "
                      f"correct={result['correct']}", flush=True)
                runs[workload][set_index].append(result)
        # Kept as they come, so a failed run later loses nothing.
        out.write_text(json.dumps({"runs": runs}, indent=1), encoding="utf-8")

    summary = summarize(spec, runs) if args.seeds >= 2 else {}
    print(f"\n{'workload':<13} {'metric':<17} {'medians':>21} {'spreads':>13} "
          f"{'drift':>7} {'pair_fp':>7} {'bound':>5}")
    for workload, metrics in summary.items():
        for name, entry in metrics.items():
            medians = "/".join(f"{m:.5g}" for m in entry["medians"])
            spreads = "/".join(f"{s:.3f}" for s in entry["spreads"])
            print(f"{workload:<13} {name:<17} {medians:>21} {spreads:>13} "
                  f"{entry['drift']:>7.3f} {entry['pair_fp']:>7.2f} {entry['bound']:>5}")
    out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
