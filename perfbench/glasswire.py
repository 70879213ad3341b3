"""The ``glass-wire`` workload: a closed loop of I2A queries over TCP.

A live InfP plane (``serve_infp.py`` -> ``eona serve infp``) runs in its
own process.  This process is the one client: it holds one
``TcpTransport`` connection and sends a seed-drawn sequence of the three
exported I2A queries through ``RemoteLookingGlass``, each only after the
previous reply returned -- an AppP control loop waits for its answer
before acting.  The draw follows :data:`QUERY_WEIGHTS`, the mix the
program's own I2A client asks.

:class:`InfpServer` owns the server process and always reaps it, also
when the client fails.

Client and server run on one CPU (:func:`pin_to_one_cpu`).  On a
shared multi-core VM a round trip between two CPUs waits for the
other CPU to wake from idle, and that wake-up, not the program, made
most of the latency and nearly all its run-to-run spread (see
``perfbench/NOISE.md``).  On one CPU a round trip is two context
switches, and the latency is the program's per-message cost.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: The I2A queries the InfP plane exports, and the share of each in the
#: drawn sequence.  The program's only I2A client, ``EonaAppP``, asked
#: ``congestion`` in every one of its queries in the E2 EONA world that
#: ``eona serve infp`` serves (scenario seeds 0-9; counts in
#: ``perfbench/README.md``); it asks ``peering_points`` only when it
#: weighs a CDN switch against a peering fix, and never
#: ``peering_decisions``.  Those two keep the smallest share, 1 % each,
#: so every exported query is still exercised.
QUERIES = ("congestion", "peering_points", "peering_decisions")
QUERY_WEIGHTS = (0.98, 0.01, 0.01)

#: Queries per run whose request/reply schema goes into the digest.
DIGEST_QUERIES = 300

#: Host seconds allowed for a started process to print its first line
#: (the server's SERVING, a world's READY), and for the server to exit
#: once its run is over.
STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0

#: Lifetime cap of a server; the client stops it sooner, once its
#: queries are done.
SERVE_CAP_S = 120.0

#: Every process of a run hashes strings with this seed.  The program's
#: results do not depend on it (the digests match across seeds), but its
#: speed does, because dict and set layouts change with the seed: over
#: six runs of one flash-crowd world, its host time relative to a fixed
#: pure-Python loop spread by 0.16 with random hash seeds and by 0.05
#: with a fixed one.  A fixed seed keeps that variance out of
#: run-to-run comparisons.
HASH_SEED = "0"


class BenchError(RuntimeError):
    """The harness could not run the workload."""


def pin_to_one_cpu() -> Optional[int]:
    """Restrict this process, and the processes it starts, to one CPU.

    Takes the lowest CPU this process may run on and returns it, or
    ``None`` where the platform cannot set affinity.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def program_env(root: Path) -> Dict[str, str]:
    """Environment of a process the harness starts: ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


class InfpServer:
    """An ``eona serve infp`` process, started on enter and reaped on exit.

    The server ends itself after ``run_for_s`` host seconds of serving
    (the CLI's ``--run-for``), or earlier on :meth:`interrupt` (the
    CLI's Ctrl-C path).

    Args:
        root: Root of the checkout (``src/`` and ``perfbench/`` below it).
        seed: Seed of the served world.
        run_for_s: Host seconds the server serves once bound.
        trace_path: Where the server writes its spans; ``None`` = untraced.
    """

    def __init__(
        self, root: Path, seed: int, run_for_s: float, trace_path: Optional[Path] = None
    ):
        self.root = root
        self.seed = seed
        self.run_for_s = run_for_s
        self.trace_path = trace_path
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.started_at = 0.0
        self.serving_at = 0.0
        self.output = ""

    def __enter__(self) -> "InfpServer":
        argv = [sys.executable, str(self.root / "perfbench" / "serve_infp.py"),
                "--seed", str(self.seed), "--run-for", str(self.run_for_s)]
        if self.trace_path is not None:
            argv += ["--trace", str(self.trace_path)]
        env = program_env(self.root)
        self.started_at = time.perf_counter()
        # stderr is kept and shown only if the server fails.
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=self.root, env=env, text=True,
        )
        try:
            line = read_line(self.process, STARTUP_TIMEOUT_S)
            self.serving_at = time.perf_counter()
            if not line.startswith("SERVING "):
                self.process.kill()
                _out, errors = self.process.communicate()
                raise BenchError(f"serve infp did not come up: {line!r} {errors[-2000:]}")
            fields = dict(
                pair.split("=", 1) for pair in line.split()[1:] if "=" in pair
            )
            self.port = int(fields["port"])
        except BaseException:
            self._reap()
            raise
        return self

    def interrupt(self) -> None:
        """Ask the server to stop serving now (SIGINT, as Ctrl-C)."""
        assert self.process is not None
        self.process.send_signal(signal.SIGINT)
        self.run_for_s = 0.0

    def wait(self) -> Dict[str, object]:
        """Wait for the server to end its run, and parse its report."""
        assert self.process is not None
        try:
            self.output, errors = self.process.communicate(
                timeout=self.run_for_s + STOP_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            self._reap()
            raise BenchError("serve infp did not exit after its run") from None
        report: Dict[str, object] = {}
        for line in self.output.splitlines():
            if line.startswith("served "):
                fields = dict(pair.split("=", 1) for pair in line.split()[1:])
                report["sim_t"] = float(fields["sim_t"])
                report["frames_served"] = int(fields["frames"])
            elif line.startswith("PERFBENCH "):
                report.update(json.loads(line[len("PERFBENCH "):]))
        if "sim_t" not in report or "maxrss_kb" not in report:
            raise BenchError(
                f"serve infp exited without its report: {self.output!r} {errors[-2000:]}"
            )
        return report

    def _reap(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdout, self.process.stderr):
            if stream is not None:
                stream.close()

    def __exit__(self, *exc: object) -> None:
        self._reap()


def read_line(process: subprocess.Popen, timeout_s: float) -> str:
    """One stdout line from ``process``, or BenchError after ``timeout_s``."""
    with selectors.DefaultSelector() as selector:
        selector.register(process.stdout, selectors.EVENT_READ)
        if not selector.select(timeout_s):
            raise BenchError(f"no output from pid {process.pid} in {timeout_s:g}s")
    return process.stdout.readline()


@dataclass
class Segment:
    """One server lifetime: set-up, then a closed loop of queries."""

    setup_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    schema: List[object] = field(default_factory=list)
    server: Dict[str, object] = field(default_factory=dict)
    sim_s_per_wall_s: float = 0.0
    frames_expected: int = 0
    retries: int = 0
    reconnects: int = 0


def run_segment(
    root: Path,
    seed: int,
    queries: int,
    rng: object,
    server_trace: Optional[Path] = None,
    schema_budget: int = 0,
) -> Segment:
    """Start a server, run a closed loop of ``queries`` queries, stop it.

    ``rng`` (a ``random.Random``) draws the query sequence.  Set-up runs
    from starting the server process to the first reply on a fresh
    connection.  Once the queries are done the server is interrupted
    and reaped.  The first ``schema_budget`` replies' request/reply
    schema is kept for the run's digest.
    """
    from repro.core.interfaces import QueryResult
    from repro.transport import RemoteLookingGlass, TcpTransport

    segment = Segment()
    with InfpServer(root, seed, SERVE_CAP_S, server_trace) as server:
        transport = TcpTransport(port=server.port)
        proxy = RemoteLookingGlass(
            transport, owner="isp", kind="i2a", timeout_s=5.0, retries=2
        )
        try:
            proxy.query("appp", "congestion")
            segment.setup_s = time.perf_counter() - server.started_at
            while segment.attempted < queries:
                query = rng.choices(QUERIES, QUERY_WEIGHTS)[0]
                segment.attempted += 1
                started = time.perf_counter()
                try:
                    result = proxy.query("appp", query)
                except Exception as error:  # noqa: BLE001 -- every failure is counted
                    segment.latencies_s.append(time.perf_counter() - started)
                    segment.failed += 1
                    segment.problems.append(f"{query}: {type(error).__name__}: {error}")
                    continue
                segment.latencies_s.append(time.perf_counter() - started)
                if not isinstance(result, QueryResult) or result.query != query:
                    segment.failed += 1
                    segment.problems.append(f"asked {query!r}, got {result!r:.200}")
                elif len(segment.schema) < schema_budget:
                    segment.schema.append(_schema(query, result.payload))
            segment.frames_expected = proxy.queries_sent + proxy.retries_used
            segment.retries = proxy.retries_used
            segment.reconnects = max(0, transport.reconnects - 1)
        finally:
            transport.close()
        served_s = time.perf_counter() - server.serving_at
        server.interrupt()
        segment.server = server.wait()
        segment.sim_s_per_wall_s = float(segment.server["sim_t"]) / served_s
    return segment


def _schema(query: str, payload: object) -> object:
    """The wire-visible shape of a reply: its query and field names."""
    if isinstance(payload, list):
        keys = sorted(payload[0]) if payload and isinstance(payload[0], dict) else []
        return (query, "list", keys)
    if isinstance(payload, dict):
        return (query, "dict", sorted(payload))
    return (query, type(payload).__name__)
