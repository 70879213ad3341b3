"""Command-line entry point: run any experiment and print its table.

The experiment list is not maintained here: every ``exp_*`` module
registers an :class:`~repro.experiments.spec.ExperimentSpec` and the
CLI drives :mod:`repro.experiments.registry`.

Examples::

    eona list
    eona run e4
    eona run e2 --seeds 0..4 --parallel
    eona run all --seed 0 --out results/ --format json
    eona trace e2 --seeds 0 --out traces/
    eona lint
    eona lint src/repro/network --format json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import List, Optional

from repro.experiments import registry
from repro.experiments.spec import seeds_arg


def _version() -> str:
    """Installed package version; pyproject's version for src-tree runs."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        return "1.0.0"


def _cmd_list(_args: argparse.Namespace) -> int:
    specs = registry.all_specs()
    width = max(len(spec.exp_id) for spec in specs)
    for spec in specs:
        print(f"  {spec.exp_id.ljust(width)}  {spec.title}")
        variants = ", ".join(variant.name for variant in spec.variants)
        checks = sum(len(variant.checks) for variant in spec.variants)
        print(f"  {''.ljust(width)}  variants: {variants}; {checks} checks")
    return 0


def _resolve_seeds(args: argparse.Namespace) -> List[int]:
    if args.seeds is not None:
        return seeds_arg(args.seeds)
    return [args.seed]


def _resolve_specs(experiment: str) -> Optional[List[object]]:
    if experiment == "all":
        return list(registry.all_specs())
    try:
        return [registry.get(experiment)]
    except KeyError:
        print(
            f"unknown experiment {experiment!r}; try 'eona list'",
            file=sys.stderr,
        )
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    specs = _resolve_specs(args.experiment)
    if specs is None:
        return 2
    seeds = _resolve_seeds(args)
    evaluate = not args.no_checks
    # With --format json, stdout carries nothing but the run artifact(s)
    # so the output can be piped; the human narration moves to stderr.
    json_stdout = args.format == "json"
    chatter = sys.stderr if json_stdout else sys.stdout
    failures = 0
    artifacts = []
    for spec in specs:
        print(f"\n### {spec.exp_id}: {spec.title}", file=chatter)
        tables, artifact = registry.run_experiment(
            spec, seeds, parallel=args.parallel, evaluate=evaluate
        )
        artifacts.append(artifact)
        for table in tables:
            print(file=chatter)
            print(table.table_str(), file=chatter)
            if args.out:
                table.save(args.out, fmt=args.format)
        if evaluate:
            failed = artifact.failed_checks()
            failures += len(failed)
            print(
                f"\n({spec.exp_id}: {len(artifact.checks)} checks over seeds "
                f"{artifact.seeds}, {len(failed)} failed; "
                f"{artifact.wall_time_s:.1f}s wall clock)",
                file=chatter,
            )
            for entry in failed:
                print(
                    f"  FAIL [{entry['variant']} seed={entry['seed']}] "
                    f"{entry['check']}: {entry['detail']}",
                    file=chatter,
                )
        else:
            print(
                f"\n({spec.exp_id} took {artifact.wall_time_s:.1f}s wall clock)",
                file=chatter,
            )
        if args.out:
            path = artifact.save(args.out)
            print(f"(run artifact: {path})", file=chatter)
    if json_stdout:
        if len(artifacts) == 1:
            print(artifacts[0].to_json())
        else:
            print(
                json.dumps(
                    [artifact.to_dict() for artifact in artifacts],
                    indent=2,
                    default=str,
                )
            )
    return 1 if failures else 0


def _trace_diff(args: argparse.Namespace) -> int:
    """``eona trace diff A.jsonl B.jsonl``: structural + latency diff."""
    from repro.obs import analyze, spans

    paths = list(args.extra)
    if len(paths) != 2:
        print("usage: eona trace diff <a.jsonl> <b.jsonl>", file=sys.stderr)
        return 2
    sides = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                sides.append(spans.load_jsonl(handle.read()))
        except (OSError, ValueError) as error:
            print(f"cannot read trace {path!r}: {error}", file=sys.stderr)
            return 2
    labels = [os.path.basename(path) for path in paths]
    if labels[0] == labels[1]:
        labels = ["a", "b"]
    print(
        analyze.render_diff(
            analyze.trace_diff(
                sides[0], sides[1], label_a=labels[0], label_b=labels[1]
            )
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run an experiment with the tracer enabled and report/emit the trace."""
    from repro.obs.trace import TRACER

    if args.experiment == "diff":
        return _trace_diff(args)
    if args.extra:
        print(
            f"unexpected trace arguments {args.extra!r} "
            "(extra paths are only for 'eona trace diff')",
            file=sys.stderr,
        )
        return 2
    specs = _resolve_specs(args.experiment)
    if specs is None:
        return 2
    seeds = _resolve_seeds(args)
    status = 0
    for spec in specs:
        sink = None
        if args.out:
            sink = os.path.join(args.out, f"TRACE_{spec.exp_id}.jsonl")
        TRACER.enable(capacity=args.capacity, sink=sink)
        try:
            # Serial on purpose: the tracer is per-process, and forked
            # workers deliberately deactivate inherited tracers.
            registry.run_experiment(spec, seeds, parallel=False, evaluate=False)
        except Exception as error:  # noqa: BLE001 -- the trace must survive
            # A failed run is exactly when the trace matters: flush what
            # was captured before re-raising would lose it.
            TRACER.disable()
            print(
                f"{spec.exp_id}: run failed after {TRACER.emitted} events: "
                f"{type(error).__name__}: {error}",
                file=sys.stderr,
            )
            if sink is None:
                sys.stdout.write(TRACER.to_jsonl())
            else:
                print(f"(partial trace: {sink})", file=sys.stderr)
            TRACER.close()
            return 1
        finally:
            TRACER.disable()
        counts = TRACER.kind_counts()
        print(
            f"{spec.exp_id}: {TRACER.emitted} events over seeds {seeds}",
            file=sys.stderr,
        )
        for kind, count in counts.items():
            print(f"  {count:>8}  {kind}", file=sys.stderr)
        if sink is not None:
            print(f"(trace: {sink})", file=sys.stderr)
        else:
            # No sink: the ring buffer's JSONL goes to stdout for piping.
            sys.stdout.write(TRACER.to_jsonl())
        if TRACER.emitted == 0:
            print(f"{spec.exp_id}: trace is empty", file=sys.stderr)
            status = 1
        TRACER.close()
    return status


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Causal control-loop analytics over a traced run (DESIGN.md §13).

    The target is an experiment id (the experiment runs serially under
    the tracer) or an existing ``.jsonl`` trace file.  Prints the
    per-phase and per-CDN/group loop-latency tables plus the slowest
    spans; ``--chrome`` additionally exports a ``chrome://tracing``
    JSON, and ``--out`` saves the run artifact with the ``loop.*``
    metrics absorbed into its ``metrics`` block.
    """
    from repro.obs import analyze, spans
    from repro.obs.trace import TRACER

    target = args.target
    artifact = None
    if target.endswith(".jsonl") or os.path.isfile(target):
        try:
            with open(target, encoding="utf-8") as handle:
                events = spans.load_jsonl(handle.read())
        except (OSError, ValueError) as error:
            print(f"cannot read trace {target!r}: {error}", file=sys.stderr)
            return 2
        label = os.path.basename(target)
    else:
        specs = _resolve_specs(target)
        if specs is None or len(specs) != 1:
            if specs is not None:
                print("'analyze' takes one experiment, not 'all'", file=sys.stderr)
            return 2
        spec = specs[0]
        label = spec.exp_id
        seeds = _resolve_seeds(args)
        TRACER.enable(capacity=args.capacity)
        try:
            # Serial: the tracer is per-process (workers deactivate it).
            _tables, artifact = registry.run_experiment(
                spec, seeds, parallel=False, evaluate=True
            )
        finally:
            TRACER.disable()
        events = TRACER.events()
        TRACER.close()
    if not events:
        print(f"{label}: trace is empty, nothing to analyze", file=sys.stderr)
        return 1

    print(f"== {label}: loop latency by phase ==")
    print(analyze.render_latency_table(analyze.loop_latency_rows(events, by="phase")))
    print(f"\n== {label}: loop latency by CDN/group ==")
    print(
        analyze.render_latency_table(
            analyze.loop_latency_rows(events, by="group"), by="group"
        )
    )
    print(f"\n== {label}: slowest spans (top {args.top} per stage) ==")
    print(analyze.render_slowest(analyze.slowest_spans(events, top=args.top)))
    if args.chrome:
        analyze.dump_chrome_trace(events, args.chrome)
        print(f"(chrome trace: {args.chrome})", file=sys.stderr)
    if artifact is not None:
        loop = analyze.loop_metrics_snapshot(events)
        artifact.metrics.setdefault("counters", {}).update(loop["counters"])  # type: ignore[union-attr]
        artifact.metrics.setdefault("histograms", {}).update(loop["histograms"])  # type: ignore[union-attr]
        if args.out:
            path = artifact.save(args.out)
            print(f"(run artifact with loop metrics: {path})", file=sys.stderr)
    elif args.out:
        print("--out needs an experiment target, not a trace file", file=sys.stderr)
        return 2
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """``eona bench compare``: regression-gate runs against artifacts.

    Re-runs each committed ``BENCH_<exp>.json``'s experiment with the
    baseline's seeds and diffs the artifacts: checks that passed must
    still pass, deterministic table numbers must stay within tolerance
    (environment-dependent columns are ignored).  Nonzero exit on any
    regression -- the CI gate.
    """
    from repro.experiments.spec import RunArtifact
    from repro.obs import analyze

    paths: List[str] = []
    for target in args.paths or ["benchmarks/results"]:
        if os.path.isdir(target):
            entries = sorted(
                os.path.join(target, name)
                for name in os.listdir(target)
                if name.startswith("BENCH_") and name.endswith(".json")
            )
            if not entries:
                print(f"no BENCH_*.json under {target!r}", file=sys.stderr)
                return 2
            paths.extend(entries)
        elif os.path.isfile(target):
            paths.append(target)
        else:
            print(f"no such artifact or directory: {target!r}", file=sys.stderr)
            return 2
    regressions = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                baseline = RunArtifact.from_json(handle.read())
        except (OSError, ValueError) as error:
            print(f"cannot load artifact {path!r}: {error}", file=sys.stderr)
            return 2
        try:
            spec = registry.get(baseline.experiment)
        except KeyError:
            print(
                f"{path}: baseline names unknown experiment "
                f"{baseline.experiment!r}",
                file=sys.stderr,
            )
            regressions += 1
            continue
        seeds = seeds_arg(args.seeds) if args.seeds else baseline.seeds
        print(
            f"{baseline.experiment}: re-running seeds {seeds} "
            f"against {path}",
            file=sys.stderr,
        )
        _tables, current = registry.run_experiment(
            spec, seeds, parallel=args.parallel, evaluate=True
        )
        found = analyze.compare_artifacts(
            baseline.to_dict(), current.to_dict(), rtol=args.rtol
        )
        print(analyze.render_regressions(found, baseline.experiment))
        regressions += len(found)
    return 1 if regressions else 0


def _cmd_faults(args: argparse.Namespace) -> int:
    """List registered fault plans; describe or apply one by name."""
    from repro.faults import get_plan, named_plans

    registry.all_specs()  # importing the experiments registers their plans
    target = args.target
    if target is not None:
        try:
            named = get_plan(target)
        except KeyError:
            named = None
        if named is not None:
            plan = named.factory()
            print(plan.describe())
            if args.apply:
                if named.apply is None:
                    print(
                        f"plan {named.name!r} has no canonical applier",
                        file=sys.stderr,
                    )
                    return 2
                counters = named.apply(plan)
                print()
                for key in sorted(counters):
                    print(f"  {counters[key]:>8}  {key}")
            return 0
        if args.apply:
            print(f"--apply needs a plan name, got {target!r}", file=sys.stderr)
            return 2
    plans = named_plans(target)
    if not plans:
        known = ", ".join(plan.name for plan in named_plans())
        print(
            f"no fault plans registered under {target!r}"
            + (f" (known plans: {known})" if known else ""),
            file=sys.stderr,
        )
        return 2
    width = max(len(plan.name) for plan in plans)
    for named in plans:
        events = len(named.factory())
        owner = named.experiment or "-"
        print(
            f"  {named.name.ljust(width)}  [{owner}] {events} events"
            + (f" -- {named.description}" if named.description else "")
        )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """List, show, or validate the committed declarative scenario library."""
    from repro.scenarios import (
        ScenarioError,
        dump_spec,
        library_dir,
        library_names,
        load_file,
        load_library_spec,
        validate_spec,
    )

    if args.action == "list":
        names = library_names()
        if not names:
            print("scenario library is empty", file=sys.stderr)
            return 1
        width = max(len(name) for name in names)
        for name in names:
            spec = load_library_spec(name)
            facts = [f"{len(spec.params)} params"]
            if spec.populations:
                facts.append(f"{len(spec.populations)} populations")
            if spec.phases:
                facts.append(f"{len(spec.phases)} phases")
            if spec.faults:
                facts.append(f"{len(spec.faults)} fault plans")
            print(f"  {name.ljust(width)}  {spec.description.strip()}")
            print(f"  {''.ljust(width)}  {'; '.join(facts)}")
        return 0

    if args.action == "show":
        if not args.names:
            print("'show' needs a scenario name", file=sys.stderr)
            return 2
        try:
            for name in args.names:
                spec = load_library_spec(name)
                print(f"# {library_dir() / (name + '.yaml')}")
                sys.stdout.write(dump_spec(spec))
        except ScenarioError as error:
            print(str(error), file=sys.stderr)
            return 2
        return 0

    # validate: committed library by default; names or .yaml paths when given.
    registry.all_specs()  # importing the experiments registers named fault plans
    targets = args.names or library_names()
    problems = 0
    for target in targets:
        label = target
        try:
            if target.endswith((".yaml", ".yml")) or os.sep in target:
                spec = load_file(target)
            else:
                spec = load_library_spec(target)
            found = validate_spec(spec, strict_named_plans=True)
        except ScenarioError as error:
            found = [str(error)]
        if found:
            problems += len(found)
            for problem in found:
                print(f"  {label}: {problem}")
        else:
            print(f"  {label}: ok")
    if problems:
        print(f"\n{problems} problem(s) across {len(targets)} spec(s)")
        return 1
    print(f"\n{len(targets)} spec(s) valid")
    return 0


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def _serve_infp(args: argparse.Namespace) -> int:
    """Run the InfP plane as a TCP service (the server half of §14)."""
    from repro.experiments.service_worlds import build_infp_service
    from repro.obs.trace import TRACER
    from repro.transport import FrameRecorder, SimPacer, TcpGlassServer

    world = build_infp_service(seed=args.seed, horizon_s=args.horizon)
    # Ring-buffer tracing (no sink): the __trace__ control query streams
    # the server's control-loop events to clients over the same wire.
    TRACER.enable()
    handler = world.service.handle_frame
    recorder = None
    if args.record:
        recorder = FrameRecorder(
            handler, args.record, clock=lambda: world.sim.now
        )
        handler = recorder
    pacer = SimPacer(world.sim, time_scale=args.time_scale)
    server = TcpGlassServer(
        handler,
        host=args.host,
        port=args.port,
        pacer=pacer,
        horizon_s=args.horizon,
        run_for_s=args.run_for,
    )

    def on_bound(port: int) -> None:
        # The parent process synchronizes on this exact line (see
        # service_worlds.spawn_infp_server): keep it first and flushed.
        print(
            f"SERVING port={port} host={args.host} seed={args.seed} "
            f"time_scale={args.time_scale:g} horizon={args.horizon:g}",
            flush=True,
        )
        if args.ready_file:
            with open(args.ready_file, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "port": port,
                        "host": args.host,
                        "seed": args.seed,
                        "time_scale": args.time_scale,
                        "horizon_s": args.horizon,
                        "owners": world.service.owners(),
                    },
                    handle,
                )

    server.on_bound = on_bound
    # SIGINT and SIGTERM both stop the server through KeyboardInterrupt,
    # so the feed, the world and the tracer are closed either way.  Set
    # SIGINT explicitly: a background job of a non-interactive shell
    # inherits it ignored.
    previous = {
        sig: signal.signal(sig, _interrupt) for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        server.serve()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if recorder is not None:
            recorder.close()
        world.infp.stop()
        TRACER.close()
    print(
        f"served connections={server.connections} "
        f"frames={server.frames_served} sim_t={world.sim.now:g}",
        flush=True,
    )
    return 0


def _serve_appp(args: argparse.Namespace, connect: str) -> int:
    """Run the AppP plane against a remote InfP (the client half)."""
    from repro.experiments.service_worlds import run_appp_client
    from repro.transport import RemoteLookingGlass, TcpTransport

    host, _, port_text = connect.rpartition(":")
    transport = TcpTransport(
        host=host or "127.0.0.1", port=int(port_text)
    )
    proxy = RemoteLookingGlass(
        transport,
        owner="isp",
        kind="i2a",
        timeout_s=args.timeout,
        retries=2,
    )
    try:
        row = run_appp_client(proxy, seed=args.seed, horizon_s=args.horizon)
    finally:
        transport.close()
    for key in sorted(row):
        if not key.startswith("_"):
            print(f"{key}: {row[key]}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Launch a plane (or the two-process demo) in live service mode."""
    if args.plane == "infp":
        return _serve_infp(args)
    if args.plane == "appp":
        if not args.connect:
            print("serve appp needs --connect HOST:PORT", file=sys.stderr)
            return 2
        return _serve_appp(args, args.connect)

    # demo: the InfP as a real second OS process, the AppP against it.
    from repro.experiments.service_worlds import spawn_infp_server, stop_server
    from repro.transport import (
        CONTROL_OWNER,
        RemoteLookingGlass,
        TcpTransport,
        drain_trace,
    )

    process, port = spawn_infp_server(
        seed=args.seed,
        time_scale=args.time_scale,
        horizon_s=args.horizon,
        run_for_s=args.run_for or 120.0,
    )
    print(f"infp serving on 127.0.0.1:{port} (pid {process.pid})")
    try:
        exit_code = _serve_appp(args, f"127.0.0.1:{port}")
        transport = TcpTransport(port=port)
        try:
            control = RemoteLookingGlass(
                transport, owner=CONTROL_OWNER, timeout_s=args.timeout
            )
            events, _ = drain_trace(control, requester="appp")
            print(f"server trace events streamed: {len(events)}")
        finally:
            transport.close()
        return exit_code
    finally:
        code = stop_server(process)
        print(f"infp stopped (exit {code})")


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run simlint (repro.analysis) with the arguments collected after 'lint'."""
    from repro.analysis import runner

    return runner.main(args.lint_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eona",
        description=(
            "EONA (HotNets 2014) reproduction: run the per-figure "
            "experiments and print the tables they regenerate."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list registered experiments and their variants"
    )
    list_parser.set_defaults(fn=_cmd_list)

    known = ", ".join(registry.experiment_ids())
    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help=f"{known}, or 'all'")
    run_parser.add_argument("--seed", type=int, default=0, help="single seed")
    run_parser.add_argument(
        "--seeds",
        help="seed sweep, e.g. '0..9' or '0,3,7'; tables become mean±std",
    )
    run_parser.add_argument(
        "--parallel", action="store_true",
        help="run the seed sweep in worker processes",
    )
    run_parser.add_argument(
        "--no-checks", action="store_true",
        help="skip evaluating the spec's shape checks",
    )
    run_parser.add_argument(
        "--out", help="directory to save tables and BENCH_<id>.json artifacts into"
    )
    run_parser.add_argument(
        "--format", choices=("txt", "csv", "json"), default="txt",
        help="file format for --out tables (default: txt)",
    )
    run_parser.set_defaults(fn=_cmd_run)

    trace_parser = subparsers.add_parser(
        "trace",
        help="run an experiment with tracing on; JSONL to --out or stdout; "
        "'trace diff A B' diffs two traces",
    )
    trace_parser.add_argument(
        "experiment", help=f"{known}, 'all', or 'diff' (then two .jsonl paths)"
    )
    trace_parser.add_argument(
        "extra", nargs="*",
        help="for 'diff': the two trace files to compare",
    )
    trace_parser.add_argument("--seed", type=int, default=0, help="single seed")
    trace_parser.add_argument(
        "--seeds", help="seed list, e.g. '0..4' or '0,3' (runs serially)"
    )
    trace_parser.add_argument(
        "--out",
        help="directory receiving TRACE_<id>.jsonl; omit to dump JSONL to stdout",
    )
    trace_parser.add_argument(
        "--capacity", type=int, default=65536,
        help="in-memory ring-buffer size (the sink gets every event)",
    )
    trace_parser.set_defaults(fn=_cmd_trace, parallel=False)

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="loop-latency tables, slowest spans, and Chrome-trace export "
        "from a traced run (DESIGN.md §13)",
    )
    analyze_parser.add_argument(
        "target", help=f"experiment to run under the tracer ({known}) "
        "or an existing TRACE_*.jsonl",
    )
    analyze_parser.add_argument("--seed", type=int, default=0, help="single seed")
    analyze_parser.add_argument(
        "--seeds", help="seed list, e.g. '0..4' or '0,3' (runs serially)"
    )
    analyze_parser.add_argument(
        "--top", type=int, default=3,
        help="slowest spans listed per loop stage (default: 3)",
    )
    analyze_parser.add_argument(
        "--chrome", metavar="PATH",
        help="write a chrome://tracing / Perfetto JSON export here",
    )
    analyze_parser.add_argument(
        "--out",
        help="directory to save the BENCH_<id>.json artifact (loop.* "
        "metrics absorbed) into",
    )
    analyze_parser.add_argument(
        "--capacity", type=int, default=65536,
        help="in-memory ring-buffer size for the traced run",
    )
    analyze_parser.set_defaults(fn=_cmd_analyze, parallel=False)

    bench_parser = subparsers.add_parser(
        "bench",
        help="compare committed BENCH_*.json artifacts against fresh runs; "
        "nonzero exit on regression",
    )
    bench_parser.add_argument(
        "action", choices=("compare",),
        help="'compare' re-runs each baseline's experiment and diffs artifacts",
    )
    bench_parser.add_argument(
        "paths", nargs="*",
        help="BENCH_*.json files or directories holding them "
        "(default: benchmarks/results)",
    )
    bench_parser.add_argument(
        "--seeds", help="override the baseline's seeds, e.g. '0..4'"
    )
    bench_parser.add_argument(
        "--rtol", type=float, default=0.05,
        help="relative tolerance for deterministic numeric columns "
        "(default: 0.05)",
    )
    bench_parser.add_argument(
        "--parallel", action="store_true",
        help="run the seed sweep in worker processes",
    )
    bench_parser.set_defaults(fn=_cmd_bench)

    faults_parser = subparsers.add_parser(
        "faults",
        help="list registered fault plans; describe or apply one (DESIGN.md §10)",
    )
    faults_parser.add_argument(
        "target", nargs="?",
        help="experiment id (list its plans) or plan name (describe it); "
        "omit to list every registered plan",
    )
    faults_parser.add_argument(
        "--apply", action="store_true",
        help="apply the named plan to its experiment's canonical world "
        "and print the resulting faults.* counters",
    )
    faults_parser.set_defaults(fn=_cmd_faults)

    scenarios_parser = subparsers.add_parser(
        "scenarios",
        help="list, show, or validate the declarative scenario library (DESIGN.md §12)",
    )
    scenarios_parser.add_argument(
        "action", choices=("list", "show", "validate"),
        help="'list' the library, 'show' a spec as YAML, or 'validate' specs",
    )
    scenarios_parser.add_argument(
        "names", nargs="*",
        help="scenario names (or .yaml paths for 'validate'); "
        "'validate' with no names checks every committed spec",
    )
    scenarios_parser.set_defaults(fn=_cmd_scenarios)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run a plane as a live service over TCP (DESIGN.md §14)",
    )
    serve_parser.add_argument(
        "plane",
        choices=("appp", "infp", "demo"),
        help=(
            "infp: serve the ISP's I2A glass on a TCP port; appp: run the "
            "application plane against --connect; demo: both, as two "
            "processes"
        ),
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (infp)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="bind port; 0 picks a free one (infp)",
    )
    serve_parser.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="remote InfP service to query (appp)",
    )
    serve_parser.add_argument(
        "--time-scale", type=float, default=60.0,
        help="sim seconds per wall second for the serving world (infp/demo)",
    )
    serve_parser.add_argument(
        "--horizon", type=float, default=600.0,
        help="sim-time horizon of the world on either side",
    )
    serve_parser.add_argument(
        "--run-for", type=float, default=None,
        help="wall-clock lifetime of the server (default: until killed)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=5.0,
        help="per-query TCP timeout before retry (appp/demo)",
    )
    serve_parser.add_argument(
        "--ready-file", default=None,
        help="write a JSON readiness blob (port, owners) here once bound",
    )
    serve_parser.add_argument(
        "--record", default=None,
        help="tee every served frame into this JSONL feed (infp)",
    )
    serve_parser.set_defaults(fn=_cmd_serve)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run simlint, the determinism & layering analyzer (DESIGN.md §7)",
    )
    lint_parser.add_argument(
        "lint_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to simlint (paths, --format, --select, ...)",
    )
    lint_parser.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "lint":
        # Forward everything after 'lint' verbatim: argparse.REMAINDER
        # rejects option-like tokens (e.g. 'lint --list-rules') otherwise.
        from repro.analysis import runner

        return runner.main(arguments[1:])
    args = build_parser().parse_args(arguments)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
