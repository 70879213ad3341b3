"""CLI observability surfaces: --version, trace, profile, JSON stdout."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.context import build_context
from repro.experiments import registry
from repro.experiments.common import ExperimentResult
from repro.experiments.spec import ExperimentSpec, VariantSpec
from repro.network.topology import NodeKind, Topology


def _mini_runner(seed: int) -> ExperimentResult:
    """A real (but tiny) simulated world so instrumentation fires."""
    topo = Topology("mini")
    topo.add_node("a", NodeKind.SERVER)
    topo.add_node("b", NodeKind.CLIENT)
    topo.add_link("a", "b", 10.0, delay_ms=1)
    ctx = build_context(topology=topo, seed=seed)
    rng = ctx.rng.get("sizes")
    for _ in range(4):
        ctx.network.start_transfer("a", "b", size_mbit=rng.uniform(1.0, 20.0))
    ctx.run(until=60.0)
    ctx.network.sync()
    result = ExperimentResult(name="E99-mini", notes=f"seed={seed}")
    result.add_row(
        mode="mini",
        completed=float(ctx.network.completed_transfers),
        _counters=ctx.allocation_counters(),
    )
    return result


def _idle_runner(seed: int) -> ExperimentResult:
    """A world where nothing happens: no events, no trace."""
    result = ExperimentResult(name="E99-idle")
    result.add_row(mode="idle", completed=0.0)
    return result


MINI_SPEC = ExperimentSpec(
    exp_id="e99",
    title="synthetic mini world",
    source="tests",
    module=__name__,
    variants=(VariantSpec(name="mini", runner=_mini_runner),),
)

IDLE_SPEC = ExperimentSpec(
    exp_id="e98",
    title="synthetic idle world",
    source="tests",
    module=__name__,
    variants=(VariantSpec(name="idle", runner=_idle_runner),),
)


@pytest.fixture
def synthetic_registry(monkeypatch):
    specs = {spec.exp_id: spec for spec in (MINI_SPEC, IDLE_SPEC)}

    def fake_get(exp_id: str) -> ExperimentSpec:
        try:
            return specs[exp_id]
        except KeyError:
            raise KeyError(exp_id)

    monkeypatch.setattr(registry, "get", fake_get)


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("eona ")
        assert out.strip().split()[-1][0].isdigit()


class TestUnknownExperiment:
    def test_unknown_id_is_rc2(self, capsys):
        assert main(["trace", "e77777"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_to_out_directory(self, synthetic_registry, tmp_path, capsys):
        out = tmp_path / "traces"
        rc = main(["trace", "e99", "--seeds", "0", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        sink = out / "TRACE_e99.jsonl"
        lines = sink.read_text().splitlines()
        assert lines  # instrumented mini world emitted events
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "allocator-solve" in kinds
        # Summary goes to stderr; stdout stays empty in --out mode.
        assert "events over seeds" in captured.err
        assert captured.out == ""

    def test_trace_stdout_is_pure_jsonl(self, synthetic_registry, capsys):
        rc = main(["trace", "e99", "--seeds", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert lines
        for line in lines:
            event = json.loads(line)
            assert "t" in event and "kind" in event

    def test_trace_is_deterministic_across_runs(
        self, synthetic_registry, tmp_path, capsys
    ):
        for name in ("first", "second"):
            assert (
                main(["trace", "e99", "--seeds", "0", "--out", str(tmp_path / name)])
                == 0
            )
        capsys.readouterr()
        first = (tmp_path / "first" / "TRACE_e99.jsonl").read_bytes()
        second = (tmp_path / "second" / "TRACE_e99.jsonl").read_bytes()
        assert first == second

    def test_empty_trace_is_rc1(self, synthetic_registry, capsys):
        rc = main(["trace", "e98", "--seeds", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "trace is empty" in captured.err


class TestRunJsonStdout:
    def test_json_format_emits_pure_json_on_stdout(
        self, synthetic_registry, capsys
    ):
        rc = main(["run", "e99", "--seeds", "0", "--no-checks", "--format", "json"])
        captured = capsys.readouterr()
        assert rc == 0
        artifact = json.loads(captured.out)  # whole stdout is one document
        assert artifact["schema"] == "eona-run-artifact/2"
        assert set(artifact["metrics"]) == {"counters", "gauges", "histograms"}
        assert artifact["metrics"]["gauges"]["run.seeds"] == 1.0
        # The human narration still happened -- on stderr.
        assert "e99" in captured.err

    def test_txt_format_keeps_stdout_human(self, synthetic_registry, capsys):
        rc = main(["run", "e99", "--seeds", "0", "--no-checks"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "E99-mini" in captured.out
        with pytest.raises(json.JSONDecodeError):
            json.loads(captured.out)


def _failing_runner(seed: int) -> ExperimentResult:
    """Emits real events, then dies -- the trace must still flush."""
    _mini_runner(seed)
    raise RuntimeError("mid-run failure")


FAIL_SPEC = ExperimentSpec(
    exp_id="e97",
    title="synthetic failing world",
    source="tests",
    module=__name__,
    variants=(VariantSpec(name="fail", runner=_failing_runner),),
)


def _loop_runner(seed: int) -> ExperimentResult:
    """Emits one hand-built causal loop through the global tracer."""
    from repro.obs.trace import TRACER

    if TRACER.enabled:
        now = {"t": 0.0}
        TRACER.bind_clock(lambda: now["t"])

        def emit(t, kind, **fields):
            now["t"] = t
            TRACER.emit(kind, **fields)

        beacon = TRACER.new_cause()
        emit(10.0, "a2i-report", cause=beacon, via="beacon")
        flush = TRACER.new_cause()
        emit(15.0, "agg-flush", cause=flush, parents=[beacon])
        hint = TRACER.new_cause()
        emit(20.0, "i2a-hint", cause=hint, parent=flush)
        action = TRACER.new_cause()
        emit(21.0, "cdn-switch", cause=action, parent=hint, to_cdn="cdn-b")
        emit(30.0, "qoe-recovery", cause=TRACER.new_cause(), parent=action)
    result = ExperimentResult(name="E96-loop")
    result.add_row(mode="loop", completed=1.0)
    return result


LOOP_SPEC = ExperimentSpec(
    exp_id="e96",
    title="synthetic causal loop",
    source="tests",
    module=__name__,
    variants=(VariantSpec(name="loop", runner=_loop_runner),),
)


@pytest.fixture
def loop_registry(monkeypatch):
    specs = {
        spec.exp_id: spec
        for spec in (MINI_SPEC, IDLE_SPEC, FAIL_SPEC, LOOP_SPEC)
    }

    def fake_get(exp_id: str) -> ExperimentSpec:
        try:
            return specs[exp_id]
        except KeyError:
            raise KeyError(exp_id)

    monkeypatch.setattr(registry, "get", fake_get)


class TestTraceFailureFlush:
    def test_failed_run_still_flushes_stdout(self, loop_registry, capsys):
        rc = main(["trace", "e97", "--seeds", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "run failed after" in captured.err
        assert "mid-run failure" in captured.err
        # The partial trace reached stdout as parseable JSONL.
        lines = captured.out.splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "allocator-solve" in kinds

    def test_failed_run_keeps_sink_file(self, loop_registry, tmp_path, capsys):
        out = tmp_path / "traces"
        rc = main(["trace", "e97", "--seeds", "0", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "partial trace" in captured.err
        sink = out / "TRACE_e97.jsonl"
        assert sink.read_text().splitlines()  # events up to the crash


class TestTraceDiffCommand:
    def test_diff_needs_two_paths(self, capsys):
        assert main(["trace", "diff"]) == 2
        assert "usage: eona trace diff" in capsys.readouterr().err

    def test_extra_paths_rejected_outside_diff(self, loop_registry, capsys):
        assert main(["trace", "e99", "extra.jsonl"]) == 2
        assert "unexpected trace arguments" in capsys.readouterr().err

    def test_diff_of_trace_files(self, loop_registry, tmp_path, capsys):
        for name, exp in (("quo.jsonl", "e99"), ("loop.jsonl", "e96")):
            rc = main(["trace", exp, "--seeds", "0"])
            captured = capsys.readouterr()
            assert rc == 0
            (tmp_path / name).write_text(captured.out)
        rc = main(
            ["trace", "diff", str(tmp_path / "quo.jsonl"), str(tmp_path / "loop.jsonl")]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "i2a-hint->cdn-switch" in captured.out
        assert "(only in loop.jsonl)" in captured.out

    def test_diff_rejects_unreadable_file(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        a.write_text('{"t": 0, "kind": "x"}\n')
        rc = main(["trace", "diff", str(a), str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_analyze_experiment_prints_tables(self, loop_registry, capsys):
        rc = main(["analyze", "e96", "--seeds", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "loop latency by phase" in captured.out
        assert "beacon_to_flush" in captured.out
        assert "slowest spans" in captured.out
        assert "cdn-b" in captured.out  # the group table attributes the switch

    def test_analyze_trace_file(self, loop_registry, tmp_path, capsys):
        rc = main(["trace", "e96", "--seeds", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        trace = tmp_path / "loop.jsonl"
        trace.write_text(captured.out)
        rc = main(["analyze", str(trace)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "hint_to_action" in captured.out

    def test_analyze_chrome_export(self, loop_registry, tmp_path, capsys):
        chrome = tmp_path / "chrome.json"
        rc = main(["analyze", "e96", "--seeds", "0", "--chrome", str(chrome)])
        captured = capsys.readouterr()
        assert rc == 0
        doc = json.loads(chrome.read_text())
        names = {record["name"] for record in doc["traceEvents"]}
        assert "i2a-hint" in names

    def test_analyze_out_absorbs_loop_metrics(
        self, loop_registry, tmp_path, capsys
    ):
        rc = main(["analyze", "e96", "--seeds", "0", "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        artifact = json.loads((tmp_path / "BENCH_e96.json").read_text())
        histograms = artifact["metrics"]["histograms"]
        assert histograms["loop.hint_to_action"]["total"] == 1
        assert artifact["metrics"]["counters"]["loop.beacon_to_flush_samples"] == 1

    def test_analyze_out_rejected_for_trace_files(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"t": 0, "kind": "x"}\n')
        rc = main(["analyze", str(trace), "--out", str(tmp_path)])
        assert rc == 2
        assert "--out needs an experiment target" in capsys.readouterr().err

    def test_analyze_empty_trace_is_rc1(self, loop_registry, capsys):
        rc = main(["analyze", "e98", "--seeds", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "trace is empty" in captured.err


class TestBenchCompare:
    def _baseline(self, tmp_path) -> str:
        _tables, artifact = registry.run_experiment(
            MINI_SPEC, [0], parallel=False, evaluate=True
        )
        return artifact.save(str(tmp_path))

    def test_clean_rerun_passes(self, loop_registry, tmp_path, capsys):
        path = self._baseline(tmp_path)
        rc = main(["bench", "compare", path])
        captured = capsys.readouterr()
        assert rc == 0
        assert "no regressions" in captured.out

    def test_directory_expansion(self, loop_registry, tmp_path, capsys):
        self._baseline(tmp_path)
        rc = main(["bench", "compare", str(tmp_path)])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_tampered_baseline_gates(self, loop_registry, tmp_path, capsys):
        path = self._baseline(tmp_path)
        doc = json.loads(open(path).read())
        for row in doc["tables"][0]["rows"]:
            if isinstance(row.get("completed"), float):
                row["completed"] = row["completed"] * 10 + 100.0
        doc["checks"].append(
            {
                "variant": "mini",
                "seed": 0,
                "check": "completed > 1e9",
                "passed": True,
                "detail": "synthetic",
            }
        )
        with open(path, "w") as handle:
            json.dump(doc, handle)
        rc = main(["bench", "compare", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert "check-missing" in captured.out
        assert "value-drift" in captured.out

    def test_missing_directory_is_rc2(self, capsys):
        assert main(["bench", "compare", "/no/such/dir"]) == 2
        assert "no such artifact" in capsys.readouterr().err
