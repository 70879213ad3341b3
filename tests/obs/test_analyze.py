"""Analytics unit tests: latency tables, Chrome export, bench gate."""

from __future__ import annotations

import json

import pytest

from repro.obs import analyze


def _ev(t, kind, cause=None, parent=None, parents=None, **fields):
    event = {"t": float(t), "kind": kind}
    if cause is not None:
        event["cause"] = cause
    if parent is not None:
        event["parent"] = parent
    if parents is not None:
        event["parents"] = parents
    event.update(fields)
    return event


def _loop_trace():
    return [
        _ev(0.0, "phase-transition", phase="ramp"),
        _ev(10.0, "a2i-report", cause=1, via="beacon"),
        _ev(12.0, "a2i-report", cause=2, via="beacon"),
        _ev(15.0, "agg-flush", cause=3, parents=[1, 2]),
        _ev(20.0, "i2a-hint", cause=4, parent=3),
        _ev(21.0, "cdn-switch", cause=5, parent=4, to_cdn="cdn-b"),
        _ev(30.0, "qoe-recovery", cause=6, parent=5),
    ]


class TestLoopLatencyRows:
    def test_rows_by_phase(self):
        rows = analyze.loop_latency_rows(_loop_trace(), by="phase")
        stages = [row["stage"] for row in rows]
        assert stages == [
            "beacon_to_flush",
            "beacon_to_hint",
            "hint_to_action",
            "action_to_recovery",
        ]
        flush = rows[0]
        assert flush["phase"] == "ramp"
        assert flush["count"] == 2
        assert flush["mean_s"] == pytest.approx(4.0)
        assert flush["max_s"] == pytest.approx(5.0)

    def test_rows_by_group(self):
        rows = analyze.loop_latency_rows(_loop_trace(), by="group")
        action = next(r for r in rows if r["stage"] == "hint_to_action")
        assert action["group"] == "cdn-b"

    def test_all_bucket_only_with_multiple_keys(self):
        events = _loop_trace() + [_ev(100.0, "phase-transition", phase="peak")]
        events += [
            _ev(110.0, "a2i-report", cause=7, via="beacon"),
            _ev(115.0, "agg-flush", cause=8, parents=[7]),
        ]
        rows = analyze.loop_latency_rows(events, by="phase")
        flush_rows = [r for r in rows if r["stage"] == "beacon_to_flush"]
        assert [r["phase"] for r in flush_rows] == ["peak", "ramp", "all"]
        assert flush_rows[-1]["count"] == 3

    def test_rejects_unknown_attribution(self):
        with pytest.raises(ValueError, match="attribution"):
            analyze.loop_latency_rows([], by="owner")

    def test_render_empty(self):
        assert "no loop-latency samples" in analyze.render_latency_table([])

    def test_render_table_alignment(self):
        text = analyze.render_latency_table(
            analyze.loop_latency_rows(_loop_trace())
        )
        lines = text.splitlines()
        assert lines[0].startswith("stage")
        assert len({len(line) for line in lines[:2]}) == 1  # header == rule


class TestLoopMetricsSnapshot:
    def test_snapshot_shape_matches_registry(self):
        snap = analyze.loop_metrics_snapshot(_loop_trace())
        assert snap["counters"]["loop.beacon_to_flush_samples"] == 2
        histogram = snap["histograms"]["loop.hint_to_action"]
        assert set(histogram) == {
            "edges",
            "counts",
            "total",
            "sum",
            "p50",
            "p95",
            "p99",
        }
        assert histogram["total"] == 1
        assert histogram["sum"] == pytest.approx(1.0)
        assert histogram["edges"] == list(analyze.LOOP_LATENCY_EDGES)

    def test_empty_stages_are_omitted(self):
        snap = analyze.loop_metrics_snapshot([])
        assert snap == {"counters": {}, "histograms": {}}


class TestSlowestSpans:
    def test_ancestry_on_slowest(self):
        entries = analyze.slowest_spans(_loop_trace(), top=1)
        recovery = next(
            e for e in entries if e["stage"] == "action_to_recovery"
        )
        assert recovery["latency_s"] == pytest.approx(9.0)
        assert recovery["ancestry"][0] == "qoe-recovery@t=30"
        assert recovery["ancestry"][-1] == "a2i-report@t=10"
        text = analyze.render_slowest(entries)
        assert "action_to_recovery: 9.00s" in text

    def test_render_no_spans(self):
        assert analyze.render_slowest([]) == "(no spans)"


class TestChromeTrace:
    def test_export_shape(self):
        doc = analyze.chrome_trace(_loop_trace())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        records = doc["traceEvents"]
        metadata = [r for r in records if r["ph"] == "M"]
        instants = [r for r in records if r["ph"] == "i"]
        starts = [r for r in records if r["ph"] == "s"]
        finishes = [r for r in records if r["ph"] == "f"]
        # One thread per event kind (no owner/policy in the synthetic
        # trace); every event is an instant; one arrow per causal edge
        # (2 beacons->flush, flush->hint, hint->switch, switch->recovery).
        assert len(metadata) == 6
        assert len(instants) == len(_loop_trace())
        assert len(starts) == len(finishes) == 5
        # Sim seconds become microseconds.
        hint = next(r for r in instants if r["name"] == "i2a-hint")
        assert hint["ts"] == pytest.approx(20.0 * 1e6)

    def test_span_events_become_slices(self):
        events = [_ev(8.0, "span", t_start=3.0, dur=5.0, op="solve")]
        records = analyze.chrome_trace(events)["traceEvents"]
        slices = [r for r in records if r["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["ts"] == pytest.approx(3.0 * 1e6)
        assert slices[0]["dur"] == pytest.approx(5.0 * 1e6)

    def test_dump_is_valid_json(self, tmp_path):
        path = tmp_path / "chrome" / "trace.json"
        analyze.dump_chrome_trace(_loop_trace(), str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"


def _artifact(rows=None, checks=None):
    return {
        "schema": "eona-run-artifact/2",
        "experiment": "e99",
        "checks": checks or [],
        "tables": [
            {
                "variant": "mini",
                "name": "E99",
                "notes": "",
                "rows": rows if rows is not None else [{"mode": "mini", "x": 10.0}],
            }
        ],
    }


def _check(check="x > 0", passed=True, variant="mini", seed=0):
    return {
        "variant": variant,
        "seed": seed,
        "check": check,
        "passed": passed,
        "detail": check,
    }


class TestCompareArtifacts:
    def test_clean_run_has_no_regressions(self):
        baseline = _artifact(checks=[_check()])
        assert analyze.compare_artifacts(baseline, baseline) == []

    def test_check_regression(self):
        baseline = _artifact(checks=[_check(passed=True)])
        current = _artifact(checks=[_check(passed=False)])
        (reg,) = analyze.compare_artifacts(baseline, current)
        assert reg["kind"] == "check-regressed"
        assert "x > 0" in reg["where"]

    def test_check_missing(self):
        baseline = _artifact(checks=[_check(passed=True)])
        current = _artifact(checks=[])
        (reg,) = analyze.compare_artifacts(baseline, current)
        assert reg["kind"] == "check-missing"

    def test_baseline_failures_are_not_regressions(self):
        # "No worse than seed": a check that already failed may keep
        # failing (or vanish) without tripping the gate.
        baseline = _artifact(checks=[_check(passed=False)])
        current = _artifact(checks=[])
        assert analyze.compare_artifacts(baseline, current) == []

    def test_value_drift_beyond_rtol(self):
        baseline = _artifact(rows=[{"x": 100.0}])
        current = _artifact(rows=[{"x": 106.0}])
        (reg,) = analyze.compare_artifacts(baseline, current, rtol=0.05)
        assert reg["kind"] == "value-drift"
        assert analyze.compare_artifacts(baseline, current, rtol=0.10) == []

    def test_env_dependent_columns_ignored(self):
        baseline = _artifact(rows=[{"wall_s": 1.0, "events_per_sec": 9.0}])
        current = _artifact(rows=[{"wall_s": 99.0, "events_per_sec": 1.0}])
        assert analyze.compare_artifacts(baseline, current) == []

    def test_simulated_time_columns_are_gated(self):
        # A model quantity in simulated seconds is deterministic, so its
        # drift is a regression even though the column says "time".
        baseline = _artifact(rows=[{"mean_join_time_s": 0.001}])
        current = _artifact(rows=[{"mean_join_time_s": 0.249}])
        (reg,) = analyze.compare_artifacts(baseline, current)
        assert reg["kind"] == "value-drift"
        assert "mean_join_time_s" in reg["where"]

    def test_non_numeric_and_bool_columns_ignored(self):
        baseline = _artifact(rows=[{"mode": "mini", "ok": True}])
        current = _artifact(rows=[{"mode": "other", "ok": False}])
        assert analyze.compare_artifacts(baseline, current) == []

    def test_structure_missing_variant(self):
        baseline = _artifact()
        current = dict(_artifact(), tables=[])
        (reg,) = analyze.compare_artifacts(baseline, current)
        assert reg["kind"] == "structure"
        assert "variant" in reg["where"]

    def test_structure_row_count_change(self):
        baseline = _artifact(rows=[{"x": 1.0}, {"x": 2.0}])
        current = _artifact(rows=[{"x": 1.0}])
        (reg,) = analyze.compare_artifacts(baseline, current)
        assert reg["kind"] == "structure"
        assert reg["what"] == "row count changed"

    def test_render(self):
        baseline = _artifact(rows=[{"x": 100.0}])
        current = _artifact(rows=[{"x": 200.0}])
        found = analyze.compare_artifacts(baseline, current)
        text = analyze.render_regressions(found, "e99")
        assert text.startswith("e99: 1 regression(s)")
        assert "value-drift" in text
        assert analyze.render_regressions([], "e99") == "e99: no regressions"
