"""Windowed group-by aggregation: correctness and streaming stats."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry.aggregate import GroupByAggregator
from repro.telemetry.records import SessionRecord


def _record(time, cdn="x", value=1.0):
    return SessionRecord(
        time=time, attrs={"cdn": cdn}, metrics={"m": value}
    )


def _aggregator(window=10.0, sink=None):
    return GroupByAggregator(
        window_s=window, group_keys=("cdn",), metrics=("m",), sink=sink
    )


class TestWindowing:
    def test_window_closes_on_boundary_crossing(self):
        rows = []
        agg = _aggregator(sink=rows.append)
        agg.add(_record(1.0, value=2.0))
        agg.add(_record(5.0, value=4.0))
        assert rows == []
        agg.add(_record(11.0, value=9.0))
        assert len(rows) == 1
        assert rows[0].count == 2
        assert rows[0].mean("m") == pytest.approx(3.0)
        assert rows[0].window_start == 0.0

    def test_explicit_flush(self):
        agg = _aggregator()
        agg.add(_record(1.0))
        rows = agg.flush()
        assert len(rows) == 1
        assert agg.flush() == []

    def test_groups_separate(self):
        agg = _aggregator()
        agg.add(_record(1.0, cdn="x", value=1.0))
        agg.add(_record(2.0, cdn="y", value=3.0))
        rows = {row.group: row for row in agg.flush()}
        assert rows[("x",)].mean("m") == 1.0
        assert rows[("y",)].mean("m") == 3.0

    def test_straggler_lands_in_current_window(self):
        rows = []
        agg = _aggregator(sink=rows.append)
        agg.add(_record(15.0))
        agg.add(_record(3.0))  # older than the open window: kept anyway
        agg.flush()
        assert rows[0].count == 2

    def test_missing_metric_skipped(self):
        agg = _aggregator()
        agg.add(SessionRecord(time=1.0, attrs={"cdn": "x"}, metrics={}))
        agg.add(_record(2.0, value=4.0))
        row = agg.flush()[0]
        assert row.count == 2
        assert row.mean("m") == pytest.approx(4.0)  # only one contributed

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            _aggregator(window=0.0)


class TestStatistics:
    def test_min_max_variance(self):
        agg = _aggregator()
        for value in (2.0, 4.0, 6.0):
            agg.add(_record(1.0, value=value))
        row = agg.flush()[0]
        assert row.mins["m"] == 2.0
        assert row.maxs["m"] == 6.0
        assert row.variances["m"] == pytest.approx(8.0 / 3.0)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=40))
    def test_streaming_mean_matches_batch(self, values):
        agg = _aggregator()
        for value in values:
            agg.add(_record(1.0, value=value))
        row = agg.flush()[0]
        assert row.mean("m") == pytest.approx(sum(values) / len(values), rel=1e-6, abs=1e-6)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=2, max_size=40))
    def test_variance_non_negative(self, values):
        agg = _aggregator()
        for value in values:
            agg.add(_record(1.0, value=value))
        assert agg.flush()[0].variances["m"] >= 0.0


class TestCounters:
    def test_records_and_rows_counted(self):
        agg = _aggregator()
        for t in (1.0, 2.0, 12.0):
            agg.add(_record(t))
        agg.flush()
        assert agg.records_processed == 3
        assert agg.rows_emitted == 2

    def test_open_groups_tracks_cardinality(self):
        agg = _aggregator()
        for cdn in ("a", "b", "c"):
            agg.add(_record(1.0, cdn=cdn))
        assert agg.open_groups == 3
        agg.flush()
        assert agg.open_groups == 0


class TestFlushBoundaries:
    def test_record_exactly_on_window_edge_opens_next_window(self):
        rows = []
        agg = _aggregator(window=10.0, sink=rows.append)
        agg.add(_record(9.999, value=1.0))
        agg.add(_record(10.0, value=5.0))
        assert len(rows) == 1
        assert rows[0].window_start == 0.0
        assert rows[0].means["m"] == pytest.approx(1.0)
        final = agg.flush()
        assert final[0].window_start == 10.0
        assert final[0].means["m"] == pytest.approx(5.0)

    def test_flush_up_to_aligns_to_window_grid(self):
        agg = _aggregator(window=10.0)
        agg.add(_record(1.0))
        agg.flush(up_to=25.0)
        # The next open window starts on the grid point covering 25.0,
        # not at 25.0 itself.
        agg.add(_record(26.0))
        assert agg.flush()[0].window_start == 20.0

    def test_flush_up_to_exact_boundary(self):
        agg = _aggregator(window=10.0)
        agg.add(_record(1.0))
        agg.flush(up_to=20.0)
        agg.add(_record(20.5))
        assert agg.flush()[0].window_start == 20.0

    def test_flush_without_up_to_forgets_window_origin(self):
        agg = _aggregator(window=10.0)
        agg.add(_record(3.0))
        agg.flush()
        # A fresh first record re-anchors the grid from its own time.
        agg.add(_record(47.0))
        assert agg.flush()[0].window_start == 40.0

    def test_flush_empty_aggregator_is_noop(self):
        agg = _aggregator()
        assert agg.flush() == []
        assert agg.flush(up_to=100.0) == []

    def test_straggler_joins_current_window(self):
        agg = _aggregator(window=10.0)
        agg.add(_record(15.0, value=1.0))
        agg.add(_record(2.0, value=3.0))  # older than the open window
        rows = agg.flush()
        assert len(rows) == 1
        assert rows[0].window_start == 10.0
        assert rows[0].count == pytest.approx(2.0)


class TestWeightedRows:
    def test_weighted_mean_matches_expanded_records(self):
        weighted = _aggregator(window=1e9)
        weighted.add(_record(1.0, value=2.0), weight=3.0)
        weighted.add(_record(1.0, value=6.0), weight=1.0)
        expanded = _aggregator(window=1e9)
        for value in (2.0, 2.0, 2.0, 6.0):
            expanded.add(_record(1.0, value=value))
        w_row = weighted.flush()[0]
        e_row = expanded.flush()[0]
        assert w_row.count == pytest.approx(e_row.count)
        assert w_row.means["m"] == pytest.approx(e_row.means["m"])
        assert w_row.variances["m"] == pytest.approx(e_row.variances["m"])

    def test_fractional_weights_accumulate(self):
        agg = _aggregator(window=1e9)
        agg.add(_record(1.0, value=4.0), weight=0.5)
        agg.add(_record(1.0, value=8.0), weight=1.5)
        row = agg.flush()[0]
        assert row.count == pytest.approx(2.0)
        assert row.means["m"] == pytest.approx((0.5 * 4.0 + 1.5 * 8.0) / 2.0)

    def test_extrema_ignore_weights(self):
        agg = _aggregator(window=1e9)
        agg.add(_record(1.0, value=10.0), weight=100.0)
        agg.add(_record(1.0, value=-2.0), weight=0.25)
        row = agg.flush()[0]
        assert row.mins["m"] == -2.0
        assert row.maxs["m"] == 10.0

    def test_non_positive_weight_rejected(self):
        agg = _aggregator()
        with pytest.raises(ValueError, match="weight"):
            agg.add(_record(1.0), weight=0.0)
        with pytest.raises(ValueError, match="weight"):
            agg.add(_record(1.0), weight=-1.0)
