"""GroupByAggregator conserves weight across flush boundaries.

Hypothesis draws weighted record streams whose times span several
tumbling windows, stragglers included.  A reference model assigns each
record to the (window, group) cell the aggregator's documented rule
puts it in: the open window, which closes once a record's time reaches
its end.  Every emitted ``AggregateRow.count`` must equal the
sequential sum of the weights that fell into its cell, and no weight is
lost or made up between the records going in and the rows coming out.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.telemetry.aggregate import GroupByAggregator
from repro.telemetry.records import SessionRecord

GROUPS = ("cdnA", "cdnB", "cdnC")

#: Times on a quarter-second grid and windows of whole seconds keep
#: every window boundary exact, so the model's windows are the
#: aggregator's windows.
times = st.integers(min_value=0, max_value=160).map(lambda quarters: quarters / 4.0)
general_weights = st.floats(min_value=1e-3, max_value=1e6)
#: Multiples of 1/16 below 2**16: every sum of a stream is exact.
dyadic_weights = st.integers(min_value=1, max_value=2**20).map(lambda k: k / 16.0)


#: How far a record's timestamp lags its place in the stream: most are
#: on time, some straggle back into an already closed window.
lags = st.sampled_from((0.0, 0.0, 0.0, 1.5))


def _stream(weights):
    """``(time, group, weight, lag)`` records, delivered in time order."""
    return st.lists(
        st.tuples(times, st.sampled_from(GROUPS), weights, lags), min_size=1, max_size=60
    ).map(sorted)


def _drive(window_s, stream):
    """Feed ``stream`` to an aggregator; return its rows and the model's cells."""
    rows = []
    aggregator = GroupByAggregator(
        window_s, ("cdn",), ("buffering_ratio",), sink=rows.append
    )
    expected = {}
    window_start = None
    for arrival, group, weight, lag in stream:
        time = max(0.0, arrival - lag)
        if window_start is None or time >= window_start + window_s:
            window_start = math.floor(time / window_s) * window_s
        cell = (window_start, (group,))
        expected[cell] = expected.get(cell, 0.0) + weight
        aggregator.add(
            SessionRecord(time=time, attrs={"cdn": group}, metrics={"buffering_ratio": 0.1}),
            weight=weight,
        )
    aggregator.flush()
    assert aggregator.records_processed == len(stream)
    return rows, expected


def _check_cells(rows, expected):
    got = {(row.window_start, row.group): row.count for row in rows}
    assert len(got) == len(rows), "a (window, group) cell was emitted twice"
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1.0, 2.0, 5.0]), _stream(general_weights))
@example(
    1.0,
    [
        (0.0, "cdnA", 0.1, 0.0),
        (0.25, "cdnA", 0.2, 0.0),
        (3.0, "cdnB", 0.3, 0.0),
        (3.5, "cdnA", 0.7, 1.5),
        (7.5, "cdnA", 1.0, 0.0),
    ],
)
def test_each_cell_counts_the_weight_that_fell_into_it(window_s, stream):
    rows, expected = _drive(window_s, stream)
    _check_cells(rows, expected)
    weight_in = math.fsum(weight for _, _, weight, _ in stream)
    assert math.isclose(math.fsum(row.count for row in rows), weight_in, rel_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1.0, 2.0, 5.0]), _stream(dyadic_weights))
def test_weight_in_equals_weight_out(window_s, stream):
    rows, expected = _drive(window_s, stream)
    _check_cells(rows, expected)
    weight_in = math.fsum(weight for _, _, weight, _ in stream)
    assert math.fsum(row.count for row in rows) == weight_in
