"""The registry-driven bench harness: every experiment table, one test.

Replaces the fourteen per-experiment ``bench_e*`` files: the table to
regenerate, its canonical configuration, and the shape assertions all
live in each experiment's registered
:class:`~repro.experiments.spec.ExperimentSpec`, so this file is just
the loop.  The bespoke bench that doesn't map to one spec variant
(``bench_bidirectional.py``) stays separate.
"""

from __future__ import annotations

import pytest

from repro.experiments import registry

_VARIANTS = [
    (spec, variant)
    for spec in registry.all_specs()
    for variant in spec.variants
]


@pytest.mark.parametrize(
    "spec,variant",
    _VARIANTS,
    ids=[f"{spec.exp_id}-{variant.name}" for spec, variant in _VARIANTS],
)
def test_experiment_table(spec, variant, benchmark, table_sink, check_sink):
    result = benchmark.pedantic(
        lambda: variant.run(0), rounds=1, iterations=1
    )
    table_sink(result)

    assert variant.checks, f"{spec.exp_id}/{variant.name} declares no checks"
    outcomes = variant.evaluate(result)
    check_sink(f"{spec.exp_id}/{variant.name}", outcomes)
    failed = [outcome for outcome in outcomes if not outcome.passed]
    assert not failed, "\n".join(
        f"{outcome.check}: {outcome.detail}" for outcome in failed
    )
