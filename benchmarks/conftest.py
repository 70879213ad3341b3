"""Benchmark-suite helpers.

Every benchmark regenerates one experiment table (the reproduction's
analogue of a paper table/figure).  Tables are printed to the terminal
section at the end of the run and written under ``benchmarks/results/``
so the EXPERIMENTS.md numbers can be traced to a run.
"""

from __future__ import annotations

import os
from typing import List

import pytest

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_tables: List[str] = []
_checks: List[str] = []


def record_table(result) -> None:
    """Register an experiment result for terminal + file output."""
    text = result.table_str()
    _tables.append(text)
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    safe_name = result.name.lower().replace(" ", "-")
    with open(os.path.join(_RESULTS_DIR, f"{safe_name}.txt"), "w") as handle:
        handle.write(text + "\n")


def record_checks(label: str, outcomes) -> None:
    """Register spec-check outcomes for the terminal summary.

    Pass the list of ``CheckOutcome`` from ``VariantSpec.evaluate``.
    """
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        _checks.append(f"{status}  {label}: {outcome.check}")


@pytest.fixture
def table_sink():
    return record_table


@pytest.fixture
def check_sink():
    return record_checks


def pytest_terminal_summary(terminalreporter):
    if _tables:
        terminalreporter.section("reproduced tables/figures")
        for text in _tables:
            terminalreporter.write_line("")
            for line in text.splitlines():
                terminalreporter.write_line(line)
    if _checks:
        terminalreporter.section("spec shape checks")
        for line in _checks:
            terminalreporter.write_line(line)
