"""Declarative experiment specs: one source of truth per claim (E1–E14).

Before this module, every experiment lived in four hand-synchronized
places: its ``exp_*`` module, the ``EXPERIMENTS`` dict in ``cli.py``, a
per-experiment bench file re-declaring the expected "shape" assertions,
and the prose in EXPERIMENTS.md.  An :class:`ExperimentSpec` collapses
the first three: the experiment module *registers* a spec naming its
variants (one per regenerated table), and the spec carries the shape
invariants as declarative :func:`check` objects.  The CLI, the pytest
bench harness, and the multiseed driver all read the same spec, so the
list of experiments and the asserted claims cannot drift apart again.

A :class:`RunArtifact` is the machine-readable record of one registry
run: seeds, wall time, allocation-engine counters, every check outcome,
and the regenerated tables, serialized as ``BENCH_<id>.json``.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.experiments.common import ExperimentResult

ARTIFACT_SCHEMA = "eona-run-artifact/2"
#: Older schemas :meth:`RunArtifact.from_dict` still reads.  ``/1``
#: artifacts lack the ``metrics`` block, which loads as empty.
COMPATIBLE_SCHEMAS = ("eona-run-artifact/1", ARTIFACT_SCHEMA)

#: How a check names the row(s) it constrains (see :meth:`ShapeCheck`):
#: a scalar is matched against the variant's ``row_key`` column, a
#: mapping against all of its items, and the strings ``"*"``,
#: ``"@first"``, ``"@last"``, ``"@min"``, ``"@max"`` select positionally
#: or by the extremum of the checked column.
RowSelector = Union[str, int, float, Mapping[str, object], None]

_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}
_UNARY_OPS = ("truthy", "falsy")


@dataclass(frozen=True)
class CheckOutcome:
    """One evaluated check: what was asserted, and what the table said."""

    check: str
    passed: bool
    detail: str


def _select_rows(
    result: ExperimentResult,
    selector: RowSelector,
    column: str,
    row_key: str,
) -> List[Dict[str, object]]:
    rows = result.rows
    if not rows:
        return []
    if isinstance(selector, str) and selector.startswith(("@", "*")):
        if selector == "*":
            return list(rows)
        if selector == "@first":
            return [rows[0]]
        if selector == "@last":
            return [rows[-1]]
        if selector in ("@min", "@max"):
            pick = min if selector == "@min" else max
            candidates = [row for row in rows if isinstance(row.get(column), (int, float))]
            if not candidates:
                return []
            return [pick(candidates, key=lambda row: float(row[column]))]  # type: ignore[arg-type]
        raise ValueError(f"unknown row selector {selector!r}")
    if isinstance(selector, Mapping):
        return [
            row
            for row in rows
            if all(row.get(key) == value for key, value in selector.items())
        ]
    return [row for row in rows if row.get(row_key) == selector]


def _label(selector: RowSelector) -> str:
    if isinstance(selector, Mapping):
        return ",".join(f"{key}={value}" for key, value in selector.items())
    return str(selector)


@dataclass(frozen=True)
class ShapeCheck:
    """One declarative table invariant.

    Reads as: for every selected ``row``, ``row[column] <op> rhs`` where

    * without ``of``/``of_column``: ``rhs = value + plus`` (a constant);
    * with ``of_column`` only: ``rhs = value * row[of_column] + plus``
      (same-row column comparison);
    * with ``of``: ``rhs = value * ref[of_column or column] + plus``
      where ``ref`` is the single row selected by ``of``.

    ``value`` defaults to 1.0 whenever a reference is involved, so
    ``check("x", "eona", "<", of="status_quo")`` means "strictly less
    than the status-quo row's x".  The unary ops ``truthy``/``falsy``
    take no right-hand side at all.
    """

    column: str
    row: RowSelector
    op: str
    value: Optional[float] = None
    of: RowSelector = None
    of_column: Optional[str] = None
    plus: float = 0.0
    row_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS and self.op not in _UNARY_OPS:
            raise ValueError(f"unknown check op {self.op!r}")
        if self.op in _UNARY_OPS:
            if self.value is not None or self.of is not None or self.of_column:
                raise ValueError(f"{self.op} checks take no right-hand side")
        elif self.value is None and self.of is None and self.of_column is None:
            raise ValueError("comparison checks need a value, of=, or of_column=")

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lhs = f"{self.column}[{_label(self.row)}]"
        if self.op in _UNARY_OPS:
            return f"{lhs} is {self.op}"
        return f"{lhs} {self.op} {self._rhs_label()}"

    def _rhs_label(self) -> str:
        factor = 1.0 if self.value is None else self.value
        if self.of is not None:
            ref = f"{self.of_column or self.column}[{_label(self.of)}]"
            term = ref if factor == 1.0 else f"{factor:g}*{ref}"
        elif self.of_column is not None:
            term = (
                self.of_column
                if factor == 1.0
                else f"{factor:g}*{self.of_column}"
            )
        else:
            term = f"{factor:g}"
        if self.plus:
            term += f"{self.plus:+g}"
        return term

    # ------------------------------------------------------------------
    def evaluate(self, result: ExperimentResult, row_key: str) -> CheckOutcome:
        key = self.row_key or row_key
        description = self.describe()
        targets = _select_rows(result, self.row, self.column, key)
        if not targets:
            return CheckOutcome(
                check=description,
                passed=False,
                detail=f"no row matching {_label(self.row)!r} in {result.name}",
            )
        reference: Optional[Dict[str, object]] = None
        if self.of is not None:
            matches = _select_rows(
                result, self.of, self.of_column or self.column, key
            )
            if len(matches) != 1:
                return CheckOutcome(
                    check=description,
                    passed=False,
                    detail=(
                        f"reference {_label(self.of)!r} matched "
                        f"{len(matches)} rows in {result.name}"
                    ),
                )
            reference = matches[0]
        details: List[str] = []
        passed = True
        for row in targets:
            ok, detail = self._evaluate_row(row, reference)
            passed = passed and ok
            details.append(detail)
        return CheckOutcome(
            check=description, passed=passed, detail="; ".join(details)
        )

    def _evaluate_row(
        self,
        row: Mapping[str, object],
        reference: Optional[Mapping[str, object]],
    ) -> Tuple[bool, str]:
        lhs = row.get(self.column)
        if self.op in _UNARY_OPS:
            ok = bool(lhs) if self.op == "truthy" else not bool(lhs)
            return ok, f"{self.column}={lhs!r}"
        if not isinstance(lhs, (int, float)) or isinstance(lhs, bool):
            return False, f"{self.column}={lhs!r} is not numeric"
        factor = 1.0 if self.value is None else self.value
        if reference is not None:
            base = reference.get(self.of_column or self.column)
        elif self.of_column is not None:
            base = row.get(self.of_column)
        else:
            base = None
        if self.of is not None or self.of_column is not None:
            if not isinstance(base, (int, float)) or isinstance(base, bool):
                return False, f"reference value {base!r} is not numeric"
            rhs = factor * float(base) + self.plus
        else:
            rhs = factor + self.plus
        ok = _COMPARATORS[self.op](float(lhs), rhs)
        return ok, f"{float(lhs):.6g} {self.op} {rhs:.6g}"


@dataclass(frozen=True)
class AnyCheck:
    """Passes when at least one of its alternatives passes."""

    alternatives: Tuple[ShapeCheck, ...]

    def describe(self) -> str:
        return " OR ".join(alt.describe() for alt in self.alternatives)

    def evaluate(self, result: ExperimentResult, row_key: str) -> CheckOutcome:
        outcomes = [alt.evaluate(result, row_key) for alt in self.alternatives]
        return CheckOutcome(
            check=self.describe(),
            passed=any(outcome.passed for outcome in outcomes),
            detail=" | ".join(outcome.detail for outcome in outcomes),
        )


Check = Union[ShapeCheck, AnyCheck]


def check(
    column: str,
    row: RowSelector,
    op: str,
    value: Optional[float] = None,
    *,
    of: RowSelector = None,
    of_column: Optional[str] = None,
    plus: float = 0.0,
    row_key: Optional[str] = None,
) -> ShapeCheck:
    """Shorthand constructor, e.g.
    ``check("buffering_ratio", "eona", "<", 0.6, of="status_quo")``."""
    return ShapeCheck(
        column=column,
        row=row,
        op=op,
        value=value,
        of=of,
        of_column=of_column,
        plus=plus,
        row_key=row_key,
    )


def any_of(*alternatives: ShapeCheck) -> AnyCheck:
    """At-least-one-of combinator for disjunctive shape claims."""
    if len(alternatives) < 2:
        raise ValueError("any_of needs at least two alternatives")
    return AnyCheck(alternatives=tuple(alternatives))


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariantSpec:
    """One named table an experiment regenerates.

    Attributes:
        name: Variant slug, unique within the experiment
            (e.g. ``"flash-crowd"``, ``"abr-ablation"``).
        runner: ``runner(seed) -> ExperimentResult``; must bake in the
            canonical table configuration (the kwargs the committed
            ``benchmarks/results/`` tables were generated with).
        row_key: Column scalar row selectors in ``checks`` match against.
        checks: The variant's declarative shape invariants.
    """

    name: str
    runner: Callable[[int], ExperimentResult]
    row_key: str = "mode"
    checks: Tuple[Check, ...] = ()

    def run(self, seed: int) -> ExperimentResult:
        return self.runner(seed)

    def evaluate(self, result: ExperimentResult) -> List[CheckOutcome]:
        return [chk.evaluate(result, self.row_key) for chk in self.checks]


@dataclass(frozen=True)
class ExperimentSpec:
    """A whole experiment: identity, provenance, and its variants."""

    exp_id: str
    title: str
    source: str
    module: str
    variants: Tuple[VariantSpec, ...]

    def __post_init__(self) -> None:
        # Ids are ``e<digits>`` with an optional ``-slug`` suffix for
        # companion experiments that extend a numbered one (``e7-cohort``
        # rides alongside ``e7``); the digits define the sort order.
        digits, _, slug = self.exp_id[1:].partition("-")
        if not (
            self.exp_id.startswith("e")
            and digits.isdigit()
            and (not self.exp_id[1:].endswith("-"))
            and ("-" not in slug)
        ):
            raise ValueError(
                f"experiment id must look like 'e4' or 'e7-cohort', got {self.exp_id!r}"
            )
        names = [variant.name for variant in self.variants]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate variant names in {self.exp_id}: {names}")

    @property
    def order(self) -> int:
        digits, _, _ = self.exp_id[1:].partition("-")
        return int(digits)

    def variant(self, name: str) -> VariantSpec:
        for variant in self.variants:
            if variant.name == name:
                return variant
        raise KeyError(f"{self.exp_id} has no variant {name!r}")


# ---------------------------------------------------------------------------
# Run artifacts
# ---------------------------------------------------------------------------


def run_provenance() -> Dict[str, object]:
    """Environment stamp embedded in every artifact."""
    return {
        "package": "repro",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


@dataclass
class RunArtifact:
    """Machine-readable record of one registry-driven experiment run.

    Serialized as ``BENCH_<exp_id>.json`` by :meth:`save`; the missing
    machine-readable counterpart of the ``benchmarks/results/*.txt``
    tables.  ``tables`` hold the (seed-aggregated) rows actually
    printed; ``checks`` hold one outcome per spec check *per seed*, so a
    seed-robustness failure is attributable.
    """

    experiment: str
    title: str
    source: str
    module: str
    seeds: List[int]
    parallel: bool
    wall_time_s: float
    tables: List[Dict[str, object]] = field(default_factory=list)
    checks: List[Dict[str, object]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=run_provenance)
    schema: str = ARTIFACT_SCHEMA

    @property
    def checks_passed(self) -> bool:
        return all(entry["passed"] for entry in self.checks)

    def failed_checks(self) -> List[Dict[str, object]]:
        return [entry for entry in self.checks if not entry["passed"]]

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "experiment": self.experiment,
            "title": self.title,
            "source": self.source,
            "module": self.module,
            "seeds": list(self.seeds),
            "parallel": self.parallel,
            "wall_time_s": self.wall_time_s,
            "checks_passed": self.checks_passed,
            "tables": self.tables,
            "checks": self.checks,
            "counters": self.counters,
            "metrics": self.metrics,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunArtifact":
        schema = payload.get("schema")
        if schema not in COMPATIBLE_SCHEMAS:
            raise ValueError(
                f"unsupported artifact schema {schema!r} (want {ARTIFACT_SCHEMA!r})"
            )
        return cls(
            experiment=str(payload["experiment"]),
            title=str(payload["title"]),
            source=str(payload["source"]),
            module=str(payload["module"]),
            seeds=[int(seed) for seed in payload["seeds"]],  # type: ignore[union-attr]
            parallel=bool(payload["parallel"]),
            wall_time_s=float(payload["wall_time_s"]),  # type: ignore[arg-type]
            tables=list(payload["tables"]),  # type: ignore[arg-type]
            checks=list(payload["checks"]),  # type: ignore[arg-type]
            counters=dict(payload["counters"]),  # type: ignore[arg-type]
            metrics=dict(payload.get("metrics") or {}),  # type: ignore[arg-type]
            provenance=dict(payload["provenance"]),  # type: ignore[arg-type]
            schema=str(schema),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunArtifact":
        return cls.from_dict(json.loads(text))

    def save(self, directory: str) -> str:
        """Write ``BENCH_<exp_id>.json`` under ``directory``."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"BENCH_{self.experiment}.json")
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")
        return path


def seeds_arg(spec: str) -> List[int]:
    """Parse a seed list: ``"0..9"``, ``"0,1,5"``, or a mix of both."""
    seeds: List[int] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            start_text, _, stop_text = token.partition("..")
            start, stop = int(start_text), int(stop_text)
            if stop < start:
                raise ValueError(f"empty seed range {token!r}")
            seeds.extend(range(start, stop + 1))
        else:
            seeds.append(int(token))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return seeds
