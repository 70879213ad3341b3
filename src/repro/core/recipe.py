"""The §4 interface-design recipe, as executable machinery.

The paper's four steps:

1. enumerate use cases;
2. imagine a hypothetical *global controller* with all data and knobs;
3. map data and knobs back to their natural owners -- every
   (knob, datum) pair the global controller uses whose owners differ
   marks information that must cross a provider boundary; the union of
   those crossings is the **wide interface**;
4. narrow it: rank crossings by utility and keep the smallest set that
   preserves most of the global controller's benefit.

This module implements steps 2-4 as data structures and pure functions;
experiment E9 runs the pipeline against the oracle baseline to measure
the quality gap at each interface width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class Knob:
    """A control variable, e.g. bitrate (AppP) or peering point (InfP)."""

    name: str
    owner: str


@dataclass(frozen=True)
class Datum:
    """An observable, e.g. buffering ratio (AppP) or link load (InfP)."""

    name: str
    owner: str


@dataclass(frozen=True)
class UseCase:
    """One scenario and what a global controller would use to solve it.

    Attributes:
        name: Scenario label (e.g. ``"fig5-oscillation"``).
        knobs: Knobs the global controller would tune.
        data: Data the decision depends on.
    """

    name: str
    knobs: Tuple[Knob, ...]
    data: Tuple[Datum, ...]


@dataclass(frozen=True)
class Crossing:
    """One datum that must be shared with the owner of a knob."""

    datum: Datum
    to_owner: str
    use_case: str

    @property
    def direction(self) -> str:
        """``"A2I"`` when application data flows to infrastructure, etc."""
        return f"{self.datum.owner}->{self.to_owner}"


@dataclass
class InterfaceSpec:
    """A concrete interface: which data crosses which boundary.

    Attributes:
        crossings: All (datum, recipient) requirements.
    """

    crossings: List[Crossing] = field(default_factory=list)

    @property
    def shared_fields(self) -> FrozenSet[Tuple[str, str]]:
        """Deduplicated (datum name, recipient) pairs -- the field list."""
        return frozenset(
            (crossing.datum.name, crossing.to_owner) for crossing in self.crossings
        )

    @property
    def width(self) -> int:
        """Number of distinct shared fields (the narrowness metric)."""
        return len(self.shared_fields)

    def fields_to(self, owner: str) -> FrozenSet[str]:
        """Datum names that must be exported *to* ``owner``."""
        return frozenset(
            name for name, recipient in self.shared_fields if recipient == owner
        )


def derive_wide_interface(use_cases: Iterable[UseCase]) -> InterfaceSpec:
    """Recipe step 3: every cross-ownership (knob, datum) pair is a crossing.

    For each use case, a datum used by the global controller must be
    shared with the owner of every knob whose setting depends on it and
    whose owner differs from the datum's owner.
    """
    spec = InterfaceSpec()
    seen = set()
    for use_case in use_cases:
        knob_owners = {knob.owner for knob in use_case.knobs}
        for datum in use_case.data:
            for owner in knob_owners:
                if owner == datum.owner:
                    continue
                key = (datum.name, owner, use_case.name)
                if key in seen:
                    continue
                seen.add(key)
                spec.crossings.append(
                    Crossing(datum=datum, to_owner=owner, use_case=use_case.name)
                )
    return spec


def narrow_interface(
    spec: InterfaceSpec,
    utility: Mapping[str, float],
    budget: int,
) -> InterfaceSpec:
    """Recipe step 4: keep only the ``budget`` most useful shared fields.

    Args:
        spec: The wide interface.
        utility: Per-datum utility scores (e.g. measured quality impact,
            or an information-gain proxy); missing data score 0.
        budget: Maximum number of distinct (datum, recipient) fields.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget!r}")
    ranked_fields = sorted(
        spec.shared_fields,
        key=lambda pair: (-utility.get(pair[0], 0.0), pair),
    )
    kept = set(ranked_fields[:budget])
    narrowed = InterfaceSpec(
        crossings=[
            crossing
            for crossing in spec.crossings
            if (crossing.datum.name, crossing.to_owner) in kept
        ]
    )
    return narrowed


def utility_from_observations(
    observations: Mapping[str, "Sequence[float]"],
    quality: "Sequence[float]",
) -> Dict[str, float]:
    """Score each candidate datum by how much it explains quality.

    §4's first open question: "we might need some type of feature
    selection techniques (e.g., information gain) to identify the
    relevant attributes."  This implements the standard proxy -- the
    absolute rank correlation between each candidate datum's observed
    values and the quality metric -- which is what narrows the wide
    interface from data rather than from intuition.

    Args:
        observations: Per-datum sample series, all aligned with
            ``quality`` (same length, same ordering of observations).
        quality: The experience metric (e.g. per-window engagement).

    Returns:
        Datum name -> utility in [0, 1].
    """
    from repro.telemetry.inference import spearman_correlation

    n = len(quality)
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    scores: Dict[str, float] = {}
    for name, series in observations.items():
        if len(series) != n:
            raise ValueError(
                f"datum {name!r}: {len(series)} samples vs {n} quality values"
            )
        scores[name] = abs(spearman_correlation(series, quality))
    return scores


def eona_use_cases() -> List[UseCase]:
    """The paper's running example: knobs, data, and use cases of §2/§4."""
    # AppP-owned knobs and data.
    cdn_choice = Knob("cdn_choice", "appp")
    bitrate = Knob("bitrate", "appp")
    server_choice = Knob("server_choice", "appp")
    qoe = Datum("qoe", "appp")
    demand = Datum("demand_estimate", "appp")
    # InfP-owned knobs and data.
    peering = Knob("peering_point", "isp")
    server_power = Knob("server_power", "cdn")
    peering_capacity = Datum("peering_capacity", "isp")
    peering_decision = Datum("peering_decision", "isp")
    access_congestion = Datum("access_congestion", "isp")
    server_load = Datum("server_load", "cdn")
    server_hints = Datum("server_hints", "cdn")

    return [
        UseCase(
            name="coarse-control",
            knobs=(server_choice, cdn_choice),
            data=(qoe, server_load, server_hints),
        ),
        UseCase(
            name="flash-crowd",
            knobs=(bitrate, cdn_choice),
            data=(qoe, access_congestion),
        ),
        UseCase(
            name="oscillation",
            knobs=(cdn_choice, peering),
            data=(qoe, demand, peering_capacity, peering_decision),
        ),
        UseCase(
            name="energy-saving",
            knobs=(server_power,),
            data=(qoe, server_load),
        ),
    ]
