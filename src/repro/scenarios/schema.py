"""Scenario schema: validated, declarative world descriptions (DESIGN.md §12).

A scenario spec is pure data -- ordered topology build directives, CDN
placement, session populations with arrival processes, phase timelines,
and fault plans.  The engine (:mod:`repro.scenarios.engine`) compiles a
spec into a live world; this module never touches the simulator, so
specs can be validated anywhere (CLI, CI) without building anything.

**One parse.**  Every spec class is a frozen dataclass, read and written
by one field-driven walker (:func:`_parse` / :func:`_dump`).  A field's
YAML key is its name unless ``metadata["key"]`` renames it; its type is
its annotation (strings, tags and string maps are coerced by
:func:`repro.core.schemas.coerce_value`, nested spec classes recurse,
:data:`Num` fields take a number or a ``"$param"`` reference); fields
without a default are required and non-empty; ``metadata["choices"]``
restricts a string; unknown keys are errors.  The few cross-field rules
live in each class's ``_check``.

**One resolve.**  :meth:`ScenarioSpec.resolve` substitutes every
``$param``, checks every numeric bound -- declared on the field as
``positive``/``minimum``/``integer`` metadata -- expands the topology
into a :class:`TopologyPlan` and checks every cross-reference.
``validate()`` is ``resolve()`` at the declared defaults and the engine
compiles from ``resolve(overrides)``, so a run with overrides gets
exactly the checks ``eona scenarios validate`` applies.  Every error is a
:class:`ScenarioError` naming the spec path
(``scenario.cdns[0].servers[1].cache_mbit: must be > 0, got -5``).

Determinism contract: the ``build`` list is *ordered* and the engine
replays it verbatim -- node and link insertion order pins RNG stream
identities and event tie-breaking, which is what lets a declarative
twin reproduce a hand-coded world byte-for-byte.  Numbers keep the type
they were written with.  Auto link ids follow the topology convention
``"src->dst"``, so fault targets and egress links resolve statically.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.schemas import SchemaError, coerce_value
from repro.faults.plan import FaultEvent, FaultPlan, get_plan
from repro.network.topology import NodeKind

__all__ = [
    "ScenarioError", "ScenarioSpec", "TopologySpec", "NodeDirective",
    "LinkDirective", "GroupDirective", "CatalogSpec", "ServerSpec", "CdnSpec",
    "EgressSpec", "WebSpec", "PopulationSpec", "PhaseSpec", "FaultEventSpec",
    "FaultPlanSpec", "TopologyPlan",
]

#: Fault kinds a spec may declare inline.  Only link faults resolve
#: statically (link ids are derivable from the topology section); glass
#: and provider faults need live objects, so they arrive via ``use:``
#: references into the named-plan registry.
INLINE_FAULT_KINDS: Tuple[str, ...] = ("link-cut", "link-kill", "link-restore")

#: Arrival processes a population may declare, with (required, optional)
#: rate keys.  Mirrors repro.workloads.arrivals.
PROCESS_KINDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "poisson": (("rate_per_s",), ()),
    "flash-crowd": (("base_per_s", "peak_per_s", "onset_s", "ramp_s", "duration_s"), ()),
    "diurnal": (("mean_per_s",), ("amplitude", "period_s", "peak_at_s")),
}

#: ``sessions`` drives individual sessions through an arrival process;
#: ``cohort`` declares per-device rates for the vectorized cohort path
#: (BatchedPoissonArrivals / CohortEngine, DESIGN.md §11).
POPULATION_MODES: Tuple[str, ...] = ("sessions", "cohort")

_NODE_KINDS: Tuple[str, ...] = tuple(kind.value for kind in NodeKind)

#: A numeric spec field: a literal (kept as written, ``5`` stays an int)
#: or a ``"$param"`` reference until :meth:`ScenarioSpec.resolve`.
Num = Union[int, float, str]


class ScenarioError(ValueError):
    """A malformed scenario spec; the message carries the spec path."""


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _field(default: Any = dataclasses.MISSING, **metadata: Any) -> Any:
    """A spec field; see the module docstring for the metadata keys."""
    return field(default=default, metadata=metadata)


# ---------------------------------------------------------------------------
# the field-driven walker
# ---------------------------------------------------------------------------

class _Spec:
    """Mixin: the generic parse/dump every spec class shares."""

    #: Non-empty for build directives: the one key wrapping each entry.
    tag: ClassVar[str] = ""

    @classmethod
    def from_dict(cls, data: Any) -> Any:
        """Parse ``data``; error paths are rooted at ``scenario``."""
        return _parse(cls, data, "scenario")

    def to_dict(self) -> Dict[str, Any]:
        """The canonical dict form; ``from_dict`` round-trips it exactly."""
        return _dump(self)

    def _check(self, where: str) -> None:
        """Cross-field rules of this class, run once it is parsed."""


@dataclass(frozen=True)
class _Slot:
    """One spec field as the walker sees it (computed once per class)."""

    name: str
    key: str
    hint: Any  # the annotation, ``Optional`` stripped
    default: Any  # MISSING for a required field
    meta: Mapping[str, Any]


@functools.lru_cache(maxsize=None)
def _slots(cls: type) -> Tuple[_Slot, ...]:
    hints = typing.get_type_hints(cls)
    slots = []
    for spec_field in dataclasses.fields(cls):
        hint = hints[spec_field.name]
        args = typing.get_args(hint)
        if typing.get_origin(hint) is Union and type(None) in args:
            rest = tuple(arg for arg in args if arg is not type(None))
            hint = rest[0] if len(rest) == 1 else Union[rest]
        default = spec_field.default
        if spec_field.default_factory is not dataclasses.MISSING:
            default = spec_field.default_factory()
        key = spec_field.metadata.get("key", spec_field.name)
        slots.append(_Slot(spec_field.name, key, hint, default, spec_field.metadata))
    return tuple(slots)


def _mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{where}: expected a mapping, got {type(value).__name__}")
    for key in value:
        if not isinstance(key, str):
            raise ScenarioError(f"{where}: keys must be strings, got {key!r}")
    return value


def _sequence(value: Any, where: str) -> Any:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{where}: expected a list, got {value!r}")
    return value


def _parse(cls: type, data: Any, where: str) -> Any:
    """Build one spec class from its YAML mapping."""
    data = _mapping(data, where)
    slots = _slots(cls)
    unknown = sorted(set(data) - {slot.key for slot in slots})
    if unknown:
        raise ScenarioError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}"
            f" (known: {', '.join(sorted(slot.key for slot in slots))})"
        )
    required = {slot.key for slot in slots if slot.default is dataclasses.MISSING}
    missing = sorted(required - set(data))
    if missing:
        raise ScenarioError(f"{where}: missing required key(s) {', '.join(missing)}")
    values = {}
    for slot in slots:
        if data.get(slot.key) is None and slot.key not in required:
            continue
        path = f"{where}.{slot.key}"
        value = _parse_value(data[slot.key], slot.hint, path)
        if slot.key in required and isinstance(value, (str, tuple)) and not value:
            raise ScenarioError(f"{path}: must not be empty")
        choices = slot.meta.get("choices")
        if choices and value not in choices:
            raise ScenarioError(f"{path}: unknown value {value!r} (known: {', '.join(choices)})")
        values[slot.name] = value
    spec = cls(**values)
    spec._check(where)
    return spec


def _parse_value(value: Any, hint: Any, where: str) -> Any:
    if hint == Num:
        if _is_number(value) or (isinstance(value, str) and value[:1] == "$" and value[1:]):
            return value
        raise ScenarioError(f"{where}: expected a number or a '$param' reference, got {value!r}")
    if isinstance(hint, type) and issubclass(hint, _Spec):
        return _parse(hint, value, where)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and typing.get_origin(args[0]) is Union:  # tagged directives
        by_tag = {cls.tag: cls for cls in typing.get_args(args[0])}
        entries = []
        for index, entry in enumerate(_sequence(value, where)):
            entry_where = f"{where}[{index}]"
            tags = list(_mapping(entry, entry_where))
            if len(tags) != 1 or tags[0] not in by_tag:
                known = ", ".join(sorted(by_tag))
                raise ScenarioError(f"{entry_where}: expected exactly one of {known}, got {tags}")
            entries.append(_parse(by_tag[tags[0]], entry[tags[0]], f"{entry_where}.{tags[0]}"))
        return tuple(entries)
    if origin is tuple and issubclass(args[0], _Spec):
        return tuple(
            _parse(args[0], item, f"{where}[{index}]")
            for index, item in enumerate(_sequence(value, where))
        )
    if origin is dict and args[1] == Num:
        return {
            key: _parse_value(item, Num, f"{where}.{key}")
            for key, item in _mapping(value, where).items()
        }
    try:
        return coerce_value(value, hint)
    except SchemaError as error:
        raise ScenarioError(f"{where}: {error}") from None


def _dump(value: Any) -> Any:
    """The inverse of :func:`_parse`; fields at their default are omitted."""
    if isinstance(value, _Spec):
        data = {}
        for slot in _slots(type(value)):
            item = getattr(value, slot.name)
            if item != slot.default or type(item) is not type(slot.default):
                data[slot.key] = _dump(item)
        return data
    if isinstance(value, (list, tuple)):
        return [{item.tag: _dump(item)} if getattr(item, "tag", "") else _dump(item)
                for item in value]
    if isinstance(value, Mapping):
        return {key: _dump(item) for key, item in value.items()}
    return value


def _substitute(value: Any, params: Mapping[str, Any], meta: Mapping[str, Any], where: str) -> Any:
    """Replace a ``$param`` and check the field's declared bound."""
    if isinstance(value, str):
        if value[1:] not in params:
            raise ScenarioError(
                f"{where}: unknown parameter {value!r}"
                f" (declared: {', '.join(sorted(params)) or 'none'})"
            )
        value = params[value[1:]]
    if meta.get("integer") and not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    if meta.get("positive") and not value > 0:
        raise ScenarioError(f"{where}: must be > 0, got {value!r}")
    minimum = meta.get("minimum")
    if minimum is not None and not value >= minimum:
        raise ScenarioError(f"{where}: must be >= {minimum}, got {value!r}")
    return value


def _resolve(spec: Any, params: Mapping[str, Any], where: str) -> Any:
    """A copy of ``spec`` with every :data:`Num` substituted and bounded."""
    changes = {}
    for slot in _slots(type(spec)):
        value = getattr(spec, slot.name)
        path = f"{where}.{slot.key}"
        if value is None:
            continue
        if slot.hint == Num:
            changes[slot.name] = _substitute(value, params, slot.meta, path)
        elif isinstance(value, _Spec):
            changes[slot.name] = _resolve(value, params, path)
        elif isinstance(value, tuple) and value and isinstance(value[0], _Spec):
            changes[slot.name] = tuple(
                _resolve(item, params, f"{path}[{index}].{item.tag}".rstrip("."))
                for index, item in enumerate(value)
            )
        elif isinstance(value, dict) and typing.get_args(slot.hint)[1] == Num:
            changes[slot.name] = {
                key: _substitute(item, params, slot.meta, f"{path}.{key}")
                for key, item in value.items()
            }
    return dataclasses.replace(spec, **changes)


# ---------------------------------------------------------------------------
# the spec classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeDirective(_Spec):
    """``{node: {id, kind, owner, tags}}`` -- one topology node."""

    tag: ClassVar[str] = "node"

    node_id: str = _field(key="id")
    kind: str = _field("router", choices=_NODE_KINDS)
    owner: str = ""
    tags: Tuple[str, ...] = ()


@dataclass(frozen=True)
class LinkDirective(_Spec):
    """``{link: {src, dst, capacity_mbps, ...}}`` -- one directed link.

    ``alias`` names the link for the rest of the spec (fault targets,
    egress links, bundle fields); the canonical id stays the topology
    convention ``"src->dst"``.
    """

    tag: ClassVar[str] = "link"

    src: str
    dst: str
    capacity_mbps: Num = _field(positive=True)
    delay_ms: Num = _field(1.0, minimum=0)
    owner: str = ""
    tags: Tuple[str, ...] = ()
    alias: str = ""

    @property
    def link_id(self) -> str:
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class GroupDirective(_Spec):
    """``{group: {...}}`` -- a homogeneous population of attached nodes.

    Expands, *in order*, to ``count`` interleaved (node, link) pairs:
    member ``i`` is named ``f"{prefix}{i}"`` and linked to ``attach``
    (``direction: to-member`` gives attach->member, the client shape;
    ``from-member`` gives member->attach, the server-uplink shape).
    """

    tag: ClassVar[str] = "group"

    name: str
    prefix: str
    count: Num = _field(integer=True, minimum=1)
    attach: str
    capacity_mbps: Num = _field(positive=True)
    delay_ms: Num = _field(5.0, minimum=0)
    kind: str = _field("client", choices=_NODE_KINDS)
    owner: str = ""
    link_owner: str = ""
    tags: Tuple[str, ...] = ()
    direction: str = _field("to-member", choices=("to-member", "from-member"))


@dataclass(frozen=True)
class TopologySpec(_Spec):
    """The ordered build list; order is part of the determinism contract."""

    build: Tuple[Union[NodeDirective, LinkDirective, GroupDirective], ...]
    name: str = ""


@dataclass(frozen=True)
class CatalogSpec(_Spec):
    """Mirrors :class:`repro.cdn.content.ContentCatalog`'s knobs."""

    items: Num = _field(integer=True, minimum=1)
    duration_s: Num = _field(120.0, positive=True)
    zipf_alpha: Num = _field(1.0, minimum=0)


@dataclass(frozen=True)
class ServerSpec(_Spec):
    """One CDN server -- explicit (``id`` + ``node``) or expanded over a
    topology group (``group`` + ``id_format``, ``{node}``/``{index}``
    placeholders)."""

    server_id: str = _field("", key="id")
    node: str = ""
    group: str = ""
    id_format: str = ""
    capacity_sessions: Num = _field(10_000, integer=True, minimum=1)
    cache_mbit: Num = _field(10_000.0, positive=True)
    degraded_rate_mbps: Optional[Num] = _field(None, positive=True)

    def _check(self, where: str) -> None:
        declared = [bool(v) for v in (self.server_id, self.node, self.group, self.id_format)]
        if declared not in ([True, True, False, False], [False, False, True, True]):
            raise ScenarioError(
                f"{where}: declare either id+node or group+id_format, not both/neither"
            )


@dataclass(frozen=True)
class CdnSpec(_Spec):
    name: str
    servers: Tuple[ServerSpec, ...]
    origin: str = ""
    warm_top_fraction: Optional[Num] = _field(None, minimum=0)


@dataclass(frozen=True)
class EgressSpec(_Spec):
    """Mirrors :class:`repro.sdn.te.EgressGroup`; links hold link *refs*
    (alias or canonical id), resolved against the topology plan."""

    name: str
    remote: str
    candidates: Tuple[str, ...]
    links: Dict[str, str]
    preferred: str = ""


@dataclass(frozen=True)
class WebSpec(_Spec):
    """A web-browsing workload: one server, a client group, and (for
    cellular worlds) per-client radio processes on the access links."""

    server_node: str
    clients: str
    radio_tick_s: Optional[Num] = _field(None, positive=True)
    radio_stream: str = "radio"


@dataclass(frozen=True)
class PopulationSpec(_Spec):
    """A session population over one topology group.

    ``rate`` keys depend on ``process`` (see :data:`PROCESS_KINDS`);
    cohort-mode populations declare ``rate_per_device_s`` instead and
    feed the vectorized path.
    """

    name: str
    group: str
    process: str = _field(choices=tuple(PROCESS_KINDS))
    rate: Dict[str, Num] = _field(minimum=0)
    mode: str = _field("sessions", choices=POPULATION_MODES)
    until_s: Optional[Num] = _field(None, minimum=0)
    max_sessions: Optional[Num] = _field(None, integer=True, minimum=1)

    def _check(self, where: str) -> None:
        required, optional = PROCESS_KINDS[self.process]
        if self.mode == "cohort":
            if self.process != "poisson":
                raise ScenarioError(f"{where}: cohort mode supports only the poisson process")
            required, optional = ("rate_per_device_s",), ()
        unknown = sorted(set(self.rate) - set(required + optional))
        if unknown:
            raise ScenarioError(
                f"{where}.rate: unknown key(s) {', '.join(map(repr, unknown))}"
                f" for process {self.process!r} (known: {', '.join(required + optional)})"
            )
        missing = sorted(set(required) - set(self.rate))
        if missing:
            raise ScenarioError(
                f"{where}.rate: missing required key(s) {', '.join(missing)}"
                f" for process {self.process!r}"
            )


@dataclass(frozen=True)
class PhaseSpec(_Spec):
    """One phase of the scenario's arc; compiled to a ``phase-transition``
    trace event at ``at_s`` (when tracing is on)."""

    name: str
    at_s: Num = _field(minimum=0)
    end_s: Optional[Num] = _field(None, minimum=0)


@dataclass(frozen=True)
class FaultEventSpec(_Spec):
    """One inline fault event; ``link`` is a link ref (alias or id).
    Glass and provider faults come via a named plan's ``use:``."""

    at_s: Num = _field(minimum=0)
    kind: str = _field(choices=INLINE_FAULT_KINDS)
    link: str
    capacity_mbps: Optional[Num] = _field(None, positive=True)
    factor: Optional[Num] = _field(None, minimum=0)

    def _check(self, where: str) -> None:
        sized = self.capacity_mbps is not None or self.factor is not None
        if self.kind == "link-cut" and not sized:
            raise ScenarioError(f"{where}: link-cut needs capacity_mbps or factor")
        if self.kind != "link-cut" and sized:
            raise ScenarioError(f"{where}: {self.kind} takes no capacity_mbps/factor")


@dataclass(frozen=True)
class FaultPlanSpec(_Spec):
    """An inline event list *or* a ``use:`` reference into the named-plan
    registry (:func:`repro.faults.plan.register_plan`)."""

    name: str = ""
    description: str = ""
    events: Tuple[FaultEventSpec, ...] = ()
    use: str = ""

    def _check(self, where: str) -> None:
        if bool(self.use) == bool(self.events):
            raise ScenarioError(f"{where}: declare either events or use, not both/neither")
        if self.events and not self.name:
            raise ScenarioError(f"{where}: inline plans need a name")

    def compile(self, plan: "TopologyPlan", where: str) -> FaultPlan:
        """A resolved inline plan as a :class:`FaultPlan`."""
        events = []
        for index, event in enumerate(self.events):
            sizes = {"capacity_mbps": event.capacity_mbps, "factor": event.factor}
            events.append(
                FaultEvent(
                    time_s=event.at_s,
                    kind=event.kind,
                    target=plan.resolve_link(event.link, f"{where}.events[{index}].link"),
                    params={key: value for key, value in sizes.items() if value is not None},
                )
            )
        return FaultPlan(name=self.name, events=tuple(events), description=self.description)


# ---------------------------------------------------------------------------
# the expanded topology plan
# ---------------------------------------------------------------------------

@dataclass
class GroupPlan:
    name: str
    nodes: List[str] = field(default_factory=list)
    links: List[str] = field(default_factory=list)


@dataclass
class TopologyPlan:
    """A resolved spec's topology, expanded.

    ``steps`` holds node and link directives in construction order
    (groups interleave their member nodes and links) so the engine can
    replay construction exactly.
    """

    name: str
    steps: List[Union[NodeDirective, LinkDirective]] = field(default_factory=list)
    groups: Dict[str, GroupPlan] = field(default_factory=dict)
    aliases: Dict[str, str] = field(default_factory=dict)
    node_ids: Dict[str, NodeDirective] = field(default_factory=dict)
    link_ids: Dict[str, LinkDirective] = field(default_factory=dict)

    @classmethod
    def expand(cls, topology: TopologySpec, name: str) -> "TopologyPlan":
        """Expand a resolved build list (pure; no sim)."""
        plan = cls(name=topology.name or name)
        for index, directive in enumerate(topology.build):
            where = f"scenario.topology.build[{index}]"
            if not isinstance(directive, GroupDirective):
                plan._add(directive, where)
                continue
            if directive.name in plan.groups:
                raise ScenarioError(f"{where}: duplicate group {directive.name!r}")
            group = plan.groups[directive.name] = GroupPlan(directive.name)
            for member_index in range(directive.count):
                member = f"{directive.prefix}{member_index}"
                src, dst = directive.attach, member
                if directive.direction == "from-member":
                    src, dst = dst, src
                link = LinkDirective(src, dst, directive.capacity_mbps, directive.delay_ms,
                                     directive.link_owner, directive.tags)
                plan._add(NodeDirective(member, directive.kind, directive.owner), where)
                plan._add(link, where)
                group.nodes.append(member)
                group.links.append(link.link_id)
        return plan

    def _add(self, step: Union[NodeDirective, LinkDirective], where: str) -> None:
        if isinstance(step, NodeDirective):
            if step.node_id in self.node_ids:
                raise ScenarioError(f"{where}: duplicate node id {step.node_id!r}")
            self.node_ids[step.node_id] = step
        else:
            for endpoint in (step.src, step.dst):
                self.require_node(endpoint, where)
            if step.link_id in self.link_ids:
                raise ScenarioError(f"{where}: duplicate link {step.link_id!r}")
            if step.alias in self.aliases:
                raise ScenarioError(f"{where}: duplicate link alias {step.alias!r}")
            if step.alias:
                self.aliases[step.alias] = step.link_id
            self.link_ids[step.link_id] = step
        self.steps.append(step)

    def require_node(self, node_id: str, where: str) -> None:
        if node_id not in self.node_ids:
            raise ScenarioError(f"{where}: unknown node {node_id!r}")

    def resolve_link(self, ref: str, where: str) -> str:
        """An alias or canonical ``src->dst`` id -> canonical id."""
        if ref in self.aliases:
            return self.aliases[ref]
        if ref in self.link_ids:
            return ref
        known = sorted(self.aliases) + sorted(self.link_ids)
        raise ScenarioError(f"{where}: unknown link {ref!r} (known: {', '.join(known)})")

    def group(self, name: str, where: str) -> GroupPlan:
        if name not in self.groups:
            raise ScenarioError(
                f"{where}: unknown group {name!r}"
                f" (known: {', '.join(sorted(self.groups)) or 'none'})"
            )
        return self.groups[name]


# ---------------------------------------------------------------------------
# the scenario spec itself
# ---------------------------------------------------------------------------

def _unique(names: List[str], what: str, where: str) -> None:
    for index, name in enumerate(names):
        if name in names[:index]:
            raise ScenarioError(f"{where}[{index}]: duplicate {what} {name!r}")


@dataclass(frozen=True)
class ScenarioSpec(_Spec):
    """A complete declarative scenario; see the module docstring."""

    name: str
    topology: TopologySpec
    title: str = ""
    description: str = ""
    params: Dict[str, Num] = field(default_factory=dict)
    catalog: Optional[CatalogSpec] = None
    cdns: Tuple[CdnSpec, ...] = ()
    egress: Tuple[EgressSpec, ...] = ()
    web: Optional[WebSpec] = None
    populations: Tuple[PopulationSpec, ...] = ()
    phases: Tuple[PhaseSpec, ...] = ()
    faults: Tuple[FaultPlanSpec, ...] = ()

    def resolve(
        self, params: Optional[Mapping[str, Any]] = None
    ) -> Tuple["ScenarioSpec", TopologyPlan]:
        """The single resolve pass: ``(resolved spec, topology plan)``.

        ``params`` overrides the declared defaults; the resolved spec's
        ``params`` are the values in force.  Raises :class:`ScenarioError`
        on any bound, dangling reference, duplicate, phase-order or inline
        fault-plan error.  ``use:`` plans are looked up by :meth:`fault_plans`.
        """
        values = dict(self.params)
        for key, value in (params or {}).items():
            if key not in values:
                raise ScenarioError(
                    f"scenario.params: unknown parameter {key!r}"
                    f" (declared: {', '.join(sorted(values)) or 'none'})"
                )
            values[key] = value
        for key, value in values.items():
            if not _is_number(value):
                raise ScenarioError(f"scenario.params.{key}: expected a number, got {value!r}")
        spec = dataclasses.replace(_resolve(self, values, "scenario"), params=values)
        plan = TopologyPlan.expand(spec.topology, spec.name)

        _unique([cdn.name for cdn in spec.cdns], "cdn", "scenario.cdns")
        for index, cdn in enumerate(spec.cdns):
            where = f"scenario.cdns[{index}]"
            if cdn.warm_top_fraction is not None and spec.catalog is None:
                raise ScenarioError(f"{where}: warm_top_fraction needs a catalog")
            for server_index, server in enumerate(cdn.servers):
                server_where = f"{where}.servers[{server_index}]"
                if server.group:
                    plan.group(server.group, f"{server_where}.group")
                else:
                    plan.require_node(server.node, f"{server_where}.node")
            if cdn.origin:
                plan.require_node(cdn.origin, f"{where}.origin")

        for index, group in enumerate(spec.egress):
            where = f"scenario.egress[{index}]"
            plan.require_node(group.remote, f"{where}.remote")
            for candidate in group.candidates:
                if candidate not in plan.node_ids:
                    raise ScenarioError(f"{where}: unknown candidate node {candidate!r}")
            missing = [c for c in group.candidates if c not in group.links]
            if missing:
                raise ScenarioError(f"{where}: no egress link for {missing}")
            for peer, ref in group.links.items():
                plan.resolve_link(ref, f"{where}.links[{peer}]")
            if group.preferred and group.preferred not in group.candidates:
                raise ScenarioError(f"{where}.preferred: {group.preferred!r} not a candidate")

        if spec.web is not None:
            plan.require_node(spec.web.server_node, "scenario.web.server_node")
            plan.group(spec.web.clients, "scenario.web.clients")

        _unique([pop.name for pop in spec.populations], "population", "scenario.populations")
        for index, population in enumerate(spec.populations):
            where = f"scenario.populations[{index}]"
            plan.group(population.group, f"{where}.group")
            amplitude = population.rate.get("amplitude", 0)
            if not 0 <= amplitude < 1:
                raise ScenarioError(f"{where}.rate.amplitude: out of range [0, 1): {amplitude!r}")

        _unique([phase.name for phase in spec.phases], "phase", "scenario.phases")
        for index, phase in enumerate(spec.phases):
            where = f"scenario.phases[{index}]: phase {phase.name!r}"
            if phase.end_s is not None and phase.end_s <= phase.at_s:
                raise ScenarioError(
                    f"{where} ends at {phase.end_s!r} before it starts ({phase.at_s!r})"
                )
            previous = spec.phases[index - 1] if index else None
            if previous is not None and phase.at_s <= previous.at_s:
                raise ScenarioError(
                    f"{where} (at_s={phase.at_s!r}) must start"
                    f" after {previous.name!r} (at_s={previous.at_s!r})"
                )
            if previous is not None and phase.at_s < (previous.end_s or 0):
                raise ScenarioError(
                    f"{where} (at_s={phase.at_s!r}) overlaps"
                    f" {previous.name!r} (end_s={previous.end_s!r})"
                )

        _unique([fault.name or fault.use for fault in spec.faults], "fault plan", "scenario.faults")
        for index, fault in enumerate(spec.faults):
            if fault.events:
                fault.compile(plan, f"scenario.faults[{index}]")
        return spec, plan

    def validate(self) -> None:
        """Run :meth:`resolve` at the declared defaults; raise on any error."""
        self.resolve()

    def fault_plans(self, plan: TopologyPlan) -> List[FaultPlan]:
        """A *resolved* spec's fault plans as :class:`FaultPlan` objects.

        Inline plans resolve their link refs against ``plan``; ``use:``
        entries are looked up in the named-plan registry (and must be
        registered -- importing the owning experiment module does that).
        """
        compiled: List[FaultPlan] = []
        for index, spec in enumerate(self.faults):
            where = f"scenario.faults[{index}]"
            try:
                compiled.append(
                    get_plan(spec.use).factory() if spec.use else spec.compile(plan, where)
                )
            except KeyError as error:
                raise ScenarioError(f"{where}: {error.args[0]}") from None
        return compiled
