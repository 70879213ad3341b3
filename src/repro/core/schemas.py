"""Message schemas carried over the EONA interfaces.

These are the concrete payloads the paper's §4 example derives:

A2I (application → infrastructure):
  * :class:`QoeAggregate` -- client-measured experience per
    (CDN, ISP, ...) group, aggregated, never per-user;
  * :class:`DemandEstimate` -- expected traffic volume toward each CDN,
    so the InfP can plan peering splits.

I2A (infrastructure → application):
  * :class:`PeeringPointInfo` -- the ISP's peering points for a CDN with
    capacity and congestion level;
  * :class:`PeeringDecision` -- which peering the ISP currently uses for
    a CDN's traffic (decision values, not the TE strategy itself);
  * :class:`CongestionSignal` -- explicit congestion attribution
    ("your bottleneck is my access network", Figure 3);
  * :class:`ServerHintInfo` -- a CDN's alternative-server hints.

Every schema serializes with :meth:`to_dict` so the looking glass can
apply field-level narrowing (§4's "narrow interface") uniformly, and
deserializes with :meth:`from_dict` so the wire transport
(:mod:`repro.transport.codec`) can restore typed payloads from the
canonical JSON it ships between processes.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import operator
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, NamedTuple, Sequence, Tuple

#: Version tag for the schema vocabulary itself; the wire envelope
#: (``eona-msg/1``, DESIGN.md §14) carries it so a peer can reject
#: payloads minted under an incompatible field set.
SCHEMA_VERSION = "eona-schemas/1"


class SchemaError(ValueError):
    """A payload dict cannot be restored into its schema dataclass."""


# ----------------------------------------------------------------------
# Coercion: JSON values back to annotated field types
# ----------------------------------------------------------------------
def _identity(value: object) -> object:
    return value


def _to_bool(value: object) -> object:
    if not isinstance(value, bool):
        raise SchemaError(f"expected bool, got {value!r}")
    return value


def _to_float(value: object) -> object:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected float, got {value!r}")
    return float(value)


def _to_int(value: object) -> object:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected int, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise SchemaError(f"expected int, got non-integral {value!r}")
        return int(value)
    return value


def _to_str(value: object) -> object:
    if not isinstance(value, str):
        raise SchemaError(f"expected str, got {value!r}")
    return value


def _sequence(value: object) -> Sequence[object]:
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"expected sequence, got {value!r}")
    return value


_SCALAR_COERCERS: Dict[object, Callable[[object], object]] = {
    bool: _to_bool, float: _to_float, int: _to_int, str: _to_str,
}


@functools.lru_cache(maxsize=None)
def _coercer(annotation: object) -> Callable[[object], object]:
    """Compile the :func:`coerce_value` rules for one annotation, once."""
    if annotation in (object, typing.Any):
        return _identity
    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        every = typing.get_args(annotation)
        args = [arg for arg in every if arg is not type(None)]
        optional = len(args) < len(every)
        inner = _coercer(args[0]) if len(args) == 1 else _identity

        def union(value: object) -> object:
            if value is None:
                if optional:
                    return None
                raise SchemaError(f"None is not valid for {annotation!r}")
            return inner(value)

        return union
    if annotation in _SCALAR_COERCERS:
        return _SCALAR_COERCERS[annotation]
    if origin is dict:
        key_type, value_type = typing.get_args(annotation) or (object, object)
        to_key, to_value = _coercer(key_type), _coercer(value_type)

        def mapping(value: object) -> object:
            if not isinstance(value, Mapping):
                raise SchemaError(f"expected mapping, got {value!r}")
            return {to_key(k): to_value(v) for k, v in value.items()}

        return mapping
    if origin is tuple:
        args = typing.get_args(annotation)
        if len(args) == 2 and args[1] is Ellipsis:
            to_item = _coercer(args[0])
            return lambda value: tuple(to_item(item) for item in _sequence(value))
        if not args:
            return lambda value: tuple(_sequence(value))
        to_items = tuple(_coercer(arg) for arg in args)

        def fixed(value: object) -> object:
            items = _sequence(value)
            if len(to_items) != len(items):
                raise SchemaError(
                    f"expected {len(to_items)}-tuple, got {len(items)} items"
                )
            return tuple(coerce(item) for coerce, item in zip(to_items, items))

        return fixed
    if origin is list:
        to_item = _coercer((typing.get_args(annotation) or (object,))[0])
        return lambda value: [to_item(item) for item in _sequence(value)]
    if dataclasses.is_dataclass(annotation) and hasattr(annotation, "from_dict"):
        from_dict = annotation.from_dict  # type: ignore[union-attr]
        return lambda value: from_dict(value) if isinstance(value, Mapping) else value
    return _identity


def coerce_value(value: object, annotation: object) -> object:
    """Restore ``value`` (fresh from JSON) to the annotated field type.

    JSON collapses the type lattice -- tuples arrive as lists, int-valued
    floats may arrive as ints -- so deserialization re-widens scalars and
    rebuilds containers recursively (``Dict``/``Tuple``/``List``/
    ``Optional``).  Anything not covered (``Any``, untyped ``object``)
    passes through untouched; genuinely wrong shapes raise
    :class:`SchemaError`.  The rules for an annotation are compiled once
    and reused.
    """
    return _coercer(annotation)(value)


# ----------------------------------------------------------------------
# The field plan: one compiled view of a dataclass, built once per class
# ----------------------------------------------------------------------
#: Exact types ``_plain`` hands back as they are (``copy.deepcopy`` would
#: return the same object).
_ATOMIC = frozenset({str, int, float, bool, type(None)})

#: Annotations whose fields the dumper reads without copying.
_SCALAR_HINTS = (str, int, float, bool)


def _plain(value: object) -> object:
    """``dataclasses.asdict``'s copy of one value.

    Dataclass instances become dicts (through their field plan), lists,
    tuples (named tuples included) and dicts are rebuilt as their own
    type, atoms are returned as they are and any other leaf is
    deep-copied -- so the result equals what ``asdict`` would produce
    for it and shares no container with ``value``.
    """
    kind = type(value)
    if kind in _ATOMIC:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return field_plan(kind).dump(value)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return kind(*[_plain(item) for item in value])
    if isinstance(value, (list, tuple)):
        return kind(_plain(item) for item in value)
    if isinstance(value, dict):
        return kind((_plain(key), _plain(item)) for key, item in value.items())
    return copy.deepcopy(value)


def _strip_optional(hint: object) -> object:
    """``Optional[X]`` -> ``X`` (a wider union keeps its other members)."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union and type(None) in args:
        rest = tuple(arg for arg in args if arg is not type(None))
        return rest[0] if len(rest) == 1 else typing.Union[rest]
    return hint


class FieldSlot(NamedTuple):
    """One dataclass field as the plan compiled it.

    Attributes:
        name: Field name (also its key in the dict form).
        hint: The resolved annotation.
        bare: ``hint`` with ``Optional`` stripped.
        default: The default (a ``default_factory``'s product, made
            once), or ``dataclasses.MISSING`` for a required field.
        metadata: The field's metadata mapping.
        coerce: The compiled :func:`coerce_value` of ``hint``.
        scalar: Whether ``bare`` is a scalar type, read without a copy.
    """

    name: str
    hint: Any
    bare: Any
    default: Any
    metadata: Mapping[str, Any]
    coerce: Callable[[object], object]
    scalar: bool


class FieldPlan:
    """The compiled dict (de)serialization of one dataclass.

    Built once per class by :func:`field_plan`: the type hints are
    resolved once and every field gets a prebuilt coercer, so neither
    direction re-derives type facts per message.
    """

    __slots__ = ("cls", "slots", "names", "_read", "_deep")

    def __init__(self, cls: type, slots: Tuple[FieldSlot, ...]):
        self.cls = cls
        self.slots = slots
        self.names = tuple(slot.name for slot in slots)
        self._deep = tuple(slot.name for slot in slots if not slot.scalar)
        if len(self.names) == 1:
            only = operator.attrgetter(self.names[0])
            self._read: Callable[[object], Tuple[object, ...]] = lambda obj: (only(obj),)
        elif self.names:
            self._read = operator.attrgetter(*self.names)
        else:
            self._read = lambda obj: ()

    def fields_of(self, instance: object) -> Dict[str, object]:
        """Field name -> value, uncopied (for read-only consumers)."""
        return dict(zip(self.names, self._read(instance)))

    def dump(self, instance: object) -> Dict[str, object]:
        """The ``dataclasses.asdict`` form of ``instance``.

        Scalar-typed fields are read directly; container, nested
        dataclass and ``Any`` fields go through :func:`_plain`, so the
        result equals ``asdict`` and shares no container with
        ``instance``.
        """
        data = self.fields_of(instance)
        for name in self._deep:
            data[name] = _plain(data[name])
        return data

    def load(self, payload: Mapping[str, object]) -> object:
        """Rebuild an instance (see :func:`dataclass_from_dict`)."""
        cls = self.cls
        if not isinstance(payload, Mapping):
            raise SchemaError(
                f"{cls.__name__}.from_dict needs a mapping, got {payload!r}"
            )
        kwargs: Dict[str, object] = {}
        for slot in self.slots:
            if slot.name in payload:
                try:
                    kwargs[slot.name] = slot.coerce(payload[slot.name])
                except SchemaError as error:
                    raise SchemaError(
                        f"{cls.__name__}.{slot.name}: {error}"
                    ) from None
            elif slot.default is dataclasses.MISSING:
                raise SchemaError(
                    f"{cls.__name__}.from_dict: missing field {slot.name!r}"
                )
        return cls(**kwargs)


@functools.lru_cache(maxsize=None)
def field_plan(cls: type) -> FieldPlan:
    """The one :class:`FieldPlan` of dataclass ``cls`` (built on first use)."""
    hints = typing.get_type_hints(cls)
    slots = []
    for spec in dataclasses.fields(cls):
        hint = hints.get(spec.name, object)
        bare = _strip_optional(hint)
        default = spec.default
        if spec.default_factory is not dataclasses.MISSING:
            default = spec.default_factory()
        slots.append(
            FieldSlot(
                name=spec.name,
                hint=hint,
                bare=bare,
                default=default,
                metadata=spec.metadata,
                coerce=_coercer(hint),
                scalar=bare in _SCALAR_HINTS,
            )
        )
    return FieldPlan(cls, tuple(slots))


def dataclass_from_dict(cls: type, payload: Mapping[str, object]) -> object:
    """Rebuild any dataclass from a ``to_dict`` dict (or its JSON echo).

    Field values are coerced back to the declared types (nested
    ``Dict``/``Tuple`` fields included); unknown keys are ignored so a
    newer peer's extra fields do not break an older reader; missing keys
    fall back to the field default or raise :class:`SchemaError`.  The
    wire codec uses this directly for payloads (``QueryResult``) that
    are dataclasses without the :class:`_Schema` mixin.
    """
    return field_plan(cls).load(payload)


class _Schema:
    """Mixin: dict (de)serialization used by the glass filter and the wire."""

    def to_dict(self) -> Dict[str, object]:
        """The ``dataclasses.asdict`` form, through the class's field plan."""
        return field_plan(type(self)).dump(self)

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        return field_plan(cls).names

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "_Schema":
        """Rebuild an instance from a ``to_dict`` dict (see
        :func:`dataclass_from_dict` for the coercion contract)."""
        return field_plan(cls).load(payload)  # type: ignore[return-value]


# ----------------------------------------------------------------------
# A2I payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QoeAggregate(_Schema):
    """Aggregated client-side experience for one group.

    Attributes:
        window_start: Start of the aggregation window.
        window_s: Window length.
        cdn: CDN the sessions used.
        isp: Client ISP (the access network).
        sessions: Number of sessions aggregated (k-anonymity basis).
        buffering_ratio: Mean buffering ratio.
        mean_bitrate_mbps: Mean delivered bitrate.
        join_time_s: Mean join time.
        abandonment_rate: Fraction of sessions abandoned.
    """

    window_start: float
    window_s: float
    cdn: str
    isp: str
    sessions: int
    buffering_ratio: float
    mean_bitrate_mbps: float
    join_time_s: float
    abandonment_rate: float = 0.0


@dataclass(frozen=True)
class DemandEstimate(_Schema):
    """AppP's expected traffic toward each CDN (Mbit/s), for TE planning."""

    time: float
    demand_mbps: Dict[str, float] = field(default_factory=dict)

    def for_cdn(self, cdn: str) -> float:
        return self.demand_mbps.get(cdn, 0.0)


# ----------------------------------------------------------------------
# I2A payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PeeringPointInfo(_Schema):
    """One peering point the ISP exchanges a CDN's traffic at."""

    peering_node: str
    cdn: str
    capacity_mbps: float
    load_mbps: float
    congested: bool

    @property
    def headroom_mbps(self) -> float:
        return max(0.0, self.capacity_mbps - self.load_mbps)


@dataclass(frozen=True)
class PeeringDecision(_Schema):
    """The ISP's current egress selection for one CDN's traffic group."""

    time: float
    cdn: str
    selected_peering: str


@dataclass(frozen=True)
class CongestionSignal(_Schema):
    """Explicit congestion attribution from the InfP.

    ``scope`` names the network segment: ``"access"`` (the last mile,
    Figure 3's case), ``"peering"``, or ``"core"``.  ``severity`` is the
    smoothed utilization of the worst link in that segment.
    """

    time: float
    scope: str
    congested: bool
    severity: float
    bottleneck_link: str = ""


@dataclass(frozen=True)
class ServerHintInfo(_Schema):
    """A CDN's alternative-server hint (per the coarse-control scenario)."""

    cdn: str
    server_id: str
    node_id: str
    load: float
    degraded: bool
