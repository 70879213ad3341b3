"""The ``eona-msg/1`` wire envelope and its schema registry.

Every message between an AppP and an InfP process travels as one line of
canonical JSON (sorted keys, no trailing whitespace)::

    {"body": {...}, "schemas": "eona-schemas/1",
     "type": "QueryRequest", "v": "eona-msg/1"}

``v`` versions the *envelope* (framing, routing fields); ``schemas``
versions the payload vocabulary (:data:`repro.core.schemas.SCHEMA_VERSION`);
``type`` names a registered schema class and ``body`` is its
``to_dict()``.  Canonical-form encoding is what makes the loopback
equivalence gate meaningful: the same payload always serializes to the
same bytes, so a recorded feed is replayable and two same-seed runs
ship identical frames (DESIGN.md §14).

The registry covers every :mod:`repro.core.schemas` payload, the
query-plane messages defined here (:class:`QueryRequest`,
:class:`QueryReply`, :class:`ErrorReply`), and
:class:`~repro.core.interfaces.QueryResult` itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, is_dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.interfaces import QueryResult
from repro.core.schemas import (
    SCHEMA_VERSION,
    CongestionSignal,
    DemandEstimate,
    PeeringDecision,
    PeeringPointInfo,
    QoeAggregate,
    SchemaError,
    ServerHintInfo,
    _Schema,
    dataclass_from_dict,
    field_plan,
)

#: Envelope version; bump on any framing/routing change.
WIRE_VERSION = "eona-msg/1"


class CodecError(ValueError):
    """A frame cannot be encoded or decoded under ``eona-msg/1``."""


@dataclass(frozen=True)
class QueryRequest(_Schema):
    """One looking-glass query on the wire (client -> server).

    Attributes:
        owner: Provider whose glass is addressed (the server may host
            several, e.g. an ISP's I2A next to a control glass).
        requester: Requesting provider, checked against the grant.
        query: Exported query name.
        msg_id: Client-assigned correlation ID; the matching reply
            echoes it (replies may arrive reordered under the transport
            fault knobs).
        params: Keyword parameters forwarded to a live handler.
    """

    owner: str
    requester: str
    query: str
    msg_id: int
    params: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class QueryReply(_Schema):
    """A served query's answer (server -> client).

    Flattens :class:`~repro.core.interfaces.QueryResult` so the reply is
    one envelope deep; ``served_at`` is the *server's* clock at serve
    time -- under the shared-clock contract (DESIGN.md §14) the client
    adds its transit dwell to ``age_s`` from it.  ``cause`` is the
    server-process span ID and is never valid in the client's trace;
    :class:`~repro.transport.glass.RemoteLookingGlass` remaps it.
    """

    msg_id: int
    served_at: float
    query: str
    payload: Any
    age_s: float
    cause: Optional[int] = None

    def to_result(self) -> QueryResult:
        return QueryResult(
            query=self.query,
            payload=self.payload,
            age_s=self.age_s,
            cause=self.cause,
        )

    @classmethod
    def from_result(
        cls, msg_id: int, served_at: float, result: QueryResult
    ) -> "QueryReply":
        return cls(
            msg_id=msg_id,
            served_at=served_at,
            query=result.query,
            payload=result.payload,
            age_s=result.age_s,
            cause=result.cause,
        )


@dataclass(frozen=True)
class ErrorReply(_Schema):
    """A failed query (server -> client).

    ``error`` carries the exception *type name* so the client proxy can
    re-raise the exact glass error locally -- access denials must stay
    denials (configuration, exempt from fallback streaks), not morph
    into generic transport failures.
    """

    msg_id: int
    error: str
    message: str = ""


#: type name -> (class, decoder).  Sorted registration order is cosmetic;
#: lookups are by exact name from the envelope.
_REGISTRY: Dict[str, Tuple[type, Callable[[Mapping[str, object]], object]]] = {}


def register_schema(
    cls: type, decoder: Optional[Callable[[Mapping[str, object]], object]] = None
) -> type:
    """Make ``cls`` wire-codable under its class name."""
    if not is_dataclass(cls):
        raise CodecError(f"{cls!r} is not a dataclass")
    name = cls.__name__
    if name in _REGISTRY:
        raise CodecError(f"duplicate wire schema {name!r}")
    if decoder is None:
        decoder = getattr(cls, "from_dict", None)
    if decoder is None:
        raise CodecError(f"{name} has no from_dict and no explicit decoder")
    _REGISTRY[name] = (cls, decoder)
    return cls


def wire_types() -> Tuple[str, ...]:
    """Registered type names, sorted (the docs/tests enumeration)."""
    return tuple(sorted(_REGISTRY))


def _nested_dataclass(value: object) -> object:
    """``json.dumps`` hook: a dataclass nested in a body becomes its dict."""
    if is_dataclass(value) and not isinstance(value, type):
        return field_plan(type(value)).dump(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def encode(message: object) -> str:
    """One object -> one canonical JSON line (no trailing newline).

    The body is the message's fields read through its field plan, not
    a copy: ``json.dumps`` only reads it, and turns any dataclass nested
    in it into its dict, so the line equals the canonical JSON of
    ``dataclasses.asdict(message)``.
    """
    name = type(message).__name__
    if name not in _REGISTRY:
        raise CodecError(f"unregistered wire type {name!r}")
    envelope = {
        "v": WIRE_VERSION,
        "schemas": SCHEMA_VERSION,
        "type": name,
        "body": field_plan(type(message)).fields_of(message),
    }
    try:
        return json.dumps(
            envelope, sort_keys=True, allow_nan=False, default=_nested_dataclass
        )
    except (TypeError, ValueError) as error:
        raise CodecError(f"cannot serialize {name}: {error}") from None


def decode(frame: str) -> object:
    """One JSON line -> the typed message it encodes.

    Raises :class:`CodecError` for malformed JSON, JSON nested deeper
    than the parser's recursion limit, an unknown envelope or schema
    version, an unregistered type, or a body that fails field coercion.
    """
    try:
        envelope = json.loads(frame)
    except ValueError as error:
        raise CodecError(f"malformed frame: {error}") from None
    except RecursionError:
        raise CodecError("malformed frame: nested too deeply") from None
    if not isinstance(envelope, dict):
        raise CodecError(f"frame is not an envelope object: {frame[:80]!r}")
    version = envelope.get("v")
    if version != WIRE_VERSION:
        raise CodecError(
            f"unsupported envelope version {version!r} (want {WIRE_VERSION!r})"
        )
    schemas = envelope.get("schemas")
    if schemas != SCHEMA_VERSION:
        raise CodecError(
            f"unsupported schema version {schemas!r} (want {SCHEMA_VERSION!r})"
        )
    name = envelope.get("type")
    entry = _REGISTRY.get(str(name))
    if entry is None:
        raise CodecError(f"unknown wire type {name!r}")
    _cls, decoder = entry
    body = envelope.get("body")
    if not isinstance(body, dict):
        raise CodecError(f"{name} body must be an object, got {body!r}")
    try:
        return decoder(body)
    except SchemaError as error:
        raise CodecError(str(error)) from None


# The wire vocabulary: every core schema payload, the query-plane
# messages, and QueryResult itself (used by feeds that capture results
# rather than flattened replies).
for _cls in (
    QoeAggregate,
    DemandEstimate,
    PeeringPointInfo,
    PeeringDecision,
    CongestionSignal,
    ServerHintInfo,
    QueryRequest,
    QueryReply,
    ErrorReply,
):
    register_schema(_cls)
register_schema(
    QueryResult, decoder=lambda body: dataclass_from_dict(QueryResult, body)
)
