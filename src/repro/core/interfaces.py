"""Looking-glass query servers: the concrete EONA-A2I / EONA-I2A.

§3: "InfPs and AppPs can establish 'looking glass'-like servers that
can be queried to implement the respective interfaces."  A
:class:`LookingGlass` is owned by one provider, registers named query
handlers, and on every query enforces, in order:

1. **opt-in access control** -- the requester needs a grant;
2. **staleness** -- handlers can be registered with a refresh period,
   so queriers see periodic snapshots, not live state;
3. **field narrowing** -- the grant's field list is applied to each
   payload (schemas serialize to dicts for this).

A snapshot is serialized once, on the first query that sees it; every
query then gets its own copy of that serialized form (the copy
contract of :meth:`LookingGlass.query`).

Both interfaces are instances of the same class; what differs is who
owns them and which queries they register.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.privacy import blind_fields
from repro.core.registry import Grant, OptInRegistry
from repro.core.staleness import StaleView
from repro.obs.trace import TRACER
from repro.simkernel.kernel import Simulator

#: LookingGlass ``kind`` -> trace event kind for served queries.
_QUERY_EVENT_KIND = {"a2i": "a2i-report", "i2a": "i2a-hint"}


@dataclass(frozen=True)
class QueryResult:
    """Answer to one looking-glass query.

    Attributes:
        query: The query name.
        payload: A dict, or list of dicts, with narrowing applied.
        age_s: Staleness of the underlying snapshot.
        cause: Causal span ID of the served-query trace event (None
            when tracing is off or the glass is outside the A2I/I2A
            taxonomy).  Consumers thread it into the trace events of
            the actions the answer triggers (DESIGN.md §13).
    """

    query: str
    payload: Any
    age_s: float
    cause: Optional[int] = None


class UnknownQueryError(Exception):
    """The looking glass exports no such query."""


class GlassUnavailableError(Exception):
    """The looking glass is down (outage) or dropping queries (fault)."""


#: Fault modes settable via :meth:`LookingGlass.set_fault_mode`.
FAULT_MODES = (None, "drop", "delay", "freeze")

#: Leaf types a copy of a serialized payload may share (immutable).
_SCALARS = (str, int, float, type(None))


def _flat(row: Any) -> bool:
    return type(row) is dict and all(
        isinstance(value, _SCALARS) for value in row.values()
    )


def _copy_rows(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [row.copy() for row in rows]


def _copier(tree: Any) -> Callable[[Any], Any]:
    """The cheapest copy of ``tree`` that shares no mutable part with it."""
    if _flat(tree):
        return dict.copy
    if type(tree) is list and all(_flat(row) for row in tree):
        return _copy_rows
    return copy.deepcopy


class LookingGlass:
    """One provider's EONA query server.

    Args:
        sim: Simulator (needed for staleness snapshots).
        owner: Provider name; grants are checked against it.
        registry: The shared opt-in registry.
        kind: Which EONA interface this glass realizes (``"a2i"`` or
            ``"i2a"``); served queries emit the matching trace event.
            Empty (the default) for glasses outside the taxonomy.
    """

    def __init__(
        self, sim: Simulator, owner: str, registry: OptInRegistry, kind: str = ""
    ):
        self.sim = sim
        self.owner = owner
        self.registry = registry
        self.kind = kind
        self._handlers: Dict[str, Callable[..., Any]] = {}
        self._views: Dict[str, StaleView] = {}
        #: query -> (snapshot, its serialized form, that form's copier);
        #: holding the snapshot keeps its identity from being reused.
        self._serialized: Dict[str, Tuple[Any, Any, Callable[[Any], Any]]] = {}
        self.queries_served = 0
        self.queries_denied = 0
        self.queries_failed = 0
        self.available = True
        self._fault_mode: Optional[str] = None
        self._fault_delay_s = 0.0
        #: Optional provenance hook set by the owner: returns the cause
        #: ID of the upstream event the glass's current answers derive
        #: from (e.g. the AppP's last aggregation flush), or None.
        #: Served-query trace events carry it as ``parent``.
        self.provenance: Optional[Callable[[], Optional[int]]] = None

    def register(
        self,
        query: str,
        handler: Callable[..., Any],
        refresh_period_s: float = 0.0,
        publish_delay_s: float = 0.0,
    ) -> None:
        """Export ``query``; with a refresh period, answers are snapshots.

        Snapshot handlers must be zero-argument (parameters cannot be
        baked into a shared snapshot) and must return a new object on
        every call: a snapshot is serialized once, keyed by its
        identity.  Live handlers may take keyword parameters passed
        through from the query.
        """
        if refresh_period_s > 0:
            self._views[query] = StaleView(
                self.sim, handler, refresh_period_s, publish_delay_s
            )
        self._handlers[query] = handler

    def set_refresh_period(self, query: str, refresh_period_s: float) -> None:
        """Re-pace a snapshot query (the staleness-sweep knob)."""
        if query not in self._handlers:
            raise UnknownQueryError(query)
        view = self._views.pop(query, None)
        if view is not None:
            view.stop()
        self._serialized.pop(query, None)
        if refresh_period_s > 0:
            self._views[query] = StaleView(
                self.sim, self._handlers[query], refresh_period_s
            )

    def exported_queries(self) -> List[str]:
        return sorted(self._handlers)

    # ------------------------------------------------------------------
    # fault hooks (driven by repro.faults.injector)
    # ------------------------------------------------------------------
    def set_available(self, available: bool) -> None:
        """Take the glass dark (every query raises) or bring it back."""
        self.available = available

    def set_fault_mode(self, mode: Optional[str], delay_s: float = 0.0) -> None:
        """Degrade query answers without taking the glass fully down.

        Args:
            mode: ``"drop"`` -- queries raise
                :class:`GlassUnavailableError`; ``"delay"`` -- answers
                flow but report ``delay_s`` extra staleness;
                ``"freeze"`` -- snapshot views stop refreshing, so the
                glass keeps answering with ever-older data (live
                zero-period queries are unaffected); ``None`` -- clear
                the fault (frozen views are re-paced with a fresh
                snapshot taken now).
            delay_s: Extra reported age for ``"delay"`` mode.
        """
        if mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {mode!r} (known: {FAULT_MODES})")
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s!r}")
        previous = self._fault_mode
        self._fault_mode = mode
        self._fault_delay_s = delay_s if mode == "delay" else 0.0
        if mode == "freeze" and previous != "freeze":
            for name in sorted(self._views):
                self._views[name].stop()
        elif previous == "freeze" and mode != "freeze":
            for name in sorted(self._views):
                old = self._views[name]
                old.stop()
                self._views[name] = StaleView(
                    self.sim, old.fetch, old.refresh_period_s, old.publish_delay_s
                )

    @property
    def fault_mode(self) -> Optional[str]:
        return self._fault_mode

    def query(self, requester: str, query: str, **params: Any) -> QueryResult:
        """Run a query as ``requester``, enforcing grants and narrowing.

        The payload belongs to the caller: it shares no mutable part
        with the glass or with any other answer, so changing it cannot
        change what the next query sees.  A published snapshot is
        serialized once and each answer is a copy of that form (flat
        rows are copied row by row, anything deeper is deep-copied);
        live answers (zero period, or inside the first publish delay)
        are serialized afresh on every query.
        """
        if query not in self._handlers:
            self.queries_failed += 1
            raise UnknownQueryError(f"{self.owner!r} does not export {query!r}")
        if not self.available or self._fault_mode == "drop":
            self.queries_failed += 1
            reason = "down" if not self.available else "dropping queries"
            raise GlassUnavailableError(f"{self.owner!r} glass is {reason}")
        try:
            grant = self.registry.check(self.owner, requester, query)
        except Exception:
            self.queries_denied += 1
            raise
        view = self._views.get(query)
        try:
            if view is not None:
                raw, age, published = view.read()
            else:
                raw, age, published = self._handlers[query](**params), 0.0, False
        except Exception:
            self.queries_failed += 1
            raise
        age += self._fault_delay_s
        self.queries_served += 1
        cause: Optional[int] = None
        if TRACER.enabled:
            event_kind = _QUERY_EVENT_KIND.get(self.kind)
            if event_kind is not None:
                cause = TRACER.new_cause()
                extra: Dict[str, object] = {}
                if self.provenance is not None:
                    parent = self.provenance()
                    if parent is not None:
                        extra["parent"] = parent
                TRACER.emit(
                    event_kind,
                    via="query",
                    owner=self.owner,
                    requester=requester,
                    query=query,
                    age_s=age,
                    cause=cause,
                    **extra,
                )
        if published:
            payload = self._snapshot_copy(query, raw)
        else:
            payload = _serialize(raw)
        return QueryResult(
            query=query, payload=_narrow(payload, grant), age_s=age, cause=cause
        )

    def _snapshot_copy(self, query: str, snapshot: Any) -> Any:
        """A fresh copy of ``snapshot``'s serialized form (made once)."""
        cached = self._serialized.get(query)
        if cached is None or cached[0] is not snapshot:
            serialized = _serialize(snapshot)
            cached = (snapshot, serialized, _copier(serialized))
            self._serialized[query] = cached
        return cached[2](cached[1])


def _dump(item: Any) -> Any:
    # A schema's to_dict is its field plan's dumper.
    return item.to_dict() if hasattr(item, "to_dict") else item


def _serialize(raw: Any) -> Any:
    if isinstance(raw, list):
        return [_dump(item) for item in raw]
    return _dump(raw)


def _narrow(serialized: Any, grant: Grant) -> Any:
    if grant.all_fields:
        return serialized
    if isinstance(serialized, list):
        return [blind_fields(item, grant.fields) for item in serialized]
    if isinstance(serialized, Mapping):
        return blind_fields(serialized, grant.fields)
    return serialized
