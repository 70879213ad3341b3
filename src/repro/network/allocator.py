"""The stateful, incremental max-min allocation engine.

:class:`AllocationEngine` keeps the flow–link bookkeeping of a
:class:`~repro.network.fluidsim.FluidNetwork` alive across allocation
calls.  The network tells the engine *what changed* (a flow started,
finished, changed demand, moved to a new path; a link's capacity moved)
and the engine re-solves only the flows that can possibly be affected:
the connected component of the flow–link sharing graph reachable from
the dirty flows and links.

Why this is exact: the max-min fair allocation decomposes over the
connected components of the flow–link graph — a flow's rate depends
only on flows it (transitively) shares a link with.  Re-solving one
closed component with the original link capacities therefore yields
exactly the rates a from-scratch solve over all flows would, which the
equivalence property test pins to 1e-6.

When the dirty component spans most of the network (churn touching
everything, e.g. a core-link capacity change) the engine falls back to
one full solve — the component walk would cost as much as solving, so
there is nothing to save.  The fraction is the
``full_solve_fraction`` knob of :class:`EngineConfig`; ``0.0`` makes
every solve a full one (the from-scratch baseline).

The engine is the only writer of ``flow.path`` and ``flow.rate_mbps``.
Mutations only mark the links whose load may have moved; each solve
derives those links' loads from their members' rates, so the network
refreshes statistics of exactly those links.
Counters (:class:`EngineCounters`) make the saving observable:
``bench_allocator.py`` asserts the flash-crowd workload does strictly
fewer full solves with the engine than a from-scratch-per-change
baseline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.network.flows import Flow
from repro.network.maxmin import max_min_allocation
from repro.network.topology import Link
from repro.obs.trace import TRACER


@dataclass
class EngineConfig:
    """Tuning knobs of the allocation engine.

    Attributes:
        max_rate_mbps: Cap applied to any single flow (end-host NIC
            stand-in; also keeps infinite-demand, empty-path rates finite).
        full_solve_fraction: When the dirty component contains at least
            this fraction of all active flows, do a full solve instead
            of an incremental one.  ``0.0`` forces a full solve on every
            change (the from-scratch baseline the benchmarks compare
            against).
    """

    max_rate_mbps: float = 1e5
    full_solve_fraction: float = 0.6


@dataclass
class EngineCounters:
    """Observable cost of the allocation path.

    Attributes:
        solve_calls: Total :meth:`AllocationEngine.solve` invocations.
        full_solves: Calls that re-solved every active flow.
        incremental_solves: Calls that re-solved only a dirty component.
        noop_solves: Calls with nothing dirty (no work done).
        flows_touched: Cumulative number of flows passed to the solver.
        flows_active_peak: Largest concurrent flow count seen.
    """

    solve_calls: int = 0
    full_solves: int = 0
    incremental_solves: int = 0
    noop_solves: int = 0
    flows_touched: int = 0
    flows_active_peak: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "solve_calls": self.solve_calls,
            "full_solves": self.full_solves,
            "incremental_solves": self.incremental_solves,
            "noop_solves": self.noop_solves,
            "flows_touched": self.flows_touched,
            "flows_active_peak": self.flows_active_peak,
        }


@dataclass
class SolveResult:
    """What one :meth:`AllocationEngine.solve` call recomputed.

    Attributes:
        mode: ``"full"``, ``"incremental"``, or ``"noop"``.
        rates: New rate for every flow the solver touched (already
            capped at ``max_rate_mbps``).
        changed_links: Links whose aggregate load moved since the last
            solve (including links drained by removed/rerouted flows).
    """

    mode: str
    rates: Dict[str, float] = field(default_factory=dict)
    changed_links: Set[str] = field(default_factory=set)


class AllocationEngine:
    """Incremental max-min allocator with persistent bookkeeping.

    The owner (normally :class:`~repro.network.fluidsim.FluidNetwork`)
    routes every state change through the mutation methods below, then
    calls :meth:`solve` to bring rates up to date.  The engine is the
    single writer of its flows' ``path`` and ``rate_mbps``, so it can
    both (a) seed the dirty-component walk and (b) report exactly which
    link loads moved.
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.counters = EngineCounters()
        self._flows: Dict[str, Flow] = {}
        # link_id -> ids of flows currently routed over the link.
        self._members: Dict[str, Set[str]] = {}
        # link_id -> sum of member rates; written only by solve().
        self.link_loads: Dict[str, float] = {}
        self._dirty_flows: Set[str] = set()
        self._dirty_links: Set[str] = set()
        self._changed_links: Set[str] = set()

    # ------------------------------------------------------------------
    # mutations (the network's change notifications)
    # ------------------------------------------------------------------
    def add_flow(self, flow: Flow) -> None:
        """Register a newly started flow."""
        flow_id = flow.flow_id
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id!r} already registered")
        self._flows[flow_id] = flow
        flow.rate_mbps = 0.0
        self._join_path(flow)
        self._dirty_flows.add(flow_id)
        if len(self._flows) > self.counters.flows_active_peak:
            self.counters.flows_active_peak = len(self._flows)

    def remove_flow(self, flow: Flow) -> None:
        """Drop a completed or aborted flow.  Idempotent."""
        flow_id = flow.flow_id
        if flow_id not in self._flows:
            return
        self._leave_path(flow)
        del self._flows[flow_id]
        self._dirty_flows.discard(flow_id)

    def update_demand(self, flow: Flow) -> None:
        """Note that ``flow.demand_mbps`` changed."""
        if flow.flow_id in self._flows:
            self._dirty_flows.add(flow.flow_id)

    def update_weight(self, flow: Flow) -> None:
        """Note that ``flow.weight`` changed."""
        if flow.flow_id in self._flows:
            self._dirty_flows.add(flow.flow_id)

    def set_path(self, flow: Flow, new_path: List[Link]) -> None:
        """Move a flow onto ``new_path``, updating all bookkeeping.

        The engine performs the ``flow.path`` assignment itself so the
        membership maps can never drift from the flow objects.
        """
        flow_id = flow.flow_id
        if flow_id not in self._flows:
            flow.path = list(new_path)
            return
        self._leave_path(flow)
        flow.path = list(new_path)
        self._join_path(flow)
        self._dirty_flows.add(flow_id)

    def update_capacity(self, link_id: str) -> None:
        """Note that a link's capacity changed (value lives on the Link)."""
        self._dirty_links.add(link_id)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self) -> SolveResult:
        """Bring rates up to date; returns what was recomputed."""
        self.counters.solve_calls += 1
        if not self._dirty_flows and not self._dirty_links:
            self.counters.noop_solves += 1
            return SolveResult("noop", {}, self._refresh_changed_loads())

        touched = self._affected_flows()
        total = len(self._flows)
        if (
            total == 0
            or len(touched) >= self.config.full_solve_fraction * total
        ):
            mode = "full"
            self.counters.full_solves += 1
            targets = list(self._flows.values())
        else:
            mode = "incremental"
            self.counters.incremental_solves += 1
            targets = [self._flows[flow_id] for flow_id in touched]
        self.counters.flows_touched += len(targets)

        raw = max_min_allocation(targets)
        cap = self.config.max_rate_mbps
        new_rates: Dict[str, float] = {}
        for flow in targets:
            rate = min(raw.get(flow.flow_id, 0.0), cap)
            new_rates[flow.flow_id] = rate
            if rate != flow.rate_mbps:
                flow.rate_mbps = rate
                for link in flow.path:
                    self._changed_links.add(link.link_id)

        self._dirty_flows.clear()
        self._dirty_links.clear()
        if TRACER.enabled:
            # Noop solves are skipped: at one solve per network change
            # they would dominate the trace with zero-information events.
            TRACER.emit(
                "allocator-solve",
                mode=mode,
                flows_solved=len(targets),
                flows_active=total,
            )
        return SolveResult(mode, new_rates, self._refresh_changed_loads())

    @property
    def rates(self) -> Dict[str, float]:
        """Current rate of every registered flow (a fresh snapshot)."""
        return {flow_id: flow.rate_mbps for flow_id, flow in self._flows.items()}

    def active_flow_count(self) -> int:
        return len(self._flows)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _join_path(self, flow: Flow) -> None:
        """Add ``flow`` to its links' members; a loaded flow moves their load."""
        flow_id = flow.flow_id
        loaded = flow.rate_mbps != 0.0  # simlint: ignore[float-eq] -- exact sentinel, never arithmetic
        for link in flow.path:
            link_id = link.link_id
            self._members.setdefault(link_id, set()).add(flow_id)
            if loaded:
                self._changed_links.add(link_id)

    def _leave_path(self, flow: Flow) -> None:
        """Drop ``flow`` from its links' members, marking them dirty."""
        flow_id = flow.flow_id
        loaded = flow.rate_mbps != 0.0  # simlint: ignore[float-eq] -- exact sentinel, never arithmetic
        for link in flow.path:
            link_id = link.link_id
            members = self._members.get(link_id)
            if members is not None:
                members.discard(flow_id)
            if loaded:
                self._changed_links.add(link_id)
            # The survivors on this link may now speed up.
            self._dirty_links.add(link_id)

    def _refresh_changed_loads(self) -> Set[str]:
        """Derive each changed link's load from its members' rates.

        This is the only writer of :attr:`link_loads`.  Summing the
        members in sorted order makes the loads exact and run-to-run
        deterministic.  Returns the changed links and starts a new set.
        """
        flows = self._flows
        changed = self._changed_links
        for link_id in changed:
            members = self._members.get(link_id)
            if members:
                self.link_loads[link_id] = sum(
                    flows[flow_id].rate_mbps for flow_id in sorted(members)
                )
            else:
                self.link_loads[link_id] = 0.0
        self._changed_links = set()
        return changed

    def _affected_flows(self) -> Set[str]:
        """Closure of the dirty seeds over the flow–link sharing graph.

        Every link reached contributes *all* its member flows, so the
        returned set is closed: no untouched flow shares a link with a
        touched one, which is what makes the component solve exact.
        """
        touched: Set[str] = set()
        seen_links: Set[str] = set()
        pending: deque = deque()
        for flow_id in self._dirty_flows:
            if flow_id in self._flows and flow_id not in touched:
                touched.add(flow_id)
                pending.append(flow_id)
        for link_id in self._dirty_links:
            if link_id in seen_links:
                continue
            seen_links.add(link_id)
            for flow_id in self._members.get(link_id, ()):
                if flow_id not in touched:
                    touched.add(flow_id)
                    pending.append(flow_id)
        while pending:
            flow_id = pending.popleft()
            for link in self._flows[flow_id].path:
                link_id = link.link_id
                if link_id in seen_links:
                    continue
                seen_links.add(link_id)
                for other_id in self._members.get(link_id, ()):
                    if other_id not in touched:
                        touched.add(other_id)
                        pending.append(other_id)
        return touched

    def check_consistency(self, flows: Iterable[Flow]) -> None:
        """Assert bookkeeping matches ``flows`` (test/debug helper)."""
        expected = {flow.flow_id: flow for flow in flows if not flow.done}
        if set(expected) != set(self._flows):
            raise AssertionError(
                f"flow registry drift: engine={sorted(self._flows)} "
                f"expected={sorted(expected)}"
            )
        loads: Dict[str, float] = {}
        for flow in self._flows.values():
            for link in flow.path:
                loads[link.link_id] = loads.get(link.link_id, 0.0) + flow.rate_mbps
        for link_id, load in loads.items():
            if abs(self.link_loads.get(link_id, 0.0) - load) > 1e-6:
                raise AssertionError(
                    f"link {link_id}: tracked load "
                    f"{self.link_loads.get(link_id, 0.0)} != recomputed {load}"
                )
