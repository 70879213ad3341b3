"""The stateful max-min allocation engine.

:class:`AllocationEngine` keeps the flow–link bookkeeping of a
:class:`~repro.network.fluidsim.FluidNetwork` alive across allocation
calls.  The network tells the engine *that* something changed (a flow
started, finished, moved to a new path; a demand, weight or link
capacity moved) and the next :meth:`AllocationEngine.solve` re-solves
every registered flow in one max-min pass.  A solve with no mutation
since the last one is a no-op.

The engine is the only writer of ``flow.path`` and ``flow.rate_mbps``.
Mutations only mark the links whose load may have moved; each solve
derives those links' loads from their members' rates, so the network
refreshes statistics of exactly those links.
Counters (:class:`EngineCounters`) make the cost observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.network.flows import Flow
from repro.network.maxmin import max_min_allocation
from repro.network.topology import Link
from repro.obs.trace import TRACER


#: Cap applied to any single flow (end-host NIC stand-in; also keeps
#: infinite-demand, empty-path rates finite).
MAX_RATE_MBPS = 1e5


@dataclass
class EngineCounters:
    """Observable cost of the allocation path.

    Attributes:
        solve_calls: Total :meth:`AllocationEngine.solve` invocations.
        full_solves: Calls that re-solved every active flow.
        noop_solves: Calls with nothing dirty (no work done).
        flows_touched: Cumulative number of flows passed to the solver.
        flows_active_peak: Largest concurrent flow count seen.
    """

    solve_calls: int = 0
    full_solves: int = 0
    noop_solves: int = 0
    flows_touched: int = 0
    flows_active_peak: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "solve_calls": self.solve_calls,
            "full_solves": self.full_solves,
            "noop_solves": self.noop_solves,
            "flows_touched": self.flows_touched,
            "flows_active_peak": self.flows_active_peak,
        }


@dataclass
class SolveResult:
    """What one :meth:`AllocationEngine.solve` call recomputed.

    Attributes:
        mode: ``"full"`` or ``"noop"``.
        rates: New rate of every registered flow after a full solve
            (already capped at :data:`MAX_RATE_MBPS`); empty for a noop.
        changed_links: Links whose aggregate load moved since the last
            solve (including links drained by removed/rerouted flows).
    """

    mode: str
    rates: Dict[str, float] = field(default_factory=dict)
    changed_links: Set[str] = field(default_factory=set)


class AllocationEngine:
    """Max-min allocator with persistent bookkeeping.

    The owner (normally :class:`~repro.network.fluidsim.FluidNetwork`)
    routes every state change through the mutation methods below, then
    calls :meth:`solve` to bring rates up to date.  The engine is the
    single writer of its flows' ``path`` and ``rate_mbps``, so it can
    report exactly which link loads moved.
    """

    def __init__(self) -> None:
        self.counters = EngineCounters()
        self._flows: Dict[str, Flow] = {}
        # link_id -> ids of flows currently routed over the link.
        self._members: Dict[str, Set[str]] = {}
        # link_id -> sum of member rates; written only by solve().
        self.link_loads: Dict[str, float] = {}
        # Set by every mutation that can move a rate; cleared by solve().
        self._dirty = False
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
        self._dirty = True
        if len(self._flows) > self.counters.flows_active_peak:
            self.counters.flows_active_peak = len(self._flows)

    def remove_flow(self, flow: Flow) -> None:
        """Drop a completed or aborted flow.  Idempotent."""
        flow_id = flow.flow_id
        if flow_id not in self._flows:
            return
        self._leave_path(flow)
        del self._flows[flow_id]

    def set_path(self, flow: Flow, new_path: List[Link]) -> None:
        """Move a flow onto ``new_path``, updating all bookkeeping.

        The engine performs the ``flow.path`` assignment itself so the
        membership maps can never drift from the flow objects.
        """
        if flow.flow_id not in self._flows:
            flow.path = list(new_path)
            return
        self._leave_path(flow)
        flow.path = list(new_path)
        self._join_path(flow)
        self._dirty = True

    def invalidate(self) -> None:
        """Note that a flow's demand or weight, or a link's capacity, changed.

        The values live on the :class:`Flow` and :class:`Link` objects;
        the next :meth:`solve` reads them.
        """
        self._dirty = True

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self) -> SolveResult:
        """Bring rates up to date; returns what was recomputed."""
        self.counters.solve_calls += 1
        if not self._dirty:
            self.counters.noop_solves += 1
            return SolveResult("noop", {}, self._refresh_changed_loads())

        self.counters.full_solves += 1
        targets = list(self._flows.values())
        self.counters.flows_touched += len(targets)

        raw = max_min_allocation(targets)
        new_rates: Dict[str, float] = {}
        for flow in targets:
            rate = min(raw.get(flow.flow_id, 0.0), MAX_RATE_MBPS)
            new_rates[flow.flow_id] = rate
            if rate != flow.rate_mbps:
                flow.rate_mbps = rate
                for link in flow.path:
                    self._changed_links.add(link.link_id)

        self._dirty = False
        if TRACER.enabled:
            # Noop solves are skipped: at one solve per network change
            # they would dominate the trace with zero-information events.
            TRACER.emit(
                "allocator-solve",
                mode="full",
                flows_solved=len(targets),
                flows_active=len(targets),
            )
        return SolveResult("full", new_rates, self._refresh_changed_loads())

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
        """Drop ``flow`` from its links' members; its survivors need a solve."""
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
            self._dirty = True

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

    def check_consistency(self, flows: Iterable[Flow]) -> None:
        """Assert bookkeeping matches ``flows`` after a solve (test/debug helper).

        Checks the flow registry, that :attr:`_members` is exactly the
        path membership of the registered flows, and that every link's
        load equals its members' rates summed in sorted member order.
        """
        expected = {flow.flow_id: flow for flow in flows if not flow.done}
        if set(expected) != set(self._flows):
            raise AssertionError(
                f"flow registry drift: engine={sorted(self._flows)} "
                f"expected={sorted(expected)}"
            )
        members: Dict[str, Set[str]] = {}
        for flow_id, flow in self._flows.items():
            for link in flow.path:
                members.setdefault(link.link_id, set()).add(flow_id)
        tracked = {link_id: ids for link_id, ids in self._members.items() if ids}
        if tracked != members:
            raise AssertionError(
                f"link membership drift: engine={tracked} expected={members}"
            )
        for link_id in sorted(set(members) | set(self.link_loads)):
            ids = sorted(members.get(link_id, ()))
            load = sum(self._flows[flow_id].rate_mbps for flow_id in ids)
            tracked_load = self.link_loads.get(link_id, 0.0)
            if tracked_load != load:
                raise AssertionError(
                    f"link {link_id}: tracked load {tracked_load} != recomputed {load}"
                )
