"""The fluid flow-level network simulator.

:class:`FluidNetwork` binds a topology to a simulator.  Transfers and
persistent streams become :class:`~repro.network.flows.Flow` objects;
whenever the flow set, a demand, or a link capacity changes the network
tells its :class:`~repro.network.allocator.AllocationEngine` and marks
its rates stale.  Once per simulated instant with a change -- after the
instant's last event (:meth:`Simulator.at_instant_end`) -- the network
*settles*: the engine re-solves every flow in one max-min pass, writing
the link loads that moved, and the next completion is rescheduled.
Every read of a rate or a load settles first, so no reader sees a
stale value.  Rates never act within an instant (flows progress only
as the clock moves), so one solve per instant gives exactly the rates,
loads and completion times of a solve per change.  Between changes all
flows progress fluidly at constant rates, so the simulation cost
scales with the number of changed instants, not with transferred bytes.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.network.allocator import AllocationEngine
from repro.network.flows import Flow, FlowState
from repro.network.linkstats import LinkStats
from repro.network.routing import Router
from repro.network.topology import Link, Topology
from repro.simkernel.events import EventHandle
from repro.simkernel.kernel import Simulator

_EPS = 1e-9


class Transfer:
    """User-facing handle for a flow started on a :class:`FluidNetwork`."""

    __slots__ = ("flow", "on_complete", "network")

    def __init__(
        self,
        flow: Flow,
        network: "FluidNetwork",
        on_complete: Optional[Callable[["Transfer"], None]],
    ) -> None:
        self.flow = flow
        self.network = network
        self.on_complete = on_complete

    @property
    def done(self) -> bool:
        return self.flow.done

    @property
    def rate_mbps(self) -> float:
        self.network._settle()
        return self.flow.rate_mbps

    @property
    def remaining_mbit(self) -> float:
        return self.flow.remaining_mbit

    @property
    def duration(self) -> Optional[float]:
        if self.flow.finished_at is None:
            return None
        return self.flow.finished_at - self.flow.started_at

    def mean_throughput_mbps(self) -> Optional[float]:
        """Size over duration for completed finite transfers."""
        duration = self.duration
        if duration is None or self.flow.size_mbit is None:
            return None
        if duration <= 0:
            return math.inf
        return self.flow.size_mbit / duration

    def __repr__(self) -> str:
        return f"Transfer({self.flow!r})"


class _SplitState:
    """Deterministic weighted assignment of flows to via nodes."""

    __slots__ = ("weights", "assigned")

    def __init__(self, weights: Dict[str, float]) -> None:
        self.weights = weights
        self.assigned: Dict[str, int] = {via: 0 for via in weights}

    def next_via(self) -> str:
        """The via with the largest weight deficit gets the next flow.

        Ties break toward the lexicographically smallest via name, made
        explicit in the sort key so assignment order is deterministic
        across runs and Python versions.
        """
        total = sum(self.assigned.values()) + 1
        choice = min(
            self.weights,
            key=lambda via: (self.assigned[via] - self.weights[via] * total, via),
        )
        self.assigned[choice] += 1
        return choice


class FluidNetwork:
    """Flow-level network simulation over a topology.

    Args:
        sim: Simulator providing the clock and event queue.
        topology: The (mutable-capacity) topology.
    """

    def __init__(self, sim: Simulator, topology: Topology) -> None:
        self.sim = sim
        self.topology = topology
        self.router = Router(topology)
        self.engine = AllocationEngine(topology.links())
        # flow_id -> handle of every active flow, in start order (which
        # fixes completion and rerouting order).
        self._transfers: Dict[str, Transfer] = {}
        self._via_policy: Dict[str, str] = {}
        self._split_policy: Dict[str, _SplitState] = {}
        self._flow_counter = itertools.count()
        # The pending completion check, cancelled when a settle moves it.
        self._completion: Optional[EventHandle] = None
        # Set by every change until the next settle; the clock time
        # flows and link integrals were last brought up to.
        self._stale = False
        self._synced_at = -math.inf
        table = self.engine.link_table
        table.settle = self._settle
        self.link_stats: Dict[str, LinkStats] = {
            link.link_id: table.stats(link.link_id) for link in topology.links()
        }
        self.completed_transfers = 0

    def allocation_counters(self) -> Dict[str, int]:
        """Engine + routing-cache counters for benchmarks and tests."""
        counters = self.engine.counters.as_dict()
        counters["router_cache_hits"] = self.router.cache_hits
        counters["router_cache_misses"] = self.router.cache_misses
        return counters

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def start_transfer(
        self,
        src: str,
        dst: str,
        size_mbit: float,
        on_complete: Optional[Callable[[Transfer], None]] = None,
        demand_mbps: float = math.inf,
        via: Optional[str] = None,
        path: Optional[List[str]] = None,
        owner: str = "",
        weight: float = 1.0,
    ) -> Transfer:
        """Start a finite transfer of ``size_mbit`` from ``src`` to ``dst``.

        Routing: an explicit node ``path`` wins; otherwise the shortest
        path (optionally constrained through ``via``) is used.
        ``on_complete`` fires, at the completion instant, with the
        transfer handle.
        """
        return self._start(
            src, dst, size_mbit, on_complete, demand_mbps, via, path, owner, weight
        )

    def start_stream(
        self,
        src: str,
        dst: str,
        demand_mbps: float,
        via: Optional[str] = None,
        path: Optional[List[str]] = None,
        owner: str = "",
        weight: float = 1.0,
    ) -> Transfer:
        """Start a persistent stream that runs until :meth:`abort`.

        ``weight`` sets the flow's fair-share weight (see
        :class:`~repro.network.flows.Flow`); a cohort stream carrying
        *n* sessions competes with weight *n*.
        """
        return self._start(src, dst, None, None, demand_mbps, via, path, owner, weight)

    def abort(self, transfer: Transfer) -> None:
        """Stop a flow without completing it.  Idempotent."""
        flow = transfer.flow
        if flow.done:
            return
        self._sync_to_now()
        flow.state = FlowState.ABORTED
        flow.finished_at = self.sim.now
        self._transfers.pop(flow.flow_id, None)
        self.engine.remove_flow(flow)
        self._changed()

    def set_demand(self, transfer: Transfer, demand_mbps: float) -> None:
        """Change a flow's rate cap (e.g. a player switching bitrate)."""
        if not demand_mbps > 0:
            raise ValueError(f"demand must be positive, got {demand_mbps!r}")
        if transfer.flow.done:
            return
        self._sync_to_now()
        transfer.flow.demand_mbps = demand_mbps
        self.engine.invalidate()
        self._changed()

    def set_weight(self, transfer: Transfer, weight: float) -> None:
        """Change a flow's fair-share weight (e.g. a cohort's head count)."""
        if weight <= 0 or not math.isfinite(weight):
            raise ValueError(f"weight must be positive and finite, got {weight!r}")
        if transfer.flow.done:
            return
        self._sync_to_now()
        transfer.flow.weight = weight
        self.engine.invalidate()
        self._changed()

    def update_streams(
        self,
        updates: Iterable[Tuple[Transfer, float, Optional[float]]],
    ) -> None:
        """Apply many ``(transfer, demand, weight)`` changes in one solve.

        ``weight`` may be ``None`` to leave a flow's weight unchanged.
        Routing each change through :meth:`set_demand` would re-read
        every demand and weight once per flow; the cohort engine updates
        every cohort stream once per tick, so batching keeps that tick
        at a single table pass.
        """
        self._sync_to_now()
        dirty = False
        for transfer, demand_mbps, weight in updates:
            flow = transfer.flow
            if flow.done:
                continue
            if not demand_mbps > 0:
                raise ValueError(f"demand must be positive, got {demand_mbps!r}")
            if weight is not None:
                if weight <= 0 or not math.isfinite(weight):
                    raise ValueError(
                        f"weight must be positive and finite, got {weight!r}"
                    )
                flow.weight = weight
            flow.demand_mbps = demand_mbps
            dirty = True
        if dirty:
            self.engine.invalidate()
            self._changed()

    def reroute(
        self,
        transfer: Transfer,
        via: Optional[str] = None,
        path: Optional[List[str]] = None,
    ) -> None:
        """Move an active flow onto a new path (the InfP's path knob)."""
        flow = transfer.flow
        if flow.done:
            return
        self._sync_to_now()
        self.engine.set_path(flow, self._resolve_path(flow.src, flow.dst, via, path))
        self._changed()

    def set_link_capacity(self, link_id: str, capacity_mbps: float) -> None:
        """Change a link's capacity and reallocate (failures, energy saving)."""
        if not capacity_mbps > 0:
            raise ValueError(f"capacity must be positive, got {capacity_mbps!r}")
        self._sync_to_now()
        self.topology.link(link_id).capacity_mbps = capacity_mbps
        self.engine.invalidate()
        self._changed()

    def set_via_policy(self, owner: str, via: Optional[str]) -> None:
        """Route all traffic of ``owner`` through node ``via``.

        This is the hook the InfP's traffic-engineering app programs:
        future flows tagged with ``owner`` resolve their path through
        ``via``, and currently active flows are rerouted immediately.
        Passing ``None`` clears the policy (shortest-path routing).
        """
        self._split_policy.pop(owner, None)
        if via is None:
            self._via_policy.pop(owner, None)
        else:
            self._via_policy[owner] = via
        rerouted = False
        self._sync_to_now()
        for transfer in self._transfers.values():
            flow = transfer.flow
            if flow.owner == owner:
                self.engine.set_path(
                    flow, self._resolve_path(flow.src, flow.dst, via, None)
                )
                rerouted = True
        if rerouted:
            self._changed()

    def set_split_policy(self, owner: str, weights: Dict[str, float]) -> None:
        """Split ``owner`` traffic across several via nodes by weight.

        The §4 global controller's third knob: "the traffic splits
        across the peering points for each CDN".  New flows are
        assigned a via so that the realized flow counts track the
        weights (deterministic largest-deficit assignment, so runs stay
        reproducible); active flows are re-balanced immediately.
        """
        if not weights:
            raise ValueError("weights must not be empty")
        total = sum(weights.values())
        # A finite total of non-negative weights bounds every weight; the
        # negated comparisons also reject NaN.
        if not (math.isfinite(total) and total > 0) or any(
            not w >= 0 for w in weights.values()
        ):
            raise ValueError(
                f"weights must be finite, non-negative and sum > 0: {weights!r}"
            )
        normalized = {via: w / total for via, w in weights.items() if w > 0}
        self._via_policy.pop(owner, None)
        self._split_policy[owner] = _SplitState(weights=normalized)
        self._sync_to_now()
        flows = [
            transfer.flow
            for transfer in self._transfers.values()
            if transfer.flow.owner == owner
        ]
        if flows:
            state = self._split_policy[owner]
            state.assigned = {via: 0 for via in normalized}
            for flow in flows:
                via = state.next_via()
                self.engine.set_path(
                    flow, self._resolve_path(flow.src, flow.dst, via, None)
                )
            self._changed()

    def via_policy(self, owner: str) -> Optional[str]:
        """The via-node currently programmed for ``owner`` traffic."""
        return self._via_policy.get(owner)

    def split_policy(self, owner: str) -> Optional[Dict[str, float]]:
        """The split weights programmed for ``owner``, if any."""
        state = self._split_policy.get(owner)
        return dict(state.weights) if state else None

    def transfers_by_owner(self, owner: str) -> List[Transfer]:
        """Active transfers tagged with ``owner``."""
        return [
            transfer
            for transfer in self._transfers.values()
            if transfer.flow.owner == owner
        ]

    def active_flows(self) -> List[Flow]:
        """Every active flow, in start order, with settled rates."""
        self._settle()
        return [transfer.flow for transfer in self._transfers.values()]

    def sync(self) -> None:
        """Bring flow progress and link-time integrals up to ``sim.now``, settled.

        Rates only change at flow events, so the simulator does not
        advance these integrals during idle stretches; call this before
        reading time-averaged link statistics.  The kernel also calls it
        at the end of every instant with a change (see :meth:`_changed`).
        """
        self._sync_to_now()
        self._settle()

    def link_load_mbps(self, link_id: str) -> float:
        self.sync()
        return self.link_stats[link_id].current_load_mbps

    def link_utilization(self, link_id: str) -> float:
        self.sync()
        return self.link_stats[link_id].utilization

    def path_rtt_ms(self, src: str, dst: str, via: Optional[str] = None) -> float:
        """Round-trip propagation delay along the (possibly via-) path."""
        if via is None:
            forward = self.router.shortest_path(src, dst)
            backward = self.router.shortest_path(dst, src)
        else:
            forward = self.router.path_via(src, dst, via)
            backward = self.router.path_via(dst, src, via)
        return self.topology.path_delay_ms(forward) + self.topology.path_delay_ms(backward)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _start(
        self,
        src: str,
        dst: str,
        size_mbit: Optional[float],
        on_complete: Optional[Callable[[Transfer], None]],
        demand_mbps: float,
        via: Optional[str],
        path: Optional[List[str]],
        owner: str,
        weight: float = 1.0,
    ) -> Transfer:
        if via is None and path is None:
            split = self._split_policy.get(owner)
            if split is not None:
                via = split.next_via()
            else:
                via = self._via_policy.get(owner)
        links = self._resolve_path(src, dst, via, path)
        flow_id = f"f{next(self._flow_counter)}"
        flow = Flow(
            flow_id=flow_id,
            src=src,
            dst=dst,
            path=links,
            demand_mbps=demand_mbps,
            size_mbit=size_mbit,
            owner=owner,
            weight=weight,
        )
        flow.started_at = self.sim.now
        transfer = Transfer(flow, self, on_complete)
        self._sync_to_now()
        self._transfers[flow_id] = transfer
        self.engine.add_flow(flow)
        if size_mbit is not None and size_mbit <= _EPS:
            # Zero-size transfers complete immediately.
            self._complete(transfer)
        self._changed()
        return transfer

    def _resolve_path(
        self,
        src: str,
        dst: str,
        via: Optional[str],
        path: Optional[List[str]],
    ) -> List[Link]:
        if path is not None:
            node_path = path
        elif via is not None:
            node_path = self.router.path_via(src, dst, via)
        else:
            node_path = self.router.shortest_path(src, dst)
        return self.topology.path_links(node_path)

    def _sync_to_now(self) -> None:
        """Progress all flows and link integrals to the current instant."""
        now = self.sim.now
        if now == self._synced_at:
            return
        self._synced_at = now
        self.engine.link_table.advance(now)
        self.engine.progress(now)

    def _changed(self) -> None:
        """Mark rates stale; they settle when the current instant ends.

        Callers must have already called :meth:`_sync_to_now` and routed
        their state change through the engine's mutation methods.
        """
        if not self._stale:
            self._stale = True
            self.sim.at_instant_end(self.sync)

    def _settle(self) -> None:
        """Re-solve stale rates and reschedule the next completion.

        The engine recomputes every rate and writes the link loads that
        moved into its link table.
        """
        if self._stale:
            self._stale = False
            self.engine.solve()
            self._schedule_next_completion()

    def _schedule_next_completion(self) -> None:
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        next_eta = self.engine.next_completion(self.sim.now)
        if math.isfinite(next_eta):
            delay = max(0.0, next_eta - self.sim.now)
            self._completion = self.sim.schedule(delay, self._on_completion_event)

    def _on_completion_event(self) -> None:
        self._completion = None
        self._sync_to_now()
        for flow in self.engine.finished_flows():
            self._complete(self._transfers[flow.flow_id])
        # Also with nothing finished: the settle schedules the next check.
        self._changed()

    def _complete(self, transfer: Transfer) -> None:
        flow = transfer.flow
        flow.state = FlowState.COMPLETED
        flow.finished_at = self.sim.now
        flow.remaining_mbit = 0.0
        self._transfers.pop(flow.flow_id, None)
        self.engine.remove_flow(flow)
        self.completed_transfers += 1
        if transfer.on_complete is not None:
            # Fire via the event queue, after the instant's other
            # completions, so callbacks see every flow that finished now.
            self.sim.call_soon(transfer.on_complete, transfer)
