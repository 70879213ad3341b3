"""The stateful max-min allocation engine and its flow table.

:class:`AllocationEngine` owns the flow table of a
:class:`~repro.network.fluidsim.FluidNetwork`: one row per registered
flow, in registration order, holding its weight, demand, rate,
remaining volume, last-progress time, finite-size flag, rank in
flow-ID order and path (a row of link-table indices).  It also owns
the :class:`~repro.network.linkstats.LinkTable`: one row per link
(seeded with a network's topology links) holding capacity, current
load and the load integrals that :class:`LinkStats` views read.  The
network tells the engine *that* something changed (a flow started, finished,
moved to a new path; a demand, weight or link capacity moved) and the
next :meth:`AllocationEngine.solve` re-solves every registered flow in
one max-min pass over the table.  A solve with no mutation since the
last one is a no-op.

The engine runs the four per-change passes of the fluid network as
array operations on that table: water-filling (:func:`water_fill`),
flow progress (:meth:`AllocationEngine.progress`), the next completion
(:meth:`AllocationEngine.next_completion`,
:meth:`AllocationEngine.finished_flows`) and changed-link loads,
written into the link table's load column.

The engine is the only writer of ``flow.path``, ``flow.rate_mbps`` and
``flow.remaining_mbit`` of registered flows: every value it computes
reaches the :class:`Flow` as a Python float, so the objects and the
table never disagree.  Demands, weights and link capacities are written
on the objects by the owner and read into the table by
:meth:`AllocationEngine.invalidate`.
Counters (:class:`EngineCounters`) make the cost observable.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

import numpy as np
import numpy.typing as npt

from repro.network.flows import Flow
from repro.network.linkstats import LinkTable
from repro.network.maxmin import NO_LINK, water_fill
from repro.network.topology import Link
from repro.obs.trace import TRACER


#: Cap applied to any single flow (end-host NIC stand-in; also keeps
#: infinite-demand, empty-path rates finite).
MAX_RATE_MBPS = 1e5

_EPS = 1e-9

# Rows of the engine's float block, one column per flow.
_WEIGHT, _DEMAND, _RATE, _REMAINING, _LAST = range(5)


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
        changed: Link-table rows whose aggregate load moved since the
            last solve (including links drained by removed/rerouted
            flows), ascending.
        flows: Every registered flow after a full solve, in
            registration order; empty for a noop.
        flow_rates: Their new rates (capped at :data:`MAX_RATE_MBPS`).
        links: The link table's links, indexed by row.
    """

    mode: str
    changed: npt.NDArray[np.intp] = field(
        default_factory=lambda: np.zeros(0, dtype=np.intp)
    )
    flows: List[Flow] = field(default_factory=list)
    flow_rates: List[float] = field(default_factory=list)
    links: List[Link] = field(default_factory=list)

    @property
    def changed_links(self) -> Set[str]:
        """IDs of the :attr:`changed` links, built on demand."""
        return {self.links[row].link_id for row in self.changed.tolist()}

    @property
    def rates(self) -> Dict[str, float]:
        """``flow_id -> rate`` of every solved flow, built on demand."""
        return {flow.flow_id: rate for flow, rate in zip(self.flows, self.flow_rates)}


class AllocationEngine:
    """Max-min allocator over a persistent flow table.

    The owner (normally :class:`~repro.network.fluidsim.FluidNetwork`)
    routes every state change through the mutation methods below, then
    calls :meth:`solve` to bring rates up to date.

    The table's columns live in preallocated arrays that grow by
    doubling; rows ``[0, n)`` are the registered flows in registration
    order, and removing a flow shifts the rows after it up by one.
    Paths are rows of a ``(capacity, width)`` link-index matrix padded
    with :data:`NO_LINK`, so the row-major order of the matrix is the
    flow-then-path order every sum in :func:`water_fill` follows.

    Args:
        links: Links to seed the link table with, in order; links first
            seen on a path are appended.
    """

    def __init__(self, links: Iterable[Link] = ()) -> None:
        self.counters = EngineCounters()
        # The flow table: Flow objects in registration order, one row
        # of the arrays below per flow.
        self._flows: List[Flow] = []
        # Flow ids in sorted (string) order, for membership and for
        # ``_rank``, each row's position in it: the order link loads
        # are summed in.
        self._sorted_ids: List[str] = []
        self._values: npt.NDArray[np.float64] = np.zeros((5, 16))
        self._finite: npt.NDArray[np.bool_] = np.zeros(16, dtype=np.bool_)
        self._rank: npt.NDArray[np.intp] = np.zeros(16, dtype=np.intp)
        self._paths: npt.NDArray[np.intp] = np.full((16, 1), NO_LINK, dtype=np.intp)
        # Per-link columns; path matrix entries index its rows.  Its
        # load column is written only by solve().
        self.link_table = LinkTable(links)
        # Set by every mutation that can move a rate; cleared by solve().
        self._dirty = False
        # The latest last-progress time of any row: progress() may not
        # move any flow backwards past it.
        self._clock = -math.inf

    # ------------------------------------------------------------------
    # mutations (the network's change notifications)
    # ------------------------------------------------------------------
    def add_flow(self, flow: Flow) -> None:
        """Register a newly started flow as the table's last row.

        The flow's progress clock starts at ``flow.started_at``.
        """
        flow_id = flow.flow_id
        rank = bisect_left(self._sorted_ids, flow_id)
        if self._sorted_ids[rank:rank + 1] == [flow_id]:
            raise ValueError(f"flow {flow_id!r} already registered")
        row = len(self._flows)
        if row == self._values.shape[1]:
            self._grow_rows()
        self._flows.append(flow)
        self._sorted_ids.insert(rank, flow_id)
        ranks = self._rank[:row]
        ranks[ranks >= rank] += 1
        self._rank[row] = rank
        flow.rate_mbps = 0.0
        self._values[:, row] = (
            flow.weight,
            flow.demand_mbps,
            0.0,
            flow.remaining_mbit,
            flow.started_at,
        )
        self._finite[row] = flow.is_finite
        self._clock = max(self._clock, flow.started_at)
        self._write_path(row, flow.path)
        self._dirty = True
        if len(self._flows) > self.counters.flows_active_peak:
            self.counters.flows_active_peak = len(self._flows)

    def remove_flow(self, flow: Flow) -> None:
        """Drop a completed or aborted flow.  Idempotent."""
        row = self._row(flow)
        if row < 0:
            return
        self._leave_path(row)
        del self._flows[row]
        rank = int(self._rank[row])
        del self._sorted_ids[rank]
        n = len(self._flows)
        for column in (self._values[:, row:], self._finite[row:], self._rank[row:]):
            column[..., :n - row] = column[..., 1:n - row + 1]
        self._paths[row:n] = self._paths[row + 1:n + 1]
        ranks = self._rank[:n]
        ranks[ranks > rank] -= 1

    def set_path(self, flow: Flow, new_path: List[Link]) -> None:
        """Move a flow onto ``new_path``, updating all bookkeeping.

        The engine performs the ``flow.path`` assignment itself so the
        path rows can never drift from the flow objects.
        """
        row = self._row(flow)
        if row < 0:
            flow.path = list(new_path)
            return
        self._leave_path(row)
        flow.path = list(new_path)
        self._write_path(row, flow.path)
        if flow.rate_mbps != 0.0:  # simlint: ignore[float-eq] -- exact sentinel, never arithmetic
            self.link_table.touched[self._paths[row]] = True
        self._dirty = True

    def invalidate(self) -> None:
        """Re-read every demand, weight and link capacity from the objects.

        The owner writes those attributes on the :class:`Flow` and
        :class:`Link` objects, then calls this once per batch of changes.
        """
        n = len(self._flows)
        self._values[_WEIGHT, :n] = [flow.weight for flow in self._flows]
        self._values[_DEMAND, :n] = [flow.demand_mbps for flow in self._flows]
        self.link_table.read_capacities()
        self._dirty = True

    # ------------------------------------------------------------------
    # the per-change passes
    # ------------------------------------------------------------------
    def solve(self) -> SolveResult:
        """Bring rates up to date; returns what was recomputed."""
        self.counters.solve_calls += 1
        if not self._dirty:
            self.counters.noop_solves += 1
            return SolveResult("noop")

        n = len(self._flows)
        self.counters.full_solves += 1
        self.counters.flows_touched += n
        values = self._values
        paths = self._paths[:n]
        rates = np.minimum(
            water_fill(
                values[_WEIGHT, :n],
                values[_DEMAND, :n],
                paths,
                self.link_table.capacity,
            ),
            MAX_RATE_MBPS,
        )
        moved = rates != values[_RATE, :n]
        values[_RATE, :n] = rates
        rate_list: List[float] = rates.tolist()
        for flow, rate in zip(self._flows, rate_list):
            flow.rate_mbps = rate
        self.link_table.touched[paths[moved]] = True
        changed = self._refresh_changed_loads(n)

        self._dirty = False
        if TRACER.enabled:
            # Noop solves are skipped: at one solve per network change
            # they would dominate the trace with zero-information events.
            TRACER.emit(
                "allocator-solve",
                mode="full",
                flows_solved=n,
                flows_active=n,
            )
        return SolveResult(
            "full", changed, list(self._flows), rate_list, self.link_table.links
        )

    def progress(self, now: float) -> None:
        """Advance every flow to ``now`` at its current rate.

        A flow delivers ``min(rate * elapsed, remaining)``.  A persistent
        stream's remaining volume is ``inf``, which that leaves ``inf``.
        """
        n = len(self._flows)
        if now < self._clock:
            row = int(np.argmax(self._values[_LAST, :n]))
            raise ValueError(f"flow {self._flows[row].flow_id}: time moved backwards")
        self._clock = now
        if not n:
            return
        values = self._values
        elapsed = now - values[_LAST, :n]
        values[_LAST, :n] = now
        remaining = values[_REMAINING, :n]
        remaining -= np.minimum(values[_RATE, :n] * elapsed, remaining)
        for flow, left in zip(self._flows, remaining.tolist()):
            flow.remaining_mbit = left

    def next_completion(self, now: float) -> float:
        """Earliest predicted completion at current rates (may be ``inf``)."""
        n = len(self._flows)
        values = self._values
        rates = values[_RATE, :n]
        going = self._finite[:n] & (rates > 0)
        etas = now + values[_REMAINING, :n][going] / rates[going]
        return float(np.minimum.reduce(etas, initial=math.inf))

    def finished_flows(self) -> List[Flow]:
        """Finite flows with no volume left, in registration order."""
        n = len(self._flows)
        done = self._finite[:n] & (self._values[_REMAINING, :n] <= _EPS)
        return [self._flows[row] for row in done.nonzero()[0].tolist()]

    @property
    def rates(self) -> Dict[str, float]:
        """Current rate of every registered flow (a fresh snapshot)."""
        return {flow.flow_id: flow.rate_mbps for flow in self._flows}

    @property
    def link_loads(self) -> Dict[str, float]:
        """``link_id -> load`` of every link in the table (a fresh snapshot)."""
        table = self.link_table
        loads: List[float] = table.load[1:].tolist()
        return {link.link_id: load for link, load in zip(table.links[1:], loads)}

    def active_flow_count(self) -> int:
        return len(self._flows)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _row(self, flow: Flow) -> int:
        """Table row of ``flow``, or -1 when it is not registered."""
        try:
            return self._flows.index(flow)
        except ValueError:
            return -1

    def _grow_rows(self) -> None:
        """Double the table's row capacity."""
        size = 2 * self._values.shape[1]
        values = np.zeros((5, size))
        values[:, :self._values.shape[1]] = self._values
        self._values = values
        self._finite = np.resize(self._finite, size)
        self._rank = np.resize(self._rank, size)
        paths = np.full((size, self._paths.shape[1]), NO_LINK, dtype=np.intp)
        paths[:self._paths.shape[0]] = self._paths
        self._paths = paths

    def _write_path(self, row: int, path: List[Link]) -> None:
        """Store ``path`` as table row ``row``, widening the matrix if needed."""
        if len(path) > self._paths.shape[1]:
            paths = np.full((self._paths.shape[0], len(path)), NO_LINK, dtype=np.intp)
            paths[:, :self._paths.shape[1]] = self._paths
            self._paths = paths
        self._paths[row] = NO_LINK
        slot = self.link_table.slot
        self._paths[row, :len(path)] = [slot(link) for link in path]

    def _leave_path(self, row: int) -> None:
        """Take row ``row`` off its links; a loaded flow moves their load."""
        path = self._paths[row]
        if path[0] == NO_LINK:
            return
        if self._values[_RATE, row] != 0.0:  # simlint: ignore[float-eq] -- exact sentinel, never arithmetic
            self.link_table.touched[path] = True
        # The survivors on these links may now speed up.
        self._dirty = True

    def _refresh_changed_loads(self, n: int) -> npt.NDArray[np.intp]:
        """Derive each touched link's load from its members' rates.

        This is the only writer of the link table's load column.  Every
        link's members are summed sequentially in sorted flow-ID order
        (as the Python ``sum`` over ``sorted(member_ids)`` would), which
        makes the loads exact and run-to-run deterministic.  Returns the
        touched rows and clears the marks.
        """
        table = self.link_table
        touched = table.touched
        touched[NO_LINK] = False
        indices = touched.nonzero()[0]
        if not indices.size:
            return indices
        touched[indices] = False
        by_id = np.empty(n, dtype=np.intp)
        by_id[self._rank[:n]] = np.arange(n)
        # bincount adds each weight into its bin in input order, from
        # zero: the same sequential sums as np.add.at into zeros.
        loads = np.bincount(
            self._paths[by_id].ravel(),
            weights=np.repeat(self._values[_RATE, by_id], self._paths.shape[1]),
            minlength=len(table),
        )
        table.load[indices] = loads[indices]
        return indices

    def check_consistency(self, flows: Iterable[Flow]) -> None:
        """Assert the table matches ``flows`` after a solve (test/debug helper).

        ``flows`` are the flows in registration order (done ones are
        skipped).  Checks, all with ``==``: that the table rows are those
        flows in that order; that each row's weight, demand, rate,
        remaining volume and path equal the flow's attributes; that the
        sorted-ID list is ``sorted(ids)`` and the ranks index it.  On
        the link table: that the index maps every link ID to its row;
        that the capacities equal the links'; that every link's load
        equals its members' rates summed in sorted member order; that no
        touched mark survives the solve; and that the padding row is
        empty and every row's integrals are non-negative, with busy time
        at most the observed time.
        """
        expected = [flow for flow in flows if not flow.done]
        ids = [flow.flow_id for flow in expected]
        table_ids = [flow.flow_id for flow in self._flows]
        if len(expected) != len(self._flows) or any(
            a is not b for a, b in zip(expected, self._flows)
        ):
            raise AssertionError(f"flow table drift: engine={table_ids} expected={ids}")
        if self._sorted_ids != sorted(ids):
            raise AssertionError(f"sorted-id drift: {self._sorted_ids}")
        n = len(ids)
        if [self._sorted_ids[rank] for rank in self._rank[:n].tolist()] != ids:
            raise AssertionError(f"rank drift: {self._rank[:n].tolist()}")
        columns = {
            "weight": (_WEIGHT, [flow.weight for flow in expected]),
            "demand": (_DEMAND, [flow.demand_mbps for flow in expected]),
            "rate": (_RATE, [flow.rate_mbps for flow in expected]),
            "remaining": (_REMAINING, [flow.remaining_mbit for flow in expected]),
        }
        for name, (column, attribute) in columns.items():
            table = self._values[column, :n].tolist()
            if table != attribute:
                raise AssertionError(f"{name} drift: table={table} flows={attribute}")
        link_table = self.link_table
        links = link_table.links
        size = len(links)
        if link_table.index != {links[row].link_id: row for row in range(1, size)}:
            raise AssertionError(f"link index drift: {link_table.index}")
        carried, busy = link_table.mbit_carried, link_table.busy_seconds
        link_columns = (link_table.capacity, link_table.load, link_table.touched, carried, busy)
        if any(column.shape != (size,) for column in link_columns):
            raise AssertionError(f"link column lengths drift from {size} links")
        members: Dict[str, List[str]] = {}
        for row, flow in enumerate(expected):
            path = [links[i] for i in self._paths[row].tolist() if i != NO_LINK]
            if path != flow.path:
                raise AssertionError(f"path drift on {flow.flow_id}: {path}")
            for link in flow.path:
                members.setdefault(link.link_id, []).append(flow.flow_id)
        capacities = [link.capacity_mbps for link in links]
        if link_table.capacity.tolist() != capacities:
            raise AssertionError(f"capacity drift: {capacities}")
        rate_of = {flow.flow_id: flow.rate_mbps for flow in expected}
        loads = self.link_loads
        for link_id in sorted(loads):
            load = sum(rate_of[flow_id] for flow_id in sorted(members.get(link_id, ())))
            if loads[link_id] != load:
                raise AssertionError(
                    f"link {link_id}: tracked load {loads[link_id]} != recomputed {load}"
                )
        if link_table.touched.any():
            raise AssertionError(f"touched marks left: {link_table.touched.nonzero()[0]}")
        if link_table.load[NO_LINK] or carried[NO_LINK] or busy[NO_LINK]:
            raise AssertionError("padding link row is not empty")
        if (carried < 0).any() or (busy < 0).any() or (busy > link_table.observed_seconds).any():
            raise AssertionError(
                f"link integrals out of range: carried={carried.tolist()} busy={busy.tolist()}"
            )
