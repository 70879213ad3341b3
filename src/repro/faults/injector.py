"""The fault injector: drives a :class:`FaultPlan` off the sim kernel.

A :class:`FaultInjector` binds a plan to one simulated world.  Targets
are resolved through the existing seams -- link events go through
:meth:`FluidNetwork.set_link_capacity`, glass events through the
availability/fault hooks on :class:`~repro.core.interfaces.LookingGlass`,
provider restarts through registered reset callables -- so the injector
adds no new mutation paths to the network or control plane.

Apply/revert symmetry is the core guarantee: the injector snapshots a
link's capacity the first time it faults it and ``link-restore`` puts
back *exactly* that value, so a recovered world is bit-identical to a
never-faulted one (asserted in tests via allocation equivalence).
Every action emits a ``fault-inject`` or ``fault-recover`` trace event
and bumps the dotted ``faults.*`` counters experiments fold into their
run-artifact metrics snapshot.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.context import SimContext
from repro.core.interfaces import LookingGlass
from repro.faults.plan import FaultEvent, FaultPlan, PlanError
from repro.obs.trace import TRACER

#: Capacity a "killed" link is set to.  The fluid network rejects
#: non-positive capacities (a link with zero capacity would divide the
#: allocator by zero), so a kill is a cut to this floor: six orders of
#: magnitude below any real link, indistinguishable from down.
KILL_CAPACITY_MBPS = 1e-6


class FaultInjector:
    """Applies a :class:`FaultPlan` to one simulated world.

    Args:
        ctx: The world's :class:`SimContext` (simulator and network).

    Glasses and providers are attachment points the injector cannot
    discover from the network, so experiments register them by the
    names their plans target::

        injector = FaultInjector(ctx)
        injector.register_glass("isp", isp_glass)
        injector.register_provider("cdn-a", cdn_a.reset_soft_state)
        injector.install(plan)

    :meth:`install` validates every target *before* scheduling, so a
    plan naming an unknown link or glass fails fast, not mid-run.
    """

    def __init__(self, ctx: SimContext) -> None:
        self.sim = ctx.sim
        self.network = ctx.network
        self._glasses: Dict[str, LookingGlass] = {}
        self._providers: Dict[str, Callable[[], None]] = {}
        self._saved_capacity: Dict[str, float] = {}
        self._counters: Dict[str, int] = {}
        self._installed: List[FaultPlan] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_glass(self, name: str, glass: LookingGlass) -> None:
        """Expose a looking glass to ``glass-*``/``query-*`` events."""
        self._glasses[name] = glass

    def register_provider(self, name: str, reset: Callable[[], None]) -> None:
        """Expose a provider's soft-state reset to ``provider-restart``."""
        self._providers[name] = reset

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, plan: FaultPlan) -> None:
        """Validate targets and schedule every event on the kernel."""
        for event in plan.events:
            self._resolve(event)  # raises PlanError on unknown targets
        for event in plan.events:
            self.sim.schedule_at(event.time_s, self._fire, event)
        self._installed.append(plan)

    @property
    def installed_plans(self) -> List[FaultPlan]:
        return list(self._installed)

    def counters(self) -> Dict[str, int]:
        """Dotted ``faults.*`` counters (copy), sorted by key."""
        return {key: self._counters[key] for key in sorted(self._counters)}

    # ------------------------------------------------------------------
    # event dispatch
    # ------------------------------------------------------------------
    def _resolve(self, event: FaultEvent) -> object:
        kind = event.kind
        if kind.startswith("link-"):
            try:
                return self.network.topology.link(event.target)
            except KeyError:
                raise PlanError(f"{kind}: unknown link {event.target!r}") from None
        if kind.startswith(("glass-", "query-")):
            glass = self._glasses.get(event.target)
            if glass is None:
                known = ", ".join(sorted(self._glasses)) or "none registered"
                raise PlanError(
                    f"{kind}: unknown glass {event.target!r} (known: {known})"
                )
            return glass
        reset = self._providers.get(event.target)
        if reset is None:
            known = ", ".join(sorted(self._providers)) or "none registered"
            raise PlanError(
                f"{kind}: unknown provider {event.target!r} (known: {known})"
            )
        return reset

    def _fire(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == "link-cut":
            self._cut_link(event)
        elif kind == "link-kill":
            self._saved_capacity.setdefault(
                event.target, self.network.topology.link(event.target).capacity_mbps
            )
            self._set_capacity(event.target, KILL_CAPACITY_MBPS)
        elif kind == "link-restore":
            self._restore_link(event)
        elif kind == "glass-outage":
            self._glasses[event.target].set_available(False)
        elif kind == "glass-recover":
            self._glasses[event.target].set_available(True)
        elif kind == "query-drop":
            self._glasses[event.target].set_fault_mode("drop")
        elif kind == "query-delay":
            self._glasses[event.target].set_fault_mode(
                "delay", delay_s=event.params["delay_s"]
            )
        elif kind == "query-freeze":
            self._glasses[event.target].set_fault_mode("freeze")
        elif kind == "query-clear":
            self._glasses[event.target].set_fault_mode(None)
        else:  # provider-restart (plan validation admits nothing else)
            self._providers[event.target]()
        self._record(event)

    def _cut_link(self, event: FaultEvent) -> None:
        link_id = event.target
        current = self.network.topology.link(link_id).capacity_mbps
        # First fault on a link snapshots the healthy capacity; repeated
        # cuts keep the original so restore is exact, not compounded.
        baseline = self._saved_capacity.setdefault(link_id, current)
        if "capacity_mbps" in event.params:
            capacity = event.params["capacity_mbps"]
        else:
            capacity = baseline * event.params["factor"]
        self._set_capacity(link_id, capacity)

    def _restore_link(self, event: FaultEvent) -> None:
        baseline = self._saved_capacity.pop(event.target, None)
        if baseline is None:
            return  # restore of a never-faulted link: nothing to revert
        self._set_capacity(event.target, baseline)

    def _set_capacity(self, link_id: str, capacity_mbps: float) -> None:
        self.network.set_link_capacity(link_id, capacity_mbps)

    def _record(self, event: FaultEvent) -> None:
        phase = "recovered" if event.is_recovery else "injected"
        self._bump(f"faults.{phase}")
        self._bump(f"faults.{event.kind.replace('-', '_')}")
        if TRACER.enabled:
            trace_kind = "fault-recover" if event.is_recovery else "fault-inject"
            TRACER.emit(
                trace_kind,
                fault=event.kind,
                target=event.target,
                **{name: event.params[name] for name in sorted(event.params)},
            )

    def _bump(self, key: str) -> None:
        self._counters[key] = self._counters.get(key, 0) + 1
