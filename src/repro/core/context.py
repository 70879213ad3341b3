"""The simulation context: one handle for a whole simulated world.

Every experiment needs the same quartet — a :class:`Simulator`, a
:class:`Topology`, a :class:`FluidNetwork` bound to both, and the named
RNG streams — plus the opt-in registry that gates the EONA interfaces.
Before this module, each scenario builder and several controllers
hand-assembled and hand-threaded those pieces; :class:`SimContext`
bundles them, :func:`build_context` is the single assembly point, and
the control-plane constructors (:class:`~repro.core.appp.AppPController`,
:class:`~repro.core.infp.StatusQuoInfP`, ...) accept a context in place
of the individual pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.core.registry import OptInRegistry
from repro.obs.trace import TRACER
from repro.network.fluidsim import FluidNetwork
from repro.network.topology import Topology
from repro.simkernel.kernel import Simulator
from repro.simkernel.rngstreams import RngStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cdn.provider import Cdn


@dataclass
class SimContext:
    """Everything a simulated world is made of, in one object.

    Attributes:
        sim: The discrete-event simulator (clock + queue).
        topology: The world's topology.
        network: The fluid network bound to ``sim`` and ``topology``.
        rng: Named RNG streams (same object as ``sim.rng``).
        registry: Opt-in grants gating the EONA looking glasses.
        cdns: CDN providers registered into this world, in registration
            order (the AppP's default preference order).
    """

    sim: Simulator
    topology: Topology
    network: FluidNetwork
    rng: RngStreams
    registry: OptInRegistry = field(default_factory=OptInRegistry)
    cdns: List["Cdn"] = field(default_factory=list)

    @property
    def now(self) -> float:
        return self.sim.now

    def register_cdn(self, cdn: "Cdn") -> "Cdn":
        """Track a CDN provider as part of this world.  Idempotent."""
        if cdn not in self.cdns:
            self.cdns.append(cdn)
        return cdn

    def run(self, until: Optional[float] = None) -> float:
        """Convenience passthrough to :meth:`Simulator.run`."""
        return self.sim.run(until=until)

    def allocation_counters(self) -> dict:
        """The network's engine/router counters (see FluidNetwork)."""
        return self.network.allocation_counters()


def build_context(
    topology: Optional[Topology] = None,
    seed: int = 0,
    name: str = "net",
    registry: Optional[OptInRegistry] = None,
) -> SimContext:
    """Assemble a simulated world: the one entry point experiments use.

    Args:
        topology: A pre-built topology; a fresh empty one named ``name``
            is created when omitted.  Note the fluid network snapshots
            link statistics at construction, so pass the topology with
            its links already added (the scenario builders do).
        seed: Root seed of the simulator's RNG streams.
        name: Name of the topology when one is created here.
        registry: Opt-in registry; a fresh empty one when omitted.
    """
    sim = Simulator(seed=seed)
    # Trace events are stamped with the *newest* world's simulated time;
    # experiments build and run worlds sequentially, so this is correct
    # for every supported run shape (and free when tracing is off).
    TRACER.bind_clock(lambda: sim.now)
    if topology is None:
        topology = Topology(name)
    network = FluidNetwork(sim, topology)
    return SimContext(
        sim=sim,
        topology=topology,
        network=network,
        rng=sim.rng,
        registry=registry if registry is not None else OptInRegistry(),
    )


def resolve_sim_network(
    sim: Union[Simulator, SimContext],
    network: Optional[FluidNetwork],
) -> Tuple[Simulator, FluidNetwork]:
    """Unpack ``(sim, network)`` from either call style.

    Controllers that took ``(sim, network, ...)`` now also accept
    ``(ctx, ...)``; this helper keeps those constructors one line.
    """
    if isinstance(sim, SimContext):
        return sim.sim, network if network is not None else sim.network
    if network is None:
        raise TypeError("network is required when sim is not a SimContext")
    return sim, network
