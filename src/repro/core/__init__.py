"""EONA core: the paper's primary contribution.

Two information-sharing interfaces (A2I and I2A) realized as
looking-glass query servers with opt-in access control, privacy
filtering, and explicit staleness; EONA-enhanced control logic for the
application provider (:mod:`repro.core.appp`) and the infrastructure
provider (:mod:`repro.core.infp`); the §4 interface-design recipe
(:mod:`repro.core.recipe`); and the damping machinery §5 proposes for
coupled-control-loop stability (:mod:`repro.core.damping`).

Nothing here touches the data plane: providers keep their own knobs and
their own control loops, exactly as the paper prescribes.
"""

from repro.core.schemas import (
    CongestionSignal,
    DemandEstimate,
    PeeringDecision,
    PeeringPointInfo,
    QoeAggregate,
    ServerHintInfo,
)
from repro.core.registry import AccessDeniedError, Grant, OptInRegistry
from repro.core.context import SimContext, build_context
from repro.core.privacy import blind_fields, k_suppress, laplace_noise
from repro.core.staleness import StaleView
from repro.core.interfaces import LookingGlass, QueryResult
from repro.core.damping import ExponentialBackoff, HysteresisGate
from repro.core.oscillation import AdaptiveDamper, OscillationDetector
from repro.core.appp import (
    AppPController,
    EonaAppP,
    MultiIspEonaAppP,
    StatusQuoAppP,
)
from repro.core.controlplane import CdnQuality, CoordinatedAppP
from repro.core.infp import EnergyManager, EonaInfP, StatusQuoInfP
from repro.core.recipe import (
    Datum,
    InterfaceSpec,
    Knob,
    UseCase,
    derive_wide_interface,
    narrow_interface,
    utility_from_observations,
)

__all__ = [
    "AccessDeniedError",
    "AdaptiveDamper",
    "AppPController",
    "CdnQuality",
    "CongestionSignal",
    "CoordinatedAppP",
    "Datum",
    "DemandEstimate",
    "EnergyManager",
    "EonaAppP",
    "EonaInfP",
    "ExponentialBackoff",
    "Grant",
    "HysteresisGate",
    "InterfaceSpec",
    "Knob",
    "LookingGlass",
    "MultiIspEonaAppP",
    "OptInRegistry",
    "OscillationDetector",
    "PeeringDecision",
    "PeeringPointInfo",
    "QoeAggregate",
    "QueryResult",
    "ServerHintInfo",
    "SimContext",
    "StaleView",
    "StatusQuoAppP",
    "StatusQuoInfP",
    "UseCase",
    "blind_fields",
    "build_context",
    "derive_wide_interface",
    "k_suppress",
    "laplace_noise",
    "narrow_interface",
    "utility_from_observations",
]
