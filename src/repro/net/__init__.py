"""IoT network substrate: devices, traffic, scenes, MAC, energy, sim."""

from .adversary import (
    ATTACK_SCENARIOS,
    AttackLedger,
    AttackPlan,
    AttackTruth,
    JammerSpec,
    ReplaySpec,
    SpoofSpec,
    build_attack_scenario,
    render_attack_plan,
)
from .device import Device, EnergyProfile
from .energy import EnergyLedger
from .mac import MacState, PendingFrame
from .multigateway import (
    GatewayCopy,
    combine_segments,
    receive_at_gateways,
    selection_diversity,
)
from .scene import NOISE_POWER, SceneBuilder
from .simulator import NetworkSimulator, SimulationResult, match_decodes
from .traffic import packet_scene, poisson_scene

__all__ = [
    "ATTACK_SCENARIOS",
    "AttackLedger",
    "AttackPlan",
    "AttackTruth",
    "JammerSpec",
    "ReplaySpec",
    "SpoofSpec",
    "build_attack_scenario",
    "render_attack_plan",
    "Device",
    "EnergyProfile",
    "EnergyLedger",
    "MacState",
    "PendingFrame",
    "GatewayCopy",
    "combine_segments",
    "receive_at_gateways",
    "selection_diversity",
    "NOISE_POWER",
    "SceneBuilder",
    "NetworkSimulator",
    "SimulationResult",
    "match_decodes",
    "packet_scene",
    "poisson_scene",
]
