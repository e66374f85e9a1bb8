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
from .airtime import frame_airtime, frame_samples_at, goodput_bits
from .device import Device, EnergyProfile
from .energy import EnergyLedger
from .mac import MacState, PendingFrame
from .multigateway import (
    GatewayCopy,
    combine_segments,
    receive_at_gateways,
    selection_diversity,
)
from .propagation import LinkBudget, PathLossModel, Position, deployment_snrs
from .scene import NOISE_POWER, SceneBuilder
from .simulator import NetworkSimulator, SimulationResult, match_decodes
from .traffic import collision_scene, poisson_scene

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
    "frame_airtime",
    "frame_samples_at",
    "goodput_bits",
    "Device",
    "EnergyProfile",
    "EnergyLedger",
    "MacState",
    "PendingFrame",
    "GatewayCopy",
    "combine_segments",
    "receive_at_gateways",
    "selection_diversity",
    "PathLossModel",
    "LinkBudget",
    "Position",
    "deployment_snrs",
    "NOISE_POWER",
    "SceneBuilder",
    "NetworkSimulator",
    "SimulationResult",
    "match_decodes",
    "collision_scene",
    "poisson_scene",
]
