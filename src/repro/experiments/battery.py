"""Battery-drain experiment (the paper's Sec. 1 motivation).

"These collisions are handled using retransmissions, resulting in
extensive battery drain." — the closed-loop simulator makes that
quantitative: identical collision-heavy traffic is run once with the
SIC-only cloud and once with GalioT, and the MAC's retransmission
counts are converted into projected battery life per device class.
"""

from __future__ import annotations

import numpy as np

from ..cloud.pipeline import CloudService
from ..gateway.gateway import GalioTGateway
from ..net.device import Device
from ..net.simulator import NetworkSimulator
from ..phy.registry import create_modem
from .common import DEFAULT_SEED, ExperimentTable

__all__ = ["run_battery"]


def _devices(modems, rng) -> list[Device]:
    devices = []
    device_id = 0
    for modem in modems:
        for _ in range(2):
            devices.append(
                Device(
                    device_id=device_id,
                    technology=modem.name,
                    modem=modem,
                    mean_interval_s=0.45,
                    payload_range=(8, 12),
                    snr_db=float(rng.uniform(11, 16)),
                )
            )
            device_id += 1
    return devices


def run_battery(
    rounds: int = 2, seed: int = DEFAULT_SEED
) -> ExperimentTable:
    """Closed-loop battery comparison, SIC vs GalioT.

    Args:
        rounds: Simulation rounds per decoder (0.5 s of air each).
        seed: RNG seed (identical traffic for both decoders).
    """
    fs = 1e6
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    rng = np.random.default_rng(seed)
    devices = _devices(modems, rng)
    table = ExperimentTable(
        title="Battery drain: retransmissions under SIC vs GalioT",
        columns=[
            "decoder",
            "delivered",
            "offered",
            "tx/delivery",
            "mJ per delivered kbit",
        ],
    )
    for label, kill in (("sic", False), ("galiot", True)):
        gateway = GalioTGateway(modems, fs, detector="universal", use_edge=True)
        cloud = CloudService(modems, fs, use_kill_filters=kill)
        sim = NetworkSimulator(
            devices, gateway, cloud, fs, round_s=0.5, max_attempts=3
        )
        result = sim.run(rounds=rounds, rng=np.random.default_rng(seed + 1))
        total_energy_j = sum(result.energy.tx_energy_j.values())
        if result.delivered_bits > 0:
            mj_per_kbit = 1e3 * total_energy_j / (result.delivered_bits / 1e3)
        else:
            mj_per_kbit = float("inf")
        table.rows.append(
            [
                label,
                result.delivered_frames,
                result.offered_frames,
                result.mac.attempts_per_delivery,
                mj_per_kbit,
            ]
        )
    table.notes.append(
        "identical traffic both runs; the energy-per-delivered-bit delta "
        "is purely the retransmissions that collision decoding avoids"
    )
    return table
