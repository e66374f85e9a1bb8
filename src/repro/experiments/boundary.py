"""Shannon-boundary ablation (paper Sec. 5, final paragraph).

The paper promises to "study the limits of our approach in decoding
collisions at a range of SNRs, particularly at certain SNR regimes
(e.g. extremely low values) where the Shannon limit may not permit
decoupling collisions". This experiment does exactly that: it sweeps a
LoRa+XBee full-overlap collision across in-band SNR, asks the
multiple-access capacity model of :mod:`repro.analysis` whether joint
decoding is information-theoretically feasible, and compares the
prediction against the GalioT decoder's measured success.

Expected shape: the decoder tracks the feasibility boundary with an
implementation gap — it fails somewhat above the Shannon wall (real
receivers are not capacity-achieving) and never succeeds below it.
"""

from __future__ import annotations

import numpy as np

from ..analysis import collision_feasible
from ..cloud.decoder import CloudDecoder
from ..net.traffic import packet_scene
from ..phy.registry import create_modem
from .common import DEFAULT_SEED, ExperimentTable

__all__ = ["run_boundary"]


def run_boundary(
    snrs_db: tuple[float, ...] = (-30.0, -20.0, -10.0, -4.0, 0.0, 6.0, 12.0),
    trials: int = 3,
    seed: int = DEFAULT_SEED,
) -> ExperimentTable:
    """Sweep collision SNR against the Shannon feasibility verdict.

    Args:
        snrs_db: In-band SNR points (both colliders at the same SNR).
        trials: Collisions decoded per SNR point.
        seed: RNG seed.
    """
    fs = 1e6
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    lora = modems[0]
    xbee = modems[1]
    rng = np.random.default_rng(seed)
    table = ExperimentTable(
        title="Ablation: Shannon feasibility vs measured joint decoding",
        columns=[
            "in-band SNR dB",
            "MAC feasible",
            "capacity margin dB",
            "frames decoded",
            "of",
        ],
    )
    for snr in snrs_db:
        verdict = collision_feasible([lora, xbee], [snr, snr])
        decoded = 0
        total = 0
        for _ in range(trials):
            capture, truth = packet_scene(
                [lora, xbee], [snr, snr], fs, rng, payload_len=10
            )
            want = {(p.technology, p.payload) for p in truth.packets}
            report = CloudDecoder(modems, fs).decode(capture)
            got = {(r.technology, r.payload) for r in report.results}
            decoded += len(got & want)
            total += len(want)
        table.rows.append(
            [
                snr,
                "yes" if verdict.feasible else "no",
                verdict.worst_margin_db,
                decoded,
                total,
            ]
        )
    table.notes.append(
        "the decoder must never beat the Shannon verdict; the gap above "
        "the boundary is the implementation loss of practical modems"
    )
    return table
