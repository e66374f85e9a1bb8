"""F3c — Figure 3(c): collision-decoding throughput, SIC vs GalioT.

Monte-Carlo of collision episodes (the paper tunes duty cycles so "all
possible scenarios, including intertechnology collisions" occur): each
episode renders 1-3 overlapping transmissions of the prototype trio with
per-packet crystal offsets, then decodes the capture twice — once with
the classic SIC strawman (strict power order, stop at first failure) and
once with full GalioT (Algorithm 1: kill filters + fallback ordering).

Throughput is delivered payload bits per second of channel time. The
paper attributes part of its gain to devices being able to "transmit at
one rate higher" once collisions stop costing retransmissions; the
rate-adaptation factor models exactly that (delivery failures push a
device to a half-rate tier, doubling its airtime).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cloud.decoder import CloudDecoder
from ..net.traffic import packet_scene
from ..phy.base import Modem
from ..phy.registry import create_modem
from .common import DEFAULT_SEED, ExperimentTable

__all__ = ["Fig3cResult", "run_fig3c", "PAPER_FIG3C", "SNR_BUCKETS"]

#: Capture-band SNR buckets; the paper labels them Low (<5 dB),
#: Medium and High (>20 dB).
SNR_BUCKETS = {
    "Low": (-2.0, 5.0),
    "Medium": (5.0, 20.0),
    "High": (20.0, 30.0),
}

#: The paper's reported kill-filter throughput gains over SIC.
PAPER_FIG3C = {
    "Low": 5.324,   # "532.4% in low SNR"
    "High": 8.1836,  # "818.36% in high SNR"
    "average": 7.4596,  # "increase in average throughput by 745.96%"
}

#: Episode mix: (number of colliding technologies, weight).
EPISODE_MIX = [(1, 0.15), (2, 0.60), (3, 0.25)]

#: Per-packet crystal error range (±ppm of the 868 MHz carrier).
CFO_PPM = 2.0


@dataclass
class Fig3cResult:
    """Throughput per bucket per decoding mode."""

    buckets: list[str]
    throughput_bps: dict[str, dict[str, float]] = field(default_factory=dict)
    frames: dict[str, dict[str, tuple[int, int]]] = field(default_factory=dict)
    methods: dict[str, int] = field(default_factory=dict)

    def gain(self, bucket: str) -> float:
        """GalioT / SIC throughput ratio for a bucket."""
        sic = self.throughput_bps[bucket]["sic"]
        galiot = self.throughput_bps[bucket]["galiot"]
        if sic <= 0:
            return float("inf") if galiot > 0 else 1.0
        return galiot / sic

    def average_gain(self) -> float:
        """Throughput ratio pooled over all buckets."""
        sic = sum(self.throughput_bps[b]["sic"] for b in self.buckets)
        galiot = sum(self.throughput_bps[b]["galiot"] for b in self.buckets)
        if sic <= 0:
            return float("inf") if galiot > 0 else 1.0
        return galiot / sic

    def table(self) -> ExperimentTable:
        """Paper-vs-measured table for this figure."""
        table = ExperimentTable(
            title="Figure 3(c): collision-decoding throughput (bps)",
            columns=[
                "SNR bucket",
                "SIC bps",
                "GalioT bps",
                "gain x",
                "paper gain x",
            ],
        )
        for bucket in self.buckets:
            paper = PAPER_FIG3C.get(bucket)
            table.rows.append(
                [
                    bucket,
                    self.throughput_bps[bucket]["sic"],
                    self.throughput_bps[bucket]["galiot"],
                    self.gain(bucket),
                    paper if paper is not None else "-",
                ]
            )
        table.rows.append(
            [
                "average",
                sum(self.throughput_bps[b]["sic"] for b in self.buckets),
                sum(self.throughput_bps[b]["galiot"] for b in self.buckets),
                self.average_gain(),
                PAPER_FIG3C["average"],
            ]
        )
        table.notes.append(
            "SIC baseline = classic successive cancellation (strict power "
            "order, stops at first failure); GalioT = Algorithm 1"
        )
        table.notes.append(f"GalioT decode methods: {self.methods}")
        return table


def _draw_episode(
    rng: np.random.Generator, modems: list[Modem]
) -> list[Modem]:
    weights = np.array([w for _, w in EPISODE_MIX])
    sizes = [n for n, _ in EPISODE_MIX]
    n = int(rng.choice(sizes, p=weights / weights.sum()))
    idx = rng.choice(len(modems), size=n, replace=False)
    return [modems[i] for i in idx]


def run_fig3c(
    episodes_per_bucket: int = 10,
    seed: int = DEFAULT_SEED,
) -> Fig3cResult:
    """Run the collision-throughput comparison.

    Every packet carries a crystal error within :data:`CFO_PPM` of the
    carrier. Throughput models the paper's rate effect: a device whose
    frame was lost falls back to a half-rate tier, so its *next*
    delivery costs twice the airtime. Throughput then reflects both
    lost frames and the slower rates lost frames force.

    Args:
        episodes_per_bucket: Collision episodes per SNR bucket.
        seed: RNG seed.
    """
    fs = 1e6
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    rng = np.random.default_rng(seed)
    result = Fig3cResult(buckets=list(SNR_BUCKETS))
    for bucket, (lo, hi) in SNR_BUCKETS.items():
        bits = {"sic": 0.0, "galiot": 0.0}
        airtime = {"sic": 0.0, "galiot": 0.0}
        frames_ok = {"sic": 0, "galiot": 0}
        frames_all = 0
        # Rate tier per (mode, technology): tier t halves the rate t
        # times, i.e. multiplies the airtime per delivered bit by 2**t.
        tier: dict[tuple[str, str], int] = {}
        for _ in range(episodes_per_bucket):
            episode_modems = _draw_episode(rng, modems)
            snrs = [float(rng.uniform(lo, hi)) for _ in episode_modems]
            # Episodes hold 1-3 packets, lone ones included.
            capture, truth = packet_scene(
                episode_modems,
                snrs,
                fs,
                rng,
                payload_len=12,
                snr_mode="capture",
                cfo_ppm_range=CFO_PPM,
            )
            want = {(p.technology, p.payload) for p in truth.packets}
            frames_all += len(want)
            duration = truth.duration
            for mode, decoder in (
                ("sic", CloudDecoder.sic_baseline(modems, fs)),
                ("galiot", CloudDecoder.galiot(modems, fs)),
            ):
                report = decoder.decode(capture)
                got = {(r.technology, r.payload) for r in report.results}
                delivered = got & want
                frames_ok[mode] += len(delivered)
                if mode == "galiot":
                    for r in report.results:
                        result.methods[r.method] = (
                            result.methods.get(r.method, 0) + 1
                        )
                airtime[mode] += duration
                for tech, payload in sorted(want):
                    key = (mode, tech)
                    t = tier.get(key, 0)
                    if (tech, payload) in delivered:
                        # Delivered at the current tier: bits land, but a
                        # half-rate tier spends 2**t the airtime.
                        airtime[mode] += duration * (2**t - 1) / max(
                            len(want), 1
                        )
                        tier[key] = max(t - 1, 0)
                        bits[mode] += 8 * len(payload)
                    else:
                        tier[key] = min(t + 1, 3)
        result.throughput_bps[bucket] = {
            m: bits[m] / airtime[m] if airtime[m] > 0 else 0.0
            for m in ("sic", "galiot")
        }
        result.frames[bucket] = {
            m: (frames_ok[m], frames_all) for m in ("sic", "galiot")
        }
    return result
