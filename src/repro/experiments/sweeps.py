"""Parameter-sweep ablations: detector ROC, codec depth, overlap.

Three sweeps that probe the knobs the headline experiments hold fixed:

* :func:`run_roc` — detection probability vs false alarms as the CFAR
  factor sweeps (the operating point behind Figure 3(b));
* :func:`run_compression_depth` — backhaul bits vs decode success as the
  requantization depth drops (the Sec. 6 compression knob);
* :func:`run_overlap` — joint-decoding success vs collision overlap
  fraction (the paper's "complete overlaps in both time and frequency"
  is the hardest point of this curve).
"""

from __future__ import annotations

import numpy as np

from ..cloud.decoder import CloudDecoder
from ..cloud.pipeline import CloudService
from ..gateway.compression import SegmentCodec
from ..gateway.detection import match_events
from ..gateway.universal import UniversalPreamble, UniversalPreambleDetector
from ..net.scene import SceneBuilder
from ..net.traffic import packet_scene
from ..phy.registry import create_modem
from ..types import Segment
from .common import DEFAULT_SEED, ExperimentTable

__all__ = ["run_roc", "run_compression_depth", "run_overlap"]


def run_roc(
    k_values: tuple[float, ...] = (3.0, 5.0, 7.0, 9.0, 12.0),
    trials: int = 2,
    snr_db: float = -12.0,
    seed: int = DEFAULT_SEED,
) -> ExperimentTable:
    """Universal-preamble ROC: detections and false alarms vs CFAR k.

    Run at a sub-noise SNR where the threshold choice actually matters.
    """
    fs = 1e6
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    universal = UniversalPreamble.build(modems, fs)
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(trials):
        builder = SceneBuilder(fs, 0.4)
        for i, modem in enumerate(modems):
            builder.add_packet(
                modem,
                bytes(rng.integers(0, 256, 10, dtype=np.uint8)),
                start=int((0.08 + 0.28 * i / len(modems)) * fs),
                snr_db=snr_db,
                rng=rng,
                snr_mode="capture",
            )
        scenes.append(builder.render(rng))
    table = ExperimentTable(
        title=f"Ablation: universal-preamble ROC at {snr_db:.0f} dB",
        columns=["CFAR k", "detected", "of", "false alarms"],
    )
    for k in k_values:
        detector = UniversalPreambleDetector(universal, k=k)
        hit = 0
        total = 0
        fas = 0
        for capture, truth in scenes:
            events = detector.detect(capture)
            detected, false_alarms = match_events(
                events, truth.packets, gate=universal.length
            )
            hit += len(detected)
            total += len(truth.packets)
            fas += len(false_alarms)
        table.rows.append([k, hit, total, fas])
    table.notes.append(
        "lowering k buys detections at the price of false alarms; the "
        "default k trades ~zero false alarms for the last few percent"
    )
    return table


def run_compression_depth(
    bit_depths: tuple[int, ...] = (8, 6, 5, 4, 3, 2),
    trials: int = 3,
    seed: int = DEFAULT_SEED,
) -> ExperimentTable:
    """Requantization depth vs backhaul bits vs decode success."""
    fs = 1e6
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    rng = np.random.default_rng(seed)
    # One captured segment per technology, at a workable SNR.
    segments = []
    for modem in modems:
        for _ in range(trials):
            payload = bytes(rng.integers(0, 256, 10, dtype=np.uint8))
            builder = SceneBuilder(fs, modem.frame_airtime(10) + 0.01)
            builder.add_packet(modem, payload, 3000, 14, rng)
            capture, _ = builder.render(rng)
            segments.append(
                (modem, payload, Segment(start=0, samples=capture, sample_rate=fs))
            )
    table = ExperimentTable(
        title="Ablation: requantization depth vs decode success",
        columns=["bits/rail", "shipped bits", "vs 8-bit", "decoded", "of"],
    )
    baseline_bits = None
    for bits in bit_depths:
        codec = SegmentCodec(bits=bits)
        shipped = 0
        ok = 0
        service = CloudService(modems, fs)
        for modem, payload, segment in segments:
            blob, _ = codec.compress(segment)
            shipped += blob.n_bits
            results = service.process_segment(codec.decompress(blob))
            ok += any(
                r.technology == modem.name and r.payload == payload
                for r in results
            )
        if baseline_bits is None:
            baseline_bits = shipped
        table.rows.append(
            [bits, shipped, shipped / baseline_bits, ok, len(segments)]
        )
    table.notes.append(
        "the backhaul knob of Sec. 6: depth can drop well below the "
        "RTL-SDR's 8 bits before decode success goes with it"
    )
    return table


def run_overlap(
    overlaps: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    trials: int = 3,
    snr_db: float = 12.0,
    seed: int = DEFAULT_SEED,
) -> ExperimentTable:
    """Joint decoding vs collision overlap fraction (LoRa + XBee)."""
    fs = 1e6
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    lora, xbee = modems[0], modems[1]
    rng = np.random.default_rng(seed)
    table = ExperimentTable(
        title="Ablation: decoding vs collision overlap (LoRa + XBee)",
        columns=["overlap", "SIC frames", "GalioT frames", "of"],
    )
    for overlap in overlaps:
        counts = {"sic": 0, "galiot": 0}
        total = 0
        for _ in range(trials):
            capture, truth = packet_scene(
                [lora, xbee],
                [snr_db, snr_db],
                fs,
                rng,
                payload_len=10,
                overlap=overlap,
                cfo_ppm_range=2.0,
                snr_mode="capture",
            )
            want = {(p.technology, p.payload) for p in truth.packets}
            total += len(want)
            for mode, decoder in (
                ("sic", CloudDecoder(modems, fs, use_kill_filters=False)),
                ("galiot", CloudDecoder(modems, fs)),
            ):
                report = decoder.decode(capture)
                got = {(r.technology, r.payload) for r in report.results}
                counts[mode] += len(got & want)
        table.rows.append([overlap, counts["sic"], counts["galiot"], total])
    table.notes.append(
        "overlap 1.0 is the paper's hard case (complete time-frequency "
        "overlap); SIC degrades with overlap, GalioT stays near-flat"
    )
    return table
