"""Ablation experiments for the design choices DESIGN.md calls out.

* :func:`run_scaling` — Sec. 4 motivation: universal-preamble detection
  cost is one correlation regardless of the number of registered
  technologies, while the optimal bank grows linearly.
* :func:`run_compression` — Sec. 6 "compute, compress or ship": backhaul
  bits for raw streaming vs detect-and-ship vs detect+requantize+zlib.
* :func:`run_kill_filters` — Sec. 5 filter design: per-filter
  suppression of the target technology and collateral damage to a
  co-channel bystander.
* :func:`run_edge_cloud` — Sec. 4 "Edge vs. the Cloud": fraction of
  segments the edge resolves locally vs ships.
* :func:`run_sic_depth` — cancellation depth vs crystal offset, the
  mechanism that separates SIC from the estimation-free kill filters.
"""

from __future__ import annotations

import time

import numpy as np

from ..cloud.kill_filters import kill_filter_for
from ..cloud.classify import SegmentClassifier
from ..cloud.sic import reconstruct_and_subtract, try_decode
from ..dsp.channel import signal_power
from ..gateway.compression import SegmentCodec
from ..gateway.detection import PreambleBankDetector
from ..gateway.extractor import SegmentExtractor
from ..gateway.gateway import GalioTGateway
from ..gateway.universal import UniversalPreamble, UniversalPreambleDetector
from ..net.scene import CARRIER_HZ, SceneBuilder
from ..phy.registry import create_modem
from .common import DEFAULT_SEED, ExperimentTable

__all__ = [
    "run_scaling",
    "run_compression",
    "run_kill_filters",
    "run_edge_cloud",
    "run_sic_depth",
]

_EXTENSION_ORDER = ["lora", "xbee", "zwave", "ble", "sigfox", "oqpsk154"]


def _scene(fs, modems, rng, snr=15.0, scene_s=0.25):
    builder = SceneBuilder(fs, scene_s)
    spacing = scene_s / (len(modems) + 1)
    for i, modem in enumerate(modems):
        builder.add_packet(
            modem,
            bytes(rng.integers(0, 256, 10, dtype=np.uint8)),
            start=int((i + 0.5) * spacing * fs),
            snr_db=snr,
            rng=rng,
            snr_mode="capture",
        )
    return builder.render(rng)


def run_scaling(seed: int = DEFAULT_SEED, repeats: int = 2) -> ExperimentTable:
    """Detection cost vs number of registered technologies."""
    fs = 1e6
    rng = np.random.default_rng(seed)
    table = ExperimentTable(
        title="Ablation: detector scaling with technology count",
        columns=[
            "#techs",
            "universal correlations",
            "bank correlations",
            "universal ms",
            "bank ms",
        ],
    )
    trio = [create_modem(n) for n in _EXTENSION_ORDER[:3]]
    capture, _ = _scene(fs, trio, rng)
    for n in range(2, len(_EXTENSION_ORDER) + 1):
        modems = [create_modem(name) for name in _EXTENSION_ORDER[:n]]
        universal = UniversalPreamble.build(modems, fs)
        uni = UniversalPreambleDetector(universal)
        bank = PreambleBankDetector(modems, fs)
        t0 = time.perf_counter()
        for _ in range(repeats):
            uni.detect(capture)
        t1 = time.perf_counter()
        for _ in range(repeats):
            bank.detect(capture)
        t2 = time.perf_counter()
        table.rows.append(
            [
                n,
                uni.n_correlations,
                bank.n_correlations,
                1e3 * (t1 - t0) / repeats,
                1e3 * (t2 - t1) / repeats,
            ]
        )
    table.notes.append(
        "universal stays at one correlation per capture; the optimal bank "
        "grows linearly (the paper's scalability argument)"
    )
    return table


def run_compression(seed: int = DEFAULT_SEED) -> ExperimentTable:
    """Backhaul bits: ship-everything vs detect-and-ship vs +zlib."""
    fs = 1e6
    rng = np.random.default_rng(seed)
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    capture, truth = _scene(fs, modems, rng, scene_s=0.6)
    raw_bits = len(capture) * 2 * 8
    universal = UniversalPreamble.build(modems, fs)
    detector = UniversalPreambleDetector(universal)
    extractor = SegmentExtractor(modems, fs)
    segments = extractor.extract(capture, detector.detect(capture))
    ship_bits = sum(s.length * 2 * 8 for s in segments)
    codec = SegmentCodec(bits=8)
    compressed_bits = 0
    for segment in segments:
        blob, _stats = codec.compress(segment)
        compressed_bits += blob.n_bits
    table = ExperimentTable(
        title="Ablation: backhaul bits per 0.6 s capture",
        columns=["strategy", "bits", "vs raw"],
    )
    table.rows.append(["ship raw stream", raw_bits, 1.0])
    table.rows.append(
        ["detect-and-ship (2x max frame)", ship_bits, ship_bits / raw_bits]
    )
    table.rows.append(
        [
            "detect + requantize + zlib",
            compressed_bits,
            compressed_bits / raw_bits,
        ]
    )
    table.notes.append(
        f"{len(truth.packets)} packets in the capture; raw streaming at "
        "1 MHz costs 16 Mbit/s forever regardless of occupancy"
    )
    return table


def run_kill_filters(seed: int = DEFAULT_SEED) -> ExperimentTable:
    """Per-filter suppression of the target and bystander collateral."""
    fs = 1e6
    rng = np.random.default_rng(seed)
    lora = create_modem("lora")
    xbee = create_modem("xbee")
    zwave = create_modem("zwave")
    classifier_modems = [lora, xbee, zwave]
    table = ExperimentTable(
        title="Ablation: kill-filter suppression",
        columns=[
            "filter",
            "target",
            "bystander",
            "target suppressed dB",
            "bystander lost dB",
            "bystander decodes",
        ],
    )
    cases = [
        (xbee, lora),   # KILL-FREQUENCY removes XBee, LoRa survives
        (zwave, lora),  # KILL-FREQUENCY removes Z-Wave, LoRa survives
        (lora, xbee),   # KILL-CSS removes LoRa, XBee survives
        (lora, zwave),  # KILL-CSS removes LoRa, Z-Wave survives
    ]
    classifier = SegmentClassifier(classifier_modems, fs)
    for target, bystander in cases:
        payload_t = bytes(rng.integers(0, 256, 12, dtype=np.uint8))
        payload_b = bytes(rng.integers(0, 256, 12, dtype=np.uint8))
        builder = SceneBuilder(fs, 0.12, noise_power=1e-6)
        builder.add_packet(target, payload_t, 2000, 60, rng, snr_mode="capture")
        target_only, _ = builder.render(rng)
        builder2 = SceneBuilder(fs, 0.12, noise_power=1e-6)
        builder2.add_packet(bystander, payload_b, 2000, 60, rng, snr_mode="capture")
        bystander_only, _ = builder2.render(rng)
        both = target_only + bystander_only
        kill = kill_filter_for(target)
        victims = [
            c for c in classifier.classify(both) if c.technology == target.name
        ]
        victim = victims[0] if victims else None
        filtered_t = kill.apply(target_only, fs, victim)
        filtered_b = kill.apply(bystander_only, fs, victim)
        sup = 10 * np.log10(
            signal_power(target_only) / max(signal_power(filtered_t), 1e-30)
        )
        lost = 10 * np.log10(
            signal_power(bystander_only) / max(signal_power(filtered_b), 1e-30)
        )
        survivor = try_decode(bystander, kill.apply(both, fs, victim), fs)
        table.rows.append(
            [
                kill.name,
                target.name,
                bystander.name,
                float(sup),
                float(lost),
                survivor is not None and survivor.payload == payload_b,
            ]
        )
    return table


def run_edge_cloud(seed: int = DEFAULT_SEED, rounds: int = 2) -> ExperimentTable:
    """Edge-vs-cloud split of detected segments."""
    fs = 1e6
    rng = np.random.default_rng(seed)
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]
    gateway = GalioTGateway(modems, fs, detector="universal", use_edge=True)
    total_segments = 0
    shipped = 0
    edge_frames = 0
    for _ in range(rounds):
        builder = SceneBuilder(fs, 0.4)
        # Two isolated packets plus one collision pair.
        layout = [("xbee", 0.1, 0), ("zwave", 0.4, 0), ("lora", 0.7, 0), ("xbee", 0.72, 0)]
        for tech, frac, _ in layout:
            modem = next(m for m in modems if m.name == tech)
            builder.add_packet(
                modem,
                bytes(rng.integers(0, 256, 10, dtype=np.uint8)),
                start=int(frac * 0.4 * fs),
                snr_db=15,
                rng=rng,
                snr_mode="capture",
            )
        capture, _truth = builder.render(rng)
        report = gateway.process(capture, rng)
        total_segments += len(report.segments)
        shipped += len(report.shipped)
        edge_frames += len(report.edge_results)
    table = ExperimentTable(
        title="Ablation: edge vs cloud segment split",
        columns=["segments", "resolved at edge only", "shipped to cloud", "edge frames"],
    )
    table.rows.append(
        [total_segments, total_segments - shipped, shipped, edge_frames]
    )
    table.notes.append(
        "segments with one clean frame stay at the edge; suspected "
        "collisions are shipped (paper Sec. 4, Edge vs. the Cloud)"
    )
    return table


def run_sic_depth(seed: int = DEFAULT_SEED) -> ExperimentTable:
    """Cancellation depth vs transmitter crystal offset."""
    fs = 1e6
    rng = np.random.default_rng(seed)
    lora = create_modem("lora")
    table = ExperimentTable(
        title="Ablation: SIC cancellation depth vs CFO",
        columns=["cfo ppm", "cfo Hz", "cancelled dB"],
    )
    for ppm in (0.0, 0.5, 1.0, 2.0, 5.0):
        cfo = ppm * 1e-6 * CARRIER_HZ
        builder = SceneBuilder(fs, 0.1, noise_power=1e-9)
        payload = bytes(rng.integers(0, 256, 12, dtype=np.uint8))
        builder.add_packet(
            lora, payload, 2000, 40, rng, cfo_hz=cfo, snr_mode="capture"
        )
        capture, _ = builder.render(rng)
        frame = try_decode(lora, capture, fs)
        if frame is None:
            table.rows.append([ppm, cfo, float("nan")])
            continue
        _residual, recon = reconstruct_and_subtract(capture, fs, lora, frame)
        table.rows.append([ppm, cfo, recon.cancelled_db])
    table.notes.append(
        "reconstruction-based cancellation degrades with CFO; the kill "
        "filters are estimation-free and keep working (the Fig. 3(c) gap)"
    )
    return table
