#!/usr/bin/env python
"""Detection-front throughput of the shared-FFT correlation engine.

Times the preamble-bank and universal detectors over a six-technology
scene, for both fully-coherent and CFO-tolerant blocked correlation, on
the overlap-save engine (:mod:`repro.dsp.fastcorr`). The blocked
per-technology bank is the workload the engine exists for: six
templates cut into coherent sub-blocks share one forward FFT per
overlap-save segment instead of recomputing it per sub-template.

Every timed configuration must detect at least one event, and every
repeated detect must return the identical event list. Thresholds are
calibrated once per configuration on a noise capture and frozen. Each
coherent configuration (``block=None``, frozen threshold) also detects
over a fresh noise-only capture as long as the scene, and records its
``screened_share``: the buffers the single-precision screen proved
quiet over the buffers scored. With ``--smoke`` (what CI runs) that
share must be 1.0, so a change that loosens the screen's error bound
or bypasses the screen fails there. The full-length run only records
it: at 0.5 s the bank's 50 ms SigFox template, whose spectrum peak is
large for its energy, has a bound of about two thirds of its threshold,
so that buffer takes the exact path. A
streaming pass (chunked ``StreamingGateway``) is recorded next to its
monolithic twin for information: the two may legitimately differ on
SigFox's dense near-tie score plateau, where FFT rounding at different
buffer lengths flips greedy tie decisions. Event-level correctness is
pinned by the golden detection fixture in the test suite.

Unlike the pytest-benchmark files next to it, this is a standalone
script: it emits a machine-readable ``BENCH_detection.json`` so
successive PRs accumulate a throughput trajectory (see the README note
on ``BENCH_*.json`` files).

Honesty note: wall-clock on a noisy shared machine jitters by integer
factors; each configuration is timed ``--repeats`` times and the *best*
run is recorded, which estimates the undisturbed cost.

Usage::

    PYTHONPATH=src python benchmarks/bench_detection.py          # full
    PYTHONPATH=src python benchmarks/bench_detection.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.dsp.fastcorr import clear_spectrum_plan_cache, spectrum_plan  # noqa: E402
from repro.gateway import (  # noqa: E402
    GalioTGateway,
    StreamingGateway,
    iter_chunks,
)
from repro.net.scene import SceneBuilder  # noqa: E402
from repro.phy import create_modem  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402

FS = 1e6
TECHNOLOGIES = ("lora", "zwave", "xbee", "ble", "sigfox", "oqpsk154")
# 6250 samples = 6.25 ms coherent blocks: SigFox's capped 50 ms template
# splits into 8 CFO blocks, LoRa's 8.2 ms preamble into 2.
BLOCK = 6250
CONFIGS = (
    ("bank", None),
    ("bank", BLOCK),
    ("universal", None),
    ("universal", BLOCK),
)


def build_scene(duration_s: float, rng: np.random.Generator):
    """One packet per technology, spread over the capture."""
    modems = [create_modem(n) for n in TECHNOLOGIES]
    builder = SceneBuilder(FS, duration_s)
    n = int(duration_s * FS)
    starts = np.linspace(0.08, 0.78, len(modems)) * n
    for i, (modem, start) in enumerate(zip(modems, starts)):
        builder.add_packet(
            modem, f"bench-{i}".encode(), int(start), 12, rng,
            snr_mode="capture",
        )
    capture, truth = builder.render(rng)
    # The calibration capture must exceed the longest template (SigFox's
    # capped 50 ms), otherwise that technology gets no frozen threshold
    # and falls back to data-dependent per-capture CFAR — which breaks
    # streaming/monolithic exactness.
    n_noise = max(n // 2, 75_000)
    noise = (
        rng.normal(size=n_noise) + 1j * rng.normal(size=n_noise)
    ) * np.sqrt(truth.noise_power / 2)
    return modems, capture, noise


def make_gateway(modems, detector, block, threshold=None):
    kwargs = {}
    if block is not None:
        kwargs["block"] = block
    if threshold is not None:
        kwargs["threshold"] = threshold
    return GalioTGateway(
        modems, FS, detector=detector, use_edge=False, **kwargs
    )


def event_keys(events):
    return [(e.index, e.detector, e.technology) for e in events]


def screened_share(detector, noise) -> float:
    """Share of ``detector.detect(noise)``'s buffers the single-precision
    screen proved quiet (a one-buffer detect: 0.0 or 1.0)."""
    detector.telemetry = Telemetry()
    detector.detect(noise)
    counters = detector.telemetry.counters
    screened = counters.get("detect.screened", 0)
    return screened / (screened + counters.get("detect.exact", 0))


def timed_detect(detector, capture, repeats):
    """Best-of-N wall clock, the event list, and whether every repeat
    returned that same list."""
    events = detector.detect(capture)
    best = float("inf")
    deterministic = True
    for _ in range(repeats):
        t0 = time.perf_counter()
        again = detector.detect(capture)
        best = min(best, time.perf_counter() - t0)
        deterministic = deterministic and again == events
    return events, best, deterministic


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short capture, 1 repeat: CI plumbing check, not a measurement",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="capture length in seconds (default: 0.5, smoke: 0.15)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats, best kept (default: 3, smoke: 1)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_detection.json"),
    )
    args = parser.parse_args(argv)
    duration_s = args.duration or (0.15 if args.smoke else 0.5)
    repeats = args.repeats or (1 if args.smoke else 3)

    rng = np.random.default_rng(0xC0FFEE)
    modems, capture, noise = build_scene(duration_s, rng)
    # A second noise-only capture, as long as the scene: what every
    # coherent configuration must screen as quiet.
    quiet = (
        rng.normal(size=len(capture)) + 1j * rng.normal(size=len(capture))
    ) * np.sqrt(np.mean(np.abs(noise) ** 2) / 2)
    print(
        f"scene: {len(capture)} samples, {len(modems)} technologies, "
        f"cpu_count={os.cpu_count()}"
    )

    rows = []
    checks_ok = True
    for detector_name, block in CONFIGS:
        probe = make_gateway(modems, detector_name, block)
        threshold = probe.detector.calibrate(noise)
        clear_spectrum_plan_cache()
        detector = make_gateway(modems, detector_name, block, threshold).detector
        events, seconds, deterministic = timed_detect(detector, capture, repeats)
        checks_ok = checks_ok and deterministic and len(events) > 0
        share = None if block is not None else screened_share(detector, quiet)
        if args.smoke:
            checks_ok = checks_ok and share in (None, 1.0)
        label = f"{detector_name:9s} block={block or '-':>5}"
        rows.append(
            {
                "detector": detector_name,
                "block": block,
                "seconds": seconds,
                "samples_per_sec": len(capture) / seconds,
                "n_events": len(events),
                "deterministic": deterministic,
                "screened_share": share,
            }
        )
        print(
            f"{label}: {seconds:6.3f} s  ({len(events)} events, "
            f"deterministic={deterministic}, noise screened share={share})"
        )

    # The blocked six-technology bank's plan: the engine shares one
    # forward FFT across every technology and block.
    bank_templates = make_gateway(modems, "bank", BLOCK).detector.templates
    max_len = max(len(t) for t in bank_templates.values())
    sub_lens = [
        min(len(t) - b * BLOCK, BLOCK)
        for t in bank_templates.values()
        for b in range(-(-len(t) // BLOCK))
    ]
    n_entries = len(sub_lens)
    plan = spectrum_plan(
        len(capture), max(sub_lens), n_entries, min(sub_lens)
    )
    print(
        f"bank/blocked: {n_entries} sub-templates, max template {max_len}, "
        f"nfft={plan.nfft}, {plan.n_segments} segments"
    )

    # Streaming pass: chunked StreamingGateway next to its monolithic twin.
    chunk = max(len(capture) // 5, max_len + 1)
    probe = make_gateway(modems, "bank", BLOCK)
    threshold = probe.detector.calibrate(noise)
    mono = make_gateway(modems, "bank", BLOCK, threshold).process(capture).events
    stream = StreamingGateway(make_gateway(modems, "bank", BLOCK, threshold))
    streamed = stream.process_stream(iter_chunks(capture, chunk)).events
    mono_vs_stream = event_keys(mono) == event_keys(streamed)
    print(
        f"streaming (chunk={chunk}): {len(streamed)} events, "
        f"mono==stream (informational): {mono_vs_stream}"
    )

    payload = {
        "bench": "detection",
        "schema": 3,
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "n_samples": len(capture),
        "repeats": repeats,
        "technologies": list(TECHNOLOGIES),
        "block": BLOCK,
        "configs": rows,
        "plan": {
            "nfft": plan.nfft,
            "hop": plan.hop,
            "n_segments": plan.n_segments,
            "n_sub_templates": n_entries,
        },
        "streaming": {
            "detector": "bank",
            "block": BLOCK,
            "chunk": chunk,
            "n_events": len(streamed),
            "mono_vs_stream_informational": mono_vs_stream,
        },
        "checks_ok": checks_ok,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not checks_ok:
        print(
            "ERROR: a configuration detected nothing or was not deterministic "
            "(or, with --smoke, did not screen the noise-only capture)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
