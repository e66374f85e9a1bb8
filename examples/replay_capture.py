#!/usr/bin/env python3
"""Capture interchange: write a scene to disk, reload it, decode it.

GalioT's cloud decodes I/Q files, so interoperating with standard SDR
tooling matters. This example renders a collision scene, persists it as
a GNU Radio ``.cfile`` plus a SigMF-flavoured sidecar (carrying the
ground truth as annotations), reloads the pair as a fresh process would,
and runs the cloud decoder on the samples from disk. It also writes the
same capture in rtl_sdr's offset-uint8 format to show the 8-bit wire
format round-trips too.

Run:  python examples/replay_capture.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.cloud import CloudDecoder
from repro.io import load_scene, read_rtl_u8, save_scene, write_rtl_u8
from repro.net import packet_scene
from repro.phy import create_modem

FS = 1e6


def main() -> None:
    rng = np.random.default_rng(21)
    modems = [create_modem(n) for n in ("lora", "xbee", "zwave")]

    capture, truth = packet_scene(
        [modems[0], modems[1]], [12.0, 12.0], FS, rng, payload_len=10
    )
    print(f"rendered a LoRa+XBee collision: {len(truth.packets)} packets, "
          f"{truth.duration * 1e3:.0f} ms\n")

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "collision_868MHz"
        data_path, meta_path = save_scene(
            base, capture, truth, description="example collision capture"
        )
        print(f"wrote {data_path.name} "
              f"({data_path.stat().st_size / 1e6:.1f} MB) + {meta_path.name}")

        # ... a different process, later:
        samples, loaded = load_scene(base)
        print(f"reloaded: {len(samples)} samples, "
              f"{len(loaded.packets)} annotated packets")
        for p in loaded.packets:
            print(f"  truth: {p.technology:6s} start={p.start} "
                  f"payload={p.payload.hex()}")

        decoder = CloudDecoder(modems, loaded.sample_rate)
        report = decoder.decode(samples)
        got = {(r.technology, r.payload) for r in report.results}
        want = {(p.technology, p.payload) for p in loaded.packets}
        print(f"\ndecoded from disk: {len(got & want)}/{len(want)} "
              f"({[r.method for r in report.results]})")

        # rtl_sdr wire format (8-bit offset) round-trip:
        u8_path = Path(tmp) / "collision.u8iq"
        write_rtl_u8(u8_path, capture)
        eight_bit = read_rtl_u8(u8_path)
        report8 = decoder.decode(eight_bit)
        got8 = {(r.technology, r.payload) for r in report8.results}
        print(f"decoded from 8-bit rtl_sdr format: {len(got8 & want)}/{len(want)}")


if __name__ == "__main__":
    main()
