"""Golden decode fixture: the cloud's collision output at a fixed seed.

Decode output is the contract of the cloud path (classify, kill filters,
SIC, per-modem sync and demodulation). This test renders one fixed-seed
scene with two collision slots and pins what
:meth:`~repro.cloud.CloudService.process_segment` returns for each slot,
as ``(technology, payload hex, method, start)`` tuples, against
``tests/fixtures/golden_decode_collisions.json``:

* an equal-power 10 dB LoRa + Z-Wave pair, same start, no carrier
  offset: the Z-Wave frame fails on its own and decodes only once
  ``kill-css`` has removed the LoRa chirps;
* a 3-deep LoRa + XBee + Z-Wave slot resolved by multi-iteration SIC.

A change to the correlation engine, the kill filters or SIC that moves
any decoded byte, method or frame start fails here. Regenerate the
fixture only for an intended change of decode output::

    PYTHONPATH=src python tests/test_golden_decode.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.cloud import CloudService
from repro.net.scene import NOISE_POWER, SceneBuilder
from repro.phy import create_modem
from repro.types import Segment

FIXTURE = Path(__file__).parent / "fixtures" / "golden_decode_collisions.json"
FS = 1e6
SEED = 1
PAYLOAD_LEN = 16
#: One slot is (technology, capture SNR dB, offset from the slot start,
#: CFO Hz), in transmission order.
SLOTS = (
    (("lora", 10, 0, 0.0), ("zwave", 10, 0, 0.0)),
    (
        ("lora", 8, 0, -800.0),
        ("xbee", 14, 20_000, 1200.0),
        ("zwave", 14, 45_000, -600.0),
    ),
)
SLOT_STARTS = (40_000, 400_000)
#: Segment margins around a slot's frames: the extractor's pre-trigger
#: margin before, and enough trailing noise that classify sees the same
#: picture it does on a shipped segment (with short margins the Z-Wave
#: frame of slot 0 decodes by plain SIC and kill-css never runs).
PRE, POST = 20_532, 100_000
DURATION_S = 0.8


def scene_segments() -> tuple[list, list[Segment]]:
    """Render the scene: its modems and one segment per slot."""
    modems = {name: create_modem(name) for name in ("lora", "xbee", "zwave")}
    rng = np.random.default_rng(SEED)
    scene = SceneBuilder(FS, DURATION_S, NOISE_POWER)
    for index, (slot, base) in enumerate(zip(SLOTS, SLOT_STARTS, strict=True)):
        # Carrier phases are fixed per slot, independent of the seed.
        phase_rng = np.random.default_rng(10_000 + index)
        for tech, snr_db, offset, cfo_hz in slot:
            payload = rng.integers(0, 256, PAYLOAD_LEN, dtype=np.uint8).tobytes()
            scene.add_packet(
                modems[tech],
                payload,
                base + offset,
                snr_db,
                phase_rng,
                snr_mode="capture",
                cfo_hz=cfo_hz,
            )
    capture, _ = scene.render(rng)
    segments = []
    for slot, base in zip(SLOTS, SLOT_STARTS, strict=True):
        end = base + max(
            offset + modems[tech].frame_samples(PAYLOAD_LEN)
            for tech, _, offset, _ in slot
        )
        lo, hi = base - PRE, end + POST
        segments.append(
            Segment(start=lo, samples=capture[lo:hi].copy(), sample_rate=FS)
        )
    return list(modems.values()), segments


def decode_scene() -> list[list]:
    """Render the scene and decode each slot's segment in the cloud."""
    modems, segments = scene_segments()
    cloud = CloudService(modems, FS)
    frames: list[list] = []
    for segment in segments:
        frames.extend(
            [
                r.technology,
                r.payload.hex() if r.payload is not None else None,
                r.method,
                r.start,
            ]
            for r in cloud.process_segment(segment)
        )
    return frames


def test_collision_decode_matches_golden_fixture():
    expected = json.loads(FIXTURE.read_text())["frames"]
    got = decode_scene()
    assert got == expected
    # The fixture exercises the kill-filter recovery path and SIC.
    methods = {method for _, _, method, _ in expected}
    assert {"kill-css", "sic"} <= methods


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    FIXTURE.parent.mkdir(exist_ok=True)
    rows = ",\n".join(f"  {json.dumps(frame)}" for frame in decode_scene())
    FIXTURE.write_text(f'{{\n "seed": {SEED},\n "frames": [\n{rows}\n ]\n}}\n')
    print(f"wrote {FIXTURE}")
