"""Golden decode fixture: every modem's demodulator at a fixed seed.

Each of the six modems (LoRa, XBee, Z-Wave, BLE, SigFox, 802.15.4
O-QPSK) demodulates a few noisy frames at its native rate, each with a
carrier offset, a random carrier phase and a random start offset inside
a longer buffer. The results are pinned against
``tests/fixtures/golden_modems.json``: ``(payload hex, crc_ok, start)``
must match exactly and ``sync_score`` to 1e-9. A demodulator that
raises records the error class in place of the payload.

This covers the modem hot loops the collision fixture
(``test_golden_decode.py``) never reaches: BLE, SigFox and O-QPSK, and
every modem's sync, carrier-offset and bit-slicing path under noise.
Regenerate the fixture only for an intended change of decode output::

    PYTHONPATH=src python tests/test_golden_modems.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dsp.channel import noise_for_band_snr
from repro.dsp.impairments import apply_cfo, apply_phase
from repro.errors import ReproError
from repro.phy import create_modem

FIXTURE = Path(__file__).parent / "fixtures" / "golden_modems.json"
SEED = 2024
PAYLOAD_LEN = 10
#: Per modem: (in-band SNR dB, CFO Hz) of each frame.
FRAMES = {
    "lora": ((4.0, 700.0), (10.0, -1500.0), (0.0, 150.0)),
    "xbee": ((12.0, 2500.0), (8.0, -4000.0), (16.0, 600.0)),
    "zwave": ((12.0, -3000.0), (9.0, 1800.0), (16.0, 400.0)),
    "ble": ((14.0, 20e3), (10.0, -35e3), (18.0, 5e3)),
    "sigfox": ((16.0, 0.3), (20.0, -0.2), (18.0, 0.1)),
    "oqpsk154": ((10.0, 150.0), (6.0, -250.0), (14.0, 60.0)),
}
SCORE_TOL = 1e-9


def decode_frames(name: str) -> list[list]:
    """``[payload hex | None, crc_ok | error class, start, sync_score]``
    of each of ``name``'s frames."""
    modem = create_modem(name)
    fs = modem.sample_rate
    # One stream per modem, so adding a modem leaves the others' draws.
    rng = np.random.default_rng([SEED, list(FRAMES).index(name)])
    rows: list[list] = []
    for snr_db, cfo_hz in FRAMES[name]:
        payload = rng.integers(
            0, 256, min(PAYLOAD_LEN, modem.max_payload), dtype=np.uint8
        ).tobytes()
        wave = modem.modulate(payload)
        lead = int(rng.integers(len(wave) // 8, len(wave) // 2))
        tail = len(wave) // 4
        buf = np.zeros(lead + len(wave) + tail, dtype=np.complex128)
        buf[lead : lead + len(wave)] = apply_phase(
            apply_cfo(wave, cfo_hz, fs), float(rng.uniform(0, 2 * np.pi))
        )
        noise_power = noise_for_band_snr(1.0, snr_db, modem.bandwidth, fs)
        buf += np.sqrt(noise_power / 2) * (
            rng.normal(size=len(buf)) + 1j * rng.normal(size=len(buf))
        )
        try:
            frame = modem.demodulate(buf)
        except ReproError as exc:
            rows.append([None, type(exc).__name__, None, None])
            continue
        rows.append(
            [frame.payload.hex(), frame.crc_ok, frame.start, frame.sync_score]
        )
    return rows


@pytest.fixture(scope="module")
def golden() -> dict[str, list[list]]:
    rows = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
    out: dict[str, list[list]] = {name: [] for name in FRAMES}
    for row in rows:
        out[row[0]].append(row[1:])
    return out


@pytest.mark.parametrize("name", list(FRAMES))
def test_decode_matches_golden_fixture(golden, name):
    expected = golden[name]
    got = decode_frames(name)
    assert len(got) == len(expected) == len(FRAMES[name])
    # Most frames decode: the fixture pins working receivers.
    assert sum(row[1] is True for row in expected) >= 2
    for got_row, want_row in zip(got, expected, strict=True):
        assert got_row[:3] == want_row[:3]
        if want_row[3] is not None:
            assert got_row[3] == pytest.approx(want_row[3], rel=SCORE_TOL)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [
        json.dumps([name, *row]) for name in FRAMES for row in decode_frames(name)
    ]
    FIXTURE.write_text("\n".join(lines) + "\n")
    print(f"wrote {FIXTURE}")
