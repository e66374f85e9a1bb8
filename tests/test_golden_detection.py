"""Golden detection fixture: gateway detection events at a fixed seed.

The gateway's correlation detectors (the per-technology preamble bank
and the universal preamble, each coherent and blocked) are pinned here
against ``tests/fixtures/golden_detection.json``. One fixed-seed scene
with a LoRa, an XBee and a Z-Wave frame is rendered; each detector
configuration calibrates its threshold on a separate noise capture and
detects over the scene. Every event's ``(index, detector, technology)``
must match exactly and its score to a relative 1e-9. The same rows pin
the gateway's receive path: ``GalioTGateway.process`` (a one-chunk
stream) and the scene chunked through
:class:`~repro.gateway.streaming.StreamingGateway`, with a chunk boundary
bisecting the LoRa preamble, must give them too.

A change to the correlation engine or the detectors that moves an event
fails here. Regenerate the fixture only for an intended change of
detection output::

    PYTHONPATH=src python tests/test_golden_detection.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.gateway import GalioTGateway, StreamingGateway, iter_chunks
from repro.net.scene import SceneBuilder
from repro.phy import create_modem

FIXTURE = Path(__file__).parent / "fixtures" / "golden_detection.json"
FS = 1e6
SEED = 11
DURATION_S = 0.3
#: (technology, frame start) of each scene packet, at 12 dB capture SNR.
PACKETS = (("lora", 40_000), ("xbee", 120_000), ("zwave", 210_000))
#: name -> (detector, coherent block length; ``None`` is fully coherent).
CONFIGS = {
    "bank-coherent": ("bank", None),
    "bank-blocked": ("bank", 1024),
    "universal-coherent": ("universal", None),
    "universal-blocked": ("universal", 700),
}
SCORE_RTOL = 1e-9
#: Streamed chunk size: the first boundary (45_000) falls inside the
#: 8192-sample LoRa preamble that starts at 40_000, so its
#: symbol-spaced correlation sidelobes straddle a chunk join.
STREAM_CHUNK = 45_000


def _modems():
    return [create_modem(name) for name, _ in PACKETS]


def _scene(modems) -> tuple[np.ndarray, np.ndarray]:
    """The scene capture and a noise-only capture at its noise floor."""
    rng = np.random.default_rng(SEED)
    builder = SceneBuilder(FS, DURATION_S)
    for i, (modem, (_, start)) in enumerate(zip(modems, PACKETS, strict=True)):
        builder.add_packet(
            modem, f"golden-{i}".encode(), start, 12, rng, snr_mode="capture"
        )
    capture, truth = builder.render(rng)
    noise = (rng.normal(size=80_000) + 1j * rng.normal(size=80_000)) / np.sqrt(2)
    return capture, noise * np.sqrt(truth.noise_power)


def _gateway(config: str) -> tuple[GalioTGateway, np.ndarray]:
    """The configured gateway, its threshold calibrated, and the scene."""
    detector, block = CONFIGS[config]
    kwargs = {} if block is None else {"block": block}
    modems = _modems()
    capture, noise = _scene(modems)
    probe = GalioTGateway(modems, FS, detector=detector, use_edge=False, **kwargs)
    threshold = probe.detector.calibrate(noise)
    gateway = GalioTGateway(
        modems,
        FS,
        detector=detector,
        use_edge=False,
        threshold=threshold,
        **kwargs,
    )
    return gateway, capture


def _rows(events) -> list[list]:
    return [[e.index, e.detector, e.technology, e.score] for e in events]


def detect(config: str) -> list[list]:
    """``[index, detector, technology, score]`` of every event the
    detector finds over the whole scene."""
    gateway, capture = _gateway(config)
    return _rows(gateway.detector.detect(capture))


@pytest.fixture(scope="module")
def golden() -> dict[str, list[list]]:
    rows = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
    out: dict[str, list[list]] = {name: [] for name in CONFIGS}
    for row in rows:
        out[row[0]].append(row[1:])
    return out


def _check(got: list[list], expected: list[list]) -> None:
    # Every packet fires at least once.
    assert len(expected) >= len(PACKETS)
    assert [row[:3] for row in got] == [row[:3] for row in expected]
    np.testing.assert_allclose(
        [row[3] for row in got], [row[3] for row in expected], rtol=SCORE_RTOL
    )


@pytest.mark.parametrize("config", list(CONFIGS))
def test_events_match_golden_fixture(golden, config):
    _check(detect(config), golden[config])


@pytest.mark.parametrize("config", list(CONFIGS))
def test_processed_events_match_golden_fixture(golden, config):
    gateway, capture = _gateway(config)
    _check(_rows(gateway.process(capture).events), golden[config])


@pytest.mark.parametrize("config", list(CONFIGS))
def test_streamed_events_match_golden_fixture(golden, config):
    gateway, capture = _gateway(config)
    stream = StreamingGateway(gateway)
    events = stream.process_stream(iter_chunks(capture, STREAM_CHUNK)).events
    _check(_rows(events), golden[config])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [
        json.dumps([config, *event])
        for config in CONFIGS
        for event in detect(config)
    ]
    FIXTURE.write_text("\n".join(lines) + "\n")
    print(f"wrote {FIXTURE}")
