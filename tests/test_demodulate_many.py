"""Batch demodulation: ``demodulate_many`` and the edge batch pass.

The batch API's contract is per-buffer equivalence with the serial
``demodulate`` walk: same frame for a decodable buffer, ``None`` where
serial raises a :class:`~repro.errors.ReproError`. Pinned across all six
PHY families and through :meth:`EdgeDecoder.try_decode_batch`.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.gateway.edge import EdgeDecoder
from repro.net.scene import SceneBuilder
from repro.net.traffic import collision_scene
from repro.types import Segment

from .conftest import FS, pad


def _serial_walk(modem, buffers):
    results = []
    for buf in buffers:
        try:
            results.append(modem.demodulate(buf))
        except ReproError:
            results.append(None)
    return results


def _keys(frames):
    return [
        None
        if f is None
        else (bytes(f.payload), bool(f.crc_ok), int(f.start))
        for f in frames
    ]


class TestDemodulateMany:
    @pytest.mark.parametrize(
        "name", ["lora", "xbee", "zwave", "ble", "sigfox", "oqpsk154"]
    )
    def test_matches_serial_walk(self, request, name, rng):
        fixture = {"oqpsk154": "oqpsk"}.get(name, name)
        modem = request.getfixturevalue(fixture)
        noise = 0.5 * (
            rng.normal(size=2048) + 1j * rng.normal(size=2048)
        )
        buffers = [
            pad(modem.modulate(b"one"[: modem.max_payload])),
            noise,  # undecodable: serial raises, batch yields None
            pad(modem.modulate(b"two"[: modem.max_payload])),
        ]
        serial = _serial_walk(modem, buffers)
        batch = modem.demodulate_many(buffers)
        assert len(batch) == len(buffers)
        assert serial[1] is None and batch[1] is None
        assert _keys(batch) == _keys(serial)
        assert batch[0].payload == b"one"[: modem.max_payload]

    def test_empty_batch(self, lora):
        assert lora.demodulate_many([]) == []


class TestEdgeBatch:
    def test_batch_matches_serial_on_mixed_scene(self, trio, rng):
        # One clean frame per technology, one collision (ships to the
        # cloud), one pure-noise segment: the batched edge pass must
        # reproduce the serial outcomes segment for segment.
        by = {m.name: m for m in trio}
        segments = []
        for i, name in enumerate(("lora", "xbee", "zwave")):
            builder = SceneBuilder(FS, 0.05)
            builder.add_packet(by[name], f"edge-{name}".encode(), 3000, 15, rng)
            capture, _ = builder.render(rng)
            segments.append(
                Segment(start=i * 100_000, samples=capture, sample_rate=FS)
            )
        collision, _ = collision_scene(
            [by["lora"], by["zwave"]], [12, 12], FS, rng, payload_len=8
        )
        segments.append(
            Segment(start=300_000, samples=collision, sample_rate=FS)
        )
        noise = 0.5 * (
            rng.normal(size=50_000) + 1j * rng.normal(size=50_000)
        )
        segments.append(
            Segment(start=400_000, samples=noise, sample_rate=FS)
        )

        decoder = EdgeDecoder(trio, FS)
        serial = [decoder.try_decode(s) for s in segments]
        batch = decoder.try_decode_batch(segments)
        assert len(batch) == len(serial)
        for got, want in zip(batch, serial):
            assert got.ship_to_cloud == want.ship_to_cloud
            assert [
                (r.technology, r.payload, r.start) for r in got.results
            ] == [(r.technology, r.payload, r.start) for r in want.results]
        # The three solo segments resolved locally with the right payloads.
        for outcome, name in zip(batch[:3], ("lora", "xbee", "zwave")):
            assert not outcome.ship_to_cloud
            assert outcome.results[0].payload == f"edge-{name}".encode()
        assert batch[4].ship_to_cloud  # pure noise has nothing local
