"""Tests for I/Q capture file I/O (cfile / rtl_sdr u8 / SigMF sidecar)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.io import (
    CaptureMeta,
    load_scene,
    read_cfile,
    read_meta,
    read_rtl_u8,
    save_scene,
    write_cfile,
    write_meta,
    write_rtl_u8,
)
from repro.net.scene import SceneBuilder

FS = 1e6


class TestCfile:
    def test_roundtrip(self, tmp_path, rng):
        x = rng.normal(size=1000) + 1j * rng.normal(size=1000)
        path = tmp_path / "capture.cfile"
        write_cfile(path, x)
        y = read_cfile(path)
        assert y.dtype == np.complex128
        assert np.allclose(x, y, atol=1e-6)  # complex64 precision

    def test_file_size_is_8_bytes_per_sample(self, tmp_path):
        path = tmp_path / "size.cfile"
        write_cfile(path, np.zeros(100, complex))
        assert path.stat().st_size == 800


class TestRtlU8:
    def test_roundtrip_within_quantization(self, tmp_path, rng):
        x = 0.8 * (rng.normal(size=500) + 1j * rng.normal(size=500))
        x = np.clip(x.real, -1, 1) + 1j * np.clip(x.imag, -1, 1)
        assert np.max(np.abs(np.concatenate([x.real, x.imag]))) == 1.0  # peak full scale
        path = tmp_path / "capture.u8iq"
        write_rtl_u8(path, x)
        y = read_rtl_u8(path)
        assert np.max(np.abs(y - x)) < 1 / 127

    def test_odd_byte_file_tolerated(self, tmp_path):
        path = tmp_path / "odd.u8iq"
        path.write_bytes(bytes([128, 128, 128]))
        y = read_rtl_u8(path)
        assert len(y) == 1

    def test_decode_survives_u8_format(self, tmp_path, xbee, rng):
        payload = b"rtl-sdr-file"
        wave = np.concatenate(
            [np.zeros(300, complex), xbee.modulate(payload), np.zeros(300, complex)]
        )
        path = tmp_path / "xbee.u8iq"
        write_rtl_u8(path, wave)
        frame = xbee.demodulate(read_rtl_u8(path))
        assert frame.crc_ok and frame.payload == payload


class TestMeta:
    def test_sigmf_roundtrip(self, tmp_path):
        meta = CaptureMeta(
            sample_rate=FS,
            carrier_hz=868.1e6,
            description="unit test",
            annotations=[{"core:label": "lora", "core:sample_start": 5}],
        )
        path = tmp_path / "m.sigmf-meta"
        write_meta(path, meta)
        out = read_meta(path)
        assert out.sample_rate == FS
        assert out.carrier_hz == 868.1e6
        assert out.annotations[0]["core:label"] == "lora"

    def test_sigmf_structure(self, tmp_path):
        import json

        meta = CaptureMeta(sample_rate=FS)
        path = tmp_path / "m.sigmf-meta"
        write_meta(path, meta)
        doc = json.loads(path.read_text())
        assert "global" in doc and "captures" in doc and "annotations" in doc
        assert doc["global"]["core:datatype"] == "cf32_le"


class TestSceneRoundtrip:
    def test_save_load_scene(self, tmp_path, xbee, rng):
        builder = SceneBuilder(FS, 0.05)
        builder.add_packet(xbee, b"disk-bound", 3000, 12, rng)
        capture, truth = builder.render(rng)
        data_path, meta_path = save_scene(tmp_path / "scene", capture, truth)
        assert data_path.exists() and meta_path.exists()
        samples, loaded = load_scene(tmp_path / "scene")
        assert len(samples) == truth.n_samples
        assert len(loaded.packets) == 1
        p = loaded.packets[0]
        assert p.technology == "xbee"
        assert p.payload == b"disk-bound"
        assert p.start == 3000

    def test_loaded_scene_still_decodes(self, tmp_path, zwave, rng):
        builder = SceneBuilder(FS, 0.08)
        builder.add_packet(zwave, b"persisted", 4000, 14, rng)
        capture, truth = builder.render(rng)
        save_scene(tmp_path / "z", capture, truth)
        samples, loaded = load_scene(tmp_path / "z")
        frame = zwave.demodulate(samples)
        assert frame.crc_ok and frame.payload == b"persisted"

    def test_missing_pair_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_scene(tmp_path / "nonexistent")
