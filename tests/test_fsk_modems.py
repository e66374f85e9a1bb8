"""XBee / Z-Wave / BLE modem specifics beyond the shared contract."""

import numpy as np
import pytest

from repro.dsp.impairments import apply_cfo
from repro.errors import ChecksumError, ConfigurationError
from repro.phy.fsk import track_margin
from repro.phy.xbee import XBeeModem
from repro.phy.xbee import modem as xbee_modem
from repro.phy.zwave import ZWaveModem
from repro.phy.zwave import modem as zwave_modem


def _padded(iq, n=300):
    z = np.zeros(n, complex)
    return np.concatenate([z, iq, z])


class TestXBee:
    def test_native_rate_is_one_megahertz(self, xbee):
        assert xbee.sample_rate == pytest.approx(1e6)

    def test_carson_bandwidth(self, xbee):
        # 2 * (25 kHz deviation + 12.5 kHz half-rate) = 75 kHz.
        assert xbee.bandwidth == pytest.approx(75e3)

    def test_whitening_applied_on_air(self, xbee):
        # An all-zero payload must NOT produce a constant-frequency
        # on-air PSDU (whitening breaks the run).
        wave = xbee.modulate(bytes(16))
        from repro.dsp.fm import instantaneous_frequency

        psdu_region = wave[(48 + 8) * xbee.sps :]
        freq = instantaneous_frequency(psdu_region, xbee.sample_rate)
        assert freq.std() > 5e3

    @pytest.mark.parametrize("cfo_hz", [-4000.0, 2000.0, 5000.0])
    def test_cfo_tolerated(self, xbee, cfo_hz):
        payload = b"cfo"
        wave = apply_cfo(xbee.modulate(payload), cfo_hz, xbee.sample_rate)
        frame = xbee.demodulate(_padded(wave))
        assert frame.crc_ok and frame.payload == payload
        assert frame.extra["cfo_hz"] == pytest.approx(cfo_hz, abs=1500)

    def test_phr_length_validated(self, xbee, rng):
        # Noise decoding to an implausible PHR must raise, not return junk.
        wave = xbee.modulate(b"ok")
        # corrupt the PHR region hard
        bad = wave.copy()
        phr_at = (48) * xbee.sps
        bad[phr_at : phr_at + 8 * xbee.sps] = np.exp(
            2j * np.pi * 25e3 * np.arange(8 * xbee.sps) / xbee.sample_rate
        )
        try:
            frame = xbee.demodulate(_padded(bad))
            assert not frame.crc_ok
        except ChecksumError:
            pass

    def test_custom_rate_config(self):
        modem = XBeeModem(bit_rate=40e3, sps=25, deviation_hz=20e3)
        assert modem.sample_rate == pytest.approx(1e6)
        payload = b"reconfigured"
        frame = modem.demodulate(_padded(modem.modulate(payload)))
        assert frame.crc_ok and frame.payload == payload


class TestZWave:
    def test_native_rate(self, zwave):
        # G.9959 R2: 40 kb/s NRZ at ±20 kHz, 25 samples per bit.
        assert zwave.bit_rate == pytest.approx(40e3)
        assert zwave.sample_rate == pytest.approx(1e6)
        assert zwave.bandwidth == pytest.approx(2 * (20e3 + 20e3))

    def test_custom_rate_config(self):
        modem = ZWaveModem(bit_rate=50e3, sps=20)
        assert modem.bit_rate == pytest.approx(50e3)
        assert modem.sample_rate == pytest.approx(1e6)

    def test_frame_carries_home_id(self, zwave):
        frame = zwave.demodulate(_padded(zwave.modulate(b"cmd")))
        assert frame.extra["home_id"] == b"\xde\xad\xbe\xef"

    def test_configurable_home_id(self):
        modem = ZWaveModem(home_id=b"\x11\x22\x33\x44")
        frame = modem.demodulate(_padded(modem.modulate(b"x")))
        assert frame.extra["home_id"] == b"\x11\x22\x33\x44"

    def test_invalid_home_id_rejected(self):
        with pytest.raises(ConfigurationError):
            ZWaveModem(home_id=b"\x11")

    def test_length_field_covers_mpdu(self, zwave):
        payload = b"12345"
        frame = zwave.demodulate(_padded(zwave.modulate(payload)))
        assert frame.extra["length"] == 10 + len(payload)

    def test_long_preamble_config(self):
        modem = ZWaveModem(preamble_bytes=24)
        payload = b"wakeup-beam"
        frame = modem.demodulate(_padded(modem.modulate(payload)))
        assert frame.crc_ok and frame.payload == payload

    def test_checksum_catches_payload_flip(self, zwave):
        wave = zwave.modulate(b"AAAA")
        # Invert a bit region inside the payload.
        mid = int(len(wave) * 0.9)
        bad = wave.copy()
        bad[mid : mid + zwave.sps * 8] = np.conj(bad[mid : mid + zwave.sps * 8])
        try:
            frame = zwave.demodulate(_padded(bad))
            assert not (frame.crc_ok and frame.payload == b"AAAA")
        except ChecksumError:
            pass

    def test_cfo_tolerated(self, zwave):
        payload = b"zw"
        wave = apply_cfo(zwave.modulate(payload), 3000.0, zwave.sample_rate)
        frame = zwave.demodulate(_padded(wave))
        assert frame.crc_ok and frame.payload == payload


@pytest.mark.parametrize(
    "module,make",
    [(xbee_modem, XBeeModem), (zwave_modem, ZWaveModem)],
    ids=["xbee", "zwave"],
)
def test_tracks_cover_only_the_frame(module, make, monkeypatch):
    # A 16-byte frame in a buffer longer than a max-payload frame: the
    # header and frame tracks each stop a margin past what they read.
    modem = make()
    payload = bytes(range(16))
    wave = apply_cfo(modem.modulate(payload), 1500.0, modem.sample_rate)
    buf = np.zeros(80_000, complex)
    buf[3_000 : 3_000 + len(wave)] = wave
    lengths = []
    track = module.fsk_frequency_track

    def recording(iq, *args, **kwargs):
        lengths.append(len(iq))
        return track(iq, *args, **kwargs)

    monkeypatch.setattr(module, "fsk_frequency_track", recording)
    frame = modem.demodulate(buf)
    assert frame.crc_ok and frame.payload == payload
    assert len(lengths) == 2
    assert lengths[0] < lengths[1] <= len(wave) + track_margin(modem.sps)


class TestBle:
    def test_native_rate(self, ble):
        assert ble.sample_rate == pytest.approx(4e6)

    def test_lsb_first_access_address(self, ble):
        # Two different payloads share the same preamble+AA prefix.
        a = ble.modulate(b"one")
        b = ble.modulate(b"two!")
        prefix = len(ble.sync_waveform())
        assert np.allclose(a[:prefix], b[:prefix])

    def test_adv_payload_limit(self, ble):
        assert ble.max_payload == 37
        with pytest.raises(ConfigurationError):
            ble.modulate(bytes(38))

    def test_crc24_catches_corruption(self, ble):
        wave = ble.modulate(b"advertising")
        bad = wave.copy()
        bad[-40:] = 0
        try:
            frame = ble.demodulate(_padded(bad))
            assert not frame.crc_ok
        except ChecksumError:
            pass

    def test_pdu_type_reported(self, ble):
        frame = ble.demodulate(_padded(ble.modulate(b"hdr")))
        assert frame.extra["pdu_type"] == 0x02
