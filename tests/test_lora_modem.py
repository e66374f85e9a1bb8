"""LoRa-specific tests: encode chain internals, CFO handling, configs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.impairments import apply_cfo
from repro.errors import ChecksumError, ConfigurationError
from repro.phy.lora import LoRaModem, encoding
from repro.phy.lora import modem as lora_modem


def _padded(iq, n=400):
    z = np.zeros(n, complex)
    return np.concatenate([z, iq, z])


class TestEncodeChain:
    @given(st.binary(max_size=24))
    @settings(max_examples=15, deadline=None)
    def test_symbols_roundtrip_property(self, payload):
        symbols = encoding.encode_to_symbols(payload, sf=7, cr=4)
        out, crc_ok, corrected, bad = encoding.decode_symbols(symbols, 7, 4)
        assert crc_ok
        assert out == payload
        assert corrected == 0 and bad == 0

    @pytest.mark.parametrize("sf,cr", [(7, 1), (7, 4), (9, 3), (12, 2), (5, 4)])
    def test_all_configs_roundtrip(self, sf, cr):
        payload = b"config-test"
        symbols = encoding.encode_to_symbols(payload, sf, cr)
        out, crc_ok, _, _ = encoding.decode_symbols(symbols, sf, cr)
        assert crc_ok and out == payload

    def test_symbol_count_formula(self):
        payload = b"abcdef"
        body_len = encoding.HEADER_BYTES + len(payload) + 2
        symbols = encoding.encode_to_symbols(payload, 7, 4)
        assert len(symbols) == encoding.symbols_for_body(body_len, 7, 4)

    def test_header_decodes_from_first_block(self):
        payload = b"0123456789abcdef"
        symbols = encoding.encode_to_symbols(payload, 7, 4)
        length = encoding.decode_header(symbols[:8], 7, 4)
        assert length == len(payload)

    def test_header_check_catches_corruption(self):
        symbols = encoding.encode_to_symbols(b"x", 7, 4)
        bad = symbols.copy()
        bad[:4] = (bad[:4] + 31) % 128  # clobber several header symbols
        with pytest.raises(ChecksumError):
            encoding.decode_header(bad[:8], 7, 4)

    def test_single_symbol_error_corrected_cr4(self):
        payload = b"fec-works"
        symbols = encoding.encode_to_symbols(payload, 7, 4)
        # An off-by-one bin error in one data symbol (past the header
        # block) is the canonical LoRa error event.
        bad = symbols.copy()
        bad[10] = (bad[10] + 1) % 128
        out, crc_ok, corrected, _ = encoding.decode_symbols(bad, 7, 4)
        assert crc_ok and out == payload
        assert corrected >= 1

    def test_oversize_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            encoding.encode_to_symbols(bytes(256), 7, 4)


class TestLoRaModemConfigs:
    @pytest.mark.parametrize("sf", [5, 7, 9])
    def test_sf_roundtrip(self, sf):
        modem = LoRaModem(sf=sf, oversample=2)
        payload = b"sf-sweep"
        frame = modem.demodulate(_padded(modem.modulate(payload)))
        assert frame.crc_ok and frame.payload == payload

    @pytest.mark.parametrize("cr", [1, 2, 3, 4])
    def test_cr_roundtrip(self, cr):
        modem = LoRaModem(cr=cr, oversample=2)
        payload = b"cr-sweep"
        frame = modem.demodulate(_padded(modem.modulate(payload)))
        assert frame.crc_ok and frame.payload == payload

    def test_bit_rate_formula(self):
        modem = LoRaModem(sf=7, bw=125e3, cr=1)
        # SF7 CR4/5: 7 bits * 976.5625 sym/s * 4/5 = 5468.75 bit/s.
        assert modem.bit_rate == pytest.approx(5468.75)

    def test_longer_preamble_configs(self):
        modem = LoRaModem(preamble_len=32, oversample=2)
        payload = b"beacon"
        frame = modem.demodulate(_padded(modem.modulate(payload)))
        assert frame.crc_ok and frame.payload == payload

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            LoRaModem(sf=13)
        with pytest.raises(ConfigurationError):
            LoRaModem(cr=0)
        with pytest.raises(ConfigurationError):
            LoRaModem(preamble_len=2)

    def test_sync_word_changes_waveform(self):
        a = LoRaModem(sync_word=0x12).sync_waveform()
        b = LoRaModem(sync_word=0x34).sync_waveform()
        assert not np.allclose(a, b)


class TestLoRaCfo:
    @pytest.mark.parametrize("cfo_hz", [-3000.0, -976.0, 500.0, 1740.0, 3000.0])
    def test_decodes_under_cfo(self, cfo_hz):
        modem = LoRaModem()
        payload = b"cfo-robust"
        wave = apply_cfo(modem.modulate(payload), cfo_hz, modem.sample_rate)
        frame = modem.demodulate(_padded(wave))
        assert frame.crc_ok and frame.payload == payload

    def test_cfo_estimate_reported(self):
        # The reported value is the *combined* carrier+timing offset as
        # the dechirp FFT sees it — a CFO also shifts the coarse sync
        # peak in time, which partially cancels in the combined figure.
        # The contract: a finite estimate whose correction lets the
        # frame decode (asserted by test_decodes_under_cfo).
        modem = LoRaModem()
        wave = apply_cfo(modem.modulate(b"x"), 1500.0, modem.sample_rate)
        frame = modem.demodulate(_padded(wave))
        assert np.isfinite(frame.extra["cfo_hz"])
        assert abs(frame.extra["cfo_hz"]) < 3000.0

    def test_zero_cfo_reported_near_zero(self):
        modem = LoRaModem()
        frame = modem.demodulate(_padded(modem.modulate(b"x")))
        assert abs(frame.extra["cfo_hz"]) < 100.0

    def test_derotates_no_more_than_it_reads(self, monkeypatch):
        # A 16-byte frame inside a shipped-segment-sized buffer: every
        # derotation covers at most the frame, not the 255-byte span.
        modem = LoRaModem()
        payload = bytes(range(16))
        wave = apply_cfo(modem.modulate(payload), 1200.0, modem.sample_rate)
        buf = np.zeros(270_000, complex)
        buf[5_000 : 5_000 + len(wave)] = wave
        lengths = []
        derotate = lora_modem._derotate

        def recording(iq, freq_hz, sample_rate_hz):
            lengths.append(len(iq))
            return derotate(iq, freq_hz, sample_rate_hz)

        monkeypatch.setattr(lora_modem, "_derotate", recording)
        frame = modem.demodulate(buf)
        assert frame.crc_ok and frame.payload == payload
        assert lengths and max(lengths) <= len(wave)
