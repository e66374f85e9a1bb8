"""The modem contract: properties every PHY implementation must satisfy.

Parametrized over all six technologies; each test is a behaviour the
gateway or cloud relies on (preamble-prefix structure, unit power,
checksum honesty, airtime bookkeeping).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ReproError
from repro.phy import create_modem
from repro.phy.frames import sample_sync

TECHS = ["lora", "xbee", "zwave", "ble", "sigfox", "oqpsk154"]

#: Real alternative profiles of the implemented standards; the contract
#: must hold for every configuration a user can legitimately pick.
PROFILES = {
    "lora-sf9": lambda: create_modem("lora", sf=9, oversample=2),
    "lora-bw250": lambda: create_modem(
        "lora", bw=250e3, oversample=4, cr=2
    ),
}


@pytest.fixture(
    scope="module", params=TECHS + sorted(PROFILES)
)
def modem(request):
    if request.param in PROFILES:
        return PROFILES[request.param]()
    return create_modem(request.param)


def _padded(iq, n=300):
    z = np.zeros(n, complex)
    return np.concatenate([z, iq, z])


class TestModemContract:
    def test_clean_roundtrip(self, modem):
        payload = b"\x01\x02payload!"
        frame = modem.demodulate(_padded(modem.modulate(payload)))
        assert frame.crc_ok
        assert frame.payload == payload

    def test_roundtrip_various_sizes(self, modem):
        for size in (0, 1, 5, 12):
            payload = bytes(range(size))
            frame = modem.demodulate(_padded(modem.modulate(payload)))
            assert frame.crc_ok, size
            assert frame.payload == payload, size

    def test_unit_rms_envelope(self, modem):
        wave = modem.modulate(b"power-check")
        rms = np.sqrt(np.mean(np.abs(wave) ** 2))
        assert rms == pytest.approx(1.0, rel=0.1)

    def test_starts_with_preamble(self, modem):
        # The head of every frame must be the preamble waveform. Pulse
        # shaping (Gaussian ISI, O-QPSK half-sine overlap) leaks the
        # following sync bits into the preamble's tail, so compare the
        # leading 70% where no such leakage can reach.
        wave = modem.modulate(b"prefix")
        preamble = modem.preamble_waveform()
        assert len(preamble) < len(wave)
        # atol absorbs the per-frame RMS normalization (the preamble
        # alone normalizes slightly differently than a full frame).
        head = int(0.7 * len(preamble))
        assert np.allclose(wave[:head], preamble[:head], atol=2e-2)

    def test_sync_position_reported(self, modem):
        pad = 300
        frame = modem.demodulate(_padded(modem.modulate(b"where"), pad))
        assert abs(frame.start - pad) <= 2

    def test_oversize_payload_rejected(self, modem):
        with pytest.raises(ConfigurationError):
            modem.modulate(bytes(modem.max_payload + 1))

    def test_pure_noise_does_not_decode(self, modem):
        rng = np.random.default_rng(7)
        n = len(modem.modulate(b"x" * 8)) + 600
        noise = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
        try:
            frame = modem.demodulate(noise)
        except ReproError:
            return  # sync refused: fine
        assert not frame.crc_ok

    def test_airtime_matches_waveform(self, modem):
        for size in (4, min(16, modem.max_payload)):
            wave = modem.modulate(bytes(size))
            assert modem.frame_airtime(size) == pytest.approx(
                len(wave) / modem.sample_rate
            )

    def test_bandwidth_is_sane(self, modem):
        # The emitted signal must fit its declared bandwidth: 97 % of its
        # energy within 1.6x, allowing shaping skirts. Not 99 %: SigFox's
        # D-BPSK needs 1.81x its declared bandwidth for 99 % (1.07x for
        # 97 %), while the other five modems fit within 1.0x at either.
        from repro.dsp.measure import occupied_bandwidth

        wave = modem.modulate(b"\xa5" * 10)
        obw = occupied_bandwidth(wave, modem.sample_rate, fraction=0.97)
        assert obw <= 1.6 * modem.bandwidth

    def test_bit_rate_positive_and_consistent(self, modem):
        assert modem.bit_rate > 0
        # Payload bits / airtime can't exceed the raw bit rate.
        payload = min(16, modem.max_payload)
        goodput = 8 * payload / modem.frame_airtime(payload)
        assert goodput < modem.bit_rate * 1.01

    def test_phase_rotation_tolerated(self, modem):
        payload = b"rotated"
        wave = _padded(modem.modulate(payload)) * np.exp(1j * 2.3)
        frame = modem.demodulate(wave)
        assert frame.crc_ok and frame.payload == payload

    def test_amplitude_scaling_tolerated(self, modem):
        payload = b"scaled"
        for scale in (0.05, 20.0):
            frame = modem.demodulate(_padded(modem.modulate(payload)) * scale)
            assert frame.crc_ok and frame.payload == payload, scale

    def test_corrupted_payload_fails_crc(self, modem):
        payload = (b"integrity" * 2)[: modem.max_payload]
        wave = modem.modulate(payload)
        # Zero out a chunk in the second half (payload region).
        bad = wave.copy()
        mid = int(len(bad) * 0.8)
        bad[mid : mid + len(bad) // 10] = 0
        try:
            frame = modem.demodulate(_padded(bad))
        except ReproError:
            return
        assert not (frame.crc_ok and frame.payload == payload)


class TestSyncThreshold:
    """A sync threshold is a normalized correlation in [0, 1]: NaN or a
    negative one would sync onto noise, one above 1 never syncs."""

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, -0.1, 1.1])
    @pytest.mark.parametrize("tech", TECHS)
    def test_outside_the_unit_interval_rejected(self, tech, threshold):
        with pytest.raises(ConfigurationError):
            create_modem(tech, sync_threshold=threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_the_interval_is_closed(self, threshold):
        for tech in TECHS:
            create_modem(tech, sync_threshold=threshold)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, -0.1, 1.1])
    @pytest.mark.parametrize("block", [None, 50])
    def test_sample_sync_rejects_it_too(self, rng, threshold, block):
        # Pure noise: a NaN or negative threshold used to return its
        # argmax as a sync.
        noise = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        reference = rng.normal(size=400) + 1j * rng.normal(size=400)
        with pytest.raises(ConfigurationError):
            sample_sync(noise, reference, threshold, block=block)

    @pytest.mark.parametrize("stride", [0, -1, 2.5, np.nan, None])
    def test_sample_sync_stride_is_a_count(self, rng, stride):
        noise = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        reference = rng.normal(size=400) + 1j * rng.normal(size=400)
        with pytest.raises(ConfigurationError):
            sample_sync(noise, reference, 0.5, block=50, stride=stride)

    @pytest.mark.parametrize("block", [None, 7, 50])
    def test_sample_sync_stride_searches_the_strided_signal(self, rng, block):
        # Eight samples per symbol, like an oversampled preamble.
        reference = np.repeat(rng.normal(size=50) + 1j * rng.normal(size=50), 8)
        x = 0.3 * (rng.normal(size=5000) + 1j * rng.normal(size=5000))
        x[1203 : 1203 + 400] += reference
        strided_block = None if block is None else max(block // 4, 4)
        start, score = sample_sync(x[::4], reference[::4], 0.3, block=strided_block)
        assert sample_sync(x, reference, 0.3, block=block, stride=4) == (
            4 * start,
            score,
        )
        assert abs(4 * start - 1203) <= 4
