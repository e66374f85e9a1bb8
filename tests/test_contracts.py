"""Runtime signal-contract layer: mode semantics and pipeline regression.

Covers the three sanitize modes (off/warn/raise), the decorator
mechanics (positional/keyword lookup, result checking, bad
configuration), the normalization helpers, the deprecated ``fs``
aliases, and the end-to-end regression the layer exists for: a NaN
poisoned capture is rejected at the boundary it *enters* the gateway,
not three stages later.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.contracts import (
    ContractWarning,
    SanitizeMode,
    contract_kind,
    ensure_iq,
    ensure_real,
    get_sanitize_mode,
    iq_contract,
    real_contract,
    sanitize,
    set_sanitize_mode,
)
from repro.errors import ConfigurationError, ContractViolationError
from repro.gateway import GalioTGateway


@pytest.fixture(autouse=True)
def _restore_mode():
    previous = get_sanitize_mode()
    yield
    set_sanitize_mode(previous)


@iq_contract("iq")
def _passthrough(iq: np.ndarray) -> np.ndarray:
    return iq


@real_contract("track")
def _track_sum(track: np.ndarray) -> float:
    return float(np.sum(track))


GOOD_IQ = np.zeros(64, dtype=np.complex128)
GOOD_REAL = np.zeros(64, dtype=np.float64)


class TestModes:
    def test_off_mode_checks_nothing(self):
        set_sanitize_mode("off")
        bad = np.full(8, np.nan)  # wrong dtype AND non-finite
        assert _passthrough(bad) is bad

    def test_warn_mode_warns_and_continues(self):
        set_sanitize_mode("warn")
        with pytest.warns(ContractWarning, match="complex dtype"):
            out = _passthrough(np.zeros(8, dtype=np.float64))
        assert out.dtype == np.float64

    def test_raise_mode_raises_at_boundary(self):
        set_sanitize_mode("raise")
        with pytest.raises(ContractViolationError, match="_passthrough"):
            _passthrough(np.zeros(8, dtype=np.float64))

    def test_set_mode_returns_previous_and_accepts_enum(self):
        previous = set_sanitize_mode(SanitizeMode.RAISE)
        assert set_sanitize_mode(previous) is SanitizeMode.RAISE
        assert get_sanitize_mode() is previous

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid sanitize mode"):
            set_sanitize_mode("loud")

    def test_sanitize_context_restores_on_error(self):
        set_sanitize_mode("off")
        with pytest.raises(RuntimeError):
            with sanitize("raise"):
                assert get_sanitize_mode() is SanitizeMode.RAISE
                raise RuntimeError("boom")
        assert get_sanitize_mode() is SanitizeMode.OFF


class TestViolations:
    @pytest.mark.parametrize(
        "value, match",
        [
            ([1.0, 2.0], "ndarray"),
            (np.zeros((4, 4), dtype=np.complex128), "ndim"),
            (np.zeros(8, dtype=np.float64), "complex dtype"),
            (np.array([1 + 1j, np.nan + 0j]), "NaN or Inf"),
            (np.array([1 + 1j, np.inf + 0j]), "NaN or Inf"),
        ],
    )
    def test_iq_contract_rejects(self, value, match):
        with sanitize("raise"), pytest.raises(ContractViolationError, match=match):
            _passthrough(value)

    def test_iq_contract_accepts_canonical(self):
        with sanitize("raise"):
            assert _passthrough(GOOD_IQ) is GOOD_IQ
            assert _passthrough(iq=GOOD_IQ) is GOOD_IQ

    def test_real_contract_rejects_complex_accepts_ints(self):
        with sanitize("raise"):
            assert _track_sum(GOOD_REAL) == 0.0
            assert _track_sum(np.zeros(4, dtype=np.int64)) == 0.0
            with pytest.raises(ContractViolationError, match="real dtype"):
                _track_sum(GOOD_IQ)

    def test_check_result_validates_output(self):
        @iq_contract("iq", check_result=True)
        def corrupt(iq: np.ndarray) -> np.ndarray:
            return np.full(4, np.nan + 0j)

        with sanitize("raise"), pytest.raises(
            ContractViolationError, match="result"
        ):
            corrupt(GOOD_IQ)

    def test_empty_buffer_passes_finiteness(self):
        with sanitize("raise"):
            out = _passthrough(np.zeros(0, dtype=np.complex128))
            assert len(out) == 0

    def test_missing_parameter_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            iq_contract("nope")(lambda iq: iq)

    def test_contract_kind_introspection(self):
        assert contract_kind(_passthrough) == "iq"
        assert contract_kind(_track_sum) == "real"
        assert contract_kind(len) is None


class TestNormalizers:
    def test_ensure_iq_coerces_and_is_noop_when_canonical(self):
        out = ensure_iq([1.0, 2.0])
        assert out.dtype == np.complex128
        assert ensure_iq(GOOD_IQ) is GOOD_IQ

    def test_ensure_real_coerces_and_is_noop_when_canonical(self):
        out = ensure_real([1, 2])
        assert out.dtype == np.float64
        assert ensure_real(GOOD_REAL) is GOOD_REAL


class TestModemNormalization:
    def test_demodulate_accepts_complex64_recordings(self, zwave):
        payload = b"dtype-ok"
        frame = zwave.demodulate(zwave.modulate(payload).astype(np.complex64))
        assert frame.crc_ok and frame.payload == payload


class TestGatewayRegression:
    @pytest.fixture()
    def gateway(self, zwave):
        return GalioTGateway([zwave], 1e6, detector="energy", use_edge=False)

    def test_nan_injection_rejected_at_gateway_boundary(self, gateway, rng):
        capture = (
            rng.normal(size=30_000) + 1j * rng.normal(size=30_000)
        ).astype(np.complex128)
        capture[15_000] = np.nan + 0j
        with sanitize("raise"), pytest.raises(
            ContractViolationError, match="capture"
        ):
            gateway.process(capture)

    def test_real_capture_rejected_not_silently_halved(self, gateway, rng):
        with sanitize("raise"), pytest.raises(
            ContractViolationError, match="complex dtype"
        ):
            gateway.process(rng.normal(size=10_000))

    def test_off_mode_processes_poisoned_capture(self, gateway, rng):
        set_sanitize_mode("off")
        capture = (
            rng.normal(size=30_000) + 1j * rng.normal(size=30_000)
        ).astype(np.complex128)
        capture[15_000] = np.nan + 0j
        report = gateway.process(capture)  # legacy behaviour: no check
        assert report.raw_bits > 0

    def test_detection_boundary_guard(self, gateway):
        with sanitize("raise"), pytest.raises(ContractViolationError):
            gateway.detector.detect(np.array([np.nan + 0j] * 1024))
