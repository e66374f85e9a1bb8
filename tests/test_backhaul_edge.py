"""Unit tests for the backhaul link model and the edge decoder."""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.gateway.backhaul import BackhaulLink
from repro.gateway.edge import EdgeDecoder
from repro.net.scene import SceneBuilder
from repro.types import DetectionEvent, Segment

FS = 1e6


class TestBackhaul:
    def test_serialization_delay(self):
        link = BackhaulLink(rate_bps=1e6, latency_s=0.01)
        shipment = link.ship(100_000, at_time=0.0)
        assert shipment.arrived_at == pytest.approx(0.11)

    def test_fifo_queueing(self):
        link = BackhaulLink(rate_bps=1e6, latency_s=0.0)
        first = link.ship(1_000_000, at_time=0.0)   # busy until t=1
        second = link.ship(1_000_000, at_time=0.5)  # must wait
        assert first.arrived_at == pytest.approx(1.0)
        assert second.started_at == pytest.approx(1.0)
        assert second.delay == pytest.approx(1.5)

    def test_queue_bound_enforced(self):
        link = BackhaulLink(rate_bps=1e3, latency_s=0.0, max_queue_s=1.0)
        link.ship(10_000, at_time=0.0)  # 10 s of serialization
        with pytest.raises(CapacityError):
            link.ship(1, at_time=0.0)

    def test_utilization(self):
        link = BackhaulLink(rate_bps=1e6)
        link.ship(250_000, at_time=0.0)
        assert link.utilization(over_seconds=1.0) == pytest.approx(0.25)
        assert link.total_bits == 250_000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackhaulLink(rate_bps=0)
        link = BackhaulLink()
        with pytest.raises(ConfigurationError):
            link.ship(-1, 0.0)
        with pytest.raises(ConfigurationError):
            link.utilization(0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_bps": float("nan")},
            {"latency_s": float("nan")},
            {"max_queue_s": float("nan")},
        ],
    )
    def test_nan_parameters_rejected(self, kwargs):
        # NaN fails every comparison, so a ``<= 0`` check let it through:
        # a NaN queue bound never refused, a NaN rate or latency gave
        # NaN arrival times.
        with pytest.raises(ConfigurationError):
            BackhaulLink(**kwargs)

    @pytest.mark.parametrize(
        "n_bits, at_time",
        [
            (float("nan"), 0.0),
            (float("inf"), 0.0),
            (100, float("nan")),
            (100, float("inf")),
            (100, float("-inf")),
        ],
    )
    def test_non_finite_ship_rejected(self, n_bits, at_time):
        # NaN fails every comparison, so ``< 0`` and the monotonic check
        # alone let it through: the link's clock became NaN, the next ship
        # at t = 0 passed, and the NaN ship's bits left the backlog. An
        # accepted inf time would refuse every later ship.
        link = BackhaulLink(rate_bps=1e6, latency_s=0.0)
        with pytest.raises(ConfigurationError):
            link.ship(n_bits, at_time=at_time)
        assert link.shipments == []
        assert link.ship(1_000_000, at_time=0.0).arrived_at == pytest.approx(1.0)
        assert link.ship(1, at_time=0.5).started_at == pytest.approx(1.0)

    def test_infinite_parameters_allowed(self):
        link = BackhaulLink(rate_bps=float("inf"), max_queue_s=float("inf"))
        assert link.ship(10_000, at_time=0.0).arrived_at == pytest.approx(0.02)
        slow = BackhaulLink(rate_bps=1e3, latency_s=float("inf"))
        assert slow.ship(1, at_time=0.0).arrived_at == float("inf")


class TestEdge:
    def _segment(self, samples, detections=1):
        return Segment(
            start=0,
            samples=samples,
            sample_rate=FS,
            detections=[DetectionEvent(0, 1.0, "u")] * detections,
        )

    @pytest.mark.parametrize("name", ["lora", "xbee", "zwave"])
    def test_clean_frame_resolved_locally(self, trio, rng, name):
        modem = next(m for m in trio if m.name == name)
        builder = SceneBuilder(FS, 0.05)
        builder.add_packet(modem, b"local", 2000, 15, rng)
        capture, _ = builder.render(rng)
        edge = EdgeDecoder(trio, FS)
        outcome = edge.try_decode(self._segment(capture))
        assert not outcome.ship_to_cloud
        assert [r.payload for r in outcome.results] == [b"local"]
        assert outcome.results[0].method == "direct"

    def test_noise_is_shipped(self, trio, rng):
        noise = (rng.normal(size=80_000) + 1j * rng.normal(size=80_000)) / 2
        outcome = EdgeDecoder(trio, FS).try_decode(self._segment(noise))
        assert outcome.ship_to_cloud
        assert outcome.results == []

    def test_multi_detection_ships_even_after_partial_decode(self, trio, rng):
        lora = next(m for m in trio if m.name == "lora")
        xbee = next(m for m in trio if m.name == "xbee")
        builder = SceneBuilder(FS, 0.12)
        builder.add_packet(lora, b"strong", 2000, 12, rng)
        builder.add_packet(xbee, b"masked", 2000, 12, rng)
        capture, _ = builder.render(rng)
        edge = EdgeDecoder(trio, FS)
        outcome = edge.try_decode(self._segment(capture, detections=2))
        # Whatever the edge got, two detections > decoded frames means
        # the cloud must still see this segment.
        assert outcome.ship_to_cloud
