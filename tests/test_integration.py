"""End-to-end integration tests: antenna to decoded payload.

Each test exercises the full Figure-2 path: scene -> RTL-SDR front end
-> universal detection -> extraction -> compression -> cloud joint
decoding, and asserts on what ultimately matters — recovered payloads.
"""


from repro.cloud.pipeline import CloudService
from repro.gateway.gateway import GalioTGateway
from repro.gateway.rtlsdr import RtlSdrConfig, RtlSdrModel
from repro.net.scene import SceneBuilder
from repro.net.simulator import match_decodes

FS = 1e6


def _run_pipeline(trio, capture, rng, use_edge=True, kill=True):
    gateway = GalioTGateway(
        trio,
        FS,
        detector="universal",
        front_end=RtlSdrModel(RtlSdrConfig(dc_offset=0.002)),
        use_edge=use_edge,
    )
    cloud = CloudService(trio, FS, use_kill_filters=kill)
    report = gateway.process(capture, rng)
    decodes = list(report.edge_results)
    for segment in report.shipped:
        decodes.extend(cloud.process_segment(segment))
    return report, decodes


class TestEndToEnd:
    def test_three_isolated_packets(self, trio, rng):
        builder = SceneBuilder(FS, 0.45)
        payloads = {}
        for i, modem in enumerate(trio):
            payload = bytes([0x10 + i]) * 8
            payloads[modem.name] = payload
            builder.add_packet(
                modem, payload, 30_000 + i * 130_000, 10, rng, snr_mode="capture"
            )
        capture, truth = builder.render(rng)
        _, decodes = _run_pipeline(trio, capture, rng)
        delivered = match_decodes(decodes, truth.packets)
        assert len(delivered) == 3

    def test_collision_resolved_by_cloud(self, trio, rng):
        by = {m.name: m for m in trio}
        builder = SceneBuilder(FS, 0.3)
        builder.add_packet(by["lora"], b"css-packet", 30_000, 10, rng, snr_mode="capture")
        builder.add_packet(by["xbee"], b"fsk-packet", 32_000, 10, rng, snr_mode="capture")
        capture, truth = builder.render(rng)
        _, decodes = _run_pipeline(trio, capture, rng)
        delivered = match_decodes(decodes, truth.packets)
        assert len(delivered) == 2

    def test_subnoise_packet_detected_and_shipped(self, trio, rng):
        # A LoRa packet below the noise floor must still be detected
        # (correlation gain) and survive compression for cloud decoding.
        by = {m.name: m for m in trio}
        builder = SceneBuilder(FS, 0.3)
        builder.add_packet(by["lora"], b"subnoise", 50_000, -4, rng, snr_mode="capture")
        capture, truth = builder.render(rng)
        report, decodes = _run_pipeline(trio, capture, rng)
        assert report.events  # detected below the floor
        delivered = match_decodes(decodes, truth.packets)
        assert len(delivered) == 1

    def test_backhaul_savings_on_sparse_traffic(self, trio, rng):
        by = {m.name: m for m in trio}
        builder = SceneBuilder(FS, 1.0)
        builder.add_packet(by["xbee"], b"only-one", 400_000, 10, rng, snr_mode="capture")
        capture, _ = builder.render(rng)
        report, _ = _run_pipeline(trio, capture, rng, use_edge=False)
        # One XBee frame in a second of capture: shipping must cost far
        # less than streaming raw I/Q.
        assert report.backhaul_saving > 3.0

    def test_compression_roundtrip_preserves_decodability(self, trio, rng):
        from repro.gateway.compression import SegmentCodec

        by = {m.name: m for m in trio}
        builder = SceneBuilder(FS, 0.25)
        builder.add_packet(by["zwave"], b"wire-safe", 30_000, 8, rng, snr_mode="capture")
        capture, truth = builder.render(rng)
        gateway = GalioTGateway(trio, FS, detector="universal", use_edge=False)
        report = gateway.process(capture, rng)
        codec = SegmentCodec()
        cloud = CloudService(trio, FS)
        decodes = []
        for segment in report.shipped:
            blob, _ = codec.compress(segment)
            decodes.extend(cloud.process_segment(codec.decompress(blob)))
        assert match_decodes(decodes, truth.packets)

    def test_cfo_impaired_end_to_end(self, trio, rng):
        by = {m.name: m for m in trio}
        builder = SceneBuilder(FS, 0.3)
        builder.add_packet(
            by["lora"], b"drift-a", 30_000, 10, rng,
            snr_mode="capture", cfo_hz=1300.0,
        )
        builder.add_packet(
            by["zwave"], b"drift-b", 180_000, 10, rng,
            snr_mode="capture", cfo_hz=-900.0,
        )
        capture, truth = builder.render(rng)
        _, decodes = _run_pipeline(trio, capture, rng)
        assert len(match_decodes(decodes, truth.packets)) == 2
