"""The GalioT gateway: RTL-SDR model, universal detection, ship-to-cloud.

Pipeline (Figure 2 of the paper):

    RtlSdrModel -> UniversalPreambleDetector -> SegmentExtractor
        -> EdgeDecoder (optional) -> SegmentCodec -> BackhaulLink
"""

from .backhaul import BackhaulLink, Shipment
from .channelizer import Channelizer
from .compression import CompressedSegment, CompressionStats, SegmentCodec
from .detection import (
    CorrelationDetector,
    EnergyDetector,
    PreambleBankDetector,
    cfar_threshold,
    detection_ratio,
    match_events,
)
from .edge import EdgeDecoder, EdgeOutcome
from .extractor import SegmentExtractor, max_frame_samples
from .gateway import GalioTGateway, GatewayReport
from .hopping import (
    ChannelPlan,
    DwellResult,
    HopScheduler,
    HoppingFrontend,
    run_hopping_campaign,
)
from .resilience import (
    DegradationLadder,
    ResilientBackhaul,
    ShipOutcome,
    SpillEntry,
)
from .rtlsdr import RtlSdrConfig, RtlSdrModel
from .streaming import StreamingGateway, iter_chunks
from .universal import UniversalPreamble, UniversalPreambleDetector

__all__ = [
    "BackhaulLink",
    "Shipment",
    "Channelizer",
    "CompressedSegment",
    "CompressionStats",
    "SegmentCodec",
    "CorrelationDetector",
    "EnergyDetector",
    "PreambleBankDetector",
    "cfar_threshold",
    "match_events",
    "detection_ratio",
    "EdgeDecoder",
    "EdgeOutcome",
    "SegmentExtractor",
    "max_frame_samples",
    "GalioTGateway",
    "GatewayReport",
    "ChannelPlan",
    "HoppingFrontend",
    "HopScheduler",
    "DwellResult",
    "run_hopping_campaign",
    "DegradationLadder",
    "ResilientBackhaul",
    "ShipOutcome",
    "SpillEntry",
    "RtlSdrConfig",
    "RtlSdrModel",
    "StreamingGateway",
    "iter_chunks",
    "UniversalPreamble",
    "UniversalPreambleDetector",
]
