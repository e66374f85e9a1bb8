"""I/Q capture file I/O.

Lets the library exchange captures with real SDR tooling:

* ``.cfile`` — raw interleaved complex64, the GNU Radio / gr-osmosdr
  convention (what an actual RTL-SDR capture of the paper's experiment
  would be saved as);
* ``.u8iq`` — raw interleaved offset-uint8, the rtl_sdr utility's native
  output format;
* a SigMF-flavoured JSON sidecar carrying sample rate, carrier and
  annotations, so synthetic scenes keep their ground truth on disk.

Only the subset of SigMF needed for this package is implemented; files
written here load in SigMF-aware tools, and ordinary rtl_sdr/GNU Radio
captures load here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .contracts import iq_contract
from .errors import ConfigurationError
from .net.scene import CARRIER_HZ
from .types import PacketTruth, SceneTruth

__all__ = [
    "CaptureMeta",
    "write_cfile",
    "read_cfile",
    "write_rtl_u8",
    "read_rtl_u8",
    "write_meta",
    "read_meta",
    "save_scene",
    "load_scene",
]


@dataclass
class CaptureMeta:
    """Sidecar metadata for one capture file.

    Attributes:
        sample_rate: Complex sample rate in Hz.
        carrier_hz: Tuned RF centre frequency.
        datatype: ``"cf32_le"`` (cfile) or ``"cu8"`` (rtl_sdr).
        description: Free-form text.
        annotations: SigMF-style annotation dicts; scene ground truth is
            stored as one annotation per packet.
    """

    sample_rate: float
    carrier_hz: float = CARRIER_HZ
    datatype: str = "cf32_le"
    description: str = ""
    annotations: list[dict] = field(default_factory=list)

    def to_sigmf(self) -> dict:
        """Render as a SigMF-flavoured dictionary."""
        return {
            "global": {
                "core:datatype": self.datatype,
                "core:sample_rate": self.sample_rate,
                "core:description": self.description,
                "core:version": "1.0.0",
            },
            "captures": [{"core:sample_start": 0, "core:frequency": self.carrier_hz}],
            "annotations": self.annotations,
        }

    @classmethod
    def from_sigmf(cls, doc: dict) -> CaptureMeta:
        """Parse the subset of SigMF this package writes."""
        glob = doc.get("global", {})
        captures = doc.get("captures", [{}])
        return cls(
            sample_rate=float(glob.get("core:sample_rate", 0.0)),
            carrier_hz=float(captures[0].get("core:frequency", CARRIER_HZ))
            if captures
            else CARRIER_HZ,
            datatype=str(glob.get("core:datatype", "cf32_le")),
            description=str(glob.get("core:description", "")),
            annotations=list(doc.get("annotations", [])),
        )


def write_cfile(path: str | Path, samples: np.ndarray) -> None:
    """Write interleaved complex64 (GNU Radio ``.cfile``)."""
    np.asarray(samples, dtype=np.complex64).tofile(str(path))


def read_cfile(path: str | Path) -> np.ndarray:
    """Read interleaved complex64 into a complex128 array."""
    data = np.fromfile(str(path), dtype=np.complex64)
    return data.astype(np.complex128)


@iq_contract("samples")
def write_rtl_u8(path: str | Path, samples: np.ndarray) -> None:
    """Write rtl_sdr-style offset-uint8 interleaved I/Q.

    The peak rail magnitude of ``samples`` maps to 0/255 (1 for an
    all-zero or empty capture).
    """
    x = np.asarray(samples)
    peak = float(
        np.max(np.abs(np.concatenate([x.real, x.imag]))) if len(x) else 1.0
    )
    full_scale = peak if peak > 0 else 1.0
    inter = np.empty(2 * len(x))
    inter[0::2] = x.real
    inter[1::2] = x.imag
    quant = np.clip(np.round(inter / full_scale * 127.5 + 127.5), 0, 255)
    quant.astype(np.uint8).tofile(str(path))


def read_rtl_u8(path: str | Path) -> np.ndarray:
    """Read rtl_sdr offset-uint8 I/Q into complex samples in [-1, 1]."""
    raw = np.fromfile(str(path), dtype=np.uint8).astype(np.float64)
    if len(raw) % 2:
        raw = raw[:-1]
    i = (raw[0::2] - 127.5) / 127.5
    q = (raw[1::2] - 127.5) / 127.5
    return i + 1j * q


def write_meta(path: str | Path, meta: CaptureMeta) -> None:
    """Write the SigMF-flavoured sidecar JSON."""
    Path(path).write_text(json.dumps(meta.to_sigmf(), indent=2))


def read_meta(path: str | Path) -> CaptureMeta:
    """Read a sidecar written by :func:`write_meta`."""
    return CaptureMeta.from_sigmf(json.loads(Path(path).read_text()))


def _truth_annotations(truth: SceneTruth) -> list[dict]:
    out = []
    for p in truth.packets:
        out.append(
            {
                "core:sample_start": p.start,
                "core:sample_count": p.length,
                "core:label": p.technology,
                "repro:snr_db": p.snr_db,
                "repro:payload_hex": p.payload.hex(),
                "repro:packet_id": p.packet_id,
                "repro:device_id": p.device_id,
            }
        )
    return out


@iq_contract("samples")
def save_scene(
    basepath: str | Path,
    samples: np.ndarray,
    truth: SceneTruth,
    description: str = "",
) -> tuple[Path, Path]:
    """Persist a synthetic scene as ``<base>.cfile`` + ``<base>.sigmf-meta``,
    recorded at the scenes' carrier :data:`~repro.net.scene.CARRIER_HZ`.

    Returns:
        ``(data_path, meta_path)``.
    """
    base = Path(basepath)
    data_path = base.with_suffix(".cfile")
    meta_path = base.with_suffix(".sigmf-meta")
    write_cfile(data_path, samples)
    meta = CaptureMeta(
        sample_rate=truth.sample_rate,
        carrier_hz=CARRIER_HZ,
        datatype="cf32_le",
        description=description,
        annotations=_truth_annotations(truth),
    )
    write_meta(meta_path, meta)
    return data_path, meta_path


def load_scene(basepath: str | Path) -> tuple[np.ndarray, SceneTruth]:
    """Load a scene written by :func:`save_scene`.

    Raises:
        ConfigurationError: when the sidecar is missing or inconsistent.
    """
    base = Path(basepath)
    data_path = base.with_suffix(".cfile")
    meta_path = base.with_suffix(".sigmf-meta")
    if not data_path.exists() or not meta_path.exists():
        raise ConfigurationError(f"missing capture pair at {base}")
    samples = read_cfile(data_path)
    meta = read_meta(meta_path)
    if meta.sample_rate <= 0:
        raise ConfigurationError("sidecar lacks a sample rate")
    packets = []
    for ann in meta.annotations:
        packets.append(
            PacketTruth(
                packet_id=int(ann.get("repro:packet_id", len(packets))),
                technology=str(ann.get("core:label", "unknown")),
                start=int(ann.get("core:sample_start", 0)),
                length=int(ann.get("core:sample_count", 0)),
                snr_db=float(ann.get("repro:snr_db", float("nan"))),
                payload=bytes.fromhex(ann.get("repro:payload_hex", "")),
                device_id=int(ann.get("repro:device_id", 0)),
            )
        )
    truth = SceneTruth(
        sample_rate=meta.sample_rate,
        n_samples=len(samples),
        noise_power=float("nan"),
        packets=packets,
    )
    return samples, truth
