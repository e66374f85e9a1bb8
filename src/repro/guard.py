"""Replay / duplicate / false-decode guarding for accepted frames.

CRC checking stops corrupt frames, but it cannot stop a *replay*: a
bit-exact re-injection of a legitimate frame decodes perfectly, checksum
and all — the classic SDR capture-and-replay attack. The defence is
bookkeeping, not signal processing: remember what was recently accepted
and refuse to accept the same frame again inside a freshness window.

:class:`DecodeGuard` is that bookkeeping, shared by the gateway's edge
decoder and the cloud decoder (hand both the same instance so a frame
edge-decoded at the gateway also inoculates the cloud). It applies three
checks to every candidate frame, counting rejections under ``attack.*``
telemetry:

* **corrupt** — a result without a passing checksum is refused outright
  (today's decoders never emit one, making the guard the enforcement
  point rather than a convention);
* **duplicate** — the same ``(technology, payload)`` accepted again
  within ``duplicate_window_s`` is a double-decode of one transmission
  (e.g. overlapping segments), not an attack;
* **replay** — the same frame seen again *after* the duplicate window
  but within ``window_s`` is refused and counted as a replay.

The guard is deterministic and stateful per stream: call :meth:`reset`
between captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError, checked_positive
from .telemetry import NULL, Telemetry
from .types import DecodeResult

__all__ = ["GuardStats", "DecodeGuard"]


@dataclass
class GuardStats:
    """Counters of one guard instance's accept/reject decisions."""

    accepted: int = 0
    corrupt_rejected: int = 0
    duplicates_rejected: int = 0
    replays_rejected: int = 0

    @property
    def rejected(self) -> int:
        """Total refusals across all three checks."""
        return (
            self.corrupt_rejected
            + self.duplicates_rejected
            + self.replays_rejected
        )


@dataclass
class DecodeGuard:
    """Freshness-window admission control for decoded frames.

    Args:
        window_s: Replay-freshness window — an identical frame accepted
            within this many seconds is refused.
        duplicate_window_s: Identical frames this close together are
            double-decodes of one transmission, refused but counted
            separately from replays.
        telemetry: Metrics sink for the ``attack.*`` counters.
    """

    window_s: float = 5.0
    duplicate_window_s: float = 0.05
    telemetry: Telemetry = NULL
    stats: GuardStats = field(default_factory=GuardStats)
    _seen: dict[tuple[str, bytes], list[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        if not 0 <= self.duplicate_window_s <= self.window_s:
            raise ConfigurationError(
                "need 0 <= duplicate_window_s <= window_s"
            )

    def reset(self) -> None:
        """Forget accepted-frame history and counters (new stream)."""
        self._seen = {}
        self.stats = GuardStats()

    def admit(self, result: DecodeResult, time_s: float) -> bool:
        """Decide one frame; ``True`` means downstream may accept it."""
        if not result.ok or result.payload is None:
            self.stats.corrupt_rejected += 1
            self.telemetry.count("attack.false_decodes")
            return False
        key = (result.technology, bytes(result.payload))
        history = self._seen.setdefault(key, [])
        nearest = min(
            (abs(time_s - t) for t in history), default=float("inf")
        )
        if nearest < self.duplicate_window_s:
            self.stats.duplicates_rejected += 1
            self.telemetry.count("attack.duplicate_decodes")
            return False
        if nearest < self.window_s:
            self.stats.replays_rejected += 1
            self.telemetry.count("attack.replay_rejects")
            return False
        history.append(time_s)
        self.stats.accepted += 1
        return True

    def filter(
        self, results: list[DecodeResult], sample_rate_hz: float
    ) -> list[DecodeResult]:
        """Admit a batch, deriving each frame's time from its capture
        start index."""
        checked_positive("sample_rate_hz", sample_rate_hz)
        return [
            r for r in results if self.admit(r, r.start / sample_rate_hz)
        ]
