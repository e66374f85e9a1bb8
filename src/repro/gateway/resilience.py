"""Resilient shipping: spill buffer, retries, and graceful degradation.

Before this layer, a backhaul backlog raised
:class:`~repro.errors.CapacityError` and the segment was simply gone —
acceptable in a benchmark, fatal in the paper's always-on deployment.
:class:`ResilientBackhaul` wraps the FIFO
:class:`~repro.gateway.backhaul.BackhaulLink` with three policies:

* **Spill, don't drop.** A shipment the link refuses (backlog bound, or
  an injected outage from a :class:`~repro.faults.FaultPlan`) lands in a
  bounded spill buffer and is retried with exponential backoff plus
  deterministic seeded jitter, on the modelled ``at_time`` axis — no
  wall-clock, so runs are reproducible.
* **Priority eviction.** When the spill buffer itself overflows, the
  lowest-score (then oldest) entries are evicted first: a weak detection
  is sacrificed before a strong one, and every eviction is an explicit,
  telemetry-counted ``backhaul.evicted`` — the *only* way this layer
  loses a segment.
* **Pressure signal.** :meth:`ResilientBackhaul.pressure` folds link
  backlog, spill fill and outage state into one [0, 1] number that
  :class:`DegradationLadder` consumes to walk the gateway down (and back
  up) the full → compressed → metadata-only shipping ladder.

Everything is inert by default: a gateway without a
``ResilientBackhaul`` takes none of these code paths, and a
``ResilientBackhaul`` without a fault plan only differs from the raw
link in what happens *after* the link refuses a shipment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CapacityError, ConfigurationError, checked_count
from ..faults import FaultPlan
from ..telemetry import NULL, Telemetry
from .backhaul import BackhaulLink

__all__ = ["SpillEntry", "ShipOutcome", "ResilientBackhaul", "DegradationLadder"]


@dataclass
class SpillEntry:
    """One shipment waiting in the spill buffer for a retry slot.

    Attributes:
        payload: Opaque caller object delivered back on success (the
            gateway passes the :class:`~repro.types.Segment`; ``None``
            for metadata-only ships).
        n_bits: Wire size, fixed at first submission.
        score: Drop-policy priority (the segment's best detection
            score); lowest evicts first.
        submitted_at: Original submission time (modelled seconds).
        attempt: Retries already consumed.
        next_retry_at: Earliest modelled time of the next attempt.
        metadata_only: Whether this ship carries no I/Q payload.
    """

    payload: object
    n_bits: int
    score: float
    submitted_at: float
    attempt: int = 0
    next_retry_at: float = 0.0
    metadata_only: bool = False


@dataclass(frozen=True)
class ShipOutcome:
    """What one :meth:`ResilientBackhaul.ship` call did.

    ``delivered`` may include *older* spilled entries that a due retry
    just got through, not only the entry submitted by this call;
    ``evicted`` lists drop-policy victims (possibly the new entry
    itself). ``status`` describes the submitted entry: ``"delivered"``,
    ``"spilled"`` or ``"evicted"``.
    """

    status: str
    delivered: tuple[SpillEntry, ...]
    evicted: tuple[SpillEntry, ...]


class ResilientBackhaul:
    """Bounded spill-and-retry wrapper around a :class:`BackhaulLink`.

    Args:
        link: The underlying FIFO uplink model.
        faults: Optional fault plan supplying outage windows and latency
            spikes (``None`` — the default — models a healthy link and
            costs one ``is None`` check per query).
        max_spill_bits: Spill-buffer capacity; beyond it the drop policy
            evicts lowest-score-first.
        base_backoff_s: First-retry delay (modelled seconds).
        max_backoff_s: Backoff ceiling.
        jitter: Uniform jitter fraction added to every backoff, drawn
            from a generator seeded by ``seed`` (or the plan's seed), so
            identical runs produce identical retry schedules.
        seed: Jitter seed override.
        telemetry: Metrics sink (defaults to the link's sink).
    """

    def __init__(
        self,
        link: BackhaulLink,
        faults: FaultPlan | None = None,
        max_spill_bits: int = 64_000_000,
        base_backoff_s: float = 0.05,
        max_backoff_s: float = 5.0,
        jitter: float = 0.5,
        seed: int | None = None,
        telemetry: Telemetry | None = None,
    ):
        # Written as ``not (0 < x ...)``, not ``x <= 0``: NaN fails every
        # comparison, so it must fail the check (a NaN backoff or jitter
        # makes every spilled entry due on every flush; a NaN cap drops
        # the cap). max_backoff_s=inf is a valid uncapped backoff.
        if not 0 < max_spill_bits < np.inf:
            raise ConfigurationError("max_spill_bits must be positive and finite")
        if not (0 < base_backoff_s < np.inf and base_backoff_s <= max_backoff_s):
            raise ConfigurationError(
                "need 0 < base_backoff_s <= max_backoff_s, base finite"
            )
        if not 0 <= jitter < np.inf:
            raise ConfigurationError("jitter must be >= 0 and finite")
        self.link = link
        self.faults = faults
        self.max_spill_bits = int(max_spill_bits)
        self.base_backoff_s = float(base_backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.jitter = float(jitter)
        self.telemetry = telemetry if telemetry is not None else link.telemetry
        root = seed if seed is not None else (faults.seed if faults else 0)
        self._rng = np.random.default_rng((root, 0x5E11))
        self.spill: list[SpillEntry] = []
        self.spill_bits = 0
        # The wrapper interleaves two time axes — segment-start ship
        # times and chunk-end retry times — so it keeps its own
        # monotonic cursor and clamps submissions forward; the raw
        # BackhaulLink underneath would (rightly) reject regressions.
        self._clock = float("-inf")

    def _advance(self, at_time: float) -> float:
        self._clock = max(self._clock, at_time)
        return self._clock

    # -- link state -------------------------------------------------------

    def link_up(self, at_time: float) -> bool:
        """Whether the uplink is outside every outage window."""
        return self.faults is None or not self.faults.backhaul_down(at_time)

    def pressure(self, at_time: float) -> float:
        """Backpressure in [0, 1]: max of outage, backlog and spill fill."""
        if not self.link_up(at_time):
            return 1.0
        backlog = max(0.0, self.link._busy_until - at_time)
        return min(
            1.0,
            max(
                backlog / self.link.max_queue_s,
                self.spill_bits / self.max_spill_bits,
            ),
        )

    # -- shipping ---------------------------------------------------------

    def ship(
        self,
        n_bits: int,
        at_time: float,
        score: float = 0.0,
        payload: object = None,
        metadata_only: bool = False,
    ) -> ShipOutcome:
        """Submit a shipment; never raises for capacity or outages.

        Due spilled entries are retried first (FIFO), then the new entry
        is attempted; on refusal it spills, and the drop policy runs.
        """
        at_time = self._advance(at_time)
        delivered = list(self.flush(at_time))
        entry = SpillEntry(
            payload=payload,
            n_bits=int(n_bits),
            score=float(score),
            submitted_at=at_time,
            metadata_only=metadata_only,
        )
        if self._try_link(entry, at_time):
            delivered.append(entry)
            return ShipOutcome("delivered", tuple(delivered), ())
        self._spill(entry, at_time)
        evicted = self._evict_over_capacity()
        status = "evicted" if any(e is entry for e in evicted) else "spilled"
        return ShipOutcome(status, tuple(delivered), tuple(evicted))

    def flush(self, at_time: float) -> list[SpillEntry]:
        """Retry every due spilled entry; returns what got through."""
        return self._retry(self._advance(at_time), due_only=True)

    def drain(self, at_time: float) -> list[SpillEntry]:
        """End-of-stream retry of *everything*, ignoring backoff timers.

        Entries the link still refuses (e.g. an outage extending past
        the stream) stay spilled — they are not lost, just undelivered.
        """
        return self._retry(self._advance(at_time), due_only=False)

    # -- internals --------------------------------------------------------

    def _retry(self, at_time: float, due_only: bool) -> list[SpillEntry]:
        if not self.spill:
            return []
        delivered: list[SpillEntry] = []
        if not self.link_up(at_time):
            return delivered
        remaining: list[SpillEntry] = []
        for entry in self.spill:
            if due_only and entry.next_retry_at > at_time:
                remaining.append(entry)
                continue
            self.telemetry.count("backhaul.retries")
            if self._attempt(entry, at_time):
                delivered.append(entry)
                self.spill_bits -= entry.n_bits
                self.telemetry.count("backhaul.recovered")
            else:
                entry.attempt += 1
                entry.next_retry_at = at_time + self._backoff(entry.attempt)
                remaining.append(entry)
        self.spill = remaining
        self.telemetry.gauge("backhaul.spill_bits", self.spill_bits)
        return delivered

    def _try_link(self, entry: SpillEntry, at_time: float) -> bool:
        """First-submission attempt: outage check plus the raw link."""
        if not self.link_up(at_time):
            return False
        return self._attempt(entry, at_time)

    def _attempt(self, entry: SpillEntry, at_time: float) -> bool:
        try:
            self.link.ship(entry.n_bits, at_time)
        except CapacityError:
            return False
        return True

    def _spill(self, entry: SpillEntry, at_time: float) -> None:
        entry.next_retry_at = at_time + self._backoff(entry.attempt)
        self.spill.append(entry)
        self.spill_bits += entry.n_bits
        self.telemetry.count("backhaul.spilled")
        self.telemetry.gauge("backhaul.spill_bits", self.spill_bits)

    def _backoff(self, attempt: int) -> float:
        base = min(self.base_backoff_s * (2.0**attempt), self.max_backoff_s)
        return base * (1.0 + self.jitter * float(self._rng.random()))

    def _evict_over_capacity(self) -> list[SpillEntry]:
        """Drop policy: evict lowest-score, then oldest, until we fit."""
        evicted: list[SpillEntry] = []
        while self.spill_bits > self.max_spill_bits and self.spill:
            victim = min(self.spill, key=lambda e: (e.score, e.submitted_at))
            self.spill.remove(victim)
            self.spill_bits -= victim.n_bits
            evicted.append(victim)
            self.telemetry.count("backhaul.evicted")
            self.telemetry.count("backhaul.evicted_bits", victim.n_bits)
        if evicted:
            self.telemetry.gauge("backhaul.spill_bits", self.spill_bits)
        return evicted


class DegradationLadder:
    """Hysteresis controller for the gateway's shipping fidelity.

    Levels (cumulative cost reduction):

    * ``FULL`` (0) — the normal pipeline: full-fidelity compressed I/Q.
    * ``COMPRESSED`` (1) — aggressive requantization (fewer bits per
      rail, max entropy-coding effort): smaller, lossier segments the
      cloud can still decode.
    * ``METADATA`` (2) — detection metadata only, no I/Q: the cloud
      learns *that* a packet was seen but cannot joint-decode it; such
      ships are counted as *degraded*, never silently lost.

    Escalation requires ``escalate_after`` consecutive pressure readings
    at or above ``high``; recovery requires ``recover_after`` readings
    at or below ``low``. The two-threshold hysteresis keeps the ladder
    from oscillating on a link hovering near its capacity.
    """

    FULL = 0
    COMPRESSED = 1
    METADATA = 2

    def __init__(
        self,
        high: float = 0.6,
        low: float = 0.2,
        escalate_after: int = 2,
        recover_after: int = 4,
        telemetry: Telemetry = NULL,
    ):
        if not 0.0 <= low < high <= 1.0:
            raise ConfigurationError("need 0 <= low < high <= 1")
        self.high = float(high)
        self.low = float(low)
        self.escalate_after = checked_count("escalate_after", escalate_after)
        self.recover_after = checked_count("recover_after", recover_after)
        self.telemetry = telemetry
        self.level = self.FULL
        self._hot = 0
        self._cool = 0

    def observe(self, pressure: float) -> int:
        """Fold one pressure reading; returns the (possibly new) level."""
        if pressure >= self.high:
            self._hot += 1
            self._cool = 0
            if self._hot >= self.escalate_after and self.level < self.METADATA:
                self.level += 1
                self._hot = 0
                self.telemetry.count("gateway.degradation_escalations")
        elif pressure <= self.low:
            self._cool += 1
            self._hot = 0
            if self._cool >= self.recover_after and self.level > self.FULL:
                self.level -= 1
                self._cool = 0
                self.telemetry.count("gateway.degradation_recoveries")
        else:
            self._hot = 0
            self._cool = 0
        self.telemetry.gauge("gateway.degradation_level", self.level)
        return self.level

    def reset(self) -> None:
        """Back to full fidelity with cleared hysteresis state."""
        self.level = self.FULL
        self._hot = 0
        self._cool = 0
