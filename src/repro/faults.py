"""Seeded, deterministic fault injection: ``repro.faults``.

The paper's gateway is an always-on appliance whose value hinges on
never *silently* losing detected packets on the way to the cloud
(Sec. 6). Proving that requires breaking the pipeline on purpose, the
same way every time: this module is the chaos half of the resilience
layer — a :class:`FaultPlan` describes *when* and *where* the deployment
misbehaves, and the pipeline components consult it through cheap,
allocation-free queries.

Fault classes, and the component each one plugs into:

* **Backhaul outages** — consumed by
  :class:`~repro.gateway.resilience.ResilientBackhaul`: during an outage
  window nothing gets onto the uplink and shipments spill into the
  bounded retry buffer.
* **SDR sample gaps** — consumed by
  :class:`~repro.gateway.rtlsdr.RtlSdrModel`: the affected capture
  ranges are zeroed, modelling USB drops / front-end dropouts.
* **Segment corruption** — consumed by the cloud decode workers: the
  listed segments arrive with their I/Q deterministically replaced by
  seeded noise, so decoding yields nothing.
* **Worker crashes / hangs** — consumed by
  :class:`~repro.cloud.parallel.ParallelCloudService` workers: the
  listed *submissions* kill the worker process (``os._exit``) or nap
  for :attr:`FaultPlan.hang_s` before decoding.

Determinism contract: everything a plan does is a pure function of
``(seed, scheduled fault sets, query arguments)``. Crash/hang faults
are keyed by the **submission counter**, which takes one number per
trip through the pool (a first dispatch, a retry or a requeue), so a
fault is transient: the requeue of a crashed submission is a
*different* submission and proceeds. A crash breaks the whole pool, and
the farm attributes the breakage to the segment whose submission this
plan scheduled; the other segments it poisoned re-run under their old
numbers. Poison and corruption are keyed by the **segment sequence
number** (stable across retries), so a poison segment fails
deterministically on every attempt — that is what the
retry-then-quarantine policy is tested against.

Everything here is picklable (plans cross the process-pool boundary via
the worker initializer) and the no-fault default everywhere is ``None``,
checked with a single ``is None`` branch — zero overhead when chaos is
off.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .contracts import iq_contract
from .errors import ConfigurationError, InjectedFault

__all__ = [
    "OutageWindow",
    "SampleGap",
    "FaultPlan",
    "SCENARIOS",
    "build_scenario",
]


@dataclass(frozen=True)
class OutageWindow:
    """One backhaul blackout: the link is down for ``[start_s, end_s)``."""

    start_s: float
    end_s: float

    def covers(self, at_time: float) -> bool:
        """Whether ``at_time`` falls inside the outage."""
        return self.start_s <= at_time < self.end_s


@dataclass(frozen=True)
class SampleGap:
    """A front-end dropout: ``length`` samples zeroed from ``start``."""

    start: int
    length: int

    @property
    def end(self) -> int:
        """One past the last dropped sample index."""
        return self.start + self.length


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults for one pipeline run.

    Attributes:
        seed: Root seed; corruption noise and retry jitter derive from
            it, so two runs of the same plan are bit-identical.
        outages: Backhaul blackout windows (wall-clock of the modelled
            capture, i.e. the ``at_time`` axis of the backhaul).
        sample_gaps: Front-end dropouts in absolute capture samples.
        poison_segments: Segment sequence numbers whose decode raises
            :class:`~repro.errors.InjectedFault` on *every* attempt.
        corrupt_segments: Segment sequence numbers whose payload is
            deterministically mangled before decoding (decode survives
            but recovers nothing — silent data loss, not an error).
        crash_submissions: Pool submission numbers that kill the worker.
        hang_submissions: Pool submission numbers that sleep ``hang_s``
            before decoding (trips the per-segment decode timeout).
        hang_s: Nap length for hang faults, in real seconds.
    """

    seed: int = 0
    outages: tuple[OutageWindow, ...] = ()
    sample_gaps: tuple[SampleGap, ...] = ()
    poison_segments: frozenset[int] = field(default_factory=frozenset)
    corrupt_segments: frozenset[int] = field(default_factory=frozenset)
    crash_submissions: frozenset[int] = field(default_factory=frozenset)
    hang_submissions: frozenset[int] = field(default_factory=frozenset)
    hang_s: float = 0.5

    # -- backhaul ---------------------------------------------------------

    def backhaul_down(self, at_time: float) -> bool:
        """Whether the uplink is inside an outage window at ``at_time``."""
        return any(w.covers(at_time) for w in self.outages)

    def outage_duty_cycle(self, duration_s: float) -> float:
        """Fraction of ``[0, duration_s)`` the uplink is down."""
        if duration_s <= 0:
            return 0.0
        down = sum(
            max(0.0, min(w.end_s, duration_s) - max(w.start_s, 0.0))
            for w in self.outages
        )
        return min(down / duration_s, 1.0)

    # -- front end --------------------------------------------------------

    def gaps_overlapping(self, lo: int, hi: int) -> list[SampleGap]:
        """Sample gaps intersecting the absolute range ``[lo, hi)``."""
        return [g for g in self.sample_gaps if g.start < hi and g.end > lo]

    # -- cloud workers ----------------------------------------------------

    def apply_in_worker(self, seq: int, submission: int) -> None:
        """Run the scheduled worker faults for one decode attempt.

        Called by the pool worker before decoding segment ``seq`` on its
        trip numbered ``submission``. May kill the worker process, sleep,
        or raise :class:`~repro.errors.InjectedFault`.
        """
        if submission in self.crash_submissions:
            os._exit(13)
        if submission in self.hang_submissions:
            # Real wall-clock on purpose: a hang fault must burn actual
            # time inside the worker so the parent's *real* decode
            # timeout (CloudResilience.decode_timeout_s) trips.
            time.sleep(self.hang_s)  # noqa: GL102
        if seq in self.poison_segments:
            raise InjectedFault(
                f"injected poison decode failure for segment {seq}"
            )

    @iq_contract("samples")
    def corrupt_samples(self, seq: int, samples: np.ndarray) -> np.ndarray:
        """Deterministically mangle a segment's I/Q if it is scheduled.

        The replacement is unit-power complex noise seeded by
        ``(seed, seq)`` — the same garbage every run, any worker.
        """
        if seq not in self.corrupt_segments or len(samples) == 0:
            return samples
        rng = np.random.default_rng((self.seed, seq))
        noise = rng.normal(size=len(samples)) + 1j * rng.normal(size=len(samples))
        return (noise / np.sqrt(2)).astype(samples.dtype, copy=False)


def periodic_outages(
    duration_s: float, period_s: float, duty: float
) -> tuple[OutageWindow, ...]:
    """Evenly spaced outages covering ``duty`` of every ``period_s``.

    Each period ``[k*period, (k+1)*period)`` starts with ``duty*period``
    seconds of blackout — the 10 %-duty scenario of the resilience
    benchmark is ``periodic_outages(d, 1.0, 0.10)``.

    Raises:
        ConfigurationError: unless ``0 < period_s < inf``,
            ``0 <= duration_s < inf`` and ``0 <= duty <= 1``.
    """
    # Written so NaN fails every check: a NaN period would yield one
    # outage ending at NaN, and an infinite duration would never end the
    # loop below.
    if not 0 < period_s < math.inf:
        raise ConfigurationError("period_s must be positive and finite")
    if not 0 <= duration_s < math.inf:
        raise ConfigurationError("duration_s must be >= 0 and finite")
    if not 0.0 <= duty <= 1.0:
        raise ConfigurationError("duty must be in [0, 1]")
    if duty == 0.0:
        return ()
    windows = []
    start = 0.0
    while start < duration_s:
        windows.append(OutageWindow(start, min(start + duty * period_s, duration_s)))
        start += period_s
    return tuple(windows)


SCENARIOS = ("none", "outages", "gaps", "poison", "crashes", "mixed")
"""Named chaos scenarios understood by :func:`build_scenario` and
``galiot chaos --scenario``."""


def build_scenario(
    name: str,
    seed: int = 0,
    duration_s: float = 1.0,
    n_segments_hint: int = 16,
) -> FaultPlan:
    """Construct one of the canonical named fault scenarios.

    Args:
        name: One of :data:`SCENARIOS`.
        seed: Root seed (placement of random faults derives from it).
        duration_s: Modelled capture length, for time-axis faults.
        n_segments_hint: Expected shipped-segment count; poison,
            corruption and crash faults are placed against it (~1 % of
            segments corrupted, one poison, one crash, one hang).
    """
    if name not in SCENARIOS:
        raise ConfigurationError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    if name == "none":
        return FaultPlan(seed=seed)
    rng = np.random.default_rng((seed, SCENARIOS.index(name)))
    outages = periodic_outages(duration_s, duration_s / 4, 0.10)
    if name == "outages":
        return FaultPlan(seed=seed, outages=outages)
    if name == "gaps":
        n_samples = int(duration_s * 1e6)
        starts = rng.integers(0, max(n_samples - 256, 1), size=3)
        return FaultPlan(
            seed=seed,
            sample_gaps=tuple(SampleGap(int(s), 256) for s in sorted(starts)),
        )
    hint = max(n_segments_hint, 1)
    poison = frozenset({int(rng.integers(0, hint))})
    corrupt = frozenset(
        int(i)
        for i in rng.choice(hint, size=max(1, hint // 100), replace=False)
        if int(i) not in poison
    )
    if name == "poison":
        return FaultPlan(seed=seed, poison_segments=poison, corrupt_segments=corrupt)
    crashes = frozenset({int(rng.integers(0, hint))})
    hangs = frozenset({int(rng.integers(hint, 2 * hint))})
    if name == "crashes":
        return FaultPlan(
            seed=seed, crash_submissions=crashes, hang_submissions=hangs
        )
    return FaultPlan(
        seed=seed,
        outages=outages,
        poison_segments=poison,
        corrupt_segments=corrupt,
        crash_submissions=crashes,
        hang_submissions=hangs,
    )
