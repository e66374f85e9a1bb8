"""One scored drill: honest-traffic survival, baseline vs. perturbed.

Checks that detected packets are not silently lost on the way to the
cloud (paper Sec. 6): one scene of honest traffic runs through a clean,
unhardened baseline and through a pipeline perturbed by a
:class:`~repro.faults.FaultPlan` (``galiot chaos``: infrastructure
faults under the resilient pipeline and a decode farm) or an
:class:`~repro.net.adversary.AttackPlan` (``galiot attack``: jammers,
replays and spoofs against the hardened receive path). One
:class:`DrillReport` scores both; it is a pure function of ``(plan,
scene)``, so same-seed drills give identical ledgers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cloud import CloudResilience, CloudService, CloudStats, ParallelCloudService
from .cloud.parallel import QuarantinedSegment
from .errors import ConfigurationError, checked_count, checked_positive
from .faults import FaultPlan, build_scenario
from .gateway import (
    BackhaulLink,
    DegradationLadder,
    GalioTGateway,
    GatewayReport,
    ResilientBackhaul,
    RtlSdrModel,
    StreamingGateway,
    iter_chunks,
)
from .guard import DecodeGuard, GuardStats
from .net.adversary import AttackLedger, AttackPlan, build_attack_scenario, render_attack_plan
from .net.scene import SceneBuilder
from .phy import create_modem
from .phy.base import Modem
from .sensing import JammingDetector
from .telemetry import Telemetry
from .types import DecodeResult, SceneTruth

__all__ = ["DrillScene", "DrillReport", "describe_plan", "run_drill", "run_attack_drill"]

FS = 1e6
"""Capture sample rate of every drill scene."""


@dataclass(frozen=True)
class DrillScene:
    """The honest scene and pipeline knobs both drill families share.

    ``packets`` honest packets are evenly spaced over ``duration_s`` at
    ``snr_db`` (capture SNR), round-robin over ``technologies``:
    compact-frame ones by default, because LoRa's long extraction
    windows merge every packet into one segment and collapse the
    per-segment fault and attack axes. ``seed`` roots the scene, the
    plan and detector calibration; ``rate_mbps`` is the resilient
    backhaul's link rate and ``chunk`` the streaming chunk size.

    Raises:
        ConfigurationError: for a ``seed`` that is not an integer >= 0,
            a ``packets`` or ``chunk`` that is not an integer >= 1, a
            ``duration_s`` or ``rate_mbps`` that is not positive and
            finite, a non-finite ``snr_db``, or no ``technologies``.
    """

    seed: int = 0xC0FFEE
    duration_s: float = 2.0
    packets: int = 48
    snr_db: float = 12.0
    technologies: tuple[str, ...] = ("xbee", "zwave")
    rate_mbps: float = 20.0
    chunk: int = 262_144

    def __post_init__(self) -> None:
        checked_count("seed", self.seed, minimum=0)
        checked_count("packets", self.packets)
        checked_count("chunk", self.chunk)
        checked_positive("duration_s", self.duration_s)
        checked_positive("rate_mbps", self.rate_mbps)
        if not math.isfinite(self.snr_db):
            raise ConfigurationError(f"snr_db must be finite, got {self.snr_db!r}")
        if not self.technologies:
            raise ConfigurationError("technologies must not be empty")

    def plan(self, kind: str, scenario: str) -> FaultPlan | AttackPlan:
        """The named ``"chaos"`` or ``"attack"`` scenario for this scene."""
        if kind == "chaos":
            return build_scenario(
                scenario, seed=self.seed, duration_s=self.duration_s,
                n_segments_hint=self.packets,
            )
        if kind == "attack":
            return build_attack_scenario(
                scenario, seed=self.seed, duration_s=self.duration_s,
                technologies=self.technologies, n_packets_hint=self.packets,
            )
        raise ConfigurationError(f"unknown drill kind {kind!r}; choose chaos or attack")


@dataclass
class DrillReport:
    """Outcome of one drill run.

    Attributes:
        scenario: Named scenario that was run.
        seed: Root seed (scene, plan and calibration).
        baseline_frames: Frames the clean, unhardened run decoded.
        accepted_frames: Frames the perturbed run accepted.
        survived: Baseline frames still accepted by the perturbed run.
        replay_accepts: Accepted occurrences of a replayed frame beyond
            its one legitimate decode. (If the original was lost and
            only the replay got through, the replay passes as the
            legitimate copy — payload matching cannot tell them apart —
            so it counts toward survival, not here.)
        false_decodes: Accepted frames matching no honest transmission.
        jamming_events: Spectrum anomalies the gateway flagged.
        detection_latency_s: Delay from the first jammer's on-air time
            to the first overlapping jamming event (``None`` without
            jammers, ``inf`` if jamming went undetected).
        degraded_segments: Metadata-only ships in the perturbed run.
        dropped_segments: Drop-policy evictions in the perturbed run.
        guard: The shared decode guard's accept/reject counters.
        telemetry: The perturbed run's metrics sink.
        accepted: The accepted ``(technology, payload)`` frames.
        shipped_segments: Segments the perturbed run's gateway shipped.
        cloud: The perturbed run's cloud counters.
        quarantined: Segments the decode farm gave up on.
    """

    scenario: str
    seed: int
    baseline_frames: int
    accepted_frames: int
    survived: int
    replay_accepts: int
    false_decodes: int
    jamming_events: int
    detection_latency_s: float | None
    degraded_segments: int
    dropped_segments: int
    guard: GuardStats
    telemetry: Telemetry = field(repr=False, default_factory=Telemetry)
    accepted: list[tuple[str, bytes]] = field(repr=False, default_factory=list)
    shipped_segments: int = 0
    cloud: CloudStats = field(default_factory=CloudStats)
    quarantined: list[QuarantinedSegment] = field(repr=False, default_factory=list)

    @property
    def survival(self) -> float:
        """Survived fraction of the baseline (1.0 for an empty baseline)."""
        if self.baseline_frames <= 0:
            return 1.0
        return self.survived / self.baseline_frames

    @property
    def false_decode_rate(self) -> float:
        """False decodes over accepted frames (0.0 when nothing accepted)."""
        if self.accepted_frames <= 0:
            return 0.0
        return self.false_decodes / self.accepted_frames

    def passed(
        self, survival_floor: float = 0.95, false_decode_ceiling: float = 0.01,
        replay_ceiling: int = 0,
    ) -> bool:
        """The drill's gate: a non-empty baseline survives and acceptance
        hygiene is clean (an empty baseline's 100 % survival is vacuous)."""
        return (
            self.baseline_frames > 0
            and self.survival >= survival_floor
            and self.false_decode_rate <= false_decode_ceiling
            and self.replay_accepts <= replay_ceiling
        )

    def ledger(self) -> list[str]:
        """Deterministic per-run ledger: two same-seed drills must
        produce identical lines (the reproducibility acceptance check).
        """
        g, c = self.guard, self.cloud
        lines = [
            f"scenario={self.scenario} seed={self.seed}",
            f"survival={self.survived}/{self.baseline_frames}",
            f"accepted={self.accepted_frames} replay_accepts="
            f"{self.replay_accepts} false_decodes={self.false_decodes}",
            f"guard accepted={g.accepted} replays={g.replays_rejected} "
            f"duplicates={g.duplicates_rejected} corrupt={g.corrupt_rejected}",
            f"jamming_events={self.jamming_events}",
            # Not ``degraded``: it counts wall-clock decode timeouts.
            f"cloud decoded={c.segments} retried={c.retried} requeued={c.requeued}",
        ]
        if self.quarantined:
            lines.append(
                "quarantined seq=" + ",".join(str(q.seq) for q in self.quarantined)
            )
        lines += [f"frame {tech}:{payload.hex()}" for tech, payload in sorted(self.accepted)]
        return lines

    def summary(self) -> list[str]:
        """Human-readable outcome lines, as ``galiot chaos/attack`` print."""
        latency = self.detection_latency_s
        latency_str = (
            "n/a (no jammers)" if latency is None
            else "undetected" if latency == float("inf")
            else f"{latency * 1e3:.1f} ms"
        )
        g, c = self.guard, self.cloud
        lines = [
            f"baseline frames: {self.baseline_frames}  perturbed frames: "
            f"{self.accepted_frames}  survival: {100 * self.survival:.1f}%",
            f"acceptance hygiene: {self.false_decodes} false decodes "
            f"({100 * self.false_decode_rate:.2f}%), {self.replay_accepts} "
            f"replays accepted (guard rejected {g.replays_rejected} replays, "
            f"{g.duplicates_rejected} duplicates, {g.corrupt_rejected} corrupt)",
            f"jamming: {self.jamming_events} events, detection latency {latency_str}",
            f"gateway: {self.shipped_segments} shipped, {self.degraded_segments} "
            f"degraded (metadata-only), {self.dropped_segments} evicted",
            f"cloud: {c.segments} decoded, {c.retried} retried, {c.requeued} "
            f"requeued, {c.quarantined} quarantined, {c.degraded} degraded",
        ]
        lines += [f"  quarantined seq {q.seq}: {q.reason}" for q in self.quarantined]
        if self.baseline_frames == 0:
            lines.append("FAIL: the baseline decoded no frames")
        return lines


def describe_plan(plan: FaultPlan | AttackPlan) -> list[str]:
    """The plan's timeline, one line per scheduled perturbation."""
    if isinstance(plan, FaultPlan):
        lines = [f"outage          {w.start_s:.3f}s .. {w.end_s:.3f}s" for w in plan.outages]
        lines += [f"sample gap      {g.start} (+{g.length} samples)" for g in plan.sample_gaps]
        for label, scheduled in (
            ("poison segments", plan.poison_segments),
            ("corrupt segments", plan.corrupt_segments),
            ("worker crashes at submissions", plan.crash_submissions),
            ("worker hangs at submissions", plan.hang_submissions),
        ):
            if scheduled:
                lines.append(f"{label} {sorted(scheduled)}")
        return lines
    lines = []
    for j in plan.jammers:
        extra = f" period {j.period_s * 1e3:.0f} ms duty {j.duty:.2f}" if j.kind == "pulse" else ""
        lines.append(
            f"{j.kind + ' jammer':<15} {j.start_s:.3f}s .. {j.end_s:.3f}s "
            f"power {j.power:.1f}x{extra}"
        )
    lines += [
        f"replay          packet #{r.victim} after +{r.delay_s:.3f}s ({r.gain_db:+.1f} dB)"
        for r in plan.replays
    ]
    lines += [f"spoof           {s.technology} preamble at {s.start_s:.3f}s" for s in plan.spoofs]
    if plan.is_empty():
        lines.append("(no adversary: measures the hardening layer's clean-air overhead)")
    return lines


def _render(
    scene: DrillScene, modems: list[Modem], label: str, attack: AttackPlan | None = None
) -> tuple[np.ndarray, SceneTruth, np.ndarray, AttackLedger]:
    """Render the honest scene (payloads ``<label>-<i>``), plus ``attack``.

    The adversary draws only from plan-derived generators, so the honest
    packets and the floor noise are bit-identical with and without it.
    """
    rng = np.random.default_rng(scene.seed)
    builder = SceneBuilder(FS, scene.duration_s)
    n_samples = int(scene.duration_s * FS)
    for i in range(scene.packets):
        start = int((i + 0.5) * n_samples / scene.packets)
        builder.add_packet(
            modems[i % len(modems)], f"{label}-{i}".encode(), start,
            scene.snr_db, rng, snr_mode="capture",
        )
    ledger = render_attack_plan(builder, attack, modems) if attack is not None else AttackLedger()
    capture, truth = builder.render(rng)
    noise = (
        rng.normal(size=200_000) + 1j * rng.normal(size=200_000)
    ) * np.sqrt(truth.noise_power / 2)
    return capture, truth, noise, ledger


def _run_pipeline(
    capture: np.ndarray, noise: np.ndarray, modems: list[Modem], scene: DrillScene, *,
    gapped: bool = False, faults: FaultPlan | None = None, hardened: bool = False,
    workers: int = 2,
) -> tuple[
    GatewayReport, list[DecodeResult], CloudStats, list[QuarantinedSegment],
    GuardStats, Telemetry,
]:
    """Stream ``capture`` through one of the drills' four pipelines.

    The defaults are the clean baseline (``gapped`` keeps the chaos
    run's :class:`RtlSdrModel` front end, so the runs differ only by the
    faults); the unhardened attack is the baseline on the attacked
    capture. ``faults`` feeds the chaos plan to the front end's sample
    gaps, a resilient backhaul with a degradation ladder, and a decode
    farm with a 30 s decode budget. ``hardened`` adds the resilient
    backhaul, ladder, jamming detector and one decode guard shared by
    the gateway and a serial cloud with two sync retries.
    """
    # Each run is a composition root: the baseline and perturbed
    # pipelines need isolated registries so the report's counters
    # reflect only the perturbed run.
    telemetry = Telemetry()  # noqa: GL005
    resilient = faults is not None or hardened
    guard = DecodeGuard() if hardened else None
    gateway = GalioTGateway(
        modems, FS, use_edge=False,
        front_end=RtlSdrModel(faults=faults) if gapped else None,
        backhaul=ResilientBackhaul(
            BackhaulLink(rate_bps=scene.rate_mbps * 1e6, max_queue_s=0.5),
            faults=faults,
        ) if resilient else None,
        degradation=DegradationLadder() if resilient else None,
        jamming=JammingDetector(FS) if hardened else None,
        guard=guard,
        telemetry=telemetry,
    )
    gateway.detector.calibrate(noise)
    chunks = iter_chunks(capture, scene.chunk)
    if faults is None:
        service = CloudService(
            modems, FS, guard=guard, sync_retries=2 if hardened else 0,
            telemetry=telemetry,
        )
        report = StreamingGateway(gateway).process_stream(chunks)
        results = [r for s in report.shipped for r in service.process_segment(s)]
        guard_stats = guard.stats if guard is not None else GuardStats()
        return report, results, service.stats, [], guard_stats, telemetry
    farm = ParallelCloudService(
        modems, FS, workers=workers, telemetry=telemetry,
        faults=faults, resilience=CloudResilience(decode_timeout_s=30.0),
    )
    try:
        reports = []
        for chunk_report in StreamingGateway(gateway).run(chunks):
            for segment in chunk_report.shipped:
                farm.submit(segment)
            reports.append(chunk_report)
        report = GatewayReport.merged(reports)
        results = farm.drain()
        return report, results, farm.stats, list(farm.quarantine), GuardStats(), telemetry
    finally:
        # The chaos plan injects crashes on purpose: an escaping fault
        # must still tear the farm down.
        farm.close()


def _detection_latency(plan_jammers, jamming_events) -> float | None:
    if not plan_jammers:
        return None
    first = min(plan_jammers, key=lambda j: j.start_s)
    for event in sorted(jamming_events, key=lambda e: e.start_s):
        if event.end_s > first.start_s and event.start_s < first.end_s:
            return max(event.start_s - first.start_s, 0.0)
    return float("inf")


def run_drill(
    plan: FaultPlan | AttackPlan, scenario: str, scene: DrillScene = DrillScene(), *,
    hardened: bool = True, workers: int = 2,
) -> DrillReport:
    """Run one scored drill: clean baseline vs. ``plan``.

    Args:
        plan: A :class:`~repro.faults.FaultPlan` (chaos: honest payloads
            ``chaos-<i>``) or an :class:`~repro.net.adversary.AttackPlan`
            (attack: ``legit-<i>``), e.g. from :meth:`DrillScene.plan`.
        scenario: The plan's name, for the report.
        scene: The honest scene and shared pipeline knobs.
        hardened: Attack only: defend the attacked capture with the
            hardened receive path (off: what the guards are worth).
        workers: Chaos only: decode farm size.
    """
    chaos = isinstance(plan, FaultPlan)
    label = "chaos" if chaos else "legit"
    modems = [create_modem(name) for name in scene.technologies]
    capture, truth, noise, ledger = _render(scene, modems, label)
    gapped = chaos and bool(plan.sample_gaps)
    _, base_results, *_ = _run_pipeline(capture, noise, modems, scene, gapped=gapped)
    if chaos:
        run = _run_pipeline(
            capture, noise, modems, scene, gapped=gapped, faults=plan,
            workers=workers,
        )
    else:
        attacked, _, _, ledger = _render(scene, modems, label, plan)
        run = _run_pipeline(attacked, noise, modems, scene, hardened=hardened)
    report, results, cloud, quarantined, guard, telemetry = run

    base_frames = [(r.technology, r.payload) for r in base_results if r.ok]
    accepted = [(r.technology, r.payload) for r in results if r.ok]
    truth_frames = {(p.technology, p.payload) for p in truth.packets}
    return DrillReport(
        scenario=scenario,
        seed=scene.seed,
        baseline_frames=len(base_frames),
        accepted_frames=len(accepted),
        survived=sum(1 for f in base_frames if f in accepted),
        replay_accepts=sum(max(0, accepted.count(k) - 1) for k in ledger.replayed_payloads()),
        false_decodes=sum(1 for f in accepted if f not in truth_frames),
        jamming_events=len(report.jamming_events),
        detection_latency_s=_detection_latency(
            () if chaos else plan.jammers, report.jamming_events
        ),
        degraded_segments=report.degraded_segments,
        dropped_segments=report.dropped_segments,
        shipped_segments=len(report.shipped),
        guard=guard, telemetry=telemetry, accepted=accepted, cloud=cloud,
        quarantined=quarantined,
    )


def run_attack_drill(scenario: str, hardened: bool = True, **scene) -> DrillReport:
    """Run the named attack scenario; ``scene`` takes :class:`DrillScene` fields."""
    drill_scene = DrillScene(**scene)
    plan = drill_scene.plan("attack", scenario)
    return run_drill(plan, scenario, drill_scene, hardened=hardened)
