"""SLA-aware edge/cloud dispatch (paper Sec. 4, "Edge vs. the Cloud").

The paper's implementation ships a segment to the cloud only when edge
decoding fails, and leaves as future work "factoring in SLAs to abide by
quality-of-service requirements for different technologies and ensuring
load-balancing between multiple edge computing nodes vs. the cloud".
This module implements that future-work dispatcher as a discrete model:

* :class:`ComputeNode` — an edge box or the cloud: a FIFO processor with
  a service rate (segment-seconds of I/Q per wall-clock second) and a
  network round-trip;
* :class:`SlaPolicy` — per-technology decode deadlines (a Z-Wave lock
  command needs an answer in tens of ms; a LoRa sensor reading can wait);
* :class:`Dispatcher` — earliest-completion-time assignment under the
  deadline: prefer the cheapest node that still meets the segment's SLA,
  fall back to the fastest completion when none can.

The model is deliberately queue-theoretic (no I/Q flows through it); the
decode pipeline itself lives in :mod:`repro.cloud.pipeline`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..types import Segment

__all__ = ["ComputeNode", "SlaPolicy", "Assignment", "Dispatcher"]


@dataclass
class ComputeNode:
    """One place a segment can be decoded.

    Attributes:
        name: Identifier ("edge-0", "cloud").
        speed: Processing speed as a multiple of real time — a node with
            ``speed=4`` decodes one second of I/Q in 0.25 s.
        rtt_s: Network round trip to reach the node and return results.
        cost: Abstract per-second-of-IQ cost (cloud compute is cheap at
            scale, edge boxes are free but scarce — model as you like).
    """

    name: str
    speed: float
    rtt_s: float = 0.0
    cost: float = 0.0
    _busy_until: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        # Written so NaN and inf fail: a NaN speed or RTT makes every
        # completion time NaN, and the dispatcher then never picks the
        # node.
        if not 0 < self.speed < math.inf:
            raise ConfigurationError("speed must be positive and finite")
        if not 0 <= self.rtt_s < math.inf:
            raise ConfigurationError("rtt_s must be >= 0 and finite")

    def completion_time(self, duration_s: float, at_time: float) -> float:
        """When a segment of ``duration_s`` submitted at ``at_time``
        would finish on this node (FIFO queue + service + RTT)."""
        start = max(at_time, self._busy_until)
        return start + duration_s / self.speed + self.rtt_s

    def commit(self, duration_s: float, at_time: float) -> float:
        """Enqueue the work; returns the completion time."""
        start = max(at_time, self._busy_until)
        done = start + duration_s / self.speed
        self._busy_until = done
        return done + self.rtt_s


@dataclass(frozen=True)
class SlaPolicy:
    """Per-technology decode deadlines in seconds."""

    deadlines_s: dict[str, float]
    default_s: float = 1.0

    def deadline(self, technology: str | None) -> float:
        """Deadline for a segment whose (suspected) technology is given.

        Unknown or unclassified segments get the *strictest* deadline of
        any registered technology — the gateway does not know what is
        inside a collision, so it must assume the most latency-critical
        case.
        """
        if technology is None:
            if not self.deadlines_s:
                return self.default_s
            return min(self.deadlines_s.values())
        return self.deadlines_s.get(technology, self.default_s)


@dataclass(frozen=True)
class Assignment:
    """Outcome of dispatching one segment.

    ``service_s`` is the wall-clock the node itself spends on the
    segment (I/Q duration divided by node speed) — it excludes FIFO
    queue wait and network RTT, which belong to latency accounting,
    not node load.
    """

    node: str
    submitted_at: float
    completes_at: float
    deadline_at: float
    service_s: float = 0.0

    @property
    def meets_sla(self) -> bool:
        """Whether the decode lands inside its deadline."""
        return self.completes_at <= self.deadline_at


class Dispatcher:
    """Greedy SLA-aware segment placement over a set of compute nodes.

    Args:
        nodes: Available nodes (edges + cloud), in preference order for
            cost tie-breaks.
        policy: Deadlines per technology.
    """

    def __init__(self, nodes: list[ComputeNode], policy: SlaPolicy):
        if not nodes:
            raise ConfigurationError("at least one compute node is required")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError("node names must be unique")
        self.nodes = list(nodes)
        self.policy = policy
        self.assignments: list[Assignment] = []

    def dispatch(
        self,
        segment: Segment,
        at_time: float,
        technology_hint: str | None = None,
    ) -> Assignment:
        """Place one segment.

        Picks the cheapest node whose completion meets the SLA; when no
        node can, picks the earliest completion (degraded but best
        effort, recorded as an SLA miss).
        """
        duration = segment.duration
        deadline = at_time + self.policy.deadline(technology_hint)
        feasible = [
            n
            for n in self.nodes
            if n.completion_time(duration, at_time) <= deadline
        ]
        if feasible:
            chosen = min(
                feasible,
                key=lambda n: (n.cost, n.completion_time(duration, at_time)),
            )
        else:
            chosen = min(
                self.nodes, key=lambda n: n.completion_time(duration, at_time)
            )
        done = chosen.commit(duration, at_time)
        assignment = Assignment(
            node=chosen.name,
            submitted_at=at_time,
            completes_at=done,
            deadline_at=deadline,
            service_s=duration / chosen.speed,
        )
        self.assignments.append(assignment)
        return assignment

    @property
    def sla_miss_rate(self) -> float:
        """Fraction of dispatched segments that missed their deadline."""
        if not self.assignments:
            return 0.0
        misses = sum(1 for a in self.assignments if not a.meets_sla)
        return misses / len(self.assignments)

    def load(self, node_name: str) -> float:
        """Total service seconds committed to one node.

        Sums only the time the node actually spends decoding — queue
        wait and RTT are excluded, so two queued segments on one node
        load it by exactly the sum of their service times.
        """
        return sum(
            a.service_s for a in self.assignments if a.node == node_name
        )
