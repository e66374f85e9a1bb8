"""Tests for the SLA-aware edge/cloud dispatcher."""

import numpy as np
import pytest

from repro.cloud.dispatch import Assignment, ComputeNode, Dispatcher, SlaPolicy
from repro.errors import ConfigurationError
from repro.types import Segment

FS = 1e6


def _segment(duration_s: float) -> Segment:
    return Segment(
        start=0, samples=np.zeros(int(duration_s * FS), complex), sample_rate=FS
    )


def _policy():
    return SlaPolicy(
        deadlines_s={"zwave": 0.05, "xbee": 0.2, "lora": 2.0}, default_s=1.0
    )


class TestComputeNode:
    def test_completion_time(self):
        node = ComputeNode("edge", speed=4.0, rtt_s=0.01)
        assert node.completion_time(1.0, at_time=0.0) == pytest.approx(0.26)

    def test_fifo_queueing(self):
        node = ComputeNode("edge", speed=1.0)
        node.commit(1.0, at_time=0.0)
        assert node.completion_time(1.0, at_time=0.5) == pytest.approx(2.0)

    def test_invalid_speed_rejected(self):
        with pytest.raises(ConfigurationError):
            ComputeNode("bad", speed=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"speed": float("nan")},
            {"speed": float("inf")},
            {"speed": 1.0, "rtt_s": float("nan")},
            {"speed": 1.0, "rtt_s": float("inf")},
        ],
    )
    def test_non_finite_speed_or_rtt_rejected(self, kwargs):
        # A NaN made every completion time NaN, so the dispatcher
        # silently never picked the node.
        with pytest.raises(ConfigurationError):
            ComputeNode("bad", **kwargs)


class TestSlaPolicy:
    def test_per_technology(self):
        policy = _policy()
        assert policy.deadline("zwave") == 0.05
        assert policy.deadline("unknown-tech") == 1.0

    def test_unclassified_gets_strictest(self):
        # A collision's contents are unknown at dispatch time.
        assert _policy().deadline(None) == 0.05


class TestDispatcher:
    def _nodes(self):
        edge = ComputeNode("edge", speed=1.0, rtt_s=0.001, cost=0.0)
        cloud = ComputeNode("cloud", speed=50.0, rtt_s=0.08, cost=1.0)
        return edge, cloud

    def test_prefers_cheap_edge_when_sla_allows(self):
        edge, cloud = self._nodes()
        dispatcher = Dispatcher([edge, cloud], _policy())
        a = dispatcher.dispatch(_segment(0.1), at_time=0.0, technology_hint="lora")
        assert a.node == "edge"
        assert a.meets_sla

    def test_strict_sla_goes_to_fast_cloud(self):
        # 0.1 s of I/Q on a 1x edge takes 0.1 s > the 50 ms Z-Wave
        # deadline; the cloud does it in 2 ms + 80 ms RTT < ... no:
        # 82 ms still > 50 ms? 0.002+0.08 = 0.082 > 0.05 -> neither
        # meets it; earliest completion wins (cloud).
        edge, cloud = self._nodes()
        dispatcher = Dispatcher([edge, cloud], _policy())
        a = dispatcher.dispatch(_segment(0.1), at_time=0.0, technology_hint="zwave")
        assert a.node == "cloud"

    def test_load_balancing_under_backlog(self):
        edge, cloud = self._nodes()
        dispatcher = Dispatcher([edge, cloud], _policy())
        # Saturate the edge with back-to-back XBee segments (0.2 s SLA,
        # 0.15 s of I/Q each at 1x): the first fits locally, later ones
        # must overflow to the cloud.
        nodes = [
            dispatcher.dispatch(
                _segment(0.15), at_time=0.0, technology_hint="xbee"
            ).node
            for _ in range(3)
        ]
        assert nodes[0] == "edge"
        assert "cloud" in nodes[1:]

    def test_miss_rate_accounting(self):
        edge = ComputeNode("edge", speed=0.5, rtt_s=0.0)
        dispatcher = Dispatcher([edge], SlaPolicy(deadlines_s={}, default_s=0.1))
        dispatcher.dispatch(_segment(0.2), at_time=0.0)  # needs 0.4 s > 0.1
        assert dispatcher.sla_miss_rate == 1.0

    def test_load_tracking(self):
        edge, cloud = self._nodes()
        dispatcher = Dispatcher([edge, cloud], _policy())
        dispatcher.dispatch(_segment(0.1), at_time=0.0, technology_hint="lora")
        assert dispatcher.load("edge") > 0
        assert dispatcher.load("cloud") == 0.0

    def test_load_counts_service_time_only(self):
        # Regression: load() used to sum completes_at - submitted_at,
        # double-charging FIFO queue wait and network RTT. Two queued
        # 0.2 s segments on a 2x node load it by exactly 0.1 s each,
        # even though the second one waits and both pay 50 ms of RTT.
        node = ComputeNode("edge", speed=2.0, rtt_s=0.05)
        dispatcher = Dispatcher(
            [node], SlaPolicy(deadlines_s={}, default_s=10.0)
        )
        first = dispatcher.dispatch(_segment(0.2), at_time=0.0)
        second = dispatcher.dispatch(_segment(0.2), at_time=0.0)
        assert first.service_s == pytest.approx(0.1)
        assert second.completes_at == pytest.approx(0.25)  # queued + rtt
        assert dispatcher.load("edge") == pytest.approx(0.2)

    def test_infeasible_falls_back_to_earliest_completion(self):
        # No node meets a 10 ms deadline; the dispatcher must degrade
        # to the earliest completion and record the SLA miss.
        slow = ComputeNode("edge", speed=0.5, rtt_s=0.0)
        far = ComputeNode("cloud", speed=50.0, rtt_s=5.0)
        dispatcher = Dispatcher(
            [slow, far], SlaPolicy(deadlines_s={}, default_s=0.01)
        )
        a = dispatcher.dispatch(_segment(0.2), at_time=0.0)
        assert a.node == "edge"  # 0.4 s beats 5.004 s
        assert not a.meets_sla
        assert dispatcher.sla_miss_rate == 1.0

    def test_duplicate_names_rejected(self):
        edge, _ = self._nodes()
        with pytest.raises(ConfigurationError):
            Dispatcher([edge, ComputeNode("edge", speed=2.0)], _policy())

    def test_no_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            Dispatcher([], _policy())

    def test_sla_miss_rate_zero_before_any_dispatch(self):
        # No assignments yet must read as "no misses", not divide by
        # zero or report 100%.
        edge, cloud = self._nodes()
        dispatcher = Dispatcher([edge, cloud], _policy())
        assert dispatcher.sla_miss_rate == 0.0

    def test_unknown_technology_when_default_is_strictest(self):
        # A named-but-unregistered technology gets default_s even when
        # that is stricter than every registered deadline; the
        # "strictest registered" rule applies only to technology=None
        # (an unclassified collision).
        policy = SlaPolicy(
            deadlines_s={"lora": 2.0, "xbee": 0.2}, default_s=0.01
        )
        assert policy.deadline("wmbus") == 0.01
        assert policy.deadline(None) == 0.2
        # And the dispatcher enforces that strict default: a segment too
        # long for either node's 10 ms budget is a recorded miss.
        edge, cloud = self._nodes()
        dispatcher = Dispatcher([edge, cloud], policy)
        a = dispatcher.dispatch(
            _segment(0.1), at_time=0.0, technology_hint="wmbus"
        )
        assert not a.meets_sla
        assert dispatcher.sla_miss_rate == 1.0

    def test_cost_tie_break_stable_against_node_order(self):
        # Sustained bursty load over equal-cost nodes: the assignment
        # sequence must be a pure function of the node *list order*
        # (first listed wins ties), so two dispatchers built from the
        # same list agree dispatch-for-dispatch, and reversing the list
        # only swaps the roles, never destabilizes the schedule.
        def run(names: list[str]) -> list[str]:
            nodes = [
                ComputeNode(n, speed=2.0, rtt_s=0.001, cost=1.0)
                for n in names
            ]
            dispatcher = Dispatcher(
                nodes, SlaPolicy(deadlines_s={}, default_s=0.5)
            )
            out = []
            # Three bursts of six segments with idle gaps between them.
            for burst in range(3):
                t0 = burst * 10.0
                for i in range(6):
                    out.append(
                        dispatcher.dispatch(
                            _segment(0.4), at_time=t0 + 0.01 * i
                        ).node
                    )
            return out

        first = run(["a", "b"])
        again = run(["a", "b"])
        assert first == again  # deterministic under identical load
        # Every burst starts at the first-listed node on a cost tie.
        assert first[0] == "a" and first[6] == "a" and first[12] == "a"
        swapped = run(["b", "a"])
        rename = {"a": "b", "b": "a"}
        assert swapped == [rename[n] for n in first]

    def test_assignment_record(self):
        edge, cloud = self._nodes()
        dispatcher = Dispatcher([edge, cloud], _policy())
        a = dispatcher.dispatch(_segment(0.05), 1.0, "lora")
        assert isinstance(a, Assignment)
        assert a.submitted_at == 1.0
        assert a.completes_at > a.submitted_at
