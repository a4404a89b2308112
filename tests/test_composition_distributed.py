"""Tests for the distributed QASSA variant."""

from __future__ import annotations

import pytest

from repro.errors import SelectionError
from repro.qos.properties import STANDARD_PROPERTIES
from repro.services.generator import ServiceGenerator
from repro.composition.distributed import (
    AdHocLink,
    DistributedQASSA,
    NodeAssignment,
    round_robin_nodes,
)
from repro.composition.qassa import QASSA, QassaConfig
from repro.composition.request import GlobalConstraint, UserRequest
from repro.composition.selection import CandidateSets
from repro.composition.task import Task, leaf, sequence
from repro.experiments.fuzzing import FuzzSpec, generate_instance

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability")
}


@pytest.fixture
def problem():
    task = Task(
        "p", sequence(*[leaf(f"A{i}", f"task:C{i}") for i in range(4)])
    )
    generator = ServiceGenerator(PROPS, seed=3)
    candidates = CandidateSets(
        task,
        {a.name: generator.candidates(a.capability, 10)
         for a in task.activities},
    )
    request = UserRequest(
        task,
        constraints=(GlobalConstraint.at_most("response_time", 1e9),),
        weights={n: 1.0 for n in PROPS},
    )
    return request, candidates


class TestRoundRobin:
    def test_spread(self):
        nodes = round_robin_nodes(["A", "B", "C", "D", "E"], 2)
        assert [n.activity_names for n in nodes] == [["A", "C", "E"], ["B", "D"]]

    def test_more_nodes_than_activities(self):
        nodes = round_robin_nodes(["A"], 4)
        assert len(nodes) == 1  # empty nodes dropped

    def test_zero_nodes_rejected(self):
        with pytest.raises(SelectionError):
            round_robin_nodes(["A"], 0)


class TestPartitionValidation:
    def test_duplicate_assignment_rejected(self, problem):
        request, candidates = problem
        nodes = [
            NodeAssignment("n1", ["A0", "A1"]),
            NodeAssignment("n2", ["A1", "A2", "A3"]),
        ]
        with pytest.raises(SelectionError):
            DistributedQASSA(PROPS).select(request, candidates, nodes)

    def test_uncovered_activity_rejected(self, problem):
        request, candidates = problem
        nodes = [NodeAssignment("n1", ["A0", "A1"])]
        with pytest.raises(SelectionError):
            DistributedQASSA(PROPS).select(request, candidates, nodes)


class TestDistributedSelection:
    def test_matches_centralized_outcome(self, problem):
        request, candidates = problem
        nodes = round_robin_nodes(candidates.activity_names(), 2)
        distributed_plan, _ = DistributedQASSA(PROPS).select(
            request, candidates, nodes
        )
        centralized_plan = QASSA(PROPS).select(request, candidates)
        assert distributed_plan.service_ids() == centralized_plan.service_ids()
        assert distributed_plan.utility == pytest.approx(
            centralized_plan.utility
        )

    def test_timing_decomposition(self, problem):
        request, candidates = problem
        nodes = round_robin_nodes(candidates.activity_names(), 2)
        plan, timing = DistributedQASSA(PROPS).select(request, candidates, nodes)
        assert timing.local_phase_seconds > 0
        assert timing.global_phase_seconds > 0
        assert timing.transmission_seconds > 0
        assert timing.total_seconds == pytest.approx(
            timing.local_phase_seconds
            + timing.transmission_seconds
            + timing.global_phase_seconds
        )
        assert len(timing.per_node_seconds) == 2
        assert plan.statistics.extra["nodes"] == 2.0

    def test_plan_counts_every_devices_local_phase(self):
        """Both plans count the same local and global work."""
        instance = generate_instance(
            3, FuzzSpec(max_activities=6, max_services=12)
        )
        request, candidates = instance.request, instance.candidates
        config = QassaConfig(seed=instance.seed)
        centralized = QASSA(
            instance.properties, instance.approach, config=config
        ).select(request, candidates, best_effort=True)
        distributed, _ = DistributedQASSA(
            instance.properties, instance.approach, config=config
        ).select(
            request, candidates,
            round_robin_nodes(candidates.activity_names(), 2),
            best_effort=True,
        )
        assert distributed.service_ids() == centralized.service_ids()
        assert distributed.utility == centralized.utility
        counters = ("utility_evaluations", "clustering_iterations",
                    "combinations_explored", "cache_hits", "cache_misses")
        assert [getattr(distributed.statistics, c) for c in counters] == [
            getattr(centralized.statistics, c) for c in counters
        ]

    def test_local_phase_is_max_over_nodes(self, problem):
        request, candidates = problem
        nodes = round_robin_nodes(candidates.activity_names(), 4)
        _, timing = DistributedQASSA(PROPS).select(request, candidates, nodes)
        assert timing.local_phase_seconds == pytest.approx(
            max(timing.per_node_seconds.values())
        )


class TestAdHocLink:
    def test_transfer_time_model(self):
        link = AdHocLink(latency_seconds=0.01,
                         bandwidth_bytes_per_second=1000.0)
        assert link.transfer_seconds(500) == pytest.approx(0.51)

    def test_slower_link_increases_transmission(self, problem):
        request, candidates = problem
        nodes = round_robin_nodes(candidates.activity_names(), 2)
        fast = DistributedQASSA(PROPS, link=AdHocLink(0.001, 1e7))
        slow = DistributedQASSA(PROPS, link=AdHocLink(0.2, 1e4))
        _, fast_timing = fast.select(request, candidates, nodes)
        _, slow_timing = slow.select(request, candidates, nodes)
        assert slow_timing.transmission_seconds > fast_timing.transmission_seconds
