"""Distributed QASSA for ad hoc pervasive environments (§IV.4, Fig. VI.12).

In an infrastructure-less environment (the open-air-market scenario) there
is no central platform: services live on the vendors' devices and the user's
device coordinates selection.  QASSA's two-phase design was chosen precisely
because it distributes naturally:

* the **local phase** runs *on each provider device*, over the candidates it
  hosts — devices compute their own QoS levels concurrently and send only
  compact level summaries (centroids + representatives) to the coordinator;
* the **global phase** runs on the coordinator over the received summaries,
  exactly as in the centralized algorithm.

The execution-time decomposition the paper plots (Fig. VI.12a/b) is
reproduced here on a simulated ad hoc network: wall-clock of the local phase
is the *maximum* over devices (they run concurrently) plus the summary
transmission time; the global phase adds the coordinator's computation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import SelectionError
from repro.qos.properties import QoSProperty
from repro.composition.aggregation import AggregationApproach
from repro.composition.qassa import FEASIBLE_BEAM, QASSA, QassaConfig
from repro.composition.request import UserRequest
from repro.composition.selection import (
    CandidateSets,
    CompositionPlan,
    SelectionStatistics,
    relevant_properties,
)


@dataclass(frozen=True)
class AdHocLink:
    """A crude wireless-link model: per-message latency + throughput.

    ``transfer_seconds`` estimates the time to ship ``payload_bytes`` from a
    provider device to the coordinator over one hop.
    """

    latency_seconds: float = 0.004
    bandwidth_bytes_per_second: float = 250_000.0

    def transfer_seconds(self, payload_bytes: int) -> float:
        return self.latency_seconds + payload_bytes / self.bandwidth_bytes_per_second


#: Rough wire size of one level summary (centroid floats + ids), used to
#: estimate transmission times without serialising anything.
_BYTES_PER_LEVEL = 96
_BYTES_PER_SERVICE_REF = 40


@dataclass
class NodeAssignment:
    """Which activities' candidate sets a provider device hosts."""

    node_id: str
    activity_names: List[str]


@dataclass
class DistributedTiming:
    """Phase decomposition of one distributed run (Fig. VI.12 series)."""

    local_phase_seconds: float = 0.0
    per_node_seconds: Dict[str, float] = field(default_factory=dict)
    transmission_seconds: float = 0.0
    global_phase_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.local_phase_seconds
            + self.transmission_seconds
            + self.global_phase_seconds
        )


class DistributedQASSA:
    """QASSA split across provider devices and a coordinator.

    ``nodes`` partitions the task's activities over devices; activities not
    mentioned default to the coordinator itself.  The underlying phases are
    the centralized implementations — what changes is *where* they (are
    modelled to) run and the resulting wall-clock accounting.
    """

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
        config: QassaConfig = QassaConfig(),
        link: AdHocLink = AdHocLink(),
    ) -> None:
        self.qassa = QASSA(properties, approach, config)
        self.link = link

    def select(
        self,
        request: UserRequest,
        candidates: CandidateSets,
        nodes: Sequence[NodeAssignment],
        best_effort: bool = False,
    ) -> Tuple[CompositionPlan, DistributedTiming]:
        """Run the distributed protocol; returns (plan, phase timings).

        The plan's statistics count every device's local phase and the
        coordinator's global phase, as a centralized select counts both.
        """
        self._check_partition(candidates, nodes)
        timing = DistributedTiming()
        stats = SelectionStatistics(search_space=candidates.search_space())

        # --- local phase: one sub-run per device, concurrent in the field --
        locals_ = {}
        for node in nodes:
            started = time.perf_counter()
            device = SelectionStatistics()
            node_locals = self.qassa.local_selections(request, {
                name: candidates[name] for name in node.activity_names
            }, device)
            elapsed = time.perf_counter() - started
            timing.per_node_seconds[node.node_id] = elapsed
            locals_.update(node_locals)
            stats.utility_evaluations += device.utility_evaluations
            stats.clustering_iterations += device.clustering_iterations
            stats.cache_hits += device.cache_hits
            stats.cache_misses += device.cache_misses

            payload = sum(
                _BYTES_PER_LEVEL * len(sel.levels)
                + _BYTES_PER_SERVICE_REF * len(sel.services)
                for sel in node_locals.values()
            )
            timing.transmission_seconds = max(
                timing.transmission_seconds, self.link.transfer_seconds(payload)
            )
        # Devices compute concurrently: the phase lasts as long as the
        # slowest device.
        timing.local_phase_seconds = max(
            timing.per_node_seconds.values(), default=0.0
        )

        # --- global phase: coordinator-side assembly ------------------------
        relevant = relevant_properties(self.qassa.properties, request)
        started = time.perf_counter()
        plan = self.qassa.global_phase(
            request, candidates, locals_, relevant, stats, FEASIBLE_BEAM,
            best_effort,
        )[0]
        timing.global_phase_seconds = time.perf_counter() - started

        stats.elapsed_seconds = timing.total_seconds
        stats.extra.update(
            local_phase_seconds=timing.local_phase_seconds,
            transmission_seconds=timing.transmission_seconds,
            global_phase_seconds=timing.global_phase_seconds,
            nodes=float(len(nodes)),
        )
        plan.statistics = stats
        return plan, timing

    @staticmethod
    def _check_partition(
        candidates: CandidateSets, nodes: Sequence[NodeAssignment]
    ) -> None:
        covered: List[str] = []
        for node in nodes:
            covered.extend(node.activity_names)
        duplicates = {n for n in covered if covered.count(n) > 1}
        if duplicates:
            raise SelectionError(
                f"activities assigned to several nodes: {sorted(duplicates)}"
            )
        missing = set(candidates.activity_names()) - set(covered)
        if missing:
            raise SelectionError(
                f"activities assigned to no node: {sorted(missing)}"
            )


def nodes_from_environment(
    candidates: CandidateSets,
    environment,
    coordinator_id: str = "coordinator",
) -> List[NodeAssignment]:
    """Partition a task's activities over the environment's devices.

    Each activity is assigned to the device hosting the *plurality* of its
    candidate services (that device already knows those services' QoS, so it
    is the natural place to run the activity's local phase).  Activities
    whose candidates have no identifiable host fall to the coordinator.
    """
    assignments: Dict[str, List[str]] = {}
    for name in candidates.activity_names():
        tally: Dict[str, int] = {}
        for service in candidates[name]:
            host = service.host_device
            if host is None:
                continue
            tally[host] = tally.get(host, 0) + 1
        if tally:
            winner = max(sorted(tally), key=lambda h: tally[h])
        else:
            winner = coordinator_id
        assignments.setdefault(winner, []).append(name)
    return [
        NodeAssignment(node_id, names)
        for node_id, names in sorted(assignments.items())
    ]


def round_robin_nodes(
    activity_names: Sequence[str], node_count: int
) -> List[NodeAssignment]:
    """Spread a task's activities over N devices round-robin (experiment
    helper for Fig. VI.12)."""
    if node_count < 1:
        raise SelectionError("node_count must be >= 1")
    nodes = [NodeAssignment(f"node-{i}", []) for i in range(node_count)]
    for i, name in enumerate(activity_names):
        nodes[i % node_count].activity_names.append(name)
    return [n for n in nodes if n.activity_names]
