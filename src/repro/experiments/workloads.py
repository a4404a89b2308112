"""Synthetic workloads matching the paper's experimental set-up (§VI.3.1).

A workload is: a task of ``n`` abstract activities (sequential by default, or
mixed with parallel/conditional/loop patterns for the aggregation-approach
experiments), ``N`` candidate services per activity with QoS drawn from
uniform or normal laws, preference weights, and ``k`` global constraints
whose bounds sit at a controlled *tightness*:

* ``tightness`` ∈ [0, 1] interpolates each constrained property's bound
  between the best achievable aggregate (0 — usually infeasible) and the
  worst (1 — trivially satisfiable);
* alternatively (Figs. VI.10-11) bounds are pinned at ``n·m`` or
  ``n·(m+σ)`` of the generator's normal law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.qos.properties import Direction, QoSProperty, STANDARD_PROPERTIES
from repro.services.generator import (
    QoSDistribution,
    ServiceGenerator,
)
from repro.composition.aggregation import (
    AggregationApproach,
    CompiledAggregation,
    aggregation_bounds,
)
from repro.composition.request import GlobalConstraint, UserRequest
from repro.composition.selection import CandidateSets
from repro.composition.task import (
    Node,
    Task,
    conditional,
    leaf,
    loop,
    parallel,
    sequence,
)

#: Property set of the paper's experiments.
EXPERIMENT_PROPERTIES: Dict[str, QoSProperty] = {
    name: STANDARD_PROPERTIES[name]
    for name in (
        "response_time",
        "cost",
        "availability",
        "reliability",
        "throughput",
        "reputation",
        "security_level",
        "energy",
    )
}

#: Order in which constraints are added as k grows (Fig. VI.5b).
CONSTRAINT_ORDER: Tuple[str, ...] = (
    "response_time",
    "availability",
    "cost",
    "reliability",
    "throughput",
    "reputation",
    "security_level",
    "energy",
)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic workload."""

    activities: int = 5
    services_per_activity: int = 50
    constraints: int = 4
    tightness: float = 0.6
    weights_on: Tuple[str, ...] = CONSTRAINT_ORDER[:4]
    distribution: QoSDistribution = QoSDistribution.UNIFORM
    mixed_patterns: bool = False
    seed: int = 0


@dataclass
class Workload:
    """A ready-to-run selection problem instance."""

    spec: WorkloadSpec
    task: Task
    request: UserRequest
    candidates: CandidateSets
    generator: ServiceGenerator
    properties: Dict[str, QoSProperty]


def make_task(
    activities: int, mixed_patterns: bool = False, name: str = "workload"
) -> Task:
    """An ``n``-activity task: plain sequence, or (when ``mixed_patterns``)
    a sequence interleaving parallel, conditional and loop patterns so every
    aggregation formula is exercised."""
    leaves = [leaf(f"A{i}", f"task:Cap{i}") for i in range(activities)]
    if not mixed_patterns or activities < 4:
        return Task(name, sequence(*leaves))
    members: List[Node] = [leaves[0]]
    i = 1
    toggle = 0
    while i < len(leaves):
        remaining = len(leaves) - i
        if toggle == 0 and remaining >= 2:
            members.append(parallel(leaves[i], leaves[i + 1]))
            i += 2
        elif toggle == 1 and remaining >= 2:
            members.append(
                conditional(leaves[i], leaves[i + 1], probabilities=(0.6, 0.4))
            )
            i += 2
        elif toggle == 2:
            members.append(loop(leaves[i], max_iterations=3, expected_iterations=2))
            i += 1
        else:
            members.append(leaves[i])
            i += 1
        toggle = (toggle + 1) % 3
    return Task(name, sequence(*members))


def constraints_at_tightness(
    task: Task,
    candidates: CandidateSets,
    properties: Mapping[str, QoSProperty],
    names: Sequence[str],
    tightness: float,
    approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
) -> Tuple[GlobalConstraint, ...]:
    """Constraints interpolated between best and worst achievable aggregates."""
    constrained = {name: properties[name] for name in names}
    low, high = CompiledAggregation(task.root, constrained, approach).bounds({
        activity: (table.low, table.high)
        for activity, table in candidates.tables(tuple(constrained)).items()
    })
    constraints = []
    for prop, lo, hi in zip(constrained.values(), low, high):
        negative = prop.direction is Direction.NEGATIVE
        best, worst = (lo, hi) if negative else (hi, lo)
        bound = best + tightness * (worst - best)
        constraints.append(GlobalConstraint.natural(prop, bound))
    return tuple(constraints)


def constraints_at_normal_offset(
    task: Task,
    generator: ServiceGenerator,
    properties: Mapping[str, QoSProperty],
    names: Sequence[str],
    sigma_offset: float,
    approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
) -> Tuple[GlobalConstraint, ...]:
    """Constraints pinned at the normal law, as in Figs. VI.10-11.

    For each property the per-activity budget is ``m + sigma_offset·σ`` in
    the *permissive* direction (a negative property gets a larger budget,
    a positive one a smaller floor), aggregated over the task structure.
    """
    constraints = []
    for name in names:
        prop = properties[name]
        law = generator.law(name)
        if prop.direction is Direction.NEGATIVE:
            per_activity = law.mean + sigma_offset * law.stddev
        else:
            per_activity = law.mean - sigma_offset * law.stddev
        lo, hi = prop.value_range
        per_activity = min(max(per_activity, lo), hi)
        extremes = {
            a.name: (per_activity, per_activity) for a in task.activities
        }
        bound, _ = aggregation_bounds(task, prop, extremes, approach)
        constraints.append(GlobalConstraint.natural(prop, bound))
    return tuple(constraints)


def make_workload(
    spec: WorkloadSpec,
    approach: AggregationApproach = AggregationApproach.PESSIMISTIC,
    sigma_offset: Optional[float] = None,
) -> Workload:
    """Build one full problem instance from a spec.

    ``sigma_offset`` switches constraint placement from tightness
    interpolation to the normal-law pinning of Figs. VI.10-11 (it requires
    ``spec.distribution == NORMAL`` to be meaningful).
    """
    properties = dict(EXPERIMENT_PROPERTIES)
    task = make_task(spec.activities, spec.mixed_patterns)
    generator = ServiceGenerator(
        properties, distribution=spec.distribution, seed=spec.seed
    )
    pools = {
        activity.name: generator.candidates(
            activity.capability, spec.services_per_activity
        )
        for activity in task.activities
    }
    candidates = CandidateSets(task, pools)

    constraint_names = CONSTRAINT_ORDER[: spec.constraints]
    if sigma_offset is not None:
        constraints = constraints_at_normal_offset(
            task, generator, properties, constraint_names, sigma_offset, approach
        )
    else:
        constraints = constraints_at_tightness(
            task, candidates, properties, constraint_names, spec.tightness,
            approach,
        )

    weights = {name: 1.0 for name in spec.weights_on}
    request = UserRequest(task=task, constraints=constraints, weights=weights)
    return Workload(
        spec=spec,
        task=task,
        request=request,
        candidates=candidates,
        generator=generator,
        properties=properties,
    )
