"""Seeded differential fuzzing of the selection path (§VI.3.2 tooling).

The exact branch-and-bound oracle (:mod:`repro.composition.exact`) makes a
classic correctness harness possible: throw randomized selection problems —
random pattern trees, candidate pools, constraint sets, weights and
aggregation approaches — at QASSA and every baseline, and check each
outcome against the oracle:

* **oracle ground truth** — the oracle's plan must be internally consistent
  (recomputed aggregate, utility and feasibility match what the plan
  claims) and byte-identical to :class:`ExhaustiveSelection` wherever the
  full enumeration is tractable;
* **feasibility agreement** — a heuristic may *miss* a feasible solution,
  but it must never produce one when the oracle proves infeasibility, and
  a returned plan's ``feasible`` flag must match re-evaluation;
* **utility ordering** — no feasible heuristic plan may beat the oracle's
  optimum, and each selector must be deterministic under its seed.

Every divergence is reported with its generating seed, so a failure
reproduces with one :func:`generate_instance` call and becomes a pinned
regression test (see ``tests/test_selection_differential.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SelectionError
from repro.qos.properties import QoSProperty
from repro.composition.aggregation import AggregationApproach
from repro.composition.baselines import (
    ExhaustiveSelection,
    GeneticSelection,
    GreedySelection,
    RandomSelection,
)
from repro.composition.exact import ExactSelection
from repro.composition.qassa import QASSA, QassaConfig
from repro.composition.request import UserRequest
from repro.composition.selection import (
    CandidateSets,
    CompositionPlan,
    evaluate_assignment,
    make_global_normalizer,
)
from repro.composition.task import (
    Leaf,
    Node,
    Task,
    conditional,
    leaf,
    loop,
    parallel,
    sequence,
)
from repro.experiments.workloads import (
    EXPERIMENT_PROPERTIES,
    constraints_at_tightness,
)
from repro.services.generator import QoSDistribution, ServiceGenerator

#: Utility comparisons tolerate this much float noise (both sides are
#: computed through the identical normaliser/aggregation pipeline, so real
#: divergences are orders of magnitude larger).
UTILITY_EPS = 1e-9


@dataclass(frozen=True)
class FuzzSpec:
    """Size envelope of generated instances."""

    max_activities: int = 4
    max_services: int = 6
    max_constraints: int = 4
    pattern_probability: float = 0.5
    tractable_cap: int = 4000    # run the full enumeration below this


@dataclass
class FuzzInstance:
    """One randomized selection problem, fully determined by its seed."""

    seed: int
    task: Task
    request: UserRequest
    candidates: CandidateSets
    properties: Dict[str, QoSProperty]
    approach: AggregationApproach

    @property
    def search_space(self) -> int:
        return self.candidates.search_space()


@dataclass
class DifferentialReport:
    """Outcome of one differential check."""

    seed: int
    search_space: int
    tractable: bool
    oracle_feasible: Optional[bool] = None
    oracle_nodes: float = 0.0
    qassa_gap: Optional[float] = None
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _random_tree(rng: random.Random, leaves: List[Leaf]) -> Node:
    """A random pattern tree over the given leaves."""
    if len(leaves) == 1:
        node: Node = leaves[0]
        if rng.random() < 0.25:
            max_it = rng.randint(1, 4)
            node = loop(
                node, max_iterations=max_it,
                expected_iterations=rng.uniform(1.0, float(max_it)),
            )
        return node
    cut = rng.randint(1, len(leaves) - 1)
    left = _random_tree(rng, leaves[:cut])
    right = _random_tree(rng, leaves[cut:])
    kind = rng.random()
    if kind < 0.5:
        return sequence(left, right)
    if kind < 0.75:
        return parallel(left, right)
    p = rng.uniform(0.1, 0.9)
    return conditional(left, right, probabilities=(p, 1.0 - p))


def generate_instance(
    seed: int, spec: FuzzSpec = FuzzSpec()
) -> FuzzInstance:
    """Deterministically generate one randomized selection problem."""
    rng = random.Random(seed)
    prop_names = rng.sample(
        sorted(EXPERIMENT_PROPERTIES), rng.randint(2, 5)
    )
    properties = {name: EXPERIMENT_PROPERTIES[name] for name in prop_names}

    n_activities = rng.randint(1, spec.max_activities)
    leaves = [leaf(f"A{i}", f"task:Cap{i}") for i in range(n_activities)]
    if n_activities > 1 and rng.random() < spec.pattern_probability:
        root = _random_tree(rng, leaves)
    else:
        root = sequence(*leaves) if n_activities > 1 else leaves[0]
    task = Task(f"fuzz-{seed}", root)

    approach = rng.choice(list(AggregationApproach))
    generator = ServiceGenerator(
        properties,
        distribution=rng.choice(list(QoSDistribution)),
        seed=seed,
        tradeoff=rng.choice((0.0, 0.0, 0.5, 0.9)),
    )
    pools = {
        activity.name: generator.candidates(
            activity.capability, rng.randint(1, spec.max_services)
        )
        for activity in task.activities
    }
    candidates = CandidateSets(task, pools)

    n_constraints = rng.randint(0, min(spec.max_constraints, len(prop_names)))
    constrained = rng.sample(prop_names, n_constraints)
    constraints = constraints_at_tightness(
        task, candidates, properties, constrained,
        tightness=rng.uniform(0.05, 0.95), approach=approach,
    )

    weighted = rng.sample(prop_names, rng.randint(0, len(prop_names)))
    weights = {
        name: rng.choice((0.0, 0.5, 1.0, 2.0, rng.random()))
        for name in weighted
    }
    request = UserRequest(task=task, constraints=constraints, weights=weights)
    return FuzzInstance(
        seed=seed,
        task=task,
        request=request,
        candidates=candidates,
        properties=properties,
        approach=approach,
    )


# ----------------------------------------------------------------------
# selector runners
# ----------------------------------------------------------------------
def _run(selector, instance: FuzzInstance, **kwargs):
    """(plan, error) — exactly one is None."""
    try:
        return selector.select(
            instance.request, instance.candidates, **kwargs
        ), None
    except SelectionError as exc:
        return None, exc


def _plans_identical(a: CompositionPlan, b: CompositionPlan) -> bool:
    return (
        a.service_ids() == b.service_ids()
        and a.utility == b.utility
        and a.feasible == b.feasible
        and a.aggregated_qos == b.aggregated_qos
    )


def _check_consistency(
    label: str, plan: CompositionPlan, instance: FuzzInstance,
    divergences: List[str],
) -> None:
    """A plan must agree with a from-scratch re-evaluation of its binding."""
    properties = {
        name: instance.properties[name]
        for name in (
            instance.request.relevant_properties or tuple(instance.properties)
        )
    }
    normalizer = make_global_normalizer(
        instance.task, instance.candidates, properties, instance.approach
    )
    aggregated, utility, feasible = evaluate_assignment(
        instance.task, instance.request, plan.binding(), properties,
        normalizer, instance.approach,
    )
    if plan.feasible != feasible:
        divergences.append(
            f"{label}: plan.feasible={plan.feasible} but re-evaluation "
            f"says {feasible}"
        )
    if aggregated != plan.aggregated_qos:
        divergences.append(
            f"{label}: plan.aggregated_qos {plan.aggregated_qos!r} != "
            f"re-aggregated {aggregated!r}"
        )
    if abs(utility - plan.utility) > UTILITY_EPS:
        divergences.append(
            f"{label}: plan.utility {plan.utility!r} != re-scored "
            f"{utility!r}"
        )


def check_instance(
    instance: FuzzInstance,
    spec: FuzzSpec = FuzzSpec(),
) -> DifferentialReport:
    """Run the oracle, QASSA and the four baselines; cross-check outcomes."""
    report = DifferentialReport(
        seed=instance.seed,
        search_space=instance.search_space,
        tractable=instance.search_space <= spec.tractable_cap,
    )
    div = report.divergences
    props = instance.properties
    approach = instance.approach
    seed = instance.seed

    oracle = ExactSelection(props, approach)
    oracle_plan, oracle_err = _run(oracle, instance)
    report.oracle_feasible = oracle_plan is not None
    if oracle_plan is not None:
        report.oracle_nodes = oracle_plan.statistics.extra.get(
            "nodes_expanded", 0.0
        )
        _check_consistency("oracle", oracle_plan, instance, div)
        # Determinism / replay stability.
        rerun_plan, _ = _run(ExactSelection(props, approach), instance)
        if rerun_plan is None or not _plans_identical(oracle_plan, rerun_plan):
            div.append("oracle: two runs over the same instance diverge")

    # Exact-vs-enumeration agreement wherever enumeration is tractable,
    # in both modes (feasible optimum and best-effort fallback).
    if report.tractable:
        exhaustive = ExhaustiveSelection(props, approach)
        ex_plan, ex_err = _run(exhaustive, instance)
        if (ex_plan is None) != (oracle_plan is None):
            div.append(
                f"oracle vs exhaustive feasibility disagree: "
                f"exhaustive={'plan' if ex_plan else ex_err} "
                f"oracle={'plan' if oracle_plan else oracle_err}"
            )
        elif ex_plan is not None and not _plans_identical(ex_plan, oracle_plan):
            div.append(
                f"oracle plan differs from exhaustive optimum: "
                f"{oracle_plan.service_ids()} u={oracle_plan.utility!r} vs "
                f"{ex_plan.service_ids()} u={ex_plan.utility!r}"
            )
        ex_be, _ = _run(exhaustive, instance, best_effort=True)
        bb_be, _ = _run(ExactSelection(props, approach), instance,
                        best_effort=True)
        if (ex_be is None) != (bb_be is None):
            div.append("best-effort availability disagrees with exhaustive")
        elif ex_be is not None and not _plans_identical(ex_be, bb_be):
            div.append(
                f"best-effort plan differs from exhaustive: "
                f"{bb_be.service_ids()} u={bb_be.utility!r} vs "
                f"{ex_be.service_ids()} u={ex_be.utility!r}"
            )

    heuristics = [
        ("qassa", QASSA(props, approach, config=QassaConfig(seed=seed))),
        ("greedy", GreedySelection(props, approach)),
        ("random", RandomSelection(props, approach, attempts=30, seed=seed)),
        (
            "genetic",
            GeneticSelection(
                props, approach, population_size=16, generations=10,
                seed=seed,
            ),
        ),
    ]
    for label, selector in heuristics:
        plan, err = _run(selector, instance)
        if plan is None:
            continue  # a heuristic may miss feasible solutions
        _check_consistency(label, plan, instance, div)
        if not plan.feasible:
            div.append(
                f"{label}: returned an infeasible plan without best_effort"
            )
        if oracle_plan is None:
            div.append(
                f"{label}: found a feasible plan on an instance the oracle "
                f"proved infeasible"
            )
        elif plan.utility > oracle_plan.utility + UTILITY_EPS:
            div.append(
                f"{label}: feasible utility {plan.utility!r} beats the "
                f"exact optimum {oracle_plan.utility!r}"
            )
        if label == "qassa" and oracle_plan is not None:
            from repro.experiments.harness import optimality

            report.qassa_gap = optimality(plan, oracle_plan)
    return report


def fuzz_sweep(
    seeds: Sequence[int], spec: FuzzSpec = FuzzSpec()
) -> List[DifferentialReport]:
    """Differential-check every seed; one report per instance."""
    return [
        check_instance(generate_instance(seed, spec), spec) for seed in seeds
    ]

