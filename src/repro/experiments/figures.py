"""One entry point per paper figure/table (Ch. VI §3, Ch. IV §5, Ch. V §7).

Every ``fig_*``/``table_*`` function runs the corresponding experiment and
returns one or more :class:`~repro.experiments.harness.Sweep` objects (or a
rendered table) holding exactly the series the paper plots.  The benchmark
files under ``benchmarks/`` are thin wrappers that print these and register
pytest-benchmark timings.

Default problem sizes are scaled so the full suite completes on a laptop in
minutes; pass larger parameters to push towards the paper's exact ranges
(the shapes are stable across sizes).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from repro.services.generator import QoSDistribution, ServiceGenerator
from repro.composition.aggregation import AggregationApproach
from repro.composition.baselines import (
    ExhaustiveSelection,
    GeneticSelection,
    GreedySelection,
)
from repro.composition.distributed import DistributedQASSA, round_robin_nodes
from repro.composition.qassa import QASSA
from repro.adaptation.behaviour_graph import task_to_graph
from repro.adaptation.homeomorphism import find_homeomorphism
from repro.execution.bpel import parse_bpel, to_bpel
from repro.experiments.harness import Sweep, measure, optimality, try_select
from repro.experiments.workloads import (
    EXPERIMENT_PROPERTIES,
    WorkloadSpec,
    make_task,
    make_workload,
)

_APPROACHES = (
    AggregationApproach.PESSIMISTIC,
    AggregationApproach.OPTIMISTIC,
    AggregationApproach.MEAN,
)


# ----------------------------------------------------------------------
# Table IV.1 — aggregation formulas
# ----------------------------------------------------------------------
def table_iv1() -> List[Tuple[str, str, str, str, str]]:
    """The aggregation-formula table: (property kind, sequence, parallel,
    conditional, loop) — symbolic, verified numerically by the test suite."""
    return [
        ("additive (time)", "Σ qi", "max qi", "branch choice", "n·q"),
        ("additive (resource)", "Σ qi", "Σ qi", "branch choice", "n·q"),
        ("multiplicative", "Π qi", "Π qi", "branch choice", "q^n"),
        ("min (bottleneck)", "min qi", "min qi", "branch choice", "q"),
        ("max", "max qi", "max qi", "branch choice", "q"),
        ("average", "mean qi", "mean qi", "branch choice", "q"),
    ]


# ----------------------------------------------------------------------
# Fig. VI.5 — execution time of centralized QASSA
# ----------------------------------------------------------------------
def fig_vi5a(
    service_counts: Sequence[int] = (10, 25, 50, 75, 100),
    activities: int = 5,
    constraints: int = 4,
    repetitions: int = 3,
    seed: int = 1,
) -> Sweep:
    """Execution time vs number of services per activity (Fig. VI.5a)."""
    sweep = Sweep("Fig VI.5a — QASSA execution time", "services/activity")
    for count in service_counts:
        workload = make_workload(
            WorkloadSpec(
                activities=activities,
                services_per_activity=count,
                constraints=constraints,
                seed=seed,
            )
        )
        qassa = QASSA(workload.properties)
        elapsed, plan = measure(
            lambda: qassa.select(workload.request, workload.candidates),
            repetitions,
        )
        genetic = GeneticSelection(workload.properties, seed=seed)
        genetic_elapsed, _ = measure(
            lambda: genetic.select(
                workload.request, workload.candidates, best_effort=True
            ),
            1,
        )
        greedy = GreedySelection(workload.properties)
        greedy_elapsed, _ = measure(
            lambda: greedy.select(
                workload.request, workload.candidates, best_effort=True
            ),
            repetitions,
        )
        sweep.add(
            count,
            qassa_ms=elapsed * 1000,
            genetic_ms=genetic_elapsed * 1000,
            greedy_ms=greedy_elapsed * 1000,
            feasible=1.0 if plan is not None and plan.feasible else 0.0,
        )
    return sweep


def fig_vi5b(
    constraint_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    activities: int = 5,
    services: int = 50,
    repetitions: int = 3,
    seed: int = 1,
) -> Sweep:
    """Execution time vs number of global QoS constraints (Fig. VI.5b)."""
    sweep = Sweep("Fig VI.5b — QASSA execution time", "#constraints")
    for k in constraint_counts:
        workload = make_workload(
            WorkloadSpec(
                activities=activities,
                services_per_activity=services,
                constraints=k,
                seed=seed,
            )
        )
        qassa = QASSA(workload.properties)
        elapsed, plan = measure(
            lambda: try_select(qassa, workload.request, workload.candidates),
            repetitions,
        )
        sweep.add(
            k,
            qassa_ms=elapsed * 1000,
            feasible=1.0 if plan is not None else 0.0,
        )
    return sweep


# ----------------------------------------------------------------------
# Fig. VI.6 — optimality of centralized QASSA
# ----------------------------------------------------------------------
def fig_vi6a(
    service_counts: Sequence[int] = (10, 20, 30, 40, 50),
    activities: int = 3,
    constraints: int = 4,
    seed: int = 2,
) -> Sweep:
    """Optimality vs services per activity (Fig. VI.6a).

    Uses 3 activities so the exhaustive optimum stays computable; the
    paper's claim (QASSA ≥ ~0.9 of optimum) is size-stable.
    """
    sweep = Sweep("Fig VI.6a — QASSA optimality", "services/activity")
    for count in service_counts:
        workload = make_workload(
            WorkloadSpec(
                activities=activities,
                services_per_activity=count,
                constraints=constraints,
                seed=seed,
            )
        )
        qassa_plan = try_select(
            QASSA(workload.properties), workload.request, workload.candidates
        )
        optimal = try_select(
            ExhaustiveSelection(workload.properties),
            workload.request,
            workload.candidates,
        )
        greedy_plan = GreedySelection(workload.properties).select(
            workload.request, workload.candidates, best_effort=True
        )
        if optimal is None:
            continue  # no feasible composition at this point
        values = {"exhaustive": 1.0}
        if qassa_plan is not None:
            values["qassa"] = optimality(qassa_plan, optimal)
        if greedy_plan.feasible:
            values["greedy"] = optimality(greedy_plan, optimal)
        sweep.add(count, **values)
    return sweep


def fig_vi6b(
    constraint_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    activities: int = 3,
    services: int = 25,
    seed: int = 2,
) -> Sweep:
    """Optimality vs number of constraints (Fig. VI.6b)."""
    sweep = Sweep("Fig VI.6b — QASSA optimality", "#constraints")
    for k in constraint_counts:
        workload = make_workload(
            WorkloadSpec(
                activities=activities,
                services_per_activity=services,
                constraints=k,
                seed=seed,
            )
        )
        qassa_plan = try_select(
            QASSA(workload.properties), workload.request, workload.candidates
        )
        optimal = try_select(
            ExhaustiveSelection(workload.properties),
            workload.request,
            workload.candidates,
        )
        if optimal is None:
            continue
        values = {"exhaustive": 1.0}
        if qassa_plan is not None:
            values["qassa"] = optimality(qassa_plan, optimal)
        sweep.add(k, **values)
    return sweep


# ----------------------------------------------------------------------
# Figs. VI.7 / VI.8 — aggregation approaches
# ----------------------------------------------------------------------
def fig_vi7(
    service_counts: Sequence[int] = (10, 25, 50, 75, 100),
    activities: int = 7,
    constraints: int = 4,
    repetitions: int = 3,
    seed: int = 3,
) -> Dict[str, Sweep]:
    """Execution time per aggregation approach (Fig. VI.7a/b/c) on a task
    mixing parallel, conditional and loop patterns."""
    sweeps: Dict[str, Sweep] = {}
    for approach in _APPROACHES:
        sweep = Sweep(
            f"Fig VI.7 — execution time ({approach.value})",
            "services/activity",
        )
        for count in service_counts:
            workload = make_workload(
                WorkloadSpec(
                    activities=activities,
                    services_per_activity=count,
                    constraints=constraints,
                    mixed_patterns=True,
                    tightness=0.7,
                    seed=seed,
                ),
                approach=approach,
            )
            qassa = QASSA(workload.properties, approach=approach)
            elapsed, plan = measure(
                lambda: try_select(qassa, workload.request, workload.candidates),
                repetitions,
            )
            sweep.add(
                count,
                qassa_ms=elapsed * 1000,
                feasible=1.0 if plan is not None else 0.0,
            )
        sweeps[approach.value] = sweep
    return sweeps


def fig_vi8(
    service_counts: Sequence[int] = (6, 10, 14),
    activities: int = 5,
    constraints: int = 3,
    seed: int = 3,
) -> Dict[str, Sweep]:
    """Optimality per aggregation approach (Fig. VI.8a/b/c).

    The task mixes parallel/conditional/loop patterns — otherwise the three
    approaches coincide and the sub-figures would be identical.  Sizes stay
    small because each point needs three exhaustive optima.
    """
    sweeps: Dict[str, Sweep] = {}
    for approach in _APPROACHES:
        sweep = Sweep(
            f"Fig VI.8 — optimality ({approach.value})", "services/activity"
        )
        for count in service_counts:
            workload = make_workload(
                WorkloadSpec(
                    activities=activities,
                    services_per_activity=count,
                    constraints=constraints,
                    mixed_patterns=True,
                    tightness=0.7,
                    seed=seed,
                ),
                approach=approach,
            )
            qassa_plan = try_select(
                QASSA(workload.properties, approach=approach),
                workload.request,
                workload.candidates,
            )
            optimal = try_select(
                ExhaustiveSelection(workload.properties, approach=approach),
                workload.request,
                workload.candidates,
            )
            if optimal is None:
                continue
            values = {"exhaustive": 1.0}
            if qassa_plan is not None:
                values["qassa"] = optimality(qassa_plan, optimal)
            sweep.add(count, **values)
        sweeps[approach.value] = sweep
    return sweeps


# ----------------------------------------------------------------------
# Fig. VI.9 — the normal distribution law of QoS values
# ----------------------------------------------------------------------
def fig_vi9(
    property_name: str = "response_time",
    samples: int = 5000,
    bins: int = 20,
    seed: int = 4,
) -> Sweep:
    """Histogram + moments of the normal-law QoS generator (Fig. VI.9)."""
    generator = ServiceGenerator(
        EXPERIMENT_PROPERTIES, distribution=QoSDistribution.NORMAL, seed=seed
    )
    values = generator.sample_values(property_name, samples)
    law = generator.law(property_name)
    lo, hi = min(values), max(values)
    width = (hi - lo) / bins if hi > lo else 1.0
    histogram = [0] * bins
    for value in values:
        index = min(int((value - lo) / width), bins - 1)
        histogram[index] += 1

    sweep = Sweep(
        f"Fig VI.9 — {property_name} ~ N(m={law.mean:g}, sigma={law.stddev:g}); "
        f"sample mean={statistics.mean(values):.2f}, "
        f"stdev={statistics.stdev(values):.2f}",
        "bin_center",
    )
    for i, count in enumerate(histogram):
        sweep.add(lo + (i + 0.5) * width, count=float(count))
    return sweep


# ----------------------------------------------------------------------
# Figs. VI.10 / VI.11 — constraints fixed at m and m + sigma
# ----------------------------------------------------------------------
def fig_vi10(
    service_counts: Sequence[int] = (10, 25, 50, 75, 100),
    activities: int = 5,
    constraints: int = 4,
    repetitions: int = 3,
    seed: int = 5,
) -> Dict[str, Sweep]:
    """Execution time with global constraints at m (a) and m+sigma (b)."""
    sweeps: Dict[str, Sweep] = {}
    for label, offset in (("m", 0.0), ("m+sigma", 1.0)):
        sweep = Sweep(
            f"Fig VI.10 — execution time, constraints at {label}",
            "services/activity",
        )
        for count in service_counts:
            workload = make_workload(
                WorkloadSpec(
                    activities=activities,
                    services_per_activity=count,
                    constraints=constraints,
                    distribution=QoSDistribution.NORMAL,
                    seed=seed,
                ),
                sigma_offset=offset,
            )
            qassa = QASSA(workload.properties)
            elapsed, plan = measure(
                lambda: try_select(qassa, workload.request, workload.candidates),
                repetitions,
            )
            sweep.add(
                count,
                qassa_ms=elapsed * 1000,
                feasible=1.0 if plan is not None else 0.0,
            )
        sweeps[label] = sweep
    return sweeps


def fig_vi11(
    service_counts: Sequence[int] = (10, 20, 30, 40),
    activities: int = 3,
    constraints: int = 3,
    seed: int = 5,
) -> Dict[str, Sweep]:
    """Optimality with constraints at m (a) and m+sigma (b)."""
    sweeps: Dict[str, Sweep] = {}
    for label, offset in (("m", 0.0), ("m+sigma", 1.0)):
        sweep = Sweep(
            f"Fig VI.11 — optimality, constraints at {label}",
            "services/activity",
        )
        for count in service_counts:
            workload = make_workload(
                WorkloadSpec(
                    activities=activities,
                    services_per_activity=count,
                    constraints=constraints,
                    distribution=QoSDistribution.NORMAL,
                    seed=seed,
                ),
                sigma_offset=offset,
            )
            qassa_plan = try_select(
                QASSA(workload.properties), workload.request, workload.candidates
            )
            optimal = try_select(
                ExhaustiveSelection(workload.properties),
                workload.request,
                workload.candidates,
            )
            if optimal is None:
                sweep.add(count, infeasible=1.0)
                continue
            values = {"exhaustive": 1.0}
            if qassa_plan is not None:
                values["qassa"] = optimality(qassa_plan, optimal)
            sweep.add(count, **values)
        sweeps[label] = sweep
    return sweeps


# ----------------------------------------------------------------------
# Fig. VI.12 — distributed QASSA phase timings
# ----------------------------------------------------------------------
def fig_vi12(
    node_counts: Sequence[int] = (2, 4, 6, 8, 10),
    activities: int = 8,
    services: int = 40,
    constraints: int = 4,
    seed: int = 6,
) -> Sweep:
    """Local/global phase execution time of distributed QASSA vs nodes."""
    sweep = Sweep("Fig VI.12 — distributed QASSA phases", "#nodes")
    workload = make_workload(
        WorkloadSpec(
            activities=activities,
            services_per_activity=services,
            constraints=constraints,
            seed=seed,
        )
    )
    for nodes in node_counts:
        distributed = DistributedQASSA(workload.properties)
        assignments = round_robin_nodes(
            workload.candidates.activity_names(), nodes
        )
        plan, timing = distributed.select(
            workload.request, workload.candidates, assignments,
            best_effort=True,
        )
        sweep.add(
            nodes,
            local_ms=timing.local_phase_seconds * 1000,
            global_ms=timing.global_phase_seconds * 1000,
            transmission_ms=timing.transmission_seconds * 1000,
            total_ms=timing.total_seconds * 1000,
        )
    return sweep


# ----------------------------------------------------------------------
# Fig. VI.13 — abstract BPEL -> behavioural graph transformation
# ----------------------------------------------------------------------
def fig_vi13(
    activity_counts: Sequence[int] = (10, 25, 50, 100, 150, 200),
    repetitions: int = 5,
) -> Sweep:
    """Transformation time of abstract BPEL specs into behavioural graphs."""
    sweep = Sweep("Fig VI.13 — BPEL -> behavioural graph", "#activities")
    for count in activity_counts:
        task = make_task(count, mixed_patterns=True, name=f"bpel-{count}")
        document = to_bpel(task)

        def transform():
            parsed = parse_bpel(document)
            return task_to_graph(parsed)

        elapsed, graph = measure(transform, repetitions)
        sweep.add(
            count,
            transform_ms=elapsed * 1000,
            vertices=float(graph.vertex_count()),
            edges=float(graph.edge_count()),
        )
    return sweep


# ----------------------------------------------------------------------
# Ch. V §7 — behavioural adaptation (homeomorphism) evaluation
# ----------------------------------------------------------------------
def exp_ch5_homeomorphism(
    sizes: Sequence[int] = (4, 6, 8, 10, 12),
    repetitions: int = 3,
) -> Sweep:
    """Homeomorphism determination time vs pattern size.

    Pattern = sequential task of n activities; host = the same task with an
    extra interleaved activity after each original one (so every pattern
    edge maps to a 2-edge path — the worst common case for path search).
    """
    from repro.composition.task import Task, leaf, sequence
    from repro.semantics.ontology import Ontology

    sweep = Sweep("Ch V §7 — homeomorphism determination", "#pattern vertices")
    for n in sizes:
        ontology = Ontology("bench-tasks")
        root = ontology.declare_class("task:UserActivity")
        for i in range(n):
            ontology.declare_class(f"task:Cap{i}", [root])
        ontology.declare_class("task:Extra", [root])

        pattern_task = Task(
            "pattern", sequence(*[leaf(f"P{i}", f"task:Cap{i}") for i in range(n)])
        )
        host_members = []
        for i in range(n):
            host_members.append(leaf(f"H{i}", f"task:Cap{i}"))
            host_members.append(leaf(f"X{i}", "task:Extra"))
        host_task = Task("host", sequence(*host_members))

        pattern = task_to_graph(pattern_task)
        host = task_to_graph(host_task)

        elapsed, result = measure(
            lambda: find_homeomorphism(pattern, host, ontology), repetitions
        )
        sweep.add(
            n,
            determination_ms=elapsed * 1000,
            found=1.0 if result.found else 0.0,
            backtrack_steps=float(result.backtrack_steps),
        )
    return sweep


# ----------------------------------------------------------------------
# Adaptation effectiveness — the thesis' motivation quantified
# ----------------------------------------------------------------------
def exp_adaptation_effectiveness(
    sessions: int = 6,
    executions_per_session: int = 12,
    kill_every: int = 2,
    target_activity: str = "Order",
    seed: int = 9,
) -> Sweep:
    """Success rate of a repeatedly executed composition under targeted
    churn, with vs without QoS-driven adaptation.

    Setup: a shopping-scenario composition is executed
    ``executions_per_session`` times; every ``kill_every`` executions the
    service currently bound to ``target_activity`` is killed — the worst
    realistic case: one capability's providers keep leaving.  Both arms keep
    dynamic binding and retries; the *adapted* arm additionally runs the
    adaptation manager, whose substitution (backed by a fresh discovery
    round) replaces dead alternates.  The static arm's ranked list only
    shrinks, so binding eventually starves.
    """
    from repro.env.scenarios import build_shopping_scenario
    from repro.middleware.qasom import QASOM

    sweep = Sweep(
        "Adaptation effectiveness — execution success rate under churn",
        "session",
    )
    for session in range(sessions):
        results = {}
        for adapt in (True, False):
            scenario = build_shopping_scenario(
                services_per_activity=8, seed=seed + session
            )
            middleware = QASOM.for_environment(
                scenario.environment,
                scenario.properties,
                ontology=scenario.ontology,
                repository=scenario.repository,
            )
            plan = middleware.submit(scenario.request, execute=False).plan()
            manager = (
                middleware.adaptation_manager(plan, allow_behavioural=False)
                if adapt
                else None
            )
            successes = 0
            for i in range(executions_per_session):
                if i % kill_every == kill_every - 1:
                    # Kill whichever ranked service would actually serve the
                    # target activity next (the live head of the list), so
                    # both arms face the same pressure.
                    victim = next(
                        (
                            s
                            for s in plan.selections[target_activity].services
                            if scenario.environment.is_alive(s)
                        ),
                        None,
                    )
                    if victim is not None:
                        scenario.environment.kill_service(victim.service_id)
                        if manager is not None:
                            trigger = middleware.monitor.report_failure(
                                victim.service_id, float(i)
                            )
                            manager.handle(trigger)
                outcome = middleware.submit(plan=plan, adapt=False).result()
                if outcome.report.succeeded:
                    successes += 1
            results["adapted" if adapt else "static"] = (
                successes / executions_per_session
            )
        sweep.add(session, **results)
    return sweep


# ----------------------------------------------------------------------
# Ch. IV §5 — QASSA vs baselines at the default workload point
# ----------------------------------------------------------------------
def exp_ch4_summary(
    activities: int = 4,
    services: int = 25,
    constraints: int = 4,
    seed: int = 8,
) -> List[Tuple[str, float, float, bool]]:
    """(algorithm, time ms, optimality, feasible) rows for the summary
    comparison of Ch. IV §5."""
    workload = make_workload(
        WorkloadSpec(
            activities=activities,
            services_per_activity=services,
            constraints=constraints,
            seed=seed,
        )
    )
    optimal = ExhaustiveSelection(workload.properties).select(
        workload.request, workload.candidates
    )
    rows: List[Tuple[str, float, float, bool]] = [
        (
            "exhaustive",
            optimal.statistics.elapsed_seconds * 1000,
            1.0,
            True,
        )
    ]
    for name, selector in (
        ("qassa", QASSA(workload.properties)),
        ("greedy", GreedySelection(workload.properties)),
        ("genetic", GeneticSelection(workload.properties, seed=seed)),
    ):
        plan = selector.select(
            workload.request, workload.candidates, best_effort=True
        )
        rows.append(
            (
                name,
                plan.statistics.elapsed_seconds * 1000,
                optimality(plan, optimal) if plan.feasible else 0.0,
                plan.feasible,
            )
        )
    return rows
