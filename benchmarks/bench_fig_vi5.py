"""Fig. VI.5 — execution time of centralized QASSA.

(a) vs the number of services per activity; (b) vs the number of global QoS
constraints.  The paper's claim: QASSA scales near-linearly in both, staying
within interactive (sub-second) budgets, far below exhaustive search and
well below the genetic competitor.
"""

from __future__ import annotations

from repro.composition.qassa import QASSA
from repro.experiments.figures import fig_vi5a, fig_vi5b
from repro.experiments.reporting import render_series
from repro.experiments.workloads import WorkloadSpec, make_workload


def test_fig_vi5a_time_vs_services(benchmark, emit):
    sweep = fig_vi5a(service_counts=(10, 25, 50, 75, 100), repetitions=3)
    emit("fig_vi5a", render_series(sweep), data=sweep)

    qassa_series = sweep.series("qassa_ms")
    genetic_series = dict(sweep.series("genetic_ms"))
    # Shape claim 1: QASSA meets the paper's timeliness requirement — every
    # point stays interactive (< 1 s), the same order as (or below) the
    # genetic competitor, and every point is feasible.
    last_x, last_qassa = qassa_series[-1]
    assert all(ms < 1000.0 for _, ms in qassa_series)
    assert last_qassa < 5 * genetic_series[last_x]
    assert all(p.values["feasible"] == 1.0 for p in sweep.points)
    # Shape claim 2: near-linear growth — 10x the services costs far less
    # than 100x the time (the paper shows a gentle slope).
    first = qassa_series[0][1]
    assert last_qassa < first * 40

    workload = make_workload(
        WorkloadSpec(activities=5, services_per_activity=50, constraints=4,
                     seed=1)
    )
    selector = QASSA(workload.properties)
    plan = benchmark(selector.select, workload.request, workload.candidates)
    assert plan.feasible


def test_fig_vi5a_cold_select_to_1000_services(benchmark, emit):
    # Every select here is cold (no SelectionCache), so each pays the
    # weight-free stage, Pareto pruning included, on all five pools.
    sweep = fig_vi5a(service_counts=(100, 300, 1000), repetitions=2)
    emit("fig_vi5a_large", render_series(sweep), data=sweep)

    # The paper's timeliness requirement up to 1000 services/activity.
    assert all(ms < 1000.0 for _, ms in sweep.series("qassa_ms"))
    assert all(p.values["feasible"] == 1.0 for p in sweep.points)

    workload = make_workload(
        WorkloadSpec(activities=5, services_per_activity=1000, constraints=4,
                     seed=1)
    )
    selector = QASSA(workload.properties)
    plan = benchmark.pedantic(
        selector.select, args=(workload.request, workload.candidates),
        rounds=3, iterations=1,
    )
    assert plan.feasible


def test_fig_vi5b_time_vs_constraints(benchmark, emit):
    sweep = fig_vi5b(constraint_counts=(1, 2, 3, 4, 5, 6, 7, 8),
                     repetitions=3)
    emit("fig_vi5b", render_series(sweep), data=sweep)

    series = sweep.series("qassa_ms")
    # Shape claim: adding constraints grows time gently (the paper's curve
    # is close to flat — the lattice search, not the constraint count,
    # dominates).
    assert series[-1][1] < series[0][1] * 50

    workload = make_workload(
        WorkloadSpec(activities=5, services_per_activity=50, constraints=8,
                     seed=1)
    )
    selector = QASSA(workload.properties)

    def run():
        try:
            return selector.select(workload.request, workload.candidates)
        except Exception:
            return None

    benchmark(run)
