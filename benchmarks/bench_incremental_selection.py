"""Incremental re-selection — churn-step cost with the SelectionCache on.

The claim: in a churning environment, re-running QASSA after a single
activity's candidate pool changed should cost roughly one activity's local
phase, not five — and produce *exactly* the composition a from-scratch run
would have produced.

Setup: a 5-activity sequence task with 100 candidate services per activity.
Twenty churn steps each replace one provider in one activity's pool
(round-robin), then both arms re-select:

* **cached** — one long-lived ``QASSA`` wired to a ``SelectionCache``
  (what the middleware and every runtime worker always use);
* **cold** — a fresh, cache-less ``QASSA`` per step.

Assertions: byte-equal plans on every step, total speedup >= 3x, and a
local-phase hit rate >= 0.8 (4 unchanged activities out of 5 per step).

The weight-change axis repeats the churn steps with new (seeded) weights
on every step.  The cache holds only the weight-free part of the local
phase, so the unchanged activities still hit; it asserts byte-equal plans
and the same 4/5 hit rate, and reports its speed-up without gating it:
both arms run the same global phase, whose lattice walks dominate each
step once the weights change.
"""

from __future__ import annotations

import random
import time

from repro.experiments.harness import Sweep
from repro.experiments.reporting import render_table
from repro.qos.properties import STANDARD_PROPERTIES
from repro.services.generator import ServiceGenerator
from repro.composition.qassa import QASSA
from repro.composition.request import UserRequest
from repro.composition.selection import CandidateSets
from repro.composition.selection_cache import SelectionCache
from repro.composition.task import Task, leaf, sequence

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability", "reliability")
}

ACTIVITIES = 5
SERVICES_PER_ACTIVITY = 100
CHURN_STEPS = 20


def build_world(seed=0):
    task = Task(
        "churn-bench",
        sequence(*[leaf(f"A{i}", f"task:C{i}") for i in range(ACTIVITIES)]),
    )
    generator = ServiceGenerator(PROPS, seed=seed)
    pools = {
        a.name: generator.candidates(a.capability, SERVICES_PER_ACTIVITY)
        for a in task.activities
    }
    request = UserRequest(task, constraints=(), weights={n: 1.0 for n in PROPS})
    return task, generator, pools, request


def churn(pools, generator, step):
    """Replace one provider in one activity's pool (round-robin)."""
    name = f"A{step % ACTIVITIES}"
    index = (step * 7) % SERVICES_PER_ACTIVITY
    replacement = generator.service(f"task:C{step % ACTIVITIES}")
    pool = list(pools[name])
    pool[index] = replacement
    pools[name] = pool


def plan_signature(plan):
    return (
        plan.service_ids(),
        {
            name: [s.service_id for s in sel.services]
            for name, sel in plan.selections.items()
        },
        plan.utility,
        {name: plan.aggregated_qos[name] for name in plan.aggregated_qos},
        plan.feasible,
    )


def test_churn_reselection_speedup(benchmark, emit):
    task, generator, pools, request = build_world()
    cache = SelectionCache()
    cached_selector = QASSA(PROPS, cache=cache)

    # Warm run: populates the cache (not timed — both arms pay it equally).
    warm_plan = cached_selector.select(request, CandidateSets(task, pools))
    assert warm_plan.feasible

    sweep = Sweep("incremental_selection", x_label="churn_step")
    rows = []
    cached_total = cold_total = 0.0
    hits = lookups = 0

    for step in range(CHURN_STEPS):
        churn(pools, generator, step)
        candidates = CandidateSets(task, pools)

        started = time.perf_counter()
        cached_plan = cached_selector.select(request, candidates)
        cached_s = time.perf_counter() - started

        started = time.perf_counter()
        cold_plan = QASSA(PROPS).select(request, candidates)
        cold_s = time.perf_counter() - started

        assert plan_signature(cached_plan) == plan_signature(cold_plan), (
            f"step {step}: cached plan diverged from the from-scratch plan"
        )
        stats = cached_plan.statistics
        assert stats.cache_misses == 1, (
            f"step {step}: {stats.cache_misses} activities "
            "recomputed for a single-activity churn event"
        )
        hits += stats.cache_hits
        lookups += stats.cache_hits + stats.cache_misses
        cached_total += cached_s
        cold_total += cold_s
        sweep.add(step, cached_ms=cached_s * 1e3, cold_ms=cold_s * 1e3)

    speedup = cold_total / cached_total
    hit_rate = hits / lookups
    rows.append(["churn steps", CHURN_STEPS])
    rows.append(["services / activity", SERVICES_PER_ACTIVITY])
    rows.append(["cold total (ms)", cold_total * 1e3])
    rows.append(["cached total (ms)", cached_total * 1e3])
    rows.append(["speedup", speedup])
    rows.append(["local-phase hit rate", hit_rate])

    emit(
        "incremental_selection",
        render_table(
            ["metric", "value"],
            rows,
            title="Churn-step re-selection: SelectionCache on vs from-scratch "
                  f"({ACTIVITIES} activities x {SERVICES_PER_ACTIVITY} services)",
        ),
        data=sweep,
    )

    assert hit_rate >= 0.79, f"hit rate {hit_rate:.2f} below the 4/5 contract"
    assert speedup >= 3.0, (
        f"churn-step re-selection speedup {speedup:.2f}x is below the 3x bar"
    )

    def one_cached_step(step=[CHURN_STEPS]):
        step[0] += 1
        churn(pools, generator, step[0])
        return cached_selector.select(request, CandidateSets(task, pools))

    benchmark(one_cached_step)


def test_weight_change_reselection(emit):
    task, generator, pools, request = build_world()
    rng = random.Random(2)
    cached_selector = QASSA(PROPS, cache=SelectionCache())
    cached_selector.select(request, CandidateSets(task, pools))

    sweep = Sweep("incremental_selection_weights", x_label="churn_step")
    cached_total = cold_total = 0.0
    hits = lookups = 0

    for step in range(CHURN_STEPS):
        churn(pools, generator, step)
        request = UserRequest(
            task, constraints=(),
            weights={n: rng.uniform(0.5, 5.0) for n in PROPS},
        )
        candidates = CandidateSets(task, pools)

        started = time.perf_counter()
        cached_plan = cached_selector.select(request, candidates)
        cached_s = time.perf_counter() - started

        started = time.perf_counter()
        cold_plan = QASSA(PROPS).select(request, candidates)
        cold_s = time.perf_counter() - started

        assert plan_signature(cached_plan) == plan_signature(cold_plan), (
            f"step {step}: cached plan diverged from the from-scratch plan "
            "under new weights"
        )
        stats = cached_plan.statistics
        hits += stats.cache_hits
        lookups += stats.cache_hits + stats.cache_misses
        cached_total += cached_s
        cold_total += cold_s
        sweep.add(step, cached_ms=cached_s * 1e3, cold_ms=cold_s * 1e3)

    hit_rate = hits / lookups
    rows = [
        ["churn steps (new weights each)", CHURN_STEPS],
        ["services / activity", SERVICES_PER_ACTIVITY],
        ["cold total (ms)", cold_total * 1e3],
        ["cached total (ms)", cached_total * 1e3],
        ["speedup (not gated)", cold_total / cached_total],
        ["local-phase hit rate", hit_rate],
    ]
    emit(
        "incremental_selection_weights",
        render_table(
            ["metric", "value"],
            rows,
            title="Churn-step re-selection with new weights every step: "
                  "SelectionCache on vs from-scratch "
                  f"({ACTIVITIES} activities x {SERVICES_PER_ACTIVITY} services)",
        ),
        data=sweep,
    )

    assert hit_rate >= 0.79, f"hit rate {hit_rate:.2f} below the 4/5 contract"
