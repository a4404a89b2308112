"""Runtime fault domains — availability and determinism under chaos.

The claim: a pooled :class:`~repro.api.MiddlewareRuntime` subjected to a
seeded runtime fault schedule (worker crashes, a worker stall, a snapshot
failure, a commit delay) during a saturating burst **loses nothing**: no
request is lost or duplicated, every committed request selects the exact
plan the serial no-chaos run selects, the supervisor restores the pool to
``config.workers``, availability stays within 10% of the no-chaos arm, and
replaying the identical schedule yields an identical report.

Arms (all over identically-seeded worlds):

* **serial** — one :class:`~repro.api.ClosedLoopDriver` client over
  ``QASOM.submit``; the byte-identity reference.
* **pooled / no chaos** — ``WORKERS`` workers, all requests submitted
  back-to-back then drained; the availability baseline.
* **pooled / chaos** — same pool with a :class:`~repro.api.ChaosPolicy`
  built from :meth:`FaultSchedule.runtime_chaos` (2 crashes, 1 stall,
  1 snapshot failure, 1 commit delay); gated on invariants, byte-identity
  of committed plans, and relative availability.
* **replay x2** — the chaos arm twice more on a single-worker pool, where
  scheduling is fully deterministic; the two runs must produce identical
  statuses, plan signatures, fired-fault signatures and requeue counts.

Crash-requeue keeps the original admission ticket, so ordered commit — and
with it pooled==serial plan identity — survives worker death; that is the
property this benchmark pins.
"""

from __future__ import annotations

import random
import time

from repro.api import (
    ChaosPolicy,
    ClosedLoopDriver,
    FaultSchedule,
    MiddlewareRuntime,
    QASOM,
    RequestStatus,
    RuntimeConfig,
    UserRequest,
    build_shopping_scenario,
    verify_runtime_invariants,
)
from repro.experiments.fuzzing import plan_signature
from repro.experiments.harness import Sweep
from repro.experiments.reporting import render_table

PROFILES = 6
REPEATS = 8
WORKERS = 4
SERVICES_PER_ACTIVITY = 24
SEED = 7

#: Seeded schedule parameters — >= 2 crashes and a stall, per the contract.
CHAOS = dict(crashes=2, stalls=1, snapshot_failures=1, commit_delays=1,
             stall_seconds=0.01, seed=SEED)
CHAOS_WINDOW = (0.0, 0.25)


def build_world(seed=SEED):
    """One seeded scenario + middleware + request burst.

    Identically-seeded worlds have identical service *names* and QoS, so
    each arm gets a private environment yet stays comparable by name-level
    plan signatures.
    """
    scenario = build_shopping_scenario(
        services_per_activity=SERVICES_PER_ACTIVITY, seed=seed
    )
    middleware = QASOM.for_environment(
        scenario.environment,
        scenario.properties,
        ontology=scenario.ontology,
        repository=scenario.repository,
    )
    rng = random.Random(seed * 13 + 3)
    profiles = []
    for _ in range(PROFILES):
        weights = {
            name: round(rng.uniform(0.1, 1.0), 3)
            for name in scenario.request.weights
        }
        profiles.append(
            UserRequest(
                task=scenario.request.task,
                constraints=scenario.request.constraints,
                weights=weights,
            )
        )
    requests = [profiles[i % PROFILES] for i in range(PROFILES * REPEATS)]
    return scenario, middleware, requests


def chaos_schedule():
    return FaultSchedule.runtime_chaos(CHAOS_WINDOW, **CHAOS)


def run_pooled(workers, with_chaos):
    """One pooled arm; returns a plain dict of everything the gates need."""
    scenario, middleware, requests = build_world()
    chaos = None
    if with_chaos:
        chaos = ChaosPolicy.from_schedule(
            chaos_schedule(), scenario.environment.clock
        )
    # max_requeues must cover the worst case of every scheduled fault
    # landing on one request: a request that exhausts its requeue budget
    # fails, and a dropped commit shifts the live environment for every
    # later request (the serial run executed it; the pooled run did not),
    # which is exactly the divergence the byte-identity gate exists to
    # catch.  Chaos tolerance is only loss-free when the budgets cover
    # the fault schedule.
    config = RuntimeConfig(
        workers=workers,
        queue_depth=len(requests),
        max_requeues=CHAOS["crashes"] + CHAOS["snapshot_failures"] + 1,
    )
    started = time.perf_counter()
    with MiddlewareRuntime(middleware, config, chaos=chaos) as runtime:
        handles = [runtime.submit(request) for request in requests]
        runtime.drain()
        invariants = verify_runtime_invariants(runtime, handles)
        arm = {
            "wall": time.perf_counter() - started,
            "statuses": tuple(h.status.value for h in handles),
            "plans": tuple(
                plan_signature(h.result().plan)
                if h.status is RequestStatus.DONE else None
                for h in handles
            ),
            "ok": tuple(h.exception() is None for h in handles),
            "invariants": invariants,
            "restarts": runtime.supervisor.restarts,
            "requeued": runtime.requeued,
            "budget_denied": runtime.retry_budget.denied,
            "alive_workers": runtime.alive_workers,
            "fired": tuple(f.signature() for f in chaos.fired)
            if chaos is not None else (),
            "pending": len(chaos.pending) if chaos is not None else 0,
        }
    return arm


def availability(arm):
    return sum(arm["ok"]) / len(arm["ok"])


def test_chaos_availability_and_determinism(benchmark, emit):
    # --- serial reference arm ----------------------------------------------
    _, middleware_serial, requests_serial = build_world()
    serial_report = ClosedLoopDriver(middleware_serial.submit).run(
        requests_serial
    )
    serial_plans = [
        plan_signature(record.handle.result().plan)
        for record in serial_report.records
    ]

    # --- pooled arms -------------------------------------------------------
    nochaos = run_pooled(WORKERS, with_chaos=False)
    chaos = run_pooled(WORKERS, with_chaos=True)
    replay_a = run_pooled(1, with_chaos=True)
    replay_b = run_pooled(1, with_chaos=True)

    # --- gates -------------------------------------------------------------
    # 1. Nothing lost, nothing duplicated, pool restored — in every arm.
    for name, arm in [("no-chaos", nochaos), ("chaos", chaos),
                      ("replay-a", replay_a), ("replay-b", replay_b)]:
        assert arm["invariants"].ok, (
            f"{name} arm violated runtime invariants: "
            f"{arm['invariants'].violations}"
        )
    assert chaos["alive_workers"] == WORKERS, (
        f"supervisor left the pool at {chaos['alive_workers']}/{WORKERS}"
    )
    assert chaos["restarts"] >= CHAOS["crashes"], (
        f"{chaos['restarts']} restarts for {CHAOS['crashes']} crashes"
    )
    assert chaos["pending"] == 0, (
        f"{chaos['pending']} scheduled faults never fired"
    )

    # 2. Committed plans are byte-identical to the serial no-chaos run.
    for arm_name, arm in [("no-chaos", nochaos), ("chaos", chaos)]:
        for index, plan in enumerate(arm["plans"]):
            if plan is None:
                continue
            assert plan == serial_plans[index], (
                f"{arm_name} request {index}: committed plan diverged "
                f"from the serial reference"
            )

    # 3. Availability under chaos stays within 10% of the no-chaos arm.
    assert availability(chaos) >= 0.9 * availability(nochaos), (
        f"chaos availability {availability(chaos):.3f} < 0.9 x "
        f"no-chaos {availability(nochaos):.3f}"
    )

    # 4. Replaying the identical schedule is deterministic (single worker:
    #    pickup order is sequential, so the whole report must match).
    REPLAY_KEYS = ("statuses", "plans", "ok", "fired", "restarts",
                   "requeued", "budget_denied")
    for key in REPLAY_KEYS:
        assert replay_a[key] == replay_b[key], (
            f"replay diverged on {key!r}: "
            f"{replay_a[key]!r} != {replay_b[key]!r}"
        )

    # --- report ------------------------------------------------------------
    count = len(requests_serial)
    sweep = Sweep("chaos", x_label="request")
    for index in range(count):
        sweep.add(
            index,
            nochaos_ok=int(nochaos["ok"][index]),
            chaos_ok=int(chaos["ok"][index]),
        )

    fired = ", ".join(kind for kind, _, _ in chaos["fired"]) or "-"
    rows = [
        ["requests", count],
        ["workers", WORKERS],
        ["faults fired", fired],
        ["worker restarts", chaos["restarts"]],
        ["requeued", chaos["requeued"]],
        ["retry-budget denials", chaos["budget_denied"]],
        ["no-chaos availability", availability(nochaos)],
        ["chaos availability", availability(chaos)],
        ["no-chaos wall (s)", nochaos["wall"]],
        ["chaos wall (s)", chaos["wall"]],
        ["replay identical",
         all(replay_a[k] == replay_b[k] for k in REPLAY_KEYS)],
    ]
    emit(
        "chaos",
        render_table(
            ["metric", "value"],
            rows,
            title="Runtime fault domains: pooled MiddlewareRuntime under "
                  f"seeded chaos ({count} requests, {WORKERS} workers)",
        ),
        data=sweep,
    )

    # Representative timed point: one full chaos arm on a small burst.
    benchmark(lambda: run_pooled(2, with_chaos=True))
