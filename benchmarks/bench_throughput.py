"""Runtime throughput — pooled ``MiddlewareRuntime`` vs the serial path.

The claim: a broker fed a realistic workload — many users instantiating a
handful of shared task templates — sustains at least **2x the request rate**
of the serial one-at-a-time middleware, while staying *byte-identical*: the
pooled run selects exactly the plans, and produces exactly the execution
reports, the serial run does.

Setup: the shopping scenario with 24 candidate services per activity.  A
seeded load generator derives ``PROFILES`` distinct preference-weight
profiles from the scenario request and replays each ``REPEATS`` times
(interleaved), ``PROFILES x REPEATS`` requests total:

* **serial** — a single-client :class:`~repro.api.ClosedLoopDriver` over
  ``QASOM.submit`` (submit, wait, repeat — the pre-runtime application
  pattern);
* **pooled** — an unpaced :class:`~repro.api.OpenLoopDriver` over one
  :class:`~repro.api.MiddlewareRuntime` with ``WORKERS`` workers (all
  requests submitted back-to-back, then drained).

The pooled win is *work elimination*, not thread parallelism (the GIL
serialises pure-Python selection): snapshot-keyed discovery batching plus
whole-composition request coalescing compose each distinct profile once
per registry generation, and ordered commit keeps execution — and the
environment's shared clock/RNG draws — in admission order.

Determinism is compared across two identically-seeded worlds by *name*
signatures (service ids come from a process-global counter, so ids differ
across worlds while the seeded names do not).

Both arms run ``TIMED_RUNS`` times, alternating, each time on fresh
worlds.  Assertions, on every run: plan and report signatures equal
request-by-request, and every distinct profile composed once.  The gate:
the median pooled/serial speed-up over the runs is >= 2x (one 30-request
timing is too short to carry it on a loaded host).

A second axis measures the execution-backend redesign on the *opposite*
workload: every request is unique, so coalescing eliminates nothing and
selection is genuinely CPU-bound.  There the thread backend serialises on
the GIL while ``backend="process"`` composes in parallel worker processes.
Serial, thread and process each run once per module; two tests read the
runs.  ``test_backend_axis_plans_match_serial`` checks that plans are
byte-identical to serial on both backends.
``test_backend_axis_process_vs_thread`` claims >= 2x thread throughput at
8 workers; it needs 4 usable cores and is skipped, naming the count, on
fewer.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import NamedTuple

import pytest

from repro.api import (
    ClosedLoopDriver,
    MiddlewareRuntime,
    OpenLoopDriver,
    QASOM,
    RuntimeConfig,
    UserRequest,
    build_shopping_scenario,
)
from repro.experiments.harness import Sweep
from repro.experiments.reporting import render_table

PROFILES = 6
REPEATS = 5
WORKERS = 8
SERVICES_PER_ACTIVITY = 24
SEED = 7
#: Alternating serial/pooled repetitions the speed-up gate takes the
#: median of.
TIMED_RUNS = 5


def build_world(seed=SEED):
    """One seeded middleware plus its request workload.

    Two calls with the same seed produce interchangeable worlds (identical
    service *names* and QoS), which is what lets the serial and pooled arms
    run against separate environments without cross-contamination.
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
    return middleware, requests


def plan_signature(plan):
    """World-independent identity of a composed plan (names, not ids)."""
    return (
        tuple(
            sorted(
                (activity, selection.primary.name)
                for activity, selection in plan.selections.items()
            )
        ),
        round(plan.utility, 9),
        plan.feasible,
        tuple(
            sorted(
                (name, round(plan.aggregated_qos[name], 6))
                for name in plan.aggregated_qos
            )
        ),
    )


def report_signature(report):
    """World-independent identity of an execution report."""
    def qos(vector):
        if vector is None:
            return None
        return tuple(sorted((n, round(vector[n], 6)) for n in vector))

    return tuple(
        (
            record.activity_name,
            round(record.started_at, 9),
            record.succeeded,
            record.attempt,
            qos(record.observed_qos),
        )
        for record in report.invocations
    )


class PooledRun(NamedTuple):
    """One timed repetition of both arms on fresh worlds."""

    serial_wall: float
    serial_latencies: list
    pooled_wall: float
    pooled_latencies: list
    runtime: MiddlewareRuntime
    requests: list

    @property
    def speedup(self) -> float:
        return self.serial_wall / self.pooled_wall


def _timed_pooled_vs_serial() -> PooledRun:
    """Time the serial arm, then the pooled arm, each on a fresh world, and
    check that they agree request by request.  The runtime is left open."""
    # --- serial arm: one closed-loop client, no think time -----------------
    middleware_serial, requests_serial = build_world()
    serial_driver = ClosedLoopDriver(middleware_serial.submit)
    started = time.perf_counter()
    serial_report = serial_driver.run(requests_serial)
    serial_wall = time.perf_counter() - started
    serial_results = [r.handle.result() for r in serial_report.records]
    serial_latencies = [r.wall_seconds for r in serial_report.records]

    # --- pooled arm: unpaced open loop, submit everything then drain -------
    middleware_pooled, requests_pooled = build_world()
    config = RuntimeConfig(workers=WORKERS, queue_depth=len(requests_pooled))
    started = time.perf_counter()
    runtime = MiddlewareRuntime(middleware_pooled, config).start()
    pooled_driver = OpenLoopDriver(runtime.submit)
    pooled_report = pooled_driver.run(requests_pooled)
    runtime.drain()
    pooled_wall = time.perf_counter() - started
    handles = [record.handle for record in pooled_report.records]
    pooled_latencies = [handle.total_seconds for handle in handles]

    # --- byte-identical plans and reports, request by request --------------
    for index, (result, handle) in enumerate(zip(serial_results, handles)):
        pooled = handle.result()
        assert plan_signature(result.plan) == plan_signature(pooled.plan), (
            f"request {index}: pooled plan diverged from serial"
        )
        assert (
            report_signature(result.report) == report_signature(pooled.report)
        ), f"request {index}: pooled execution report diverged from serial"

    # Every distinct profile composes once; every repeat is coalesced.
    assert runtime.coalescer.computed == PROFILES, (
        f"{runtime.coalescer.computed} compositions for {PROFILES} profiles"
    )
    return PooledRun(
        serial_wall, serial_latencies, pooled_wall, pooled_latencies,
        runtime, requests_pooled,
    )


def test_pooled_throughput_vs_serial(benchmark, emit):
    runs = []
    for _ in range(TIMED_RUNS):
        if runs:
            runs[-1].runtime.close()
        runs.append(_timed_pooled_vs_serial())
    runtime = runs[-1].runtime
    count = PROFILES * REPEATS
    speedup = statistics.median(run.speedup for run in runs)
    serial_wall = statistics.median(run.serial_wall for run in runs)
    pooled_wall = statistics.median(run.pooled_wall for run in runs)
    serial_rps = count / serial_wall
    pooled_rps = count / pooled_wall
    serial_latencies = [
        latency for run in runs for latency in run.serial_latencies
    ]
    pooled_latencies = [
        latency for run in runs for latency in run.pooled_latencies
    ]

    def percentile(values, fraction):
        ordered = sorted(values)
        return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]

    sweep = Sweep("throughput", x_label="request")
    for index in range(count):
        sweep.add(
            index,
            serial_ms=statistics.median(
                run.serial_latencies[index] for run in runs
            ) * 1e3,
            pooled_ms=statistics.median(
                run.pooled_latencies[index] for run in runs
            ) * 1e3,
        )

    rows = [
        ["requests", count],
        ["profiles x repeats", f"{PROFILES} x {REPEATS}"],
        ["workers", WORKERS],
        ["timed runs", TIMED_RUNS],
        ["median serial wall (s)", serial_wall],
        ["median pooled wall (s)", pooled_wall],
        ["serial req/s (median wall)", serial_rps],
        ["pooled req/s (median wall)", pooled_rps],
    ]
    rows += [
        [f"run {number} speedup", run.speedup]
        for number, run in enumerate(runs, start=1)
    ]
    rows += [
        ["median speedup", speedup],
        ["serial p50 (ms, all runs)", percentile(serial_latencies, 0.50) * 1e3],
        ["serial p95 (ms, all runs)", percentile(serial_latencies, 0.95) * 1e3],
        ["pooled p50 (ms, all runs)", percentile(pooled_latencies, 0.50) * 1e3],
        ["pooled p95 (ms, all runs)", percentile(pooled_latencies, 0.95) * 1e3],
        ["compositions coalesced (last run)",
         f"{runtime.coalescer.coalesced}/{runtime.coalescer.lookups}"],
        ["discovery lookups coalesced (last run)",
         f"{runtime.batcher.coalesced}/{runtime.batcher.lookups}"],
    ]
    emit(
        "throughput",
        render_table(
            ["metric", "value"],
            rows,
            title="Runtime throughput: pooled MiddlewareRuntime vs serial "
                  f"QASOM ({count} requests, {WORKERS} workers, "
                  f"{TIMED_RUNS} alternating runs)",
        ),
        data=sweep,
    )

    assert speedup >= 2.0, (
        f"pooled throughput {pooled_rps:.1f} req/s is only {speedup:.2f}x "
        f"serial ({serial_rps:.1f} req/s) in the median of {TIMED_RUNS} "
        f"runs ({', '.join(f'{run.speedup:.2f}x' for run in runs)}); "
        f"the contract is >= 2x"
    )

    # Representative timed point: one brokered request on the warm runtime.
    benchmark(lambda: runtime.run(runs[-1].requests[0]))
    runtime.close()


# ---------------------------------------------------------------------------
# The execution-backend axis: process vs thread on a CPU-bound workload.
# ---------------------------------------------------------------------------
BACKEND_REQUESTS = 24


def build_unique_world(seed=SEED):
    """A world whose workload defeats coalescing: every request unique.

    Each request carries its own weight profile, so the coalescer can
    eliminate nothing and every submission pays the full discovery +
    QASSA selection cost — the CPU-bound regime where backend parallelism
    (not work elimination) is the only possible win.
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
    rng = random.Random(seed * 17 + 5)
    requests = []
    for _ in range(BACKEND_REQUESTS + WORKERS):  # tail WORKERS = warmup
        weights = {
            name: round(rng.uniform(0.1, 1.0), 6)
            for name in scenario.request.weights
        }
        requests.append(
            UserRequest(
                task=scenario.request.task,
                constraints=scenario.request.constraints,
                weights=weights,
            )
        )
    return middleware, requests[:BACKEND_REQUESTS], requests[BACKEND_REQUESTS:]


def _timed_backend_run(backend_name):
    """(wall seconds, plans) for one backend over the workload.

    Spawn/start cost and first-snapshot shipping are warmed outside the
    timed window (they amortise over a runtime's lifetime); the timed
    region is submit-everything-then-drain, composition only
    (``execute=False`` — commits serialise by design on every backend, so
    the execution stage would only dilute the selection signal).
    """
    middleware, requests, warmups = build_unique_world()
    config = RuntimeConfig(
        backend=backend_name, workers=WORKERS,
        queue_depth=len(requests) + len(warmups),
    )
    runtime = MiddlewareRuntime(middleware, config).start()
    for handle in [runtime.submit(w, execute=False) for w in warmups]:
        handle.plan()
    started = time.perf_counter()
    handles = [runtime.submit(r, execute=False) for r in requests]
    runtime.drain()
    wall = time.perf_counter() - started
    plans = [handle.plan() for handle in handles]
    computed = runtime.coalescer.computed
    runtime.close()
    assert computed == len(requests) + len(warmups), (
        f"{backend_name}: coalescer eliminated work on a unique-request "
        f"workload ({computed} computed)"
    )
    return wall, plans


class BackendAxis(NamedTuple):
    """The serial reference plans plus one timed run per backend."""

    serial_plans: list
    thread_wall: float
    thread_plans: list
    process_wall: float
    process_plans: list


@pytest.fixture(scope="module")
def backend_axis() -> BackendAxis:
    """Serial, thread and process over the unique workload, run once."""
    middleware_serial, requests_serial, _ = build_unique_world()
    serial_plans = [
        middleware_serial.submit(r, execute=False).plan()
        for r in requests_serial
    ]
    thread_wall, thread_plans = _timed_backend_run("thread")
    process_wall, process_plans = _timed_backend_run("process")
    return BackendAxis(
        serial_plans, thread_wall, thread_plans, process_wall, process_plans
    )


def usable_cores() -> int:
    """Cores this process may run on.

    ``os.cpu_count()`` reports the host's cores even when the process is
    restricted to fewer (CPU affinity, container cpusets).
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_backend_axis_plans_match_serial(backend_axis):
    for index, serial_plan in enumerate(backend_axis.serial_plans):
        assert plan_signature(serial_plan) == plan_signature(
            backend_axis.thread_plans[index]
        ), f"request {index}: thread-backend plan diverged from serial"
        assert plan_signature(serial_plan) == plan_signature(
            backend_axis.process_plans[index]
        ), f"request {index}: process-backend plan diverged from serial"


def test_backend_axis_process_vs_thread(backend_axis, emit):
    count = len(backend_axis.serial_plans)
    thread_rps = count / backend_axis.thread_wall
    process_rps = count / backend_axis.process_wall
    speedup = backend_axis.thread_wall / backend_axis.process_wall
    cores = usable_cores()

    sweep = Sweep("throughput_backend", x_label="workers")
    sweep.add(
        WORKERS,
        thread_rps=thread_rps,
        process_rps=process_rps,
        speedup=speedup,
        cores=cores,
    )
    emit(
        "throughput_backend",
        render_table(
            ["metric", "value"],
            [
                ["requests (all unique)", count],
                ["workers", WORKERS],
                ["cpu cores", cores],
                ["thread wall (s)", backend_axis.thread_wall],
                ["process wall (s)", backend_axis.process_wall],
                ["thread req/s", thread_rps],
                ["process req/s", process_rps],
                ["process/thread speedup", speedup],
            ],
            title="Execution backends: process vs thread on a CPU-bound "
                  f"workload ({count} unique requests, {WORKERS} workers)",
        ),
        data=sweep,
    )

    # The >= 2x contract needs actual cores to parallelise across (CI
    # smoke containers have 4 vCPUs); on fewer the gate did not run, and
    # says so.
    if cores < 4:
        pytest.skip(
            f"process-vs-thread >= 2x gate needs 4 usable cores, "
            f"this process has {cores} (measured {speedup:.2f}x)"
        )
    assert speedup >= 2.0, (
        f"process backend {process_rps:.1f} req/s is only "
        f"{speedup:.2f}x thread ({thread_rps:.1f} req/s) at "
        f"{WORKERS} workers on {cores} cores; the contract is >= 2x"
    )
