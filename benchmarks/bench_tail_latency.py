"""Tail latency under overload — adaptive vs static admission control.

The claim: under a saturating open-loop workload, the Little's-law
:class:`~repro.api.AdaptiveAdmissionController`
(``RuntimeConfig(admission="adaptive")``) keeps windowed p99 response time
*and* SLO-bounded goodput no worse than the static ``queue_depth`` bound —
while rejecting doomed requests at admission instead of serving them long
after anyone cares.

Setup: two identically-seeded shopping worlds (one per arm).  Each arm
warms its runtime with a few drained requests (populating the adaptive
controller's service-time window), then an
:class:`~repro.api.OpenLoopDriver` fires ``WAVES`` bursts of back-to-back
submissions, draining between bursts (an ON-OFF overload pattern).
Submission is wall-instant while simulated execution advances the shared
clock by roughly a second per request, so every burst saturates both
arms: far more work arrives than the commit stage can serve within any
reasonable response-time bound.  (The bursts are deliberately *unpaced*:
advancing the clock to scheduled arrival times from the submitting thread
would time-stamp early requests as finishing after late arrivals, i.e.
wall-clock racing would corrupt the simulated latency axis.)

* **static** — admits ``QUEUE_DEPTH`` requests; the deep end of the queue
  completes with simulated latencies of tens of seconds (admitted, yet
  useless against the SLO);
* **adaptive** — sizes the effective depth to
  ``target_delay / measured service time`` and rejects the rest up front,
  so every admitted request finishes within the admission-wait budget.

Latency is measured on the **simulated clock** (deterministic given the
seed), windowed by arrival time; *goodput* counts only completions within
``SLO_MS`` — raw completion counts would flatter static admission, which
eventually drains everything it queued.

Assertions: the static arm saturates (it rejects overflow and its p99
blows the SLO — otherwise the workload proves nothing), adaptive windowed
p99 <= static windowed p99, adaptive goodput >= 75% of static goodput
(the two are structurally near-equal: both serve ~``SLO/W`` good requests;
the margin absorbs worker-race jitter), and the adaptive controller
actually tightened its depth below the static bound.
"""

from __future__ import annotations

import random

from repro.api import (
    DriverReport,
    FlightRecorder,
    MiddlewareRuntime,
    OpenLoopDriver,
    QASOM,
    RuntimeConfig,
    Slo,
    UserRequest,
    build_shopping_scenario,
)
from repro.experiments.harness import Sweep
from repro.experiments.reporting import render_table

REQUESTS = 80
WAVES = 4                     # overload bursts, drained in between
WARMUP = 6
WORKERS = 4
QUEUE_DEPTH = 12
SERVICES_PER_ACTIVITY = 12
SEED = 11
SLO_MS = 5_000.0              # goodput bound on simulated response time
# The admission-wait budget sits just above the SLO so the adaptive depth
# covers every queue position that can still meet it (an admitted request
# waits <= depth * W = target, and the SLO bounds wait + service).
TARGET_DELAY_MS = 6_000.0
WINDOW_SECONDS = 5.0          # latency series granularity (sim seconds)


def build_world(seed=SEED):
    """One seeded shopping middleware plus its request workload."""
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
    for _ in range(REQUESTS):
        weights = {
            name: round(rng.uniform(0.1, 1.0), 3)
            for name in scenario.request.weights
        }
        requests.append(
            UserRequest(
                task=scenario.request.task,
                constraints=scenario.request.constraints,
                weights=weights,
            )
        )
    return middleware, requests


def run_arm(admission: str):
    """One measured arm: warmup, then saturating bursts drained in turn."""
    middleware, requests = build_world()
    config = RuntimeConfig(
        workers=WORKERS,
        queue_depth=QUEUE_DEPTH,
        admission=admission,
        admission_target_delay_ms=TARGET_DELAY_MS,
        # The window must outlive the whole simulated run: the bursts
        # advance the clock by ~QUEUE_DEPTH * service each, and aging the
        # warmup samples out mid-run would snap the depth back to static.
        admission_window_seconds=1e9,
        # A flight recorder mints per-request trace contexts, so the
        # latency windows carry exemplar trace ids pointing at the exact
        # request behind each window's worst latency.
        flight_recorder=FlightRecorder(),
    )
    runtime = MiddlewareRuntime(middleware, config).start()
    for _ in range(WARMUP):
        runtime.submit(requests[0]).result()
    runtime.drain()
    driver = OpenLoopDriver(
        runtime.submit,
        clock=middleware.environment.clock,
        window_seconds=WINDOW_SECONDS,
    )
    report = DriverReport(window_seconds=WINDOW_SECONDS)
    per_wave = REQUESTS // WAVES
    for wave in range(WAVES):
        burst = requests[wave * per_wave:(wave + 1) * per_wave]
        report.records.extend(driver.run(burst).records)
        runtime.drain()  # the OFF phase: the backlog empties
    effective_depth = runtime.admission.effective_depth()
    runtime.close()
    return report, effective_depth


def worst_window(report):
    """The window stats with the highest p99 — the exemplar points at the
    exact request that produced that tail."""
    return max(report.latency_windows().series(), key=lambda s: s.p99)


def window_series_ms(report):
    """Per-window {index: (p50, p95, p99)} of simulated latency, in ms.

    A window that completed nothing has no latency and reads
    ``(None, None, None)`` — recorded as null, never as 0.0 ms.
    """
    series = {}
    for stats in report.latency_windows().series():
        series[stats.index] = (
            (stats.p50 * 1e3, stats.p95 * 1e3, stats.p99 * 1e3)
            if stats.count else (None, None, None)
        )
    return series


def test_adaptive_admission_tail_latency(benchmark, emit):
    static_report, static_depth = run_arm("static")
    adaptive_report, adaptive_depth = run_arm("adaptive")

    slo_seconds = SLO_MS / 1e3
    static_good = static_report.goodput(slo_seconds)
    adaptive_good = adaptive_report.goodput(slo_seconds)
    static_p99 = static_report.latency_windows().merged().quantile(0.99)
    adaptive_p99 = adaptive_report.latency_windows().merged().quantile(0.99)
    static_worst = worst_window(static_report)
    adaptive_worst = worst_window(adaptive_report)

    # --- per-window p50/p95/p99 series, both arms, to JSON -----------------
    static_windows = window_series_ms(static_report)
    adaptive_windows = window_series_ms(adaptive_report)
    # A window outside one arm's timeline is empty for that arm too.
    sweep = Sweep("tail_latency", x_label="window")
    for index in sorted(set(static_windows) | set(adaptive_windows)):
        s50, s95, s99 = static_windows.get(index, (None, None, None))
        a50, a95, a99 = adaptive_windows.get(index, (None, None, None))
        sweep.add(
            index,
            static_p50_ms=s50, static_p95_ms=s95, static_p99_ms=s99,
            adaptive_p50_ms=a50, adaptive_p95_ms=a95, adaptive_p99_ms=a99,
        )

    slo = Slo(p99_ms=SLO_MS)
    rows = [
        ["requests", REQUESTS],
        ["arrival process", f"{WAVES} saturating bursts of "
                            f"{REQUESTS // WAVES}"],
        ["SLO", str(slo)],
        ["static queue depth", QUEUE_DEPTH],
        ["adaptive effective depth", adaptive_depth],
        ["static completed", static_report.completed],
        ["adaptive completed", adaptive_report.completed],
        ["static rejected", static_report.rejected],
        ["adaptive rejected", adaptive_report.rejected],
        ["static goodput (<= SLO)", static_good],
        ["adaptive goodput (<= SLO)", adaptive_good],
        ["static p99 (sim s)", round(static_p99, 3)],
        ["adaptive p99 (sim s)", round(adaptive_p99, 3)],
        ["static p99 exemplar",
         f"{static_worst.exemplar_trace_id} "
         f"(window {static_worst.index}, "
         f"{(static_worst.exemplar_value or 0.0):.1f}s)"],
        ["adaptive p99 exemplar",
         f"{adaptive_worst.exemplar_trace_id} "
         f"(window {adaptive_worst.index}, "
         f"{(adaptive_worst.exemplar_value or 0.0):.1f}s)"],
        ["static SLO windows pass",
         sum(v.passed for v in slo.evaluate(
             static_report.latency_windows().series()))],
        ["adaptive SLO windows pass",
         sum(v.passed for v in slo.evaluate(
             adaptive_report.latency_windows().series()))],
    ]
    emit(
        "tail_latency",
        render_table(
            ["metric", "value"],
            rows,
            title="Tail latency under overload: adaptive vs static "
                  f"admission ({REQUESTS} requests, {WORKERS} workers)",
        ),
        data=sweep,
    )

    # --- the workload must actually overload the static arm ----------------
    assert static_report.rejected > 0, (
        "static arm never filled its queue; the workload is not saturating"
    )
    assert static_p99 > slo_seconds, (
        f"static p99 {static_p99:.1f}s is within the {slo_seconds:g}s SLO; "
        "overload never materialised, the comparison is vacuous"
    )
    assert static_depth == QUEUE_DEPTH

    # --- exemplars: the worst window names the exact request behind it -----
    assert static_worst.exemplar_trace_id is not None, (
        "static worst window carries no exemplar trace id"
    )
    assert adaptive_worst.exemplar_trace_id is not None, (
        "adaptive worst window carries no exemplar trace id"
    )

    # --- the gates: adaptive is no worse on tail latency or goodput --------
    assert adaptive_depth < QUEUE_DEPTH, (
        "adaptive controller never tightened admission despite overload"
    )
    assert adaptive_p99 <= static_p99, (
        f"adaptive windowed p99 {adaptive_p99:.1f}s worse than static "
        f"{static_p99:.1f}s"
    )
    assert adaptive_good >= static_good * 0.75, (
        f"adaptive goodput {adaptive_good} fell below static admission's "
        f"{static_good} (non-inferiority margin 0.75)"
    )

    # Representative timed point: the adaptive controller's hot path
    # (arrival + completion accounting + depth refresh).
    from repro.runtime import AdaptiveAdmissionController

    controller = AdaptiveAdmissionController(
        QUEUE_DEPTH, target_delay_seconds=TARGET_DELAY_MS / 1e3,
        window_seconds=60.0,
    )
    ticks = iter(range(1, 10_000_000))

    def admission_tick():
        at = float(next(ticks))
        controller.on_arrival(at)
        controller.on_complete(0.9, at)
        return controller.admit(3)

    benchmark(admission_tick)
