"""Command-line interface to the QASOM reproduction.

Three subcommands mirror the three ways people use the repository:

* ``scenario`` — run one of the paper's motivating scenarios end to end
  (compose, execute, adapt) and print the outcome;
* ``experiment`` — regenerate one of the paper's figures/tables and print
  the series it plots;
* ``repository`` — dump a scenario's task-class repository as its XML
  bundle (the declarative format behavioural adaptation searches).

``scenario`` and ``experiment`` accept ``--trace`` (print the span tree /
per-stage breakdown of the run), ``--metrics-out PATH`` (write the full
span + metric dump as JSONL), ``--metrics-windows-out PATH`` (write the
per-window pipeline-stage timeline as JSONL) and
``--slo P99MS[:AVAILABILITY]`` (evaluate a windowed SLO over the run and
print the per-window verdicts) — see ``docs/OBSERVABILITY.md``.  ``scenario``
additionally accepts ``--faults FILE`` (replay a JSON fault schedule
against the environment), ``--resilience`` (turn on retry/backoff
policies, circuit breakers and graceful degradation — see
``docs/RESILIENCE.md``) and ``--serve`` (broker ``--requests`` copies of
the scenario request through a pooled
:class:`~repro.api.MiddlewareRuntime` with ``--workers`` workers and
report throughput — see ``docs/RUNTIME.md``).

The CLI imports exclusively from :mod:`repro.api`, the stable blessed
surface.  Invoke as ``python -m repro <command> ...``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Optional, Sequence

from repro.api import (
    ChaosPolicy,
    FaultSchedule,
    FlightRecorder,
    MiddlewareConfig,
    MiddlewareRuntime,
    QASOM,
    ResilienceConfig,
    RuntimeConfig,
    Scenario,
    Sweep,
    verify_runtime_invariants,
    build_hospital_scenario,
    build_holiday_camp_scenario,
    build_shopping_scenario,
    dump_repository,
    figures,
    observability,
    render_series,
    render_table,
)

SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "shopping": build_shopping_scenario,
    "hospital": build_hospital_scenario,
    "holiday-camp": build_holiday_camp_scenario,
}

#: Experiment name -> zero-argument callable producing sweeps/tables.
EXPERIMENTS: Dict[str, Callable[[], object]] = {
    "table-iv1": figures.table_iv1,
    "fig-vi5a": figures.fig_vi5a,
    "fig-vi5b": figures.fig_vi5b,
    "fig-vi6a": figures.fig_vi6a,
    "fig-vi6b": figures.fig_vi6b,
    "fig-vi7": figures.fig_vi7,
    "fig-vi8": figures.fig_vi8,
    "fig-vi9": figures.fig_vi9,
    "fig-vi10": figures.fig_vi10,
    "fig-vi11": figures.fig_vi11,
    "fig-vi12": figures.fig_vi12,
    "fig-vi13": figures.fig_vi13,
    "ch4-summary": figures.exp_ch4_summary,
    "ch5-homeomorphism": figures.exp_ch5_homeomorphism,
    "adaptation-effectiveness": figures.exp_adaptation_effectiveness,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the three subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QASOM — QoS-aware service-oriented middleware "
                    "(paper reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    scenario = subparsers.add_parser(
        "scenario", help="run a paper scenario end to end"
    )
    scenario.add_argument("name", choices=sorted(SCENARIOS))
    scenario.add_argument("--seed", type=int, default=None,
                          help="environment seed (scenario default if unset)")
    scenario.add_argument("--services", type=int, default=None,
                          help="candidate services per activity")
    scenario.add_argument("--faults", metavar="FILE", default=None,
                          help="replay a JSON fault schedule against the "
                               "environment (see docs/RESILIENCE.md)")
    scenario.add_argument("--resilience", action="store_true",
                          help="enable retry/backoff policies, circuit "
                               "breakers and graceful degradation")
    scenario.add_argument("--serve", action="store_true",
                          help="broker the request through a pooled "
                               "MiddlewareRuntime and report throughput "
                               "(see docs/RUNTIME.md)")
    scenario.add_argument("--chaos", metavar="FILE", default=None,
                          help="with --serve: inject the runtime fault "
                               "kinds of a JSON fault schedule (worker "
                               "crashes/stalls, snapshot failures, commit "
                               "delays) into the pooled runtime; "
                               "service/device kinds in the same file are "
                               "replayed by the environment (see "
                               "docs/RUNTIME.md)")
    scenario.add_argument("--forensics", metavar="DIR", default=None,
                          help="with --serve: record runtime events on a "
                               "flight-recorder ring and dump forensic "
                               "bundles (JSON) to DIR on worker crashes, "
                               "invariant violations and SLO breaches (see "
                               "docs/OBSERVABILITY.md)")
    scenario.add_argument("--workers", type=int, default=4,
                          help="worker threads for --serve (default 4)")
    scenario.add_argument("--requests", type=int, default=16,
                          help="requests to broker under --serve "
                               "(default 16)")
    _add_observability_flags(scenario)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate a paper figure or table"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    _add_observability_flags(experiment)

    repository = subparsers.add_parser(
        "repository", help="dump a scenario's task-class repository"
    )
    repository.add_argument("scenario", choices=sorted(SCENARIOS))

    return parser


def _parse_slo(text: str):
    """``P99MS[:AVAILABILITY]`` -> an :class:`~repro.api.Slo` (argparse type)."""
    p99_text, _, availability_text = text.partition(":")
    return observability.Slo(
        p99_ms=float(p99_text),
        availability=float(availability_text) if availability_text else None,
    )


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", action="store_true",
        help="trace the run and print the span tree "
             "(per-stage breakdown for experiments)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the span + metric dump as JSONL to PATH",
    )
    parser.add_argument(
        "--metrics-windows-out", metavar="PATH", default=None,
        help="write the per-window pipeline-stage timeline as JSONL to "
             "PATH (see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--slo", metavar="P99MS[:AVAILABILITY]", type=_parse_slo,
        default=None,
        help="evaluate a windowed SLO over the run: a p99 latency bound "
             "in milliseconds, optionally with an availability floor "
             "(e.g. 250 or 250:0.95)",
    )


def _wants_observability(args: argparse.Namespace) -> bool:
    return bool(args.trace or args.metrics_out or args.metrics_windows_out
                or args.slo or getattr(args, "forensics", None))


def _print_trace(obs, out) -> None:
    """The ``--trace`` span tree, with the roots the tracer's ring
    dropped (if any) counted in its heading."""
    roots = len(obs.spans)
    dropped = obs.tracer.dropped_roots
    print(f"\ntrace ({roots} root span{'s' if roots != 1 else ''}"
          f"{f', {dropped} older dropped' if dropped else ''}):", file=out)
    print(observability.render_span_tree(obs.spans), file=out)


def _export_observability(args: argparse.Namespace, obs, out,
                          events=None) -> None:
    if args.metrics_windows_out or args.slo:
        _export_windows(args, obs, out, events)
    # Last, so the dump holds what judging the SLO recorded
    # (slo_breaches_total).
    if args.metrics_out:
        records = observability.write_jsonl(obs, args.metrics_out)
        print(f"\nobservability: wrote {records} records to "
              f"{args.metrics_out}", file=out)


def _export_windows(args: argparse.Namespace, obs, out, events) -> None:
    """The ``--metrics-windows-out`` timeline and the ``--slo`` verdicts,
    whose breaches ``events`` records."""
    windows = observability.StageWindows()
    windows.ingest_observability(obs)
    if args.metrics_windows_out:
        records = observability.write_window_jsonl(
            windows, args.metrics_windows_out
        )
        print(f"\nobservability: wrote {records} window records to "
              f"{args.metrics_windows_out}", file=out)
    if args.slo:
        print("\nwindowed timeline "
              f"({windows.ingested} spans ingested):", file=out)
        print(observability.render_window_table(windows), file=out)
        # End-to-end latency lives in the request spans every scenario
        # run records (serial or --serve); an experiment that drives
        # selectors directly has none, so fall back to execution.
        stage = ("request" if len(windows.stage("request")) else "execution")
        verdicts = args.slo.evaluate(
            windows.stage(stage).series(), windows.availability(),
            events=events,
        )
        print(f"\nSLO on the {stage!r} stage:", file=out)
        print(observability.render_slo_table(verdicts, args.slo), file=out)
        print("SLO " + ("PASSED" if all(v.passed for v in verdicts)
                        else "VIOLATED"), file=out)


def _report_forensics(args: argparse.Namespace, runtime, out) -> None:
    """Print the flight-recorder / forensic-bundle summary for --forensics."""
    if not args.forensics or runtime.forensics is None:
        return
    paths = runtime.forensics.paths
    print(f"\nforensics: {runtime.recorder.recorded_total} runtime events "
          f"recorded, {len(paths)} bundle"
          f"{'s' if len(paths) != 1 else ''} in {args.forensics}", file=out)
    for path in paths:
        print(f"  {path}", file=out)


def _build_middleware(args: argparse.Namespace, scenario: Scenario, out):
    if args.faults:
        schedule = FaultSchedule.load(args.faults)
        scenario.environment.schedule_faults(schedule)
        print(f"faults: replaying {len(schedule)} events from "
              f"{args.faults}", file=out)
    config = None
    if args.resilience:
        config = MiddlewareConfig(resilience=ResilienceConfig(enabled=True))
    obs = None
    if _wants_observability(args):
        obs = observability.Observability(clock=scenario.environment.clock)
    middleware = QASOM.for_environment(
        scenario.environment,
        scenario.properties,
        ontology=scenario.ontology,
        repository=scenario.repository,
        config=config,
        observability=obs,
    )
    return middleware, obs


def _run_scenario(args: argparse.Namespace, out) -> int:
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.services is not None:
        kwargs["services_per_activity"] = args.services
    scenario = SCENARIOS[args.name](**kwargs)
    middleware, obs = _build_middleware(args, scenario, out)

    print(f"scenario: {scenario.name}", file=out)
    print(f"services published: {len(scenario.environment.registry)}",
          file=out)
    print(f"task: {scenario.task.name} "
          f"({scenario.task.size()} activities)", file=out)
    for constraint in scenario.request.constraints:
        print(f"  constraint: {constraint}", file=out)

    if args.serve:
        return _serve_scenario(args, scenario, middleware, obs, out)
    if args.chaos:
        print("error: --chaos requires --serve (runtime faults are "
              "injected into the worker pool)", file=out)
        return 2
    if args.forensics:
        print("error: --forensics requires --serve (the flight recorder "
              "rides on the pooled runtime)", file=out)
        return 2

    result = middleware.run(scenario.request)
    plan = result.plan
    print(f"\ncomposition utility: {plan.utility:.3f} "
          f"(feasible: {plan.feasible})", file=out)
    for activity, selection in plan.selections.items():
        print(f"  {activity:12s} -> {selection.primary.name}", file=out)
    print(f"aggregated QoS: {plan.aggregated_qos}", file=out)
    status = "succeeded" if result.report.succeeded else "FAILED"
    if result.report.degraded:
        status += " (degraded)"
    print(f"\nexecution {status}: "
          f"{len(result.report.invocations)} invocations, "
          f"{result.report.elapsed:.3f} s simulated, "
          f"cost {result.report.total_cost:.2f}", file=out)
    if result.partial is not None:
        print(f"degraded: skipped "
              f"{', '.join(result.partial.skipped_activities)}; "
              f"utility {result.partial.planned_utility:.3f} -> "
              f"{result.partial.degraded_utility:.3f}", file=out)
    if result.adaptations:
        print(f"adaptations: "
              f"{[a.action.value for a in result.adaptations]}", file=out)
    if obs is not None:
        if args.trace:
            _print_trace(obs, out)
        _export_observability(args, obs, out)
    return 0 if result.report.succeeded else 1


def _serve_scenario(args, scenario, middleware, obs, out) -> int:
    """Broker N copies of the scenario request through the pooled runtime."""
    count = max(1, args.requests)
    config = RuntimeConfig(
        workers=max(1, args.workers),
        queue_depth=max(count, 1),
        flight_recorder=FlightRecorder() if args.forensics else None,
        forensics_dir=args.forensics,
    )
    chaos = None
    if args.chaos:
        schedule = FaultSchedule.load(args.chaos)
        environment_events = schedule.environment_events()
        if len(environment_events):
            scenario.environment.schedule_faults(environment_events)
        kwargs = {"observability": obs} if obs is not None else {}
        chaos = ChaosPolicy.from_schedule(
            schedule, scenario.environment.clock, **kwargs
        )
        print(f"chaos: {len(schedule.runtime_events())} runtime events, "
              f"{len(environment_events)} environment events from "
              f"{args.chaos}", file=out)
    print(f"\nserve: {count} requests, {config.workers} workers", file=out)
    started = time.perf_counter()
    with MiddlewareRuntime(middleware, config, chaos=chaos) as runtime:
        handles = [runtime.submit(scenario.request) for _ in range(count)]
        runtime.drain()
        if chaos is not None:
            report = verify_runtime_invariants(runtime, handles)
    elapsed = time.perf_counter() - started

    succeeded = sum(
        1 for h in handles
        if h.exception() is None and h.result().report.succeeded
    )
    latencies = sorted(h.total_seconds or 0.0 for h in handles)
    p50 = latencies[len(latencies) // 2]
    p95 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.95))]
    print(f"brokered {count} requests in {elapsed:.3f} s wall "
          f"({count / elapsed:.1f} req/s); {succeeded} succeeded", file=out)
    print(f"latency: p50 {p50 * 1000:.1f} ms, p95 {p95 * 1000:.1f} ms",
          file=out)
    print(f"discovery batching: {runtime.batcher.lookups} lookups, "
          f"{runtime.batcher.computed} computed, "
          f"{runtime.batcher.coalesced} coalesced", file=out)
    print(f"request coalescing: {runtime.coalescer.lookups} lookups, "
          f"{runtime.coalescer.computed} composed, "
          f"{runtime.coalescer.coalesced} coalesced", file=out)
    print(f"snapshots: {runtime.snapshots.refreshes} refreshes for "
          f"{runtime.snapshots.acquires} acquires", file=out)
    if chaos is not None:
        print(f"chaos: fired {len(chaos.fired)} faults "
              f"({', '.join(f.event.kind.value for f in chaos.fired) or '-'})"
              f", {len(chaos.pending)} pending", file=out)
        print(f"supervision: {runtime.supervisor.restarts} worker restarts, "
              f"{runtime.requeued} requeues, retry budget "
              f"{runtime.retry_budget.tokens:.1f} tokens "
              f"({runtime.retry_budget.denied} denied)", file=out)
        verdict = "OK" if report.ok else "; ".join(report.violations)
        print(f"invariants: {verdict}", file=out)
        if not report.ok:
            report.emit(runtime.events)
            _report_forensics(args, runtime, out)
            return 1
    if obs is not None:
        if args.trace:
            _print_trace(obs, out)
        _export_observability(args, obs, out, events=runtime.events)
    _report_forensics(args, runtime, out)
    # Exit code reflects broker health, not workload luck: a rejected,
    # expired or errored request fails the run; an execution that ran to
    # a failed report (the availability lottery) is normal operation and
    # is reported in the "succeeded" count above.
    return 0 if all(h.exception() is None for h in handles) else 1


def _print_experiment_result(result, out) -> None:
    if isinstance(result, Sweep):
        print(render_series(result), file=out)
    elif isinstance(result, dict):
        for value in result.values():
            _print_experiment_result(value, out)
    elif isinstance(result, list):
        width = max((len(row) for row in result), default=0)
        headers = [f"col{i}" for i in range(width)]
        print(render_table(headers, result), file=out)
    else:
        print(result, file=out)


def _run_experiment(args: argparse.Namespace, out) -> int:
    if not _wants_observability(args):
        result = EXPERIMENTS[args.name]()
        _print_experiment_result(result, out)
        return 0

    # Components built inside the experiment (selectors, engines …) pick
    # up the ambient observability installed for the duration of the run.
    with observability.enabled() as obs:
        result = EXPERIMENTS[args.name]()
    _print_experiment_result(result, out)
    if args.trace:
        breakdown = observability.stage_breakdown(obs.spans)
        dropped = obs.tracer.dropped_roots
        note = f" ({dropped} older root spans dropped)" if dropped else ""
        print(f"\nper-stage breakdown{note}:", file=out)
        print(observability.render_breakdown(breakdown), file=out)
    _export_observability(args, obs, out)
    return 0


def _run_repository(args: argparse.Namespace, out) -> int:
    scenario = SCENARIOS[args.scenario]()
    print(dump_repository(scenario.repository), file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "scenario":
        return _run_scenario(args, out)
    if args.command == "experiment":
        return _run_experiment(args, out)
    if args.command == "repository":
        return _run_repository(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
