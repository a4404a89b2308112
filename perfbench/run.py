"""QASOM benchmark: end-to-end metrics per workload, or a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload unique-serial --seed 1 \\
        --seconds 15 --trace 0

``--workload`` is ``unique-serial``, ``repeat-thread`` or
``churn-process`` (see ``workloads.py``).  ``--seed`` makes the inputs.
Each run measures one workload in this fresh interpreter, checks the
program's outputs, and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing:

* ``setup_s`` -- import ``repro``, build the world, start the runtime and
  its workers, then warm up on each distinct profile (or one held-out
  request); the median of this process and :data:`SETUP_PROBES` fresh
  interpreters doing the same;
* ``throughput_rps`` -- completed requests per wall second of the timed
  phase, and ``latency_p50_ms`` / ``latency_p95_ms`` -- per request,
  from the ``submit`` call to the returned result, timed by the
  generator;
* ``peak_rss_mb`` -- peak resident set of this interpreter once the
  first 200 timed requests have returned, plus its largest reaped worker
  process (the peak at the end is printed too; it grows with the
  requests a run serves, and so with the host's speed);
* ``plan_utility_mean`` -- mean utility of the completed plans, the
  quality guard.

Every time among them is scaled to a reference host by the calibrations
taken around it (``calibration.py``); the unscaled figures are printed
too.

With ``--trace 1`` they are the per-layer ones of ``tracing.py``.

Outputs are correct when every completed plan is feasible and each
request's plan (activity -> primary service name, exact utility) equals a
serial reference on a fresh world.  The run exits 1 when they are not,
2 when the program cannot be found next to this directory, and 3 without
a result line when a metric has no data (a traced probe's public function
is gone).  No process it starts outlives it.

Every run is pinned to one CPU (see :func:`pin_to_one_cpu`): the
figures are for one core, and the process backend's parallel speed-up is
not measured.
"""

from __future__ import annotations

import argparse
import collections
import importlib.metadata
import importlib.util
import json
import math
import multiprocessing
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

from calibration import REFERENCE_CALIBRATION_S, calibrate

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Fresh interpreters that repeat the set-up, besides this one.
SETUP_PROBES = 2
#: Calibration passes just before and just after a set-up; their median
#: is the host's speed then (a single pass can read far off).
SETUP_CALIBRATIONS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "plan_utility_mean": "utility",
}
PER_LAYER_UNITS = {
    "services.discover_ms": "ms",
    "services.candidates": "count",
    "services.self_ms": "ms",
    "composition.local_ms": "ms",
    "composition.select_ms": "ms",
    "composition.global_p50_ms": "ms",
    "composition.global_p95_ms": "ms",
    "composition.kept_ratio": "ratio",
    "composition.lattice_states": "count",
    "composition.lattice_heavy_share": "ratio",
    "composition.utility_evals": "count",
    "composition.cache_hit_ratio": "ratio",
    "composition.self_ms": "ms",
    "execution.run_ms": "ms",
    "execution.invocations": "count",
    "execution.failed_share": "ratio",
    "execution.self_ms": "ms",
    "adaptation.actions": "count",
    "adaptation.self_ms": "ms",
    "runtime.admit_us": "us",
    "runtime.queue_ms": "ms",
    "runtime.worker_ms": "ms",
    "runtime.coalesced_ratio": "ratio",
    "runtime.requeued": "count",
    "trace.overhead_ms": "ms",
    "trace.self_coverage": "ratio",
}


class MissingProgram(Exception):
    """The checkout has no ``src/repro`` to measure."""


def import_program() -> None:
    """Put ``src`` and this directory on the path and import the program
    from this checkout, never from an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    location = pathlib.Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise MissingProgram(f"repro imported from {location}, not {SRC}")


# ---------------------------------------------------------------------------
# process hygiene
# ---------------------------------------------------------------------------
def stop_resource_tracker() -> None:
    """Stop and reap the ``spawn`` start method's resource tracker.

    The tracker exits on its own only after every process holding its
    pipe has exited, so it would outlive this interpreter by a moment.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is None:
        return
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
        return
    os.close(tracker._fd)
    os.waitpid(tracker._pid, 0)
    tracker._fd = tracker._pid = None


def pin_to_one_cpu() -> None:
    """Run this interpreter, and every thread and process it starts, on
    one CPU.

    On a shared 2-vCPU host, hand-offs between threads (the GIL) and
    processes (the pipes) that cross CPUs made identical runs of the
    pooled workloads differ by 20-40% in throughput, and by a third of
    that on one CPU.  The cost is that the process backend's parallel
    speed-up is not measured.
    """
    if hasattr(os, "sched_setaffinity"):  # Linux; elsewhere use every CPU
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def reap_children() -> list:
    """Stop every child process still alive; returns their names."""
    leftover = multiprocessing.active_children()
    for child in leftover:
        child.terminate()
        child.join(5)
    stop_resource_tracker()
    return [child.name for child in leftover]


def children_peak_rss_kb() -> int:
    """Peak RSS (KiB) of this interpreter's largest reaped child."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------
def git_sha():
    """HEAD's commit, read from ``.git`` without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(workload, seed: int) -> dict:
    numpy = importlib.util.find_spec("numpy") is not None
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_used": (
            sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None
        ),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy") if numpy else None,
        "workload": workload.name,
        "seed": seed,
        "services_per_activity": workload.services_per_activity,
        "world_seed": workload.world_seed,
    }


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------
def setup_probe(args) -> float:
    """Scaled set-up time of a fresh interpreter running this workload."""
    completed = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr[-2000:]}")
    return float(completed.stdout.split()[-1])


def scaled_setup(seconds: float, before: float) -> float:
    """Set-up seconds on the reference host, from the calibration taken
    just before it and one taken now, just after it."""
    after = calibrate(SETUP_CALIBRATIONS)
    return seconds * REFERENCE_CALIBRATION_S / ((before + after) / 2)


def end_to_end(args, workload, started: float, calibration: float):
    from workloads import (
        HEAVY_STATES, MIN_SAMPLES, deploy, drive, percentile,
        reference_digests,
    )

    run = deploy(workload, args.seed)
    setup = time.perf_counter() - started
    try:
        setups = [scaled_setup(setup, calibration)]
        outcomes, slices = drive(run, args.seconds)
    finally:
        run.close()
    leftover = reap_children()
    rss = (run.peak_rss_kb + children_peak_rss_kb()) / 1024
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = reference_digests(run, outcomes)
    problems = [f"child process left running: {name}" for name in leftover]
    for outcome in run.warmup + outcomes:
        if outcome.status != "completed":
            continue
        if not outcome.feasible:
            problems.append(f"request {outcome.index}: infeasible plan")
        if outcome.digest != reference[(outcome.burst, outcome.index)]:
            problems.append(
                f"request {outcome.index}: plan differs from the serial "
                f"reference"
            )
    completed = [o for o in outcomes if o.status == "completed"]
    failed = [o for o in outcomes if o.status == "failed"]
    rejected = [o for o in outcomes if o.status == "rejected"]
    if not completed:
        problems.append("no request completed")
    wall = sum(s.end - s.start for s in slices)
    scaled_wall = sum((s.end - s.start) * s.scale for s in slices)
    latencies = [o.latency * slices[o.slice].scale for o in completed]
    raw = [o.latency for o in completed]
    setups += [setup_probe(args) for _ in range(SETUP_PROBES)]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(completed) / scaled_wall,
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
        "peak_rss_mb": rss,
        "plan_utility_mean": statistics.fmean(o.utility for o in completed),
    }
    heavy = sum(o.states >= HEAVY_STATES for o in completed)
    beyond = len(completed) - math.ceil(0.95 * len(completed) - 1e-9)
    speeds = sorted(s.scale for s in slices)
    report = [
        f"timed phase {wall:.3f} s in {len(slices)} slices; requests "
        f"attempted {len(outcomes)} completed {len(completed)} failed "
        f"{len(failed)} rejected {len(rejected)}",
        f"latency samples {len(completed)}, {beyond} beyond p95",
        f"this interpreter's peak RSS after all {len(outcomes)} timed "
        f"requests {own_peak:.1f} MB (gated: after {MIN_SAMPLES})",
        f"plans walking >= {HEAVY_STATES} lattice states: {heavy} "
        f"({heavy / max(1, len(completed)):.1%})",
        f"host speed per slice (reference host = 1): min "
        f"{speeds[0]:.3f} median {statistics.median(speeds):.3f} max "
        f"{speeds[-1]:.3f}",
        f"unscaled: throughput {len(completed) / wall:.4f} req/s, latency "
        f"p50 {percentile(raw, 0.50) * 1e3:.4f} ms p95 "
        f"{percentile(raw, 0.95) * 1e3:.4f} ms, this set-up {setup:.4f} s",
        "set-up runs, scaled (s): " + ", ".join(f"{s:.4f}" for s in setups),
    ]
    report += [f"error: {o.error}" for o in failed + rejected][:5]
    return metrics, END_TO_END_UNITS, len(outcomes), len(failed) + len(
        rejected
    ), problems, report


# ---------------------------------------------------------------------------
# traced
# ---------------------------------------------------------------------------
def traced(args, workload):
    from tracing import (
        CHURN_UNITS,
        Recorder,
        replay,
        replay_metrics,
        runtime_metrics,
        runtime_pass,
    )

    problems = []
    runtime_recorder, replay_recorder = Recorder(), Recorder()
    try:
        run, outcomes, delta, shipped = runtime_pass(
            workload, args.seed, args.seconds, runtime_recorder
        )
    finally:
        leftover = reap_children()
    problems += [f"child process left running: {n}" for n in leftover]
    sequence = [(o.burst, o.index) for o in outcomes]
    churn_log = run.churn.log if run.churn is not None else []
    rows, live = replay(
        workload, args.seed, sequence, churn_log, args.seconds,
        replay_recorder,
    )
    layers, per_request = replay_metrics(rows, replay_recorder, live)
    runtime = runtime_metrics(
        workload, outcomes, delta, shipped, runtime_recorder, per_request
    )
    by_index = {o.index: o for o in outcomes}
    for row in rows:
        outcome = by_index[row.index]
        if outcome.status == "completed" and outcome.digest != row.digest:
            problems.append(
                f"request {row.index}: runtime plan differs from the "
                f"serial replay"
            )
    problems += [
        f"request {row.index}: infeasible plan"
        for row in rows if not row.feasible
    ]
    if workload.backend is None:
        coverage = layers["trace.self_coverage"]
        if coverage is None or abs(coverage - 1.0) > 0.10:
            problems.append(
                f"layer self times cover {coverage} of request wall time"
            )
    measured = {**layers, **runtime}
    metrics = {name: measured.get(name) for name in PER_LAYER_UNITS}
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    runtime_recorder.dump(OUT / f"{stem}-runtime-spans.jsonl")
    replay_recorder.dump(OUT / f"{stem}-replay-spans.jsonl")
    counts = collections.Counter(o.status for o in outcomes)
    report = [
        f"runtime pass ({run.workload.backend} backend): requests attempted "
        f"{len(outcomes)} completed {counts['completed']} failed "
        f"{counts['failed']} rejected {counts['rejected']}",
        f"replayed {len(rows)} requests; spans in {OUT.relative_to(ROOT)}",
    ]
    if workload.burst:
        report += [
            f"churn: {name} {_shown(measured.get(name))} {unit}"
            for name, unit in CHURN_UNITS.items()
        ]
    failed = len(outcomes) - counts["completed"]
    return metrics, PER_LAYER_UNITS, len(outcomes), failed, problems, report


def _shown(value) -> str:
    return "null (no data)" if value is None else f"{value:.6g}"


# ---------------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    calibration = calibrate(SETUP_CALIBRATIONS)
    started = time.perf_counter()
    try:
        import_program()
    except (MissingProgram, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, deploy

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        try:
            run = deploy(workload, args.seed)
            setup = time.perf_counter() - started
            try:
                print(scaled_setup(setup, calibration))
            finally:
                run.close()
        finally:
            reap_children()
        return 0

    try:
        if args.trace:
            measured = traced(args, workload)
        else:
            measured = end_to_end(args, workload, started, calibration)
    finally:
        leftover = reap_children()
    metrics, units, attempted, failed, problems, report = measured
    problems += [f"child process left running: {name}" for name in leftover]

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for line in report:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:36s} {_shown(value)} {units[name]}")
    for problem in problems[:20]:
        print(f"INCORRECT: {problem}")
    print("provenance " + json.dumps(provenance(workload, args.seed)))
    missing = [
        name for name, value in metrics.items()
        if value is None or not math.isfinite(value)
    ]
    if missing:
        # The result line holds numbers only: a probe whose public function
        # is gone has to be moved to its successor before the run counts.
        print(f"perfbench: no data for {', '.join(missing)}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
