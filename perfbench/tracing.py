"""The traced run: outside-in spans around each layer's public calls.

Spans are recorded by this file, around calls into the program, never
inside it.  Each span keeps its name, start, end, parent span and request
id, in memory; they are written out when the run ends.  A layer's self
time is its spans' duration minus the part their child spans cover.

Layers are the repository's modules: ``services`` (discovery, registry
writes and snapshots), ``composition`` (QASSA), ``execution`` and
``adaptation``, and ``runtime``.  ``semantics``, ``qos`` and ``env`` are
measured inside the calls that use them.

Passes, all on the workload's own seeded inputs:

* runtime pass: the workload as the generator drives it, timing only
  ``MiddlewareRuntime.submit`` and the wait, plus the runtime's public
  counters and handle timings.  ``unique-serial`` bypasses the runtime
  in its end-to-end runs; here its requests go through a thread runtime
  with the pooled workloads' worker count, so the runtime layer has
  figures on every workload (for requests it cannot coalesce);
* replay: the same requests, and the same registry writes, one at a time
  through ``QASOM.candidates_for`` (discovery), ``QASSA.select`` and
  ``QASOM.submit(plan=...)``, on two identical worlds -- one traced, one
  not, alternating which goes first -- so the difference is the cost of
  tracing.  Its plans are the reference the runtime pass must match;
* local-phase probe: ``QASSA.local_selections`` on the traced replay's
  candidates, outside the request spans, because it repeats work the
  selection already did.

A probe whose public function no longer exists reports ``None`` (no
data), as does a metric the workload never exercises -- never 0.

The figures of registry writes and snapshot shipping (``CHURN_UNITS``)
exist only on ``churn-process``, so they are printed with its report
rather than as per-layer metrics.
``runtime.snapshot_bytes`` is the pickled size of one snapshot times the
snapshots shipped to worker processes.  A worker is sent a snapshot the
first time it composes on a new generation; which worker serves a request
is not visible from outside the runtime, so each generation counts as
shipped to min(compositions on it, workers) workers -- an upper bound.
``runtime.transport_ms`` (process backend only) is a request's worker
time in the runtime pass minus its discover, select and execute time in
the replay; with every process on one CPU it includes waiting for it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from workloads import (
    HEAVY_STATES,
    WORKERS,
    Inputs,
    build_world,
    deploy,
    drive,
    percentile,
    plan_digest,
    replay_writes,
    service_names,
)


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    request: Optional[int]
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Keeps spans in memory; the parent is the caller's open span."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[1]
        span_id = next(self._ids)
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(
                span_id, parent[0] if parent else None, name, request,
                start, end,
            ))

    def wrap(self, obj, attribute: str, name: str) -> bool:
        """Time every call of ``obj.attribute`` as a ``name`` span.

        Returns False (the probe reports no data) when the public
        function is gone.
        """
        original = getattr(obj, attribute, None)
        if not callable(original):
            return False

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(obj, attribute, traced)
        return True

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.span_id] = (span.end - span.start) - covered
    return result


def _mean(values) -> Optional[float]:
    values = list(values)
    return sum(values) / len(values) if values else None


def _ratio(part, whole) -> Optional[float]:
    return part / whole if part is not None and whole else None


def _ms(seconds, scale=1e3):
    """Seconds in milliseconds (or another unit per second via scale)."""
    return None if seconds is None else seconds * scale


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------
def instrument(middleware, recorder: Recorder) -> Dict[str, bool]:
    """Wrap the layers' public calls of one middleware instance."""
    live = {
        "discover": recorder.wrap(
            middleware.discovery, "candidates", "services.discover"
        ),
        "select": recorder.wrap(
            middleware.selector, "select", "composition.select"
        ),
        "run": recorder.wrap(middleware, "submit", "execution.run"),
        "engine": recorder.wrap(
            middleware.engine, "execute", "execution.engine"
        ),
    }
    deploy_manager = getattr(middleware, "adaptation_manager", None)
    live["adapt"] = callable(deploy_manager)
    if live["adapt"]:
        def managed(*args, **kwargs):
            manager = deploy_manager(*args, **kwargs)
            recorder.wrap(manager, "handle", "adaptation.handle")
            return manager

        middleware.adaptation_manager = managed
    return live


def _serve(middleware, request):
    """One request through the layers' public calls, in order; the plan's
    digest is taken before execution can adapt it."""
    candidates = middleware.candidates_for(request.task)
    plan = middleware.selector.select(request, candidates)
    digest = plan_digest(plan)
    result = middleware.submit(plan=plan).result()
    return candidates, plan, digest, result


@dataclass
class Replayed:
    index: int
    digest: tuple
    feasible: bool
    candidates: int
    untraced: float
    traced: float
    local: Optional[float]
    kept: Optional[int]
    states: int
    evaluations: int
    cache_hits: int
    cache_misses: int
    invocations: int
    failed_invocations: int
    adaptations: int


def replay(workload, seed: int, sequence, churn_log, budget: float,
           recorder: Recorder):
    """Serve ``sequence`` [(burst, index)] serially on an untraced and a
    traced world until ``budget`` seconds pass; returns the replayed
    requests and which probes were live."""
    scenario_u, plain = build_world(workload)
    scenario_t, traced = build_world(workload)
    inputs_u = Inputs(workload, scenario_u, seed)
    inputs_t = Inputs(workload, scenario_t, seed)
    live = instrument(traced, recorder)
    registries = (
        (plain.environment.registry,
         service_names(plain.environment.registry), None),
        (traced.environment.registry,
         service_names(traced.environment.registry),
         functools.partial(_timed_write, recorder)),
    )
    local_selections = getattr(traced.selector, "local_selections", None)
    live["local"] = callable(local_selections)
    rows: List[Replayed] = []
    applied = 0
    deadline = time.perf_counter() + budget
    for burst, index in sequence:
        if time.perf_counter() >= deadline and rows:
            break
        while workload.burst and applied <= burst:
            for registry, names, timer in registries:
                replay_writes(registry, names, churn_log[applied], timer)
            applied += 1
        request_u = inputs_u.request(index)
        request_t = inputs_t.request(index)
        walls = {}
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            if side == 0:
                started = time.perf_counter()
                _, _, digest_u, _ = _serve(plain, request_u)
                walls[0] = time.perf_counter() - started
            else:
                started = time.perf_counter()
                with recorder.span("request", request=index):
                    candidates, plan, digest, result = _serve(
                        traced, request_t
                    )
                walls[1] = time.perf_counter() - started
        local = kept = None
        if live["local"]:
            started = time.perf_counter()
            selections = local_selections(request_t, candidates)
            local = time.perf_counter() - started
            kept = sum(len(s.services) for s in selections.values())
        if digest_u != digest:
            raise RuntimeError(
                f"request {index}: traced and untraced replays disagree"
            )
        stats = plan.statistics
        report = result.report
        rows.append(Replayed(
            index=index,
            digest=digest,
            feasible=plan.feasible,
            candidates=sum(candidates.sizes().values()),
            untraced=walls[0],
            traced=walls[1],
            local=local,
            kept=kept,
            states=stats.combinations_explored,
            evaluations=stats.utility_evaluations,
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
            invocations=len(report.invocations),
            failed_invocations=sum(
                1 for r in report.invocations if not r.succeeded
            ),
            adaptations=len(result.adaptations),
        ))
    return rows, live


def _timed_write(recorder: Recorder, fn, *args):
    with recorder.span("services.write"):
        return fn(*args)


def replay_metrics(rows: List[Replayed], recorder: Recorder,
                   live: Dict[str, bool]):
    """Per-layer metrics of the replay (per request unless stated), and
    each request's time in the root's direct children, by span name."""
    spans = recorder.spans
    own = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    roots = {s.span_id: s for s in spans if s.name == "request"}

    def root_of(span: Span) -> Optional[int]:
        while span.parent is not None:
            span = by_id[span.parent]
        return span.span_id if span.span_id in roots else None

    per_request = collections.defaultdict(collections.Counter)
    layer_self = collections.Counter()
    for span in spans:
        root = root_of(span)
        if root is None:
            continue
        request = roots[root].request
        if span.parent == root:
            per_request[request][span.name] += span.end - span.start
        if span.name != "request":
            layer_self[span.layer] += own[span.span_id]
    served = len(rows)
    root_total = sum(s.end - s.start for s in roots.values())
    select = {r: c["composition.select"] for r, c in per_request.items()}
    global_phase = [
        select[row.index] - row.local
        for row in rows if row.local is not None and row.index in select
    ]
    invocations = sum(r.invocations for r in rows)
    lookups = sum(r.cache_hits + r.cache_misses for r in rows)

    def spanned(probe, name):
        if not live.get(probe):
            return None
        return _ms(_mean(c[name] for c in per_request.values()))

    def layer_ms(layer, probe):
        if not live.get(probe):
            return None
        return _ms(layer_self[layer] / served)

    return {
        "services.discover_ms": spanned("discover", "services.discover"),
        "services.candidates": _mean(r.candidates for r in rows),
        "composition.local_ms": _ms(_mean(
            r.local for r in rows if r.local is not None
        )),
        "composition.select_ms": spanned("select", "composition.select"),
        "composition.global_p50_ms": _ms(percentile(global_phase, 0.50)),
        "composition.global_p95_ms": _ms(percentile(global_phase, 0.95)),
        "composition.kept_ratio": _ratio(
            sum(r.kept for r in rows if r.kept is not None),
            sum(r.candidates for r in rows if r.kept is not None),
        ),
        "composition.lattice_states": _mean(r.states for r in rows),
        "composition.lattice_heavy_share": _mean(
            r.states >= HEAVY_STATES for r in rows
        ),
        "composition.utility_evals": _mean(r.evaluations for r in rows),
        "composition.cache_hit_ratio": _ratio(
            sum(r.cache_hits for r in rows), lookups
        ),
        "execution.run_ms": spanned("run", "execution.run"),
        "execution.invocations": _mean(r.invocations for r in rows),
        "execution.failed_share": _ratio(
            sum(r.failed_invocations for r in rows), invocations
        ),
        "adaptation.actions": _mean(r.adaptations for r in rows),
        "services.self_ms": layer_ms("services", "discover"),
        "composition.self_ms": layer_ms("composition", "select"),
        "execution.self_ms": layer_ms("execution", "run"),
        "adaptation.self_ms": layer_ms("adaptation", "adapt"),
        "trace.self_coverage": _ratio(sum(layer_self.values()), root_total),
        "trace.overhead_ms": _ms(
            _mean(r.traced for r in rows) - _mean(r.untraced for r in rows)
        ),
    }, per_request


# ---------------------------------------------------------------------------
# runtime pass
# ---------------------------------------------------------------------------
class RuntimeHooks:
    """Spans around ``MiddlewareRuntime.submit`` and the registry writes."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def submit(self, run, request, index):
        with self.recorder.span("runtime.submit", request=index):
            return run.runtime.submit(request)

    def write(self, fn, *args):
        return _timed_write(self.recorder, fn, *args)


_COUNTERS = (
    "coalescer.lookups", "coalescer.coalesced", "batcher.lookups",
    "batcher.coalesced", "snapshots.acquires", "snapshots.refreshes",
    "requeued",
)


def _counters(runtime) -> Dict[str, Optional[int]]:
    """The runtime's public counters; None for one that is gone."""
    values = {}
    for path in _COUNTERS:
        value = runtime
        for attribute in path.split("."):
            value = getattr(value, attribute, None)
        values[path] = value
    return values


def runtime_pass(workload, seed: int, seconds: float, recorder: Recorder):
    """Drive the workload through its runtime (a thread runtime for the
    serial workload) with the runtime calls traced."""
    if workload.backend is None:
        workload = replace(workload, backend="thread")
    run = deploy(workload, seed)
    composes = collections.Counter()
    try:
        registry = run.middleware.environment.registry
        untraced_snapshot = registry.snapshot
        recorder.wrap(registry, "snapshot", "services.snapshot")
        backend = getattr(run.runtime, "backend", None)
        backend_compose = getattr(backend, "compose", None)
        if callable(backend_compose):
            def counted(spec, snapshot):
                composes[snapshot.generation] += 1
                return backend_compose(spec, snapshot)

            backend.compose = counted
        before = _counters(run.runtime)
        outcomes, _ = drive(run, seconds, hooks=RuntimeHooks(recorder))
        after = _counters(run.runtime)
        snapshot_size = len(pickle.dumps(untraced_snapshot()))
    finally:
        run.close()
    delta = {
        k: None if after[k] is None else after[k] - before[k] for k in after
    }
    shipped = 0
    if not callable(backend_compose):
        shipped = None
    elif workload.backend == "process":
        shipped = sum(min(n, WORKERS) for n in composes.values())
    snapshot_bytes = None if shipped is None else shipped * snapshot_size
    return run, outcomes, delta, snapshot_bytes


#: Figures only ``churn-process`` exercises; ``run.py`` prints them in its
#: report, not among the per-layer metrics.
CHURN_UNITS = {
    "services.write_ms": "ms",
    "services.snapshot_ms": "ms",
    "runtime.discovery_coalesced_ratio": "ratio",
    "runtime.snapshot_refresh_ratio": "ratio",
    "runtime.snapshot_bytes": "bytes",
    "runtime.transport_ms": "ms",
}


def runtime_metrics(workload, outcomes, delta, snapshot_bytes, recorder,
                    replayed) -> Dict[str, Optional[float]]:
    spans = recorder.spans
    done = [o for o in outcomes if o.worker_s is not None]
    queue = [o.queue_s for o in done]
    worker = [o.worker_s for o in done]
    transport = None
    if workload.backend == "process" and replayed:
        worker_by_index = {o.index: o.worker_s for o in done}
        transport = _ms(_mean(
            worker_by_index[index] - sum(parts[name] for name in (
                "services.discover", "composition.select", "execution.run"
            ))
            for index, parts in replayed.items() if index in worker_by_index
        ))
    writes = [s.end - s.start for s in spans if s.name == "services.write"]
    snapshots = [
        s.end - s.start for s in spans if s.name == "services.snapshot"
    ]
    return {
        "services.write_ms": _ms(_mean(writes)),
        "services.snapshot_ms": _ms(_mean(snapshots)),
        "runtime.admit_us": _ms(_mean(
            s.end - s.start for s in spans if s.name == "runtime.submit"
        ), 1e6),
        "runtime.queue_ms": _ms(_mean(queue)),
        "runtime.worker_ms": _ms(_mean(worker)),
        "runtime.coalesced_ratio": _ratio(
            delta["coalescer.coalesced"], delta["coalescer.lookups"]
        ),
        "runtime.discovery_coalesced_ratio": _ratio(
            delta["batcher.coalesced"], delta["batcher.lookups"]
        ),
        "runtime.snapshot_refresh_ratio": _ratio(
            delta["snapshots.refreshes"], delta["snapshots.acquires"]
        ),
        "runtime.requeued": delta["requeued"],
        "runtime.snapshot_bytes": snapshot_bytes,
        "runtime.transport_ms": transport,
    }
