"""Cross-thread trace assembly: one causally linked span tree per request.

The tentpole guarantee of the causal-forensics layer: a request brokered
through the pooled runtime — admitted on the submitting thread, composed
on a worker, possibly crash-requeued onto a *different* worker, committed
in order — still yields exactly one span tree under one stable trace id,
and the flight recorder's event slice for that trace reads
admission → pickup → crash → requeue → commit in causal order.
"""

from __future__ import annotations

import json

import pytest

from repro.execution.clock import SimulatedClock
from repro.middleware.qasom import QASOM
from repro.observability import (
    Observability,
    assemble_traces,
    read_jsonl,
    write_jsonl,
)
from repro.observability.events import (
    ADMISSION_ACCEPT,
    COMMIT,
    REQUEST_DONE,
    REQUEST_REQUEUED,
    WORKER_CRASH,
    WORKER_PICKUP,
    FlightRecorder,
)
from repro.qos.properties import STANDARD_PROPERTIES
from repro.resilience import FaultEvent, FaultKind, FaultSchedule
from repro.runtime import (
    ChaosPolicy,
    MiddlewareRuntime,
    RequestStatus,
    RuntimeConfig,
    assert_runtime_invariants,
)
from repro.semantics.ontology import Ontology
from repro.services.generator import ServiceGenerator
from repro.composition.request import UserRequest
from repro.composition.task import Task, leaf, sequence
from repro.env.environment import PervasiveEnvironment

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability")
}
CAPS = ("task:One", "task:Two")


def build_world(seed=3, services=6):
    ontology = Ontology("runtime-trace-tests")
    root = ontology.declare_class("task:Root")
    for capability in CAPS:
        ontology.declare_class(capability, [root])
    environment = PervasiveEnvironment(seed=seed)
    generator = ServiceGenerator(PROPS, seed=seed)
    for capability in CAPS:
        for service in generator.candidates(capability, services):
            environment.host_on_new_device(service)
    observability = Observability(clock=environment.clock)
    middleware = QASOM.for_environment(environment, PROPS,
                                       ontology=ontology,
                                       observability=observability)
    task = Task("trace", sequence(leaf("A", CAPS[0]), leaf("B", CAPS[1])))
    request = UserRequest(task=task, constraints=(),
                          weights={name: 1.0 for name in PROPS})
    return middleware, request, observability


class TestPooledTraces:
    def test_eight_worker_run_yields_one_root_per_request(self):
        middleware, request, obs = build_world()
        recorder = FlightRecorder(capacity=4096)
        config = RuntimeConfig(workers=8, queue_depth=64,
                               flight_recorder=recorder)
        with MiddlewareRuntime(middleware, config) as runtime:
            handles = [runtime.submit(request) for _ in range(24)]
            runtime.drain()
        trace_ids = [h.trace_id for h in handles]
        assert all(trace_ids), "every admitted handle carries a trace id"
        assert len(set(trace_ids)) == len(handles), "trace ids are unique"
        traces = assemble_traces(obs.tracer.all_spans())
        for handle in handles:
            assert handle.status is RequestStatus.DONE
            trace = traces[handle.trace_id]
            roots = trace.roots
            assert len(roots) == 1, (
                f"{handle.trace_id} has {len(roots)} roots"
            )
            assert roots[0].name == "runtime.request"
            # Every span in the tree carries the handle's trace id.
            assert all(
                span.trace_id == handle.trace_id for span in trace.spans
            )

    def test_trace_id_is_stable_through_requeue_after_crash(self):
        middleware, request, obs = build_world()
        clock = middleware.environment.clock
        recorder = FlightRecorder(capacity=4096)
        chaos = ChaosPolicy(
            FaultSchedule([FaultEvent(0.0, FaultKind.WORKER_CRASH, "any")]),
            clock, observability=obs,
        )
        config = RuntimeConfig(workers=8, queue_depth=64,
                               flight_recorder=recorder)
        with MiddlewareRuntime(middleware, config, chaos=chaos) as runtime:
            handles = [runtime.submit(request) for _ in range(16)]
            runtime.drain()
            assert_runtime_invariants(runtime, handles)
        (victim,) = [h for h in handles if h.crashes]
        assert victim.status is RequestStatus.DONE
        assert victim.requeues >= 1
        minted = victim.trace_id
        assert minted is not None
        # The trace id survived the requeue: the recorder's slice for the
        # victim covers both attempts under the same id, in causal order.
        kinds = [e.kind for e in recorder.for_trace(minted)]
        assert kinds[0] == ADMISSION_ACCEPT
        crash_at = kinds.index(WORKER_CRASH)
        assert WORKER_PICKUP in kinds[:crash_at]
        assert REQUEST_REQUEUED in kinds[crash_at:]
        requeued_at = kinds.index(REQUEST_REQUEUED)
        assert WORKER_PICKUP in kinds[requeued_at:]
        assert COMMIT in kinds[requeued_at:]
        assert kinds.index(COMMIT) < kinds.index(REQUEST_DONE)
        # ... and the span tree still has exactly one root.
        trace = assemble_traces(obs.tracer.all_spans())[minted]
        assert len(trace.roots) == 1
        # Unique, never-reused ids: no other handle shares the trace.
        assert sum(1 for h in handles if h.trace_id == minted) == 1

    def test_crash_produces_a_forensic_bundle_with_the_causal_slice(
        self, tmp_path
    ):
        middleware, request, obs = build_world()
        clock = middleware.environment.clock
        chaos = ChaosPolicy(
            FaultSchedule([FaultEvent(0.0, FaultKind.WORKER_CRASH, "any")]),
            clock, observability=obs,
        )
        config = RuntimeConfig(
            workers=8, queue_depth=64,
            flight_recorder=FlightRecorder(capacity=4096),
            forensics_dir=str(tmp_path),
        )
        with MiddlewareRuntime(middleware, config, chaos=chaos) as runtime:
            handles = [runtime.submit(request) for _ in range(16)]
            runtime.drain()
        (victim,) = [h for h in handles if h.crashes]
        (path,) = runtime.forensics.paths
        with open(path) as handle:
            bundle = json.load(handle)
        assert bundle["reason"] == "worker_crash"
        assert bundle["trace_id"] == victim.trace_id
        kinds = [e["kind"] for e in bundle["trace_events"]]
        # The deferred bundle covers the request's whole life:
        # admission -> pickup -> crash -> requeue -> (pickup) -> commit.
        for earlier, later in zip(
            [ADMISSION_ACCEPT, WORKER_PICKUP, WORKER_CRASH,
             REQUEST_REQUEUED, COMMIT],
            [WORKER_PICKUP, WORKER_CRASH, REQUEST_REQUEUED, COMMIT,
             REQUEST_DONE],
        ):
            assert kinds.index(earlier) < kinds.index(later), (
                f"{earlier} not before {later} in {kinds}"
            )
        # The bundle's span slice is the victim's single-rooted tree.
        roots = [s for s in bundle["spans"] if s.get("parent_id") is None]
        assert len(roots) == 1
        assert all(
            s["trace_id"] == victim.trace_id for s in bundle["spans"]
        )


class TestJsonlRoundTrip:
    def test_jsonl_round_trip_preserves_trace_linkage(self, tmp_path):
        middleware, request, obs = build_world()
        config = RuntimeConfig(workers=4, queue_depth=32)
        with MiddlewareRuntime(middleware, config) as runtime:
            handles = [runtime.submit(request) for _ in range(8)]
            runtime.drain()
        path = tmp_path / "spans.jsonl"
        write_jsonl(obs, path)
        records = [r for r in read_jsonl(path) if r["type"] == "span"]
        by_id = {r["span_id"]: r for r in records}
        for handle in handles:
            mine = [r for r in records
                    if r.get("trace_id") == handle.trace_id]
            assert mine, f"no records for {handle.trace_id}"
            roots = [r for r in mine if r.get("parent_id") is None]
            assert len(roots) == 1
            # Every non-root record links to a parent in the same trace.
            for record in mine:
                parent_id = record.get("parent_id")
                if parent_id is None:
                    continue
                parent = by_id[parent_id]
                assert parent.get("trace_id") == record["trace_id"]


def _serial_submit(middleware, request):
    return middleware.submit(request).result()


def _serial_run(middleware, request):
    return middleware.run(request)


def _runtime(backend):
    def serve(middleware, request):
        config = RuntimeConfig(backend=backend, workers=1)
        with MiddlewareRuntime(middleware, config) as runtime:
            return runtime.submit(request).result()

    return serve


#: Every way a request is composed and executed.
PATHS = {
    "submit": _serial_submit,
    "run": _serial_run,
    "thread": _runtime("thread"),
    "process": _runtime("process"),
}


class TestOneCompositionPath:
    """Serial submits, ``run`` and the runtime compose through one
    routine, so every path records the same span tree."""

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_result_trace_is_the_request_root(self, path):
        middleware, request, obs = build_world()
        result = PATHS[path](middleware, request)
        assert result.trace.name == "runtime.request"
        trace = assemble_traces(obs.tracer.all_spans())[result.trace.trace_id]
        assert trace.root is result.trace
        assert not any(span.name == "run" for span in trace.spans)

    @pytest.mark.parametrize("path", ["submit", "run", "thread"])
    def test_one_discovery_span_per_activity_under_compose(self, path):
        middleware, request, obs = build_world()
        PATHS[path](middleware, request)
        (trace,) = assemble_traces(obs.tracer.all_spans()).values()
        (compose,) = [span for span in trace.spans if span.name == "compose"]
        discoveries = [
            child for child in compose.children if child.name == "discovery"
        ]
        assert [span.attributes["activity"] for span in discoveries] == [
            activity.name for activity in request.task.activities
        ]
        assert all(span.attributes["pool_size"] > 0 for span in discoveries)
        assert [
            span for span in trace.spans if span.name == "discovery"
        ] == discoveries


class TestSerialPathTraces:
    def test_inline_submit_mints_and_adopts_a_context(self):
        middleware, request, obs = build_world()
        handle = middleware.submit(request)
        assert handle.trace_id is not None
        trace = assemble_traces(obs.tracer.all_spans())[handle.trace_id]
        assert len(trace.roots) == 1
        assert all(
            span.trace_id == handle.trace_id for span in trace.spans
        )

    def test_blocking_run_convenience_mints_a_context_too(self):
        middleware, request, obs = build_world()
        result = middleware.run(request)
        assert result.trace.trace_id is not None
        # Every span of the run shares that id (one trace, one tree).
        traces = assemble_traces(obs.tracer.all_spans())
        trace = traces[result.trace.trace_id]
        assert len(trace.roots) == 1
        assert {span.trace_id for span in trace.spans} == {
            result.trace.trace_id
        }

    def test_serial_submissions_get_distinct_trace_ids(self):
        middleware, request, _ = build_world()
        ids = {middleware.submit(request).trace_id for _ in range(3)}
        assert len(ids) == 3

    def test_untraced_middleware_mints_nothing(self):
        ontology = Ontology("untraced")
        root = ontology.declare_class("task:Root")
        for capability in CAPS:
            ontology.declare_class(capability, [root])
        environment = PervasiveEnvironment(seed=3)
        generator = ServiceGenerator(PROPS, seed=3)
        for capability in CAPS:
            for service in generator.candidates(capability, 6):
                environment.host_on_new_device(service)
        middleware = QASOM.for_environment(environment, PROPS,
                                           ontology=ontology)
        task = Task("trace",
                    sequence(leaf("A", CAPS[0]), leaf("B", CAPS[1])))
        request = UserRequest(task=task, constraints=(),
                              weights={name: 1.0 for name in PROPS})
        handle = middleware.submit(request)
        assert handle.trace_id is None
