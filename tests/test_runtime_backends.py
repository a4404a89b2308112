"""Backend conformance: both execution backends honour the same contract.

The execution-backend redesign makes *where* composition runs a config
knob (``RuntimeConfig(backend="thread" | "process")``).  These tests run
the same conformance suite against both backends through one parametrized
fixture: pooled runs pick serial's substitutes, admission / deadline /
rejection semantics are backend-independent, ``close()`` leaks nothing, a
killed worker process surfaces as a requeue or a
:class:`~repro.errors.WorkerCrashError` — never a hang — and chaos, the
flight recorder and forensic bundles work the same on both.  Config-level
validation (unknown names, the one unsupported feature combination, the
features the process backend accepts) rides along.  That pooled plans and
reports are byte-identical to serial ones is checked in
``tests/test_identity_harness.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time

import pytest

from repro.errors import (
    MiddlewareRuntimeError,
    UnsupportedBackendFeatureError,
    WorkerCrashError,
    WorkerProcessCrash,
)
from repro.env.scenarios import build_shopping_scenario
from repro.middleware.config import MiddlewareConfig
from repro.middleware.qasom import QASOM
from repro.observability import FlightRecorder, Observability
from repro.observability import events as rt_events
from repro.resilience import FaultSchedule
from repro.resilience.policies import TimeoutPolicy
from repro.runtime import (
    BACKEND_CHOICES,
    ChaosPolicy,
    ExecutionBackend,
    MiddlewareRuntime,
    ProcessBackend,
    RequestStatus,
    RuntimeConfig,
    RunSpec,
    ThreadBackend,
    verify_runtime_invariants,
)

from repro.experiments.fuzzing import plan_signature, report_signature
from tests.worlds import CAPS, PROPS, build_world

BACKENDS = ("thread", "process")


@pytest.fixture(params=BACKENDS)
def backend(request):
    """The backend name under test; the whole suite runs once per value."""
    return request.param


def _config(backend_name, **overrides):
    overrides.setdefault("workers", 2)
    overrides.setdefault("queue_depth", 64)
    return RuntimeConfig(backend=backend_name, **overrides)


class TestPooledEqualsSerialOnEveryBackend:
    def test_plan_services_resolve_on_the_parent_registry(self, backend):
        """Rehydrated plans bind the parent's own service objects."""
        middleware, requests, _ = build_world(seed=31, profiles=2, repeats=1)
        registry = middleware.environment.registry
        with MiddlewareRuntime(middleware, _config(backend)) as runtime:
            result = runtime.submit(requests[0]).result()
        for selection in result.plan.selections.values():
            for service in selection.services:
                assert registry.get(service.service_id) is service

    def test_fresh_substitutes_match_serial(self, backend):
        """Substitution ranks fresh candidates from the plan, so a pooled
        run picks the serial run's substitute.  Request 7 of
        this world exhausts its Pay alternates; serially its fresh
        substitute is CardPayment-0002."""

        def shopping():
            scenario = build_shopping_scenario(
                services_per_activity=6, seed=7
            )
            middleware = QASOM.for_environment(
                scenario.environment, scenario.properties,
                ontology=scenario.ontology,
            )
            return scenario.request, middleware

        def substitutes(result):
            return [
                (outcome.substitution.activity_name,
                 outcome.substitution.replacement.name,
                 outcome.substitution.used_fresh_candidates)
                for outcome in result.adaptations
                if outcome.substitution is not None
            ]

        request, middleware = shopping()
        serial = [middleware.submit(request).result() for _ in range(8)]
        request, middleware = shopping()
        with MiddlewareRuntime(middleware, _config(backend)) as runtime:
            handles = [runtime.submit(request) for _ in range(8)]
            runtime.drain(timeout=120.0)
        assert ("Pay", "CardPayment-0002", True) in substitutes(serial[7])
        for index, (expected, handle) in enumerate(zip(serial, handles)):
            assert substitutes(handle.result()) == substitutes(expected), (
                f"request {index} ({backend}): substitutes diverged"
            )
            assert report_signature(handle.result().report) == (
                report_signature(expected.report)
            )


class TestAdmissionSemantics:
    def test_overload_rejects_identically(self, backend):
        middleware, requests, _ = build_world(seed=37, repeats=4)
        config = _config(backend, workers=1, queue_depth=1)
        with MiddlewareRuntime(middleware, config) as runtime:
            handles = [runtime.submit(r) for r in requests]
            runtime.drain(timeout=120.0)
        statuses = [h.status for h in handles]
        assert RequestStatus.REJECTED in statuses, (
            f"{backend}: a 1-deep queue fed {len(requests)} requests "
            f"must reject some"
        )
        for handle in handles:
            assert handle.done()
            assert handle.status in (
                RequestStatus.DONE, RequestStatus.REJECTED,
            )

    def test_deadline_expiry_is_backend_independent(self, backend):
        middleware, requests, _ = build_world(seed=41, profiles=1, repeats=1)
        config = _config(
            backend, workers=1,
            deadline=TimeoutPolicy(invoke_timeout_ms=1e-6),
        )
        with MiddlewareRuntime(middleware, config) as runtime:
            handle = runtime.submit(requests[0])
            runtime.drain(timeout=60.0)
        assert handle.status is RequestStatus.EXPIRED

    def test_submit_after_close_raises(self, backend):
        middleware, requests, _ = build_world(seed=43, profiles=1, repeats=1)
        runtime = MiddlewareRuntime(middleware, _config(backend))
        runtime.start()
        runtime.close()
        from repro.errors import RuntimeShutdownError

        with pytest.raises(RuntimeShutdownError):
            runtime.submit(requests[0])


class TestLifecycleHygiene:
    def test_close_leaks_no_workers(self, backend):
        middleware, requests, _ = build_world(seed=47)
        config = _config(backend, queue_depth=len(requests))
        runtime = MiddlewareRuntime(middleware, config)
        with runtime:
            handles = [runtime.submit(r) for r in requests]
            runtime.drain(timeout=120.0)
        assert all(h.done() for h in handles)
        assert runtime.alive_workers == 0
        # No child process may survive a clean close — on either backend
        # (the thread backend must simply never have spawned one).
        deadline = time.time() + 10.0
        while multiprocessing.active_children() and time.time() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self, backend):
        middleware, _, _ = build_world(seed=53, profiles=1, repeats=1)
        runtime = MiddlewareRuntime(middleware, _config(backend))
        runtime.start()
        runtime.close()
        runtime.close()  # second close must be a quiet no-op
        assert not runtime.running

    def test_backend_object_matches_config(self, backend):
        middleware, _, _ = build_world(seed=59, profiles=1, repeats=1)
        runtime = MiddlewareRuntime(
            middleware, _config(backend), autostart=False
        )
        expected = {"thread": ThreadBackend, "process": ProcessBackend}
        assert isinstance(runtime.backend, expected[backend])
        assert isinstance(runtime.backend, ExecutionBackend)
        assert runtime.backend.name == backend
        runtime.close()


#: The event kinds that end a request; each request leaves exactly one.
TERMINAL_KINDS = (
    rt_events.REQUEST_DONE, rt_events.REQUEST_FAILED,
    rt_events.DEADLINE_EXPIRED, rt_events.ADMISSION_REJECT,
    rt_events.REQUEST_CANCELLED,
)


def _terminal_events(recorder, handle):
    return [e.kind for e in recorder.for_trace(handle.trace_id)
            if e.kind in TERMINAL_KINDS]


class TestOneTerminalEventPerRequest:
    def test_done_rejected_and_cancelled_each_leave_one_event(self, backend):
        recorder = FlightRecorder(capacity=4096)
        middleware, requests, _ = build_world(seed=83, profiles=2, repeats=2)
        config = _config(backend, workers=1, queue_depth=8,
                         flight_recorder=recorder)
        with MiddlewareRuntime(middleware, config) as runtime:
            done = [runtime.submit(r) for r in requests]
            runtime.drain(timeout=120.0)
        # Never started: 4 requests queue, 8 are rejected, and a
        # non-draining close cancels the queued 4.
        middleware, requests, _ = build_world(seed=83, profiles=2, repeats=6)
        runtime = MiddlewareRuntime(
            middleware,
            _config(backend, workers=1, queue_depth=4,
                    flight_recorder=recorder),
            autostart=False,
        )
        refused = [runtime.submit(r) for r in requests]
        runtime.close(drain=False)

        expected = {
            RequestStatus.DONE: rt_events.REQUEST_DONE,
            RequestStatus.REJECTED: rt_events.ADMISSION_REJECT,
            RequestStatus.CANCELLED: rt_events.REQUEST_CANCELLED,
        }
        statuses = [h.status for h in done + refused]
        assert statuses.count(RequestStatus.DONE) == len(done)
        assert statuses.count(RequestStatus.REJECTED) == 8
        assert statuses.count(RequestStatus.CANCELLED) == 4
        for handle in done + refused:
            assert _terminal_events(recorder, handle) == [
                expected[handle.status]
            ], f"{backend}: {handle!r}"
            assert handle.finished_sim is not None
        for handle in refused:
            if handle.status is RequestStatus.REJECTED:
                assert handle.finished_sim == handle.submitted_sim
        assert runtime.open_tickets == 0


def _forensics_smoke(backend_name, directory):
    """The forensics smoke schedule: one crash, one stall and one snapshot
    failure over 12 shopping requests.  Returns the (unstarted) runtime,
    its chaos policy and the request to submit."""
    scenario = build_shopping_scenario()
    observability = Observability(clock=scenario.environment.clock)
    middleware = QASOM.for_environment(
        scenario.environment, scenario.properties,
        ontology=scenario.ontology, repository=scenario.repository,
        observability=observability,
    )
    chaos = ChaosPolicy.from_schedule(
        FaultSchedule.runtime_chaos(
            (0.0, 0.2), crashes=1, stalls=1, snapshot_failures=1,
            stall_seconds=0.01, seed=7,
        ),
        scenario.environment.clock, observability=observability,
    )
    config = _config(backend_name, queue_depth=12,
                     flight_recorder=FlightRecorder(capacity=4096),
                     forensics_dir=str(directory))
    runtime = MiddlewareRuntime(middleware, config, chaos=chaos)
    return runtime, chaos, scenario.request


class TestChaosOnEveryBackend:
    def test_crash_bundle_and_invariants(self, backend, tmp_path):
        """Every injection point and every recorder write of the forensics
        smoke schedule is on the parent's threads, so both backends
        honour it."""
        runtime, chaos, request = _forensics_smoke(backend, tmp_path)
        with runtime:
            handles = [runtime.submit(request) for _ in range(12)]
            runtime.drain(timeout=120.0)
            report = verify_runtime_invariants(runtime, handles)
        assert report.ok, report.violations
        assert len(chaos.fired) == 3
        assert all(h.status is RequestStatus.DONE for h in handles)

        bundles = []
        for path in runtime.forensics.paths:
            with open(path) as stream:
                bundles.append(json.load(stream))
        crash_bundles = [b for b in bundles if b["reason"] == "worker_crash"]
        assert crash_bundles, f"{backend}: no worker_crash bundle"
        for bundle in crash_bundles:
            kinds = [e["kind"] for e in bundle["trace_events"]]
            position = 0
            for kind in (rt_events.ADMISSION_ACCEPT, rt_events.WORKER_PICKUP,
                         rt_events.WORKER_CRASH, rt_events.REQUEST_REQUEUED,
                         rt_events.COMMIT, rt_events.REQUEST_DONE):
                assert kind in kinds[position:], f"{kind} missing: {kinds}"
                position = kinds.index(kind, position) + 1
            roots = [s for s in bundle["spans"] if s.get("parent_id") is None]
            assert len(roots) == 1, f"{backend}: {len(roots)} roots"

    def test_a_crash_bundle_that_raises_does_not_wedge_drain(
        self, backend, tmp_path
    ):
        runtime, _, request = _forensics_smoke(backend, tmp_path)
        triggered = []

        def broken_trigger(reason, **attrs):
            triggered.append(reason)
            raise RuntimeError("forensic bundle could not be written")

        runtime.forensics.trigger = broken_trigger
        with runtime:
            handles = [runtime.submit(request) for _ in range(12)]
            runtime.drain(timeout=30.0)
            assert runtime.in_flight == 0
        assert triggered == ["worker_crash"]
        assert all(handle.done() for handle in handles)


class TestWorkerProcessCrashes:
    """Process-backend only: killed children never hang the runtime."""

    def test_killed_worker_requeues_or_fails_loudly(self):
        middleware, requests, _ = build_world(seed=61, profiles=3, repeats=1)
        config = _config("process", workers=1,
                         queue_depth=len(requests))
        with MiddlewareRuntime(middleware, config) as runtime:
            # Murder the (idle) worker process out from under the backend:
            # the next dispatch hits a dead pipe, which must surface as a
            # WorkerProcessCrash and a respawn — never a hang.
            victim = runtime.backend._channels[0].process
            victim.terminate()
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            handles = [runtime.submit(r) for r in requests]
            runtime.drain(timeout=120.0)
        for handle in handles:
            assert handle.done(), "killed worker must never hang a request"
            if handle.status is RequestStatus.DONE:
                assert handle.result().plan is not None
            else:
                assert handle.status is RequestStatus.FAILED
                with pytest.raises(WorkerCrashError):
                    handle.result()
        # At least one request observed the corpse and was salvaged.
        assert runtime.requeued >= 1 or any(
            h.status is RequestStatus.FAILED for h in handles
        )

    def test_requeued_request_still_matches_serial(self):
        middleware_serial, requests_serial, _ = build_world(
            seed=67, profiles=2, repeats=1
        )
        serial = [middleware_serial.submit(r).result()
                  for r in requests_serial]

        middleware, requests, _ = build_world(seed=67, profiles=2, repeats=1)
        config = _config("process", workers=1, queue_depth=len(requests))
        with MiddlewareRuntime(middleware, config) as runtime:
            victim = runtime.backend._channels[0].process
            victim.terminate()
            victim.join(timeout=10.0)
            handles = [runtime.submit(r) for r in requests]
            runtime.drain(timeout=120.0)
        for expected, handle in zip(serial, handles):
            if handle.status is RequestStatus.DONE:
                assert plan_signature(handle.result().plan) == (
                    plan_signature(expected.plan)
                ), "a crash-requeued request must still commit serially"

    def test_worker_process_crash_is_a_worker_crash_error(self):
        assert issubclass(WorkerProcessCrash, WorkerCrashError)


class TestConfigValidation:
    def test_unknown_backend_lists_the_choices(self):
        with pytest.raises(ValueError) as excinfo:
            RuntimeConfig(backend="fiber")
        message = str(excinfo.value)
        assert "fiber" in message
        for choice in BACKEND_CHOICES:
            assert choice in message

    def test_process_backend_accepts_flight_recorder(self):
        recorder = FlightRecorder()
        middleware, _, _ = build_world(seed=71, profiles=1, repeats=1)
        runtime = MiddlewareRuntime(
            middleware,
            RuntimeConfig(backend="process", flight_recorder=recorder),
            autostart=False,
        )
        assert isinstance(runtime.backend, ProcessBackend)
        assert runtime.recorder is recorder
        assert runtime.forensics is not None
        runtime.close()

    def test_process_backend_accepts_forensics_dir(self, tmp_path):
        middleware, _, _ = build_world(seed=71, profiles=1, repeats=1)
        runtime = MiddlewareRuntime(
            middleware,
            RuntimeConfig(backend="process", forensics_dir=str(tmp_path)),
            autostart=False,
        )
        assert isinstance(runtime.backend, ProcessBackend)
        assert runtime.recorder.enabled
        assert runtime.forensics.directory == str(tmp_path)
        runtime.close()

    def test_process_backend_accepts_chaos(self):
        from repro.execution.clock import SimulatedClock
        from repro.resilience import FaultEvent, FaultKind

        middleware, _, _ = build_world(seed=71, profiles=1, repeats=1)
        chaos = ChaosPolicy(
            FaultSchedule([FaultEvent(5.0, FaultKind.WORKER_CRASH, "any")]),
            SimulatedClock(),
        )
        runtime = MiddlewareRuntime(
            middleware, RuntimeConfig(backend="process"), chaos=chaos,
            autostart=False,
        )
        assert isinstance(runtime.backend, ProcessBackend)
        assert runtime.chaos is chaos
        runtime.close()

    def test_process_backend_rejects_cross_layer_estimation(self):
        from repro.env.environment import PervasiveEnvironment
        from repro.semantics.ontology import Ontology
        from repro.services.generator import ServiceGenerator

        ontology = Ontology("backend-tests")
        root = ontology.declare_class("task:Root")
        for capability in CAPS:
            ontology.declare_class(capability, [root])
        environment = PervasiveEnvironment(seed=73)
        generator = ServiceGenerator(PROPS, seed=73)
        for service in generator.candidates(CAPS[0], 3):
            environment.host_on_new_device(service)
        middleware = QASOM.for_environment(
            environment, PROPS, ontology=ontology,
            config=MiddlewareConfig(infrastructure_aware=True),
        )
        assert middleware.estimator is not None
        with pytest.raises(UnsupportedBackendFeatureError):
            MiddlewareRuntime(middleware, RuntimeConfig(backend="process"))

    def test_thread_backend_still_supports_everything(self, tmp_path):
        config = RuntimeConfig(
            backend="thread",
            flight_recorder=FlightRecorder(),
            forensics_dir=str(tmp_path),
        )
        assert config.backend == "thread"

    def test_unsupported_feature_error_is_a_runtime_error(self):
        assert issubclass(
            UnsupportedBackendFeatureError, MiddlewareRuntimeError
        )


class TestThreadWorkersShareOneSelectionCache:
    def test_a_second_thread_hits_every_activity(self):
        middleware, requests, _ = build_world(seed=31)
        first_request, second_request = requests[0], requests[1]
        assert first_request.weights != second_request.weights
        # The serial reference runs on an identical world: a serial
        # submit on ``middleware`` would warm the cache its runtime shares.
        reference, reference_requests, _ = build_world(seed=31)
        serial = reference.submit(
            reference_requests[1], execute=False
        ).plan()

        runtime = MiddlewareRuntime(
            middleware, _config("thread"), autostart=False
        )
        try:
            assert isinstance(runtime.backend, ThreadBackend)
            snapshot = runtime.snapshots.acquire()
            plans = []

            def compose(request):
                spec = RunSpec(request=request, execute=False)
                plans.extend(runtime.backend.compose(spec, snapshot))

            for request in (first_request, second_request):
                thread = threading.Thread(target=compose, args=(request,))
                thread.start()
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            runtime.close()

        activities = first_request.task.size()
        first, second = (plan.statistics for plan in plans)
        assert (first.cache_hits, first.cache_misses) == (0, activities)
        assert (second.cache_hits, second.cache_misses) == (activities, 0)
        assert plan_signature(plans[1]) == plan_signature(serial)
