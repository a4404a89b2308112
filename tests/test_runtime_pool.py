"""Tests for the MiddlewareRuntime pool: admission, deadlines, lifecycle."""

from __future__ import annotations

import time

import pytest

from repro.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    MiddlewareRuntimeError,
    RuntimeShutdownError,
)
from repro.middleware.qasom import QASOM
from repro.qos.properties import STANDARD_PROPERTIES
from repro.resilience.policies import TimeoutPolicy
from repro.runtime import (
    MiddlewareRuntime,
    RequestStatus,
    RunSpec,
    RuntimeConfig,
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
CAPS = ("task:One", "task:Two", "task:Three")


def build_world(seed=3, services=6):
    ontology = Ontology("runtime-pool-tests")
    root = ontology.declare_class("task:Root")
    for capability in CAPS:
        ontology.declare_class(capability, [root])
    environment = PervasiveEnvironment(seed=seed)
    generator = ServiceGenerator(PROPS, seed=seed)
    for capability in CAPS:
        for service in generator.candidates(capability, services):
            environment.host_on_new_device(service)
    middleware = QASOM.for_environment(environment, PROPS,
                                       ontology=ontology)
    task = Task("pool", sequence(leaf("A", CAPS[0]), leaf("B", CAPS[1]),
                                 leaf("C", CAPS[2])))
    request = UserRequest(task=task, constraints=(),
                          weights={name: 1.0 for name in PROPS})
    return middleware, request


class TestConfig:
    def test_rejects_zero_workers(self):
        with pytest.raises(MiddlewareRuntimeError):
            RuntimeConfig(workers=0)

    def test_rejects_zero_queue_depth(self):
        with pytest.raises(MiddlewareRuntimeError):
            RuntimeConfig(queue_depth=0)

    def test_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            RuntimeConfig(8)  # noqa: the redesigned API bans positionals


class TestRunSpecValidation:
    def test_needs_request_or_plan(self):
        with pytest.raises(MiddlewareRuntimeError):
            RunSpec()

    def test_ranked_excludes_execute(self, small_task=None):
        middleware, request = build_world()
        with pytest.raises(MiddlewareRuntimeError):
            RunSpec(request=request, ranked=2, execute=True)


class TestAdmission:
    def test_overload_rejects_without_raising(self):
        middleware, request = build_world()
        runtime = MiddlewareRuntime(
            middleware,
            RuntimeConfig(workers=1, queue_depth=2),
            autostart=False,
        )
        admitted = [runtime.submit(request) for _ in range(2)]
        rejected = runtime.submit(request)
        assert all(h.status is RequestStatus.QUEUED for h in admitted)
        assert rejected.status is RequestStatus.REJECTED
        assert rejected.done()
        with pytest.raises(AdmissionRejectedError):
            rejected.result()
        assert isinstance(rejected.exception(), AdmissionRejectedError)
        runtime.close(drain=False)

    def test_queue_depth_tracks_admissions(self):
        middleware, request = build_world()
        runtime = MiddlewareRuntime(
            middleware, RuntimeConfig(queue_depth=8), autostart=False
        )
        assert runtime.queue_depth == 0
        runtime.submit(request)
        runtime.submit(request)
        assert runtime.queue_depth == 2
        runtime.close(drain=False)

    def test_submit_after_close_raises(self):
        middleware, request = build_world()
        runtime = MiddlewareRuntime(middleware, autostart=False)
        runtime.close()
        with pytest.raises(RuntimeShutdownError):
            runtime.submit(request)


class TestDeadlines:
    def test_expired_in_queue_is_never_run(self):
        middleware, request = build_world()
        runtime = MiddlewareRuntime(
            middleware,
            RuntimeConfig(deadline=TimeoutPolicy(invoke_timeout_ms=1.0)),
            autostart=False,
        )
        handle = runtime.submit(request)
        time.sleep(0.02)  # let the 1 ms deadline lapse while queued
        runtime.start()
        handle.wait(timeout=10.0)
        assert handle.status is RequestStatus.EXPIRED
        with pytest.raises(DeadlineExceededError):
            handle.result()
        runtime.close()

    def test_generous_deadline_completes(self):
        middleware, request = build_world()
        config = RuntimeConfig(
            deadline=TimeoutPolicy(invoke_timeout_ms=60_000.0)
        )
        with MiddlewareRuntime(middleware, config) as runtime:
            result = runtime.run(request)
        assert result.plan.feasible


class TestLifecycle:
    def test_close_without_drain_cancels_queued(self):
        middleware, request = build_world()
        runtime = MiddlewareRuntime(middleware, autostart=False)
        handles = [runtime.submit(request) for _ in range(3)]
        runtime.close(drain=False)
        for handle in handles:
            assert handle.status is RequestStatus.CANCELLED
            with pytest.raises(RuntimeShutdownError):
                handle.result()

    def test_context_manager_drains_and_completes(self):
        middleware, request = build_world()
        with MiddlewareRuntime(middleware,
                               RuntimeConfig(workers=2)) as runtime:
            handles = [runtime.submit(request) for _ in range(4)]
            runtime.drain()
            assert runtime.queue_depth == 0
            assert runtime.in_flight == 0
        for handle in handles:
            assert handle.status is RequestStatus.DONE
            assert handle.result().report.succeeded in (True, False)
            assert handle.total_seconds is not None
            assert handle.queue_seconds is not None

    def test_start_is_idempotent(self):
        middleware, request = build_world()
        runtime = MiddlewareRuntime(middleware, autostart=False)
        runtime.start()
        runtime.start()
        assert runtime.run(request).plan is not None
        runtime.close()

    def test_drain_timeout_raises(self):
        middleware, request = build_world()
        runtime = MiddlewareRuntime(middleware, autostart=False)
        runtime.submit(request)  # never started -> never drains
        with pytest.raises(MiddlewareRuntimeError):
            runtime.drain(timeout=0.05)
        runtime.close(drain=False)


class TestSubmissionSurface:
    def test_plan_only_submission(self):
        middleware, request = build_world()
        with MiddlewareRuntime(middleware) as runtime:
            handle = runtime.submit(request, execute=False)
            plan = handle.plan()
            assert handle.status is RequestStatus.DONE
            assert plan.feasible
            with pytest.raises(MiddlewareRuntimeError):
                handle.result()  # no execution result to read

    def test_ranked_submission(self):
        middleware, request = build_world()
        with MiddlewareRuntime(middleware) as runtime:
            handle = runtime.submit(request, execute=False, ranked=3)
            alternatives = handle.alternatives()
        assert 1 <= len(alternatives) <= 3
        assert alternatives[0].utility == max(p.utility for p in alternatives)

    def test_execute_prebuilt_plan(self):
        middleware, request = build_world()
        plan = middleware.submit(request, execute=False).plan()
        with MiddlewareRuntime(middleware) as runtime:
            result = runtime.submit(plan=plan).result()
        assert result.plan is plan

    def test_repeated_requests_coalesce_composition(self):
        middleware, request = build_world()
        with MiddlewareRuntime(middleware,
                               RuntimeConfig(workers=4)) as runtime:
            handles = [runtime.submit(request, execute=False)
                       for _ in range(6)]
            runtime.drain()
            coalescer = runtime.coalescer
            assert (coalescer.lookups, coalescer.computed,
                    coalescer.coalesced) == (6, 1, 5)
        # Every caller gets its own clone of the memoised plan.
        assert len({id(handle.plan()) for handle in handles}) == 6
        signatures = {
            tuple(sorted(
                (a, sel.primary.service_id)
                for a, sel in handle.plan().selections.items()
            ))
            for handle in handles
        }
        assert len(signatures) == 1
