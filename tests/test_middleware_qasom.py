"""Tests for the QASOM middleware facade."""

from __future__ import annotations

import pytest

from repro import observability
from repro.errors import NoCandidateError, SelectionError
from repro.experiments.fuzzing import FuzzSpec, generate_instance
from repro.middleware.config import MiddlewareConfig
from repro.middleware.qasom import QASOM
from repro.composition.request import GlobalConstraint, UserRequest
from repro.composition.task import Task, leaf, sequence
from repro.env.scenarios import build_shopping_scenario
from repro.runtime import MiddlewareRuntime, RequestStatus, RuntimeConfig

from tests.worlds import instance_world


@pytest.fixture
def scenario():
    return build_shopping_scenario(seed=77)


@pytest.fixture
def middleware(scenario):
    return QASOM.for_environment(
        scenario.environment,
        scenario.properties,
        ontology=scenario.ontology,
        repository=scenario.repository,
    )


class TestCompose:
    def test_compose_returns_feasible_plan(self, middleware, scenario):
        plan = middleware.submit(scenario.request, execute=False).plan()
        assert plan.feasible
        assert set(plan.selections) == set(scenario.task.activity_names)
        assert scenario.request.satisfied_by(plan.aggregated_qos)

    def test_semantic_discovery_fills_abstract_capability(
        self, middleware, scenario
    ):
        """The shopping task asks for task:Payment; only Card/Mobile payment
        services exist, so composition relies on PLUGIN matches."""
        plan = middleware.submit(scenario.request, execute=False).plan()
        payment_service = plan.selections["Pay"].primary
        assert payment_service.capability in (
            "task:CardPayment", "task:MobilePayment",
        )

    def test_unknown_capability_raises(self, middleware, scenario):
        bogus = Task("bogus", sequence(leaf("X", "task:Nonexistent")))
        request = UserRequest(bogus, weights={"cost": 1.0})
        with pytest.raises(NoCandidateError):
            middleware.submit(request, execute=False).plan()

    def test_inline_handle_latency_covers_the_selection(
        self, middleware, scenario
    ):
        # The wall-clock stamps must bracket the work: a handle stamped
        # after it reads ~0 ms however long the selection took.
        handle = middleware.submit(scenario.request, execute=False)
        plan = handle.plan()
        assert handle.total_seconds >= plan.statistics.elapsed_seconds > 0

    def test_candidates_for_uses_discovery(self, middleware, scenario):
        candidates = middleware.candidates_for(scenario.task)
        sizes = candidates.sizes()
        assert all(count > 0 for count in sizes.values())
        # Payment pool aggregates card + mobile providers.
        assert sizes["Pay"] > sizes["Browse"] or sizes["Pay"] > 0


class TestExecute:
    def test_execute_produces_report(self, middleware, scenario):
        plan = middleware.submit(scenario.request, execute=False).plan()
        result = middleware.submit(plan=plan).result()
        assert result.plan is plan
        assert result.report.invocations
        # Task has 4 activities; conditional/loop may change counts, but the
        # shopping task is sequence+parallel so all 4 run (plus retries).
        activities_run = {r.activity_name for r in result.report.invocations}
        assert activities_run <= set(scenario.task.activity_names)

    def test_execute_without_adaptation(self, middleware, scenario):
        plan = middleware.submit(scenario.request, execute=False).plan()
        result = middleware.submit(plan=plan, adapt=False).result()
        assert result.adaptations == []

    def test_run_end_to_end(self, middleware, scenario):
        result = middleware.run(scenario.request)
        assert result.plan.feasible

    def test_adaptation_triggers_handled(self, scenario):
        """Killing the bound services mid-flight forces adaptation."""
        middleware = QASOM.for_environment(
            scenario.environment,
            scenario.properties,
            ontology=scenario.ontology,
            repository=scenario.repository,
        )
        plan = middleware.submit(scenario.request, execute=False).plan()
        victim = plan.selections["Browse"].primary
        scenario.environment.kill_service(victim.service_id)
        result = middleware.submit(plan=plan).result()
        # Execution survived through dynamic binding / retries.
        assert result.report.succeeded or result.adaptations


class TestConfig:
    def test_custom_config_threaded_through(self, scenario):
        from repro.composition.aggregation import AggregationApproach

        config = MiddlewareConfig(aggregation=AggregationApproach.MEAN)
        middleware = QASOM.for_environment(
            scenario.environment, scenario.properties,
            ontology=scenario.ontology, config=config,
        )
        plan = middleware.submit(scenario.request, execute=False).plan()
        assert plan.approach is AggregationApproach.MEAN

    def test_no_repository_disables_behavioural(self, scenario):
        middleware = QASOM.for_environment(
            scenario.environment, scenario.properties,
            ontology=scenario.ontology,
        )
        assert middleware.behavioural is None


class TestFailureContract:
    """A serial submit fails its handle, as a runtime's does, not the call."""

    #: Plan-only without ``best_effort``, this instance has no feasible
    #: composition.
    INSTANCE = generate_instance(1, FuzzSpec(max_activities=6,
                                             max_services=12))

    def test_serial_and_thread_runtime_fail_alike(self):
        request = self.INSTANCE.request
        serial = instance_world(self.INSTANCE).submit(request, execute=False)
        with MiddlewareRuntime(
            instance_world(self.INSTANCE), RuntimeConfig(workers=1)
        ) as runtime:
            pooled = runtime.submit(request, execute=False)
            runtime.drain(timeout=60.0)
        outcomes = [
            (handle.status, type(handle.exception()), str(handle.exception()))
            for handle in (serial, pooled)
        ]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is RequestStatus.FAILED
        assert isinstance(serial.exception(), SelectionError)
        with pytest.raises(SelectionError):
            serial.plan()

    def test_the_request_span_is_marked_failed(self):
        with observability.enabled() as obs:
            middleware = instance_world(self.INSTANCE)
        middleware.submit(self.INSTANCE.request, execute=False)
        statuses = [
            span.attributes["status"] for span in obs.tracer.all_spans()
            if span.name == "runtime.request"
        ]
        assert statuses == ["failed"]

    def test_base_exceptions_still_propagate(
        self, middleware, scenario, monkeypatch
    ):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(middleware.worker_state, "compose", interrupted)
        with pytest.raises(KeyboardInterrupt):
            middleware.submit(scenario.request, execute=False)
