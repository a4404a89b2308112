"""Tests for the one discovery-pool memo every composition path shares.

A middleware memoises discovery pools keyed on the registry generation,
the task ontology's generation, the capability and the match degree.
Serial submits, ``candidates_for``, substitution's fresh pools and a
thread runtime's workers all read it; a process runtime's workers keep
their own and are re-primed when the ontology changes.  An axiom must
reach every path, a registry write must still invalidate, and an
unchanged world must be discovered once.

Process-backend cases live here, in a real file: the ``spawn`` start
method re-imports ``__main__`` in each worker.
"""

from __future__ import annotations

import math
import sys
import threading
import time

import pytest

from repro.adaptation.manager import AdaptationAction, AdaptationManager
from repro.adaptation.monitoring import QoSMonitor
from repro.adaptation.substitution import ServiceSubstitution
from repro.composition.request import GlobalConstraint, UserRequest
from repro.env.scenarios import build_shopping_scenario
from repro.experiments.fuzzing import plan_signature
from repro.middleware.qasom import QASOM
from repro.observability import Observability
from repro.qos.values import QoSVector
from repro.runtime import MiddlewareRuntime, RuntimeConfig
from repro.services.description import ServiceDescription
from repro.services.discovery import DiscoveryQuery, QoSAwareDiscovery
from repro.services.generator import ServiceGenerator
from tests.test_adaptation_manager import PROPS, build_plan, failure_trigger

#: Makes every Notification service a Browse provider (PLUGIN match).
AXIOM = ("task:Notification", "task:Browse")


def build():
    scenario = build_shopping_scenario(services_per_activity=12, seed=7)
    middleware = QASOM.for_environment(
        scenario.environment, scenario.properties, ontology=scenario.ontology
    )
    return scenario, middleware


def reweighted(request):
    """The same request under a weight profile no earlier request used."""
    weights = dict(request.weights)
    weights["cost"] += 0.1
    return UserRequest(
        request.task, constraints=request.constraints, weights=weights
    )


def count_discovery(middleware):
    """Count the middleware's discovery rounds by capability."""
    calls = []
    original = middleware.discovery.candidates

    def counted(query, *args):
        calls.append(query.capability)
        return original(query, *args)

    middleware.discovery.candidates = counted
    return calls


def fresh_reference():
    """Signatures and search space of a fresh serial middleware that had
    the axiom from the start."""
    scenario, middleware = build()
    scenario.ontology.declare_subclass(*AXIOM)
    sizes = middleware.candidates_for(scenario.task).sizes()
    assert sizes["Browse"] == 24
    signatures = [
        plan_signature(middleware.submit(request, execute=False).plan())
        for request in (scenario.request, reweighted(scenario.request))
    ]
    return signatures, math.prod(sizes.values())


class TestPlansFollowTheOntology:
    @pytest.mark.parametrize("backend", [None, "thread", "process"])
    def test_an_axiom_reaches_every_path(self, backend):
        scenario, middleware = build()
        registry = middleware.environment.registry
        runtime = None
        if backend is not None:
            runtime = MiddlewareRuntime(
                middleware, RuntimeConfig(backend=backend, workers=2)
            )
        submit = middleware.submit if runtime is None else runtime.submit
        try:
            before = submit(scenario.request, execute=False).plan()
            assert before.selections["Browse"].primary.name.startswith(
                "Browse-"
            )
            generation = registry.generation
            ontology_generation = scenario.ontology.cache_generation
            scenario.ontology.declare_subclass(*AXIOM)
            assert registry.generation == generation
            assert scenario.ontology.cache_generation > ontology_generation
            # The same request (a coalesced plan before the fix) and one
            # with new weights (a memoised pool before the fix).
            plans = [
                submit(request, execute=False).plan()
                for request in (scenario.request, reweighted(scenario.request))
            ]
            pool = middleware.candidates_for(scenario.task)["Browse"]
        finally:
            if runtime is not None:
                runtime.close()
        signatures, search_space = fresh_reference()
        assert [plan_signature(plan) for plan in plans] == signatures
        assert all(
            plan.statistics.search_space == search_space for plan in plans
        )
        assert plans[0].selections["Browse"].primary.name.startswith(
            "Notification-"
        )
        assert len(pool) == 24


class TestOneMemo:
    def test_unchanged_world_discovers_each_capability_once(self):
        scenario, middleware = build()
        calls = count_discovery(middleware)
        request = scenario.request
        for index in range(20):
            weights = dict(request.weights)
            weights["cost"] += 0.01 * index
            middleware.submit(UserRequest(
                request.task, constraints=request.constraints,
                weights=weights,
            ))
        capabilities = {a.capability for a in scenario.task.activities}
        assert sorted(calls) == sorted(capabilities)
        assert middleware.worker_state.pools.computed == len(capabilities)

    def test_registry_write_invalidates(self):
        scenario, middleware = build()
        first = middleware.submit(scenario.request, execute=False).plan()
        withdrawn = first.selections["Browse"].primary
        middleware.environment.registry.withdraw(withdrawn.service_id)
        second = middleware.submit(scenario.request, execute=False).plan()
        pool = middleware.candidates_for(scenario.task)["Browse"]
        assert len(pool) == 11
        assert withdrawn.service_id not in {s.service_id for s in pool}
        assert withdrawn not in second.selections["Browse"].services

    def test_serial_pools_serve_the_thread_runtime(self):
        scenario, middleware = build()
        calls = count_discovery(middleware)
        middleware.submit(scenario.request, execute=False)
        pools = middleware.worker_state.pools
        computed, coalesced = pools.computed, pools.coalesced
        runtime = MiddlewareRuntime(
            middleware, RuntimeConfig(backend="thread", workers=2)
        )
        try:
            assert runtime.batcher is pools
            runtime.submit(reweighted(scenario.request), execute=False).plan()
        finally:
            runtime.close()
        assert pools.computed == computed
        assert pools.coalesced == coalesced + scenario.task.size()
        assert len(calls) == computed

    def test_concurrent_lookups_under_churn_match_their_snapshot(self):
        """Six threads (more than cores) read the shared memo through
        fresh snapshots while the registry churns: every pool a thread
        got must be what discovery returns on that thread's snapshot, and
        each thread's snapshots never go back in time."""
        scenario, middleware = build()
        registry = middleware.environment.registry
        generator = ServiceGenerator(scenario.properties, seed=11)
        capabilities = sorted({a.capability for a in scenario.task.activities})
        seen = []
        failures = []
        stop = threading.Event()

        def reader(offset):
            try:
                previous = (-1, -1)
                lookups = 0
                while not stop.is_set():
                    capability = capabilities[
                        (lookups + offset) % len(capabilities)
                    ]
                    lookups += 1
                    snapshot = middleware.snapshots.acquire()
                    assert snapshot.generations >= previous
                    previous = snapshot.generations
                    pool = middleware.worker_state.candidates(
                        snapshot, capability
                    )
                    seen.append(
                        (snapshot, capability, [s.service_id for s in pool])
                    )
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [
            threading.Thread(target=reader, args=(offset,))
            for offset in range(6)
        ]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 0.5
            parked = []
            while time.monotonic() < deadline:
                if parked:
                    registry.publish(parked.pop())
                else:
                    parked.append(registry.withdraw(
                        sorted(registry.services(),
                               key=lambda s: s.name)[0].service_id
                    ))
                registry.publish(generator.service("task:Browse"))
                time.sleep(0.005)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len({snapshot.generation for snapshot, _, _ in seen}) > 2
        discovery = QoSAwareDiscovery(None, scenario.ontology)
        degree = middleware.config.discovery_minimum_degree
        expected = {}
        for snapshot, capability, ids in seen:
            key = (id(snapshot), capability)  # ``seen`` keeps each alive
            if key not in expected:
                query = DiscoveryQuery(
                    capability=capability, minimum_degree=degree
                )
                expected[key] = [
                    s.service_id
                    for s in discovery.candidates(query, snapshot)
                ]
            assert ids == expected[key]
        pools = middleware.worker_state.pools
        assert pools.lookups == pools.computed + pools.coalesced


class TestDiscoverySpans:
    def test_spans_tell_a_memo_hit_from_a_discovery_round(self):
        scenario = build_shopping_scenario(services_per_activity=12, seed=7)
        obs = Observability(clock=scenario.environment.clock)
        middleware = QASOM.for_environment(
            scenario.environment, scenario.properties,
            ontology=scenario.ontology, observability=obs,
        )
        for _ in range(3):
            middleware.submit(scenario.request).result()
        spans = [span for root in obs.spans for span in root.find("discovery")]
        hits = [span.attributes["memo_hit"] for span in spans]
        assert hits.count(False) == 4 and hits.count(True) == 8
        assert hits[:4] == [False] * 4
        assert obs.metrics.value("discovery_queries_total") == 4


class TestLazyFreshPool:
    def manage(self, plan):
        calls = []
        monitor = QoSMonitor(PROPS)
        fast = ServiceDescription(
            "fast", "task:A",
            QoSVector(
                {"response_time": 1e-3, "cost": 1.0, "availability": 1.0},
                PROPS,
            ),
            service_id="fast",
        )

        def fresh_candidates(activity):
            calls.append(activity.name)
            return [fast]

        manager = AdaptationManager(
            PROPS, monitor, ServiceSubstitution(PROPS, monitor),
            fresh_candidates=fresh_candidates,
        )
        manager.deploy(plan)
        return manager, calls

    def test_not_fetched_when_an_alternate_repairs(self):
        plan = build_plan()
        manager, calls = self.manage(plan)
        outcome = manager.handle(
            failure_trigger(plan.selections["A"].primary.service_id)
        )
        assert outcome.action is AdaptationAction.SUBSTITUTION
        assert not outcome.substitution.used_fresh_candidates
        assert calls == []

    def test_fetched_once_when_every_alternate_fails(self):
        plan = build_plan()
        selection = plan.selections["A"]
        assert selection.alternates
        other = plan.selections["B"].primary.advertised_qos["response_time"]
        fastest = min(
            s.advertised_qos["response_time"] for s in selection.alternates
        )
        # Only a service faster than every alternate keeps this feasible.
        plan.request = UserRequest(
            plan.task,
            constraints=(
                GlobalConstraint.at_most("response_time", other + fastest / 2),
            ),
            weights=plan.request.weights,
        )
        manager, calls = self.manage(plan)
        outcome = manager.handle(failure_trigger(selection.primary.service_id))
        assert outcome.action is AdaptationAction.SUBSTITUTION
        assert outcome.substitution.used_fresh_candidates
        assert outcome.substitution.replacement.service_id == "fast"
        assert calls == ["A"]
