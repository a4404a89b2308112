"""Tests for the single-flight memo behind discovery pools and composed plans.

``TestDiscoveryBatcher`` drives the pool memo (``runtime.batcher``) through
:class:`WorkerState`; ``TestRequestCoalescer`` drives :class:`SingleFlight`
directly, the way the plan memo (``runtime.coalescer``) is used, and checks
through a :class:`MiddlewareRuntime` that each caller gets its own plan copy.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.composition.aggregation import AggregationApproach
from repro.composition.qassa import QassaConfig
from repro.errors import ReproError
from repro.observability import Observability
from repro.qos.properties import STANDARD_PROPERTIES
from repro.runtime import MiddlewareRuntime
from repro.runtime.batching import MEMO_CAPACITY, SingleFlight
from repro.runtime.process_worker import WorkerContext, WorkerState
from repro.semantics.matching import MatchCache, MatchDegree
from repro.semantics.ontology import Ontology
from repro.services.discovery import DiscoveryQuery, QoSAwareDiscovery
from repro.services.generator import ServiceGenerator
from repro.services.registry import ServiceRegistry
from tests.test_runtime_pool import build_world

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability")
}


def build_registry(capabilities=("task:Pay", "task:Browse"), count=5, seed=3):
    registry = ServiceRegistry()
    generator = ServiceGenerator(PROPS, seed=seed)
    for capability in capabilities:
        registry.publish_all(generator.candidates(capability, count))
    return registry, generator


def build_ontology(capabilities=("task:Pay", "task:Browse")):
    ontology = Ontology("batching-tests")
    root = ontology.declare_class("task:Root")
    for capability in capabilities:
        ontology.declare_class(capability, [root])
    return ontology


def build_state(ontology=None, match_cache=None):
    """A worker's composition state with its own pool memo."""
    context = WorkerContext(
        properties=PROPS,
        aggregation=AggregationApproach.PESSIMISTIC,
        qassa=QassaConfig(),
        discovery_minimum_degree=MatchDegree.PLUGIN,
        ontology=ontology if ontology is not None else build_ontology(),
    )
    return WorkerState(context, match_cache=match_cache)


def run_together(count, target):
    """Start ``count`` threads on ``target`` at once; join them all."""
    barrier = threading.Barrier(count)

    def worker():
        barrier.wait()
        target()

    threads = [threading.Thread(target=worker) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads)


class TestDiscoveryBatcher:
    """The pool memo, keyed ``(generations, capability, degree)``."""

    def test_pools_match_direct_discovery(self):
        registry, _ = build_registry()
        ontology = build_ontology()
        snapshot = registry.snapshot()
        state = build_state(ontology, MatchCache(ontology))
        direct = QoSAwareDiscovery(registry, ontology)
        for capability in ("task:Pay", "task:Browse"):
            pooled = state.candidates(snapshot, capability)
            expected = direct.candidates(
                DiscoveryQuery(capability=capability,
                               minimum_degree=MatchDegree.PLUGIN)
            )
            assert [s.service_id for s in pooled] == [
                s.service_id for s in expected
            ]

    def test_repeat_lookups_are_coalesced(self):
        registry, _ = build_registry()
        snapshot = registry.snapshot()
        state = build_state()
        for _ in range(4):
            state.candidates(snapshot, "task:Pay")
        assert state.pools.computed == 1
        assert state.pools.lookups == 4
        assert state.pools.coalesced == 3

    def test_callers_get_independent_list_copies(self):
        registry, _ = build_registry()
        snapshot = registry.snapshot()
        state = build_state()
        first = state.candidates(snapshot, "task:Pay")
        order = [s.service_id for s in first]
        first.reverse()
        second = state.candidates(snapshot, "task:Pay")
        assert second is not first
        assert [s.service_id for s in second] == order

    def test_generation_change_invalidates(self):
        registry, generator = build_registry()
        state = build_state()
        old = registry.snapshot()
        state.candidates(old, "task:Pay")
        registry.publish(generator.service("task:Pay"))
        fresh = registry.snapshot()
        pool = state.candidates(fresh, "task:Pay")
        assert state.pools.computed == 2
        assert len(pool) == 6

    def test_concurrent_identical_lookups_compute_once(self):
        registry, _ = build_registry(count=30)
        snapshot = registry.snapshot()
        state = build_state()
        pools = []
        run_together(
            6, lambda: pools.append(state.candidates(snapshot, "task:Pay"))
        )
        assert state.pools.computed == 1
        ids = [[s.service_id for s in pool] for pool in pools]
        assert len(ids) == 6
        assert all(pool == ids[0] for pool in ids)


class TestRequestCoalescer:
    """:class:`SingleFlight` as the plan memo uses it."""

    def test_computes_once_per_key(self):
        memo = SingleFlight("computed_total", "coalesced_total")
        calls = []

        def compute():
            calls.append(1)
            return ["plan"]

        first = memo.get((0, "k"), compute)
        second = memo.get((0, "k"), compute)
        assert len(calls) == 1
        assert memo.computed == 1 and memo.coalesced == 1
        assert first == second == ["plan"]

    def test_every_caller_gets_a_clone(self):
        middleware, request = build_world()
        with MiddlewareRuntime(middleware) as runtime:
            first = runtime.submit(request, execute=False).plan()
            order = [s.service_id for s in first.selections["A"].services]
            # Substitution rewrites a plan's services in place.
            first.selections["A"].services.clear()
            second = runtime.submit(request, execute=False).plan()
            memo = runtime.coalescer
            assert (memo.lookups, memo.computed, memo.coalesced) == (2, 1, 1)
        assert second is not first
        assert second.selections["A"] is not first.selections["A"]
        assert [s.service_id for s in second.selections["A"].services] == order

    def test_new_generation_evicts_stale_entries(self):
        memo = SingleFlight("computed_total", "coalesced_total")
        memo.get((0, "k"), lambda: "old")
        memo.get((1, "k"), lambda: "new")
        # The old generation is gone: same old key recomputes.
        assert memo.get((0, "k"), lambda: "recomputed") == "recomputed"
        assert memo.computed == 3

    def test_one_generation_keeps_at_most_capacity_values(self):
        memo = SingleFlight("computed_total", "coalesced_total")
        for i in range(MEMO_CAPACITY + 1):
            memo.get((0, i), lambda i=i: i)
        assert memo.computed == MEMO_CAPACITY + 1
        # The newest MEMO_CAPACITY keys are all still stored...
        for i in range(1, MEMO_CAPACITY + 1):
            assert memo.get((0, i), lambda: "recomputed") == i
        assert memo.computed == MEMO_CAPACITY + 1
        # ...and the oldest one was dropped, so it computes again.
        assert memo.get((0, 0), lambda: "recomputed") == "recomputed"
        assert memo.computed == MEMO_CAPACITY + 2

    def test_late_result_for_an_older_generation_keeps_the_live_entry(self):
        memo = SingleFlight("computed_total", "coalesced_total")
        assert memo.get((1, "k"), lambda: "live") == "live"
        # A worker that read the older snapshot finishes late: its caller
        # gets its result, but the live generation's entry stays.
        assert memo.get((0, "k"), lambda: "late") == "late"
        assert memo.get((1, "k"), lambda: "recomputed") == "live"
        assert (memo.lookups, memo.computed, memo.coalesced) == (3, 2, 1)

    def test_failed_computation_propagates_and_retries(self):
        memo = SingleFlight("computed_total", "coalesced_total")

        def boom():
            raise ReproError("selection blew up")

        with pytest.raises(ReproError):
            memo.get((0, "k"), boom)
        # The failure is not cached: a later caller computes fresh.
        assert memo.get((0, "k"), lambda: "ok") == "ok"
        assert (memo.lookups, memo.computed, memo.coalesced) == (2, 1, 0)

    def test_concurrent_identical_requests_compose_once(self):
        memo = SingleFlight("computed_total", "coalesced_total")
        calls = []
        stored = ["plan"]

        def compute():
            calls.append(1)
            time.sleep(0.01)  # widen the in-flight window
            return stored

        results = []
        run_together(6, lambda: results.append(memo.get((0, "k"), compute)))
        assert len(calls) == 1
        assert len(results) == 6
        # Stored untouched: copying is the caller's job.
        assert all(result is stored for result in results)

    def test_joined_callers_count_once(self):
        observability = Observability()
        memo = SingleFlight(
            "runtime_plans_computed_total",
            "runtime_plans_coalesced_total",
            observability=observability,
        )

        def compute():
            time.sleep(0.05)  # the other five join while this runs
            return ["plan"]

        run_together(6, lambda: memo.get((0, "k"), compute))
        assert (memo.lookups, memo.computed, memo.coalesced) == (6, 1, 5)
        metrics = observability.metrics
        assert metrics.value("runtime_plans_computed_total") == 1
        assert metrics.value("runtime_plans_coalesced_total") == 5

    def test_counts_hold_under_contention(self):
        memo = SingleFlight("computed_total", "coalesced_total")
        keys = [(0, name) for name in "abcd"]
        calls = []
        wrong = []

        def compute(key):
            calls.append(key)
            return key

        def caller():
            for index in range(200):
                key = keys[index % len(keys)]
                if memo.get(key, lambda: compute(key)) != key:
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_together(8, caller)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert sorted(calls) == keys  # each key computed exactly once
        assert (memo.lookups, memo.computed, memo.coalesced) == (
            1600, 4, 1596
        )

    def test_waiters_on_a_failed_computation_compute_themselves(self):
        memo = SingleFlight("computed_total", "coalesced_total")
        calls = []
        outcomes = []

        def compute():
            calls.append(1)
            time.sleep(0.05)  # the other five wait on this computation
            if len(calls) == 1:
                raise ReproError("worker process crashed")
            return "plan"

        def caller():
            try:
                outcomes.append(memo.get((0, "k"), compute))
            except ReproError as exc:
                outcomes.append(exc)

        run_together(6, caller)
        # Only the computing caller sees the failure; one waiter computes
        # again and the rest share its result.
        errors = [o for o in outcomes if isinstance(o, ReproError)]
        assert len(errors) == 1
        assert outcomes.count("plan") == 5
        assert len(calls) == 2
        assert (memo.lookups, memo.computed, memo.coalesced) == (6, 1, 4)
