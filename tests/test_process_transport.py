"""Process-backend transport by reference, and the multi-state selection
cache churn relies on.

Both ends of a worker pipe pickle against the snapshot they share
(``process_worker.dumps`` / ``loads``): a service that snapshot holds
travels as its id.  So a snapshot pickled against its predecessor
carries only what changed, a reply's services load as the parent's own
objects, and an id the receiver does not hold raises.  A process runtime
taken through churn (and through a worker respawn) must still compose
what a fresh serial middleware composes.

``SelectionCache`` keeps several pool states per activity and context:
profiles over different property sets stop evicting each other, and a
pool that churn returns to an earlier state hits.

Process-backend cases live here, in a real file: the ``spawn`` start
method re-imports ``__main__`` in each worker.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.composition import selection_cache
from repro.composition.qassa import QASSA
from repro.composition.selection import CandidateSets
from repro.composition.selection_cache import SelectionCache
from repro.env.scenarios import build_shopping_scenario
from repro.experiments.fuzzing import plan_signature
from repro.middleware.qasom import QASOM
from repro.composition.request import UserRequest
from repro.runtime import MiddlewareRuntime, RuntimeConfig, backends
from repro.runtime.handle import RunSpec
from repro.runtime.process_worker import WorkerState, dumps, loads
from tests.test_selection_cache import PROPS, build_pools, make_request


def build():
    scenario = build_shopping_scenario(services_per_activity=12, seed=7)
    middleware = QASOM.for_environment(
        scenario.environment, scenario.properties, ontology=scenario.ontology
    )
    return scenario, middleware


def shipped(snapshot):
    """The worker's copy of a snapshot shipped in full."""
    return loads(dumps(("snapshot", snapshot), None), None)[1]


class TestSnapshotAgainstItsPredecessor:
    def test_only_the_changes_travel(self):
        _, middleware = build()
        registry = middleware.environment.registry
        before = registry.snapshot()
        worker_before = shipped(before)

        withdrawn = registry.withdraw(
            sorted(s.service_id for s in before)[0]
        )
        template = registry.by_capability("task:Browse")[0]
        joined = registry.publish(dataclasses.replace(
            template, name=template.name + "-joined", service_id="svc-joined"
        ))
        after = registry.snapshot()

        delta = dumps(("snapshot", after), before)
        full = dumps(("snapshot", after), None)
        assert len(delta) * 4 <= len(full)
        kind, worker_after = loads(delta, worker_before)
        assert kind == "snapshot"
        assert worker_after.generations == after.generations
        assert withdrawn.service_id not in worker_after
        fresh = worker_after.get("svc-joined")
        assert fresh is not None and fresh is not joined
        assert fresh.name == joined.name
        assert fresh not in worker_before.services()
        unchanged = [s for s in after if s.service_id != "svc-joined"]
        assert unchanged
        for service in unchanged:
            assert (
                worker_after.get(service.service_id)
                is worker_before.get(service.service_id)
            )
        assert sorted(s.service_id for s in worker_after) == sorted(
            s.service_id for s in after
        )

    def test_a_republished_service_travels_in_full(self):
        _, middleware = build()
        registry = middleware.environment.registry
        before = registry.snapshot()
        worker_before = shipped(before)
        old = registry.by_capability("task:Order")[0]
        new = registry.publish(
            old.with_qos(old.advertised_qos.replace("cost", 99.0))
        )
        _, worker_after = loads(
            dumps(("snapshot", registry.snapshot()), before), worker_before
        )
        copy = worker_after.get(old.service_id)
        assert copy is not worker_before.get(old.service_id)
        assert copy.advertised_qos == new.advertised_qos
        assert copy.advertised_qos["cost"] == 99.0


class TestReplies:
    def test_plan_services_load_as_the_parents_objects(self):
        scenario, middleware = build()
        snapshot = middleware.snapshots.acquire()
        worker_snapshot = shipped(snapshot)
        worker = WorkerState(middleware.worker_state.context)
        spec = RunSpec(request=scenario.request, execute=False, ranked=2)
        plans = worker.compose(spec, worker_snapshot)
        reply = dumps(("ok", plans), worker_snapshot)
        # Every plan service went as an id: no service's name is in the
        # bytes.
        assert plans[0].selections["Browse"].primary.name.encode() not in reply
        kind, loaded = loads(reply, snapshot)
        assert kind == "ok"
        serial = middleware.submit(
            scenario.request, execute=False, ranked=2
        ).alternatives()
        assert [plan_signature(p) for p in loaded] == [
            plan_signature(p) for p in serial
        ]
        for plan in loaded:
            for selection in plan.selections.values():
                for service in selection.services:
                    assert service is snapshot.get(service.service_id)

    def test_an_unknown_id_raises(self):
        _, middleware = build()
        registry = middleware.environment.registry
        snapshot = registry.snapshot()
        service = snapshot.services()[0]
        data = dumps(["reply", service], snapshot)
        assert loads(data, snapshot)[1] is service
        registry.withdraw(service.service_id)
        with pytest.raises(pickle.UnpicklingError, match=service.service_id):
            loads(data, registry.snapshot())
        with pytest.raises(pickle.UnpicklingError):
            loads(data, None)

    def test_an_equal_copy_travels_in_full(self):
        _, middleware = build()
        snapshot = middleware.environment.registry.snapshot()
        service = snapshot.services()[0]
        copy = service.with_qos(service.advertised_qos)
        loaded = loads(dumps(copy, snapshot), snapshot)
        assert loaded is not service and loaded is not copy
        assert loaded.service_id == service.service_id


class TestProcessRuntimeThroughChurn:
    """withdraw -> rejoin -> withdraw, then a killed worker, a rejoin and
    a withdraw: after every step the process runtime composes what a
    fresh serial middleware with the same writes composes."""

    @staticmethod
    def requests(scenario):
        weights = dict(scenario.request.weights)
        weights["cost"] += 0.7
        return [
            scenario.request,
            UserRequest(
                scenario.request.task,
                constraints=scenario.request.constraints,
                weights=weights,
            ),
        ]

    def reference(self, log):
        scenario, middleware = build()
        registry = middleware.environment.registry
        by_name = {s.name: s for s in registry.services()}
        for write, name in log:
            if write == "withdraw":
                registry.withdraw(by_name[name].service_id)
            else:
                registry.publish(by_name[name])
        return [
            plan_signature(middleware.submit(r, execute=False).plan())
            for r in self.requests(scenario)
        ]

    def test_plans_match_a_fresh_serial_middleware(self, monkeypatch):
        scenario, middleware = build()
        registry = middleware.environment.registry
        by_name = {s.name: s for s in registry.services()}
        log = []
        # Every snapshot the backend ships: (against none, its size, the
        # size of the same snapshot in full).
        ships = []

        def recording_dumps(message, snapshot):
            data = dumps(message, snapshot)
            if message[0] == "snapshot":
                full = len(dumps(message, None))
                ships.append((snapshot is None, len(data), full))
            return data

        monkeypatch.setattr(backends, "dumps", recording_dumps)

        def write(kind, name):
            if kind == "withdraw":
                registry.withdraw(by_name[name].service_id)
            else:
                registry.publish(by_name[name])
            log.append((kind, name))

        def check(runtime, step):
            for request, expected in zip(
                self.requests(scenario), self.reference(log)
            ):
                plan = runtime.submit(request, execute=False).plan()
                assert plan_signature(plan) == expected, step
                for selection in plan.selections.values():
                    for service in selection.services:
                        assert registry.get(service.service_id) is service

        with MiddlewareRuntime(
            middleware, RuntimeConfig(backend="process", workers=2)
        ) as runtime:
            check(runtime, "start")
            browse = scenario.request.task.activities[0].name
            first = runtime.submit(scenario.request, execute=False).plan()
            victim = first.selections[browse].primary.name
            for step in (("withdraw", victim), ("publish", victim)):
                write(*step)
                check(runtime, step)
            second = runtime.submit(scenario.request, execute=False).plan()
            other = next(
                s.name for name, sel in second.selections.items()
                if name != browse for s in sel.services[:1]
            )
            write("withdraw", other)
            check(runtime, ("withdraw", other))

            # A killed worker: the next composition that reaches it
            # crashes, is requeued, and its respawned successor starts
            # from a full snapshot and then receives changes again.
            dead = runtime.backend._channels[0].process
            dead.terminate()
            dead.join(timeout=10.0)
            write("publish", other)
            check(runtime, ("publish", other))
            write("withdraw", victim)
            check(runtime, ("withdraw", victim))
            assert runtime.requeued == 1
            assert not dead.is_alive()
            assert all(
                c.process.is_alive() for c in runtime.backend._channels
            )
        # A full snapshot went to each worker that held none: the two
        # first ones and the respawned one.  Every other ship carried
        # only the changes.
        assert sum(1 for in_full, _, _ in ships if in_full) == 3
        changes = [(size, full) for in_full, size, full in ships if not in_full]
        assert changes
        assert all(size * 4 <= full for size, full in changes)


class TestCacheKeepsSeveralStates:
    def test_alternating_property_sets_hit_after_the_first_of_each(self):
        task, _, pools = build_pools(activities=4)
        candidates = CandidateSets(task, pools)
        profiles = [
            make_request(task),
            make_request(task, weights={
                "response_time": 1.0, "cost": 2.0, "availability": 1.0,
            }),
        ]
        cache = SelectionCache()
        selector = QASSA(PROPS, cache=cache)
        for request in profiles:
            plan = selector.select(request, candidates)
            assert plan.statistics.cache_misses == 4
        hits = 0
        for step in range(14):
            request = profiles[step % 2]
            plan = selector.select(request, candidates)
            hits += plan.statistics.cache_hits
            assert plan_signature(plan) == plan_signature(
                QASSA(PROPS).select(request, candidates)
            )
        assert hits == 56
        assert len(cache) == 8

    def test_a_pool_back_in_an_earlier_state_hits(self):
        task, generator, pools = build_pools(activities=3)
        request = make_request(task)
        selector = QASSA(PROPS, cache=SelectionCache())
        selector.select(request, CandidateSets(task, pools))
        churned = dict(pools)
        churned["A1"] = pools["A1"][:-1]  # a provider leaves ...
        plan = selector.select(request, CandidateSets(task, churned))
        assert (plan.statistics.cache_hits, plan.statistics.cache_misses) == (
            2, 1,
        )
        # ... and rejoins as a fresh copy of itself, as a worker process
        # receives it.
        rejoined = dict(pools)
        last = pools["A1"][-1]
        rejoined["A1"] = pools["A1"][:-1] + [
            last.with_qos(last.advertised_qos)
        ]
        plan = selector.select(request, CandidateSets(task, rejoined))
        assert (plan.statistics.cache_hits, plan.statistics.cache_misses) == (
            3, 0,
        )
        assert plan.selections["A1"].services
        for name, selection in plan.selections.items():
            for service in selection.services:
                assert any(service is s for s in rejoined[name])
        cold = QASSA(PROPS).select(request, CandidateSets(task, rejoined))
        assert plan_signature(plan) == plan_signature(cold)

    def test_states_per_pool_are_bounded(self):
        cache = SelectionCache()
        depth = selection_cache.STATES_PER_POOL
        prints = [(("svc", i),) for i in range(depth + 2)]
        for i, fingerprint in enumerate(prints):
            cache.store("A", fingerprint, i, "ctx")
        assert len(cache) == depth
        assert cache.lookup("A", prints[0], "ctx") is None
        assert cache.lookup("A", prints[1], "ctx") is None
        assert cache.lookup("A", prints[2], "ctx") == 2
        assert cache.lookup("A", prints[-1], "ctx") == depth + 1
        # A hit moves its state to the front: the next store drops
        # another one.
        cache.store("A", (("svc", "new"),), "new", "ctx")
        assert cache.lookup("A", prints[2], "ctx") == 2
        assert cache.lookup("A", prints[3], "ctx") is None

    def test_states_are_bounded_least_recently_used_key_first(self):
        cache = SelectionCache()
        capacity = selection_cache.CAPACITY
        fingerprint = (("svc", 0),)
        for i in range(capacity):
            cache.store("A", fingerprint, i, ("ctx", i))
        assert cache.lookup("A", fingerprint, ("ctx", 0)) == 0  # now recent
        cache.store("A", fingerprint, "one more", ("ctx", "new"))
        assert len(cache) == capacity
        assert cache.lookup("A", fingerprint, ("ctx", 1)) is None
        assert cache.lookup("A", fingerprint, ("ctx", 0)) == 0
        assert cache.lookup("A", fingerprint, ("ctx", "new")) == "one more"

    def test_the_bound_counts_states_not_keys(self, monkeypatch):
        monkeypatch.setattr(selection_cache, "STATES_PER_POOL", 3)
        monkeypatch.setattr(selection_cache, "CAPACITY", 7)
        cache = SelectionCache()
        prints = [(("svc", i),) for i in range(3)]
        for key in ("A", "B"):
            for i, fingerprint in enumerate(prints):
                cache.store(key, fingerprint, (key, i), "ctx")
        cache.store("C", prints[0], ("C", 0), "ctx")
        assert len(cache) == 7
        # One more state: the least recently used key, A, loses its
        # oldest one.
        cache.store("C", prints[1], ("C", 1), "ctx")
        assert len(cache) == 7
        assert cache.lookup("A", prints[0], "ctx") is None
        assert cache.lookup("A", prints[2], "ctx") == ("A", 2)
        # B is now the least recently used; a key it drains goes too.
        cache.store("D", prints[0], ("D", 0), "ctx")
        cache.store("D", prints[1], ("D", 1), "ctx")
        cache.store("D", prints[2], ("D", 2), "ctx")
        assert len(cache) == 7
        assert all(cache.lookup("B", p, "ctx") is None for p in prints)
        assert cache.lookup("A", prints[1], "ctx") == ("A", 1)
        assert cache.lookup("D", prints[0], "ctx") == ("D", 0)
