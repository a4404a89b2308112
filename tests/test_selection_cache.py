"""Tests for incremental re-selection (SelectionCache + QASSA) and for
substitution ranking fresh candidates from the plan, not the cache."""

from __future__ import annotations

import copy
import random

import pytest

from repro.observability import Observability
from repro.qos.properties import STANDARD_PROPERTIES
from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription
from repro.services.generator import ServiceGenerator
from repro.composition.clustering import build_qos_levels, kmeans, rank_levels
from repro.composition.qassa import QASSA, QassaConfig
from repro.composition.request import GlobalConstraint, UserRequest
from repro.composition.selection import CandidateSets
from repro.composition.selection_cache import SelectionCache
from repro.composition.task import Task, leaf, sequence
from repro.composition.utility import service_utility
from repro.adaptation.substitution import ServiceSubstitution

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability", "reliability")
}


def build_pools(activities=3, services=10, seed=0):
    task = Task(
        "p", sequence(*[leaf(f"A{i}", f"task:C{i}") for i in range(activities)])
    )
    generator = ServiceGenerator(PROPS, seed=seed)
    pools = {
        a.name: generator.candidates(a.capability, services)
        for a in task.activities
    }
    return task, generator, pools


def make_request(task, weights=None, constraints=()):
    return UserRequest(
        task, constraints=tuple(constraints),
        weights=weights or {n: 1.0 for n in PROPS},
    )


def plan_signature(plan):
    """Everything that identifies a selection outcome, for byte-equality."""
    return (
        plan.service_ids(),
        {
            name: [s.service_id for s in sel.services]
            for name, sel in plan.selections.items()
        },
        plan.utility,
        {name: plan.aggregated_qos[name] for name in plan.aggregated_qos},
        plan.feasible,
    )


def local_signature(selection):
    """Everything one activity's local phase hands the global phase."""
    return (
        [s.service_id for s in selection.services],
        selection.utilities,
        [
            (lv.rank, lv.member_indexes, lv.representative,
             lv.centroid_utility, lv.centroid)
            for lv in selection.levels
        ],
        [s.service_id for s in selection.reserve],
        selection.normalizer.properties,
        selection.extremes,
        selection.clustering_iterations,
    )


class TestCacheCore:
    def test_lookup_miss_then_hit(self):
        cache = SelectionCache()
        cache.begin(("ctx",))
        fp = (("svc-1", None),)
        assert cache.lookup("A", fp) is None
        cache.store("A", fp, payload := object())
        assert cache.lookup("A", fp) is payload
        assert (cache.hits, cache.misses) == (1, 1)

    def test_fingerprint_changes_with_qos(self):
        qos_a = QoSVector({"cost": 1.0}, PROPS)
        qos_b = QoSVector({"cost": 2.0}, PROPS)
        s1 = ServiceDescription("s", "task:C", qos_a, service_id="fixed-id")
        s2 = ServiceDescription("s", "task:C", qos_b, service_id="fixed-id")
        assert SelectionCache.fingerprint([s1]) != SelectionCache.fingerprint([s2])

    def test_context_change_flushes(self):
        cache = SelectionCache()
        cache.begin(("ctx-1",))
        fp = (("svc-1", None),)
        cache.store("A", fp, object())
        cache.begin(("ctx-2",))
        assert len(cache) == 0
        assert cache.lookup("A", fp) is None


class TestIncrementalQassa:
    def test_second_select_hits_every_activity(self):
        task, _, pools = build_pools()
        request = make_request(task)
        cache = SelectionCache()
        selector = QASSA(PROPS, cache=cache)
        first = selector.select(request, CandidateSets(task, pools))
        assert first.statistics.cache_misses == 3
        second = selector.select(request, CandidateSets(task, pools))
        assert second.statistics.cache_hits == 3
        assert second.statistics.cache_misses == 0
        assert plan_signature(first) == plan_signature(second)

    def test_plans_identical_with_and_without_cache(self):
        task, _, pools = build_pools(activities=4, services=15, seed=3)
        request = make_request(task)
        cold = QASSA(PROPS).select(request, CandidateSets(task, pools))
        cached_selector = QASSA(PROPS, cache=SelectionCache())
        warm = cached_selector.select(request, CandidateSets(task, pools))
        # Second run from a fully warm cache must still be byte-equal.
        warm2 = cached_selector.select(request, CandidateSets(task, pools))
        assert plan_signature(cold) == plan_signature(warm)
        assert plan_signature(cold) == plan_signature(warm2)

    def test_churn_recomputes_only_the_changed_activity(self):
        task, generator, pools = build_pools()
        request = make_request(task)
        cache = SelectionCache()
        selector = QASSA(PROPS, cache=cache)
        selector.select(request, CandidateSets(task, pools))

        churned = dict(pools)
        churned["A1"] = generator.candidates("task:C1", 10)
        plan = selector.select(request, CandidateSets(task, churned))
        assert plan.statistics.cache_hits == 2
        assert plan.statistics.cache_misses == 1
        # And still identical to a from-scratch run on the churned pools.
        cold = QASSA(PROPS).select(request, CandidateSets(task, churned))
        assert plan_signature(plan) == plan_signature(cold)

    def test_weight_change_reuses_the_weight_free_stage(self):
        # The weights only rank the cached clusters: a new weight profile
        # over the same properties hits every activity and still gets the
        # plan a cold selector computes under the new weights.
        task, _, pools = build_pools()
        cache = SelectionCache()
        selector = QASSA(PROPS, cache=cache)
        selector.select(make_request(task), CandidateSets(task, pools))
        other_weights = {"response_time": 3.0, "cost": 1.0,
                         "availability": 1.0, "reliability": 1.0}
        request = make_request(task, weights=other_weights)
        plan = selector.select(request, CandidateSets(task, pools))
        assert plan.statistics.cache_hits == 3
        assert plan.statistics.cache_misses == 0
        assert plan.statistics.clustering_iterations == 0
        cold = QASSA(PROPS).select(request, CandidateSets(task, pools))
        assert plan_signature(plan) == plan_signature(cold)
        assert (
            plan.statistics.utility_evaluations
            == cold.statistics.utility_evaluations
        )

    def test_relevant_property_change_is_a_miss(self):
        task, _, pools = build_pools()
        selector = QASSA(PROPS, cache=SelectionCache())
        selector.select(make_request(task), CandidateSets(task, pools))
        three = {"response_time": 1.0, "cost": 1.0, "availability": 1.0}
        plan = selector.select(
            make_request(task, weights=three), CandidateSets(task, pools)
        )
        assert plan.statistics.cache_hits == 0
        assert plan.statistics.cache_misses == 3

    @pytest.mark.parametrize("knob", [
        pytest.param({"seed": 1}, id="seed"),
    ])
    def test_local_phase_knob_change_is_a_miss(self, knob):
        task, _, pools = build_pools()
        request = make_request(task)
        cache = SelectionCache()
        QASSA(PROPS, cache=cache).select(request, CandidateSets(task, pools))
        retuned = QASSA(PROPS, config=QassaConfig(**knob), cache=cache)
        plan = retuned.select(request, CandidateSets(task, pools))
        assert plan.statistics.cache_hits == 0
        assert plan.statistics.cache_misses == 3
        cold = QASSA(PROPS, config=QassaConfig(**knob)).select(
            request, CandidateSets(task, pools)
        )
        assert plan_signature(plan) == plan_signature(cold)

    def test_cached_normaliser_keeps_the_request_property_order(self):
        # Two requests over the same property set in different orders: the
        # second must not inherit the first one's normaliser order, which
        # substitution sums its SAW terms in.
        task, _, pools = build_pools()
        loose = 1e9
        request_a = make_request(
            task, constraints=[GlobalConstraint.at_most("cost", loose)]
        )
        request_b = make_request(
            task, constraints=[GlobalConstraint.at_most("response_time", loose)]
        )
        selector = QASSA(PROPS, cache=SelectionCache())
        selector.select(request_a, CandidateSets(task, pools))
        warm = selector.select(request_b, CandidateSets(task, pools))
        cold = QASSA(PROPS).select(request_b, CandidateSets(task, pools))
        assert cold.selections["A0"].normalizer.properties[0] == "response_time"
        for name, selection in warm.selections.items():
            assert (
                selection.normalizer.properties
                == cold.selections[name].normalizer.properties
            )
        assert plan_signature(warm) == plan_signature(cold)

    def test_local_selections_go_through_the_cache(self):
        task, _, pools = build_pools()
        request = make_request(task)
        cache = SelectionCache()
        selector = QASSA(PROPS, cache=cache)
        plan = selector.select(request, CandidateSets(task, pools))
        hits, misses = cache.hits, cache.misses
        locals_ = selector.local_selections(request, CandidateSets(task, pools))
        assert (cache.hits - hits, cache.misses - misses) == (3, 0)
        cold = QASSA(PROPS).local_selections(request, CandidateSets(task, pools))
        for name, selection in locals_.items():
            assert local_signature(selection) == local_signature(cold[name])
            assert (
                plan.selections[name].normalizer is selection.normalizer
            )

    def test_hits_hand_out_fresh_lists(self):
        task, _, pools = build_pools(activities=1)
        request = make_request(task)
        selector = QASSA(PROPS, cache=SelectionCache())
        first = selector.local_selections(request, CandidateSets(task, pools))
        expected = copy.deepcopy(local_signature(first["A0"]))
        first["A0"].services.clear()
        first["A0"].points[0].clear()
        first["A0"].levels[0].centroid.clear()
        first["A0"].extremes.clear()
        second = selector.local_selections(request, CandidateSets(task, pools))
        assert local_signature(second["A0"]) == expected

    def test_cluster_span_marks_cache_hits(self):
        task, _, pools = build_pools()
        obs = Observability()
        selector = QASSA(PROPS, observability=obs, cache=SelectionCache())
        selector.select(make_request(task), CandidateSets(task, pools))
        weights = {"response_time": 3.0, "cost": 1.0,
                   "availability": 1.0, "reliability": 1.0}
        selector.select(
            make_request(task, weights=weights), CandidateSets(task, pools)
        )
        cold, warm = (root.find("qassa.cluster") for root in obs.spans)
        assert [s.attributes["cached"] for s in cold] == [False] * 3
        assert [s.attributes["cached"] for s in warm] == [True] * 3
        for before, after in zip(cold, warm):
            for key in ("levels", "kept", "pruned", "clustering_iterations"):
                assert after.attributes[key] == before.attributes[key]

    def test_pool_reorder_is_a_miss(self):
        # Clustering seeds index into pool order, so order is part of the
        # fingerprint: a reordered pool must recompute, not hit.
        task, _, pools = build_pools(activities=1)
        request = make_request(task)
        cache = SelectionCache()
        selector = QASSA(PROPS, cache=cache)
        selector.select(request, CandidateSets(task, pools))
        reordered = {"A0": list(reversed(pools["A0"]))}
        plan = selector.select(request, CandidateSets(task, reordered))
        assert plan.statistics.cache_misses == 1

    def test_select_ranked_uses_the_cache_too(self):
        task, _, pools = build_pools()
        request = make_request(task)
        selector = QASSA(PROPS, cache=SelectionCache())
        selector.select(request, CandidateSets(task, pools))
        plans = selector.select_ranked(request, CandidateSets(task, pools), k=2)
        assert plans[0].statistics.cache_hits == 3


class TestWarmColdDifferential:
    """One long-lived cached selector against a cold one per step: weight
    profiles change every step, one pool churns every other step and the
    relevant property order changes twice."""

    ACTIVITIES = 4
    STEPS = 30

    def _constraints(self, step):
        loose = 1e9
        if step < 10:
            return []
        name = "cost" if step < 20 else "response_time"
        return [GlobalConstraint.at_most(name, loose)]

    def test_weight_profiles_and_churn_match_cold(self):
        task, generator, pools = build_pools(
            activities=self.ACTIVITIES, services=15, seed=11
        )
        rng = random.Random(7)
        selector = QASSA(PROPS, cache=SelectionCache())
        for step in range(self.STEPS):
            churned = step % 2 == 1
            if churned:
                name = f"A{step % self.ACTIVITIES}"
                pool = list(pools[name])
                pool[rng.randrange(len(pool))] = generator.service(
                    f"task:C{step % self.ACTIVITIES}"
                )
                pools[name] = pool
            weights = {n: rng.uniform(0.0, 5.0) for n in PROPS}
            request = make_request(
                task, weights=weights, constraints=self._constraints(step)
            )
            candidates = CandidateSets(task, pools)
            cold_selector = QASSA(PROPS)
            warm = selector.select(request, candidates)
            cold = cold_selector.select(request, candidates)
            assert plan_signature(warm) == plan_signature(cold), step

            expected = (
                (0, self.ACTIVITIES) if step in (0, 10, 20)
                else (self.ACTIVITIES - 1, 1) if churned
                else (self.ACTIVITIES, 0)
            )
            stats = warm.statistics
            assert (stats.cache_hits, stats.cache_misses) == expected, step

            warm_locals = selector.local_selections(request, candidates)
            cold_locals = cold_selector.local_selections(request, candidates)
            for name in pools:
                assert (
                    local_signature(warm_locals[name])
                    == local_signature(cold_locals[name])
                ), (step, name)
                assert (
                    warm.selections[name].normalizer.properties
                    == cold.selections[name].normalizer.properties
                ), (step, name)


class TestRankLevels:
    """``rank_levels`` re-ranks clusters computed once, whatever the
    weights, exactly as clustering from scratch under those weights."""

    DIMS = ["x", "y", "z"]

    def _points(self, count, seed):
        rng = random.Random(seed)
        return [{d: rng.random() for d in self.DIMS} for _ in range(count)]

    @pytest.mark.parametrize("seed", range(5))
    def test_reranking_cached_clusters_equals_fresh_levels(self, seed):
        points = self._points(40, seed)
        clustering = kmeans(points, 4, self.DIMS, seed=seed)
        members = [list(c.members) for c in clustering.clusters]
        rng = random.Random(seed)
        for _ in range(5):
            weights = {d: rng.random() for d in self.DIMS}
            total = sum(weights.values())
            weights = {d: w / total for d, w in weights.items()}
            utilities = [
                sum(weights[d] * p[d] for d in self.DIMS) for p in points
            ]
            fresh, _ = build_qos_levels(points, utilities, weights, 4, seed)
            assert rank_levels(clustering.clusters, utilities, weights) == fresh
        assert [c.members for c in clustering.clusters] == members


class TestSubstitutionRanksFromPlan:
    """Fresh substitutes are ranked by the plan's own local normaliser and
    the request's weights — no selection cache involved, so a runtime
    worker's plan ranks exactly like the serial middleware's."""

    def _fixed(self, name, rt):
        return ServiceDescription(
            name=name,
            capability="task:C0",
            advertised_qos=QoSVector(
                {"response_time": rt, "cost": 1.0,
                 "availability": 0.95, "reliability": 0.95},
                PROPS,
            ),
            service_id=name,
        )

    def test_ranked_from_the_plan_with_no_cache(self):
        task = Task("p", sequence(leaf("A0", "task:C0")))
        pool = [self._fixed("slow", 900.0), self._fixed("primary", 100.0)]
        request = make_request(task)
        selector = QASSA(PROPS, config=QassaConfig(alternates_kept=0))
        plan = selector.select(request, CandidateSets(task, {"A0": pool}))
        selection = plan.selections["A0"]
        assert selection.normalizer is not None
        failing = selection.primary.service_id

        fresh = [self._fixed("mediocre", 500.0), self._fixed("fast", 50.0)]
        result = ServiceSubstitution(PROPS).substitute(
            plan, failing, fresh_candidates=fresh
        )
        # Both fresh candidates keep the (unconstrained) plan feasible; the
        # ranked path must try the higher-utility one first.
        assert result.replacement.service_id == "fast"
        assert result.used_fresh_candidates
        weights = request.normalised_weights(selection.normalizer.properties)
        scores = {
            s.service_id: service_utility(
                s.advertised_qos, selection.normalizer, weights
            )
            for s in fresh
        }
        assert scores["fast"] > scores["mediocre"]

    def test_orders_fresh_candidates_by_plan_utility(self):
        task, generator, pools = build_pools(activities=1, services=8)
        request = make_request(task)
        plan = QASSA(PROPS).select(request, CandidateSets(task, pools))
        selection = plan.selections["A0"]

        fresh = generator.candidates("task:C0", 6)
        ranked = ServiceSubstitution._ranked(plan, selection, fresh)
        assert sorted(s.service_id for s in ranked) == sorted(
            s.service_id for s in fresh
        )
        weights = request.normalised_weights(selection.normalizer.properties)
        scores = [
            service_utility(s.advertised_qos, selection.normalizer, weights)
            for s in ranked
        ]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_no_normaliser_keeps_discovery_order(self):
        task = Task("p", sequence(leaf("A0", "task:C0")))
        pool = [self._fixed("primary", 100.0)]
        request = make_request(task)
        plan = QASSA(PROPS, config=QassaConfig(alternates_kept=0)).select(
            request, CandidateSets(task, {"A0": pool})
        )
        plan.selections["A0"].normalizer = None  # e.g. a baseline's plan
        fresh = [self._fixed("mediocre", 500.0), self._fixed("fast", 50.0)]
        plain = ServiceSubstitution(PROPS)
        result = plain.substitute(plan, "primary", fresh_candidates=fresh)
        assert result.replacement.service_id == "mediocre"

    def test_clone_keeps_the_normalisers(self):
        task, _, pools = build_pools(activities=2)
        plan = QASSA(PROPS).select(make_request(task), CandidateSets(task, pools))
        clone = plan.clone()
        for name, selection in plan.selections.items():
            assert clone.selections[name].normalizer is selection.normalizer
