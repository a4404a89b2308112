"""QASSA's Pareto pruning: the sort-filter skyline against the pairwise
reference.

``QASSA._non_dominated_indexes`` takes a sort-filter skyline whenever every
vector carries every property, each property under one direction, and no
value is NaN; dominance is transitive there, so the skyline must keep
exactly the indexes the pairwise loop keeps.  Any other pool must take the
pairwise loop itself.  The reference below is that loop as it stood before
the skyline.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.composition.qassa import QASSA
from repro.composition.selection import CandidateSets
from repro.composition.selection_cache import SelectionCache
from repro.observability import Observability
from repro.qos.properties import STANDARD_PROPERTIES, Direction
from repro.qos.values import QoSVector
from tests.test_selection_cache import PROPS, build_pools, make_request

#: Values drawn for the random pools: few enough to force ties and
#: duplicate vectors, with both signed zeros.
VALUES = (0.0, -0.0, 1.0, 2.0, 2.5, 3.0, 7.0, -1.5)

#: ``cost`` declared under the opposite direction, as a misdeclaring
#: provider would advertise it.
COST_UP = dataclasses.replace(
    STANDARD_PROPERTIES["cost"], direction=Direction.POSITIVE
)


def pairwise_reference(vectors):
    """QASSA's pruning before the skyline: O(n²) ``dominates`` calls."""
    keep = []
    for i, v in enumerate(vectors):
        if not any(
            j != i and vectors[j].dominates(v) for j in range(len(vectors))
        ):
            keep.append(i)
    return keep or list(range(len(vectors)))


def prune(vectors, names):
    """``_non_dominated_indexes`` over the table ``_weight_free_stage``
    builds: each vector's values over ``names``, None where it lacks one."""
    table = [tuple([v.get(n) for n in names]) for v in vectors]
    return QASSA._non_dominated_indexes(vectors, names, table)


def vector(**values):
    return QoSVector(values, STANDARD_PROPERTIES)


def random_pool(rng, complete=True):
    """1-6 properties of both directions, 1-40 vectors, ties, duplicate
    vectors and signed zeros; ``complete=False`` drops some values."""
    names = rng.sample(sorted(STANDARD_PROPERTIES), rng.randint(1, 6))
    vectors = []
    for _ in range(rng.randint(1, 40)):
        if vectors and rng.random() < 0.15:
            vectors.append(rng.choice(vectors))
            continue
        values = {n: rng.choice(VALUES) for n in names}
        if not complete:
            values = {n: x for n, x in values.items() if rng.random() < 0.7}
        vectors.append(QoSVector(values, STANDARD_PROPERTIES))
    return vectors, names


class TestSkylineEqualsPairwise:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_complete_pools(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            vectors, names = random_pool(rng)
            keep, path = prune(vectors, names)
            assert path == "skyline"
            assert keep == pairwise_reference(vectors), (names, vectors)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_incomplete_pools_take_the_pairwise_path(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(40):
            vectors, names = random_pool(rng, complete=False)
            keep, path = prune(vectors, names)
            if any(len(v) < len(names) for v in vectors):
                assert path == "pairwise"
            assert keep == pairwise_reference(vectors)

    def test_one_property(self):
        vectors = [vector(cost=x) for x in (3.0, 1.0, 1.0, 2.0, -0.0, 0.0)]
        assert prune(vectors, ["cost"]) == ([4, 5], "skyline")
        assert pairwise_reference(vectors) == [4, 5]

    def test_one_candidate(self):
        vectors = [vector(response_time=5.0, availability=0.9)]
        assert prune(vectors, ["response_time", "availability"]) == (
            [0], "skyline"
        )

    def test_equal_rows_both_stay(self):
        a = vector(response_time=2.0, availability=0.9)
        b = vector(response_time=2.0, availability=0.9)
        c = vector(response_time=3.0, availability=0.8)
        assert prune([a, b, c], ["response_time", "availability"]) == (
            [0, 1], "skyline"
        )

    def test_signed_zeros_are_equal(self):
        vectors = [vector(cost=0.0, energy=1.0), vector(cost=-0.0, energy=1.0)]
        assert prune(vectors, ["cost", "energy"]) == ([0, 1], "skyline")
        assert pairwise_reference(vectors) == [0, 1]

    def test_directions_that_disagree_take_the_pairwise_path(self):
        # b declares cost as higher-is-better: a dominates b under a's
        # direction, b dominates a under b's, so the pairwise loop keeps
        # neither and falls back to the whole pool.
        a = vector(cost=1.0, response_time=1.0)
        b = QoSVector(
            {"cost": 2.0, "response_time": 1.0},
            {"cost": COST_UP, "response_time": STANDARD_PROPERTIES["response_time"]},
        )
        keep, path = prune([a, b], ["cost", "response_time"])
        assert path == "pairwise"
        assert keep == pairwise_reference([a, b]) == [0, 1]


class TestPinnedPools:
    def test_mixed_property_sets(self):
        # a dominates b and b dominates c on the properties each pair
        # shares, but a does not dominate c: dominance is not transitive,
        # so a skyline checking c only against the kept a would keep c.
        a = vector(response_time=1.0, cost=9.0)
        b = vector(response_time=2.0)
        c = vector(response_time=3.0, cost=1.0)
        assert pairwise_reference([a, b, c]) == [0]
        assert prune([a, b, c], ["response_time", "cost"]) == ([0], "pairwise")

    def test_nan(self):
        # No comparison with NaN is true, so a dominates b on cost alone
        # and nothing dominates a; rows sorted over the NaN would keep
        # both.
        a = vector(response_time=float("nan"), cost=1.0)
        b = vector(response_time=2.0, cost=2.0)
        assert pairwise_reference([a, b]) == [0]
        assert prune([a, b], ["response_time", "cost"]) == ([0], "pairwise")


class TestPruneSpan:
    def test_cold_stages_record_prune_spans_and_warm_ones_none(self):
        task, _, pools = build_pools(services=30)
        obs = Observability()
        selector = QASSA(PROPS, observability=obs, cache=SelectionCache())
        selector.select(make_request(task), CandidateSets(task, pools))
        selector.select(make_request(task), CandidateSets(task, pools))
        cold, warm = obs.spans
        clusters = cold.find("qassa.cluster")
        assert len(clusters) == 3
        for cluster in clusters:
            (prune_span,) = cluster.find("qassa.prune")
            assert prune_span.attributes == {
                "candidates": 30,
                "kept": cluster.attributes["kept"],
                "path": "skyline",
            }
        assert warm.find("qassa.prune") == []
