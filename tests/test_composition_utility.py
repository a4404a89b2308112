"""Tests for SAW utility normalisation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QoSModelError
from repro.qos.properties import AVAILABILITY, COST, RESPONSE_TIME
from repro.qos.values import QoSVector
from repro.composition.utility import (
    Normalizer,
    composition_utility,
    row_utility,
    service_utility,
)

PROPS = {
    "response_time": RESPONSE_TIME,
    "cost": COST,
    "availability": AVAILABILITY,
}


def vec(**values):
    return QoSVector(values, PROPS)


@pytest.fixture
def normalizer():
    return Normalizer(
        PROPS,
        {
            "response_time": (0.0, 100.0),
            "cost": (0.0, 10.0),
            "availability": (0.5, 1.0),
        },
    )


class TestNormalise:
    def test_negative_property_best_at_low_end(self, normalizer):
        assert normalizer.normalise("response_time", 0.0) == 1.0
        assert normalizer.normalise("response_time", 100.0) == 0.0
        assert normalizer.normalise("response_time", 50.0) == pytest.approx(0.5)

    def test_positive_property_best_at_high_end(self, normalizer):
        assert normalizer.normalise("availability", 1.0) == 1.0
        assert normalizer.normalise("availability", 0.5) == 0.0

    def test_out_of_span_values_clipped(self, normalizer):
        assert normalizer.normalise("response_time", -10.0) == 1.0
        assert normalizer.normalise("response_time", 1000.0) == 0.0

    def test_degenerate_span_scores_one(self):
        flat = Normalizer(PROPS, {"cost": (5.0, 5.0)})
        assert flat.normalise("cost", 5.0) == 1.0

    def test_inverted_span_rejected(self):
        with pytest.raises(QoSModelError):
            Normalizer(PROPS, {"cost": (10.0, 1.0)})

    def test_unknown_property_raises(self, normalizer):
        with pytest.raises(QoSModelError):
            normalizer.normalise("karma", 1.0)


class TestFromVectors:
    def test_spans_from_population(self):
        population = [vec(cost=1.0), vec(cost=9.0), vec(cost=4.0)]
        normalizer = Normalizer.from_vectors(population, {"cost": COST})
        assert normalizer.span("cost") == (1.0, 9.0)

    def test_missing_property_falls_back_to_value_range(self):
        normalizer = Normalizer.from_vectors([vec(cost=1.0)],
                                             {"availability": AVAILABILITY})
        assert normalizer.span("availability") == AVAILABILITY.value_range

    def test_scales(self, normalizer):
        assert normalizer.scales()["response_time"] == 100.0

    def test_single_candidate_degenerate_spans_score_one(self):
        # One candidate: every span collapses to a point and every value of
        # that candidate normalises to 1.0 (nothing in the population beats it).
        only = vec(response_time=120.0, cost=3.0, availability=0.9)
        normalizer = Normalizer.from_vectors([only], PROPS)
        for name in PROPS:
            assert normalizer.span(name) == (only[name], only[name])
            assert normalizer.normalise(name, only[name]) == 1.0
        weights = {"response_time": 0.5, "cost": 0.3, "availability": 0.2}
        assert service_utility(only, normalizer, weights) == pytest.approx(1.0)

    def test_disjoint_property_subsets(self):
        # Candidates advertising disjoint property subsets: each property's
        # span comes only from the vectors that carry it.
        population = [
            vec(response_time=100.0),
            vec(response_time=300.0),
            vec(cost=2.0),
        ]
        normalizer = Normalizer.from_vectors(population, PROPS)
        assert normalizer.span("response_time") == (100.0, 300.0)
        # "cost" appears once → degenerate span, normalises to best.
        assert normalizer.span("cost") == (2.0, 2.0)
        assert normalizer.normalise("cost", 2.0) == 1.0
        # "availability" appears nowhere → value_range fallback.
        assert normalizer.span("availability") == AVAILABILITY.value_range

    def test_empty_population_all_value_range_fallback(self):
        normalizer = Normalizer.from_vectors([], PROPS)
        for name, prop in PROPS.items():
            assert normalizer.span(name) == prop.value_range


class TestUtility:
    def test_best_vector_scores_one(self, normalizer):
        weights = {"response_time": 0.5, "cost": 0.3, "availability": 0.2}
        best = vec(response_time=0.0, cost=0.0, availability=1.0)
        assert service_utility(best, normalizer, weights) == pytest.approx(1.0)

    def test_worst_vector_scores_zero(self, normalizer):
        weights = {"response_time": 0.5, "cost": 0.3, "availability": 0.2}
        worst = vec(response_time=100.0, cost=10.0, availability=0.5)
        assert service_utility(worst, normalizer, weights) == pytest.approx(0.0)

    def test_missing_property_contributes_zero(self, normalizer):
        weights = {"response_time": 0.5, "cost": 0.5}
        partial = vec(response_time=0.0)
        assert service_utility(partial, normalizer, weights) == pytest.approx(0.5)

    def test_weights_scale_contributions(self, normalizer):
        skewed = {"response_time": 1.0, "cost": 0.0, "availability": 0.0}
        fast_dear = vec(response_time=0.0, cost=10.0, availability=0.5)
        assert service_utility(fast_dear, normalizer, skewed) == pytest.approx(1.0)

    def test_composition_utility_matches_service_utility(self, normalizer):
        weights = {"cost": 1.0}
        aggregated = vec(cost=5.0)
        assert composition_utility(aggregated, normalizer, weights) == (
            service_utility(aggregated, normalizer, weights)
        )


@pytest.mark.parametrize("row", [
    (0.75, 5.0, 40.0),  # inside every span
    (0.25, 9.0, -10.0),  # below: a positive value clips to 0, a negative to 1
    (1.5, 1.0, 250.0),  # above: a positive value clips to 1, a negative to 0
    (float("nan"), 5.0, 62.5),  # NaN
], ids=["inside", "below", "above", "nan"])
def test_row_utility_sums_what_normalise_returns(row):
    """``row_utility`` normalises inline; its sum is ``repr``-equal to
    ``Normalizer.normalise``'s terms summed in weight order, cost's span
    being degenerate."""
    normalizer = Normalizer(PROPS, {
        "response_time": (0.0, 100.0), "cost": (5.0, 5.0),
        "availability": (0.5, 1.0),
    })
    weights = {"response_time": 0.45, "cost": 0.2, "availability": 0.35}
    order = ("availability", "cost", "response_time")
    expected = 0.0
    for name, weight in weights.items():
        expected += weight * normalizer.normalise(name, row[order.index(name)])
    got = row_utility(row, normalizer.terms(weights, order))
    assert repr(got) == repr(expected)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 10, allow_nan=False),
    st.floats(0.5, 1.0, allow_nan=False),
)
def test_utility_always_in_unit_interval(rt, cost, avail):
    normalizer = Normalizer(
        PROPS,
        {"response_time": (0.0, 100.0), "cost": (0.0, 10.0),
         "availability": (0.5, 1.0)},
    )
    weights = {"response_time": 0.4, "cost": 0.4, "availability": 0.2}
    utility = service_utility(
        vec(response_time=rt, cost=cost, availability=avail),
        normalizer, weights,
    )
    assert 0.0 <= utility <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
)
def test_utility_monotone_in_response_time(rt_fast, rt_slow):
    """A strictly faster service never scores lower (all else equal)."""
    if rt_fast > rt_slow:
        rt_fast, rt_slow = rt_slow, rt_fast
    normalizer = Normalizer(PROPS, {"response_time": (0.0, 100.0)})
    weights = {"response_time": 1.0}
    fast = service_utility(vec(response_time=rt_fast), normalizer, weights)
    slow = service_utility(vec(response_time=rt_slow), normalizer, weights)
    assert fast >= slow
