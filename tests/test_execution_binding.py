"""Tests for dynamic binding."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BindingError
from repro.qos.properties import STANDARD_PROPERTIES
from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription
from repro.services.generator import ServiceGenerator
from repro.adaptation.monitoring import QoSMonitor, QoSObservation
from repro.composition.aggregation import AggregationApproach
from repro.composition.qassa import QASSA, QassaConfig
from repro.composition.request import GlobalConstraint, UserRequest
from repro.composition.selection import (
    CandidateSets,
    CompositionPlan,
    SelectedActivity,
)
from repro.composition.task import Task, leaf, sequence
from repro.composition.utility import Normalizer, service_utility
from repro.execution.binding import DynamicBinder

PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability")
}


@pytest.fixture
def plan():
    task = Task("t", sequence(leaf("A", "task:A")))
    generator = ServiceGenerator(PROPS, seed=31)
    candidates = CandidateSets(task, {"A": generator.candidates("task:A", 10)})
    request = UserRequest(
        task,
        constraints=(GlobalConstraint.at_most("response_time", 1e9),),
        weights={"response_time": 0.8, "cost": 0.1, "availability": 0.1},
    )
    return QASSA(PROPS, config=QassaConfig(alternates_kept=3)).select(
        request, candidates
    )


class TestBinding:
    def test_binds_primary_without_monitor(self, plan):
        binder = DynamicBinder(PROPS)
        assert binder.bind(plan, "A") == plan.selections["A"].primary

    def test_unknown_activity_raises(self, plan):
        with pytest.raises(BindingError):
            DynamicBinder(PROPS).bind(plan, "Z")

    def test_dead_primary_falls_to_alternate(self, plan):
        primary = plan.selections["A"].primary
        binder = DynamicBinder(PROPS, liveness=lambda s: s != primary)
        bound = binder.bind(plan, "A")
        assert bound != primary
        assert bound in plan.selections["A"].alternates

    def test_all_dead_raises(self, plan):
        binder = DynamicBinder(PROPS, liveness=lambda s: False)
        with pytest.raises(BindingError):
            binder.bind(plan, "A")

    def test_runtime_estimates_override_advertised_ranking(self, plan):
        """When the primary's measured response time collapses, the binder
        switches to an alternate whose run-time estimate is better."""
        primary = plan.selections["A"].primary
        alternates = plan.selections["A"].alternates
        assert alternates, "plan must keep alternates for this test"
        monitor = QoSMonitor(PROPS)
        # Observed: primary is terrible; first alternate is excellent.
        monitor.observe(
            QoSObservation(primary.service_id, "response_time", 1e6, 0.0)
        )
        monitor.observe(
            QoSObservation(alternates[0].service_id, "response_time", 1.0, 0.0)
        )
        binder = DynamicBinder(PROPS, monitor=monitor)
        assert binder.bind(plan, "A") == alternates[0]

    def test_single_live_service_shortcut(self, plan):
        primary = plan.selections["A"].primary
        monitor = QoSMonitor(PROPS)
        binder = DynamicBinder(
            PROPS, monitor=monitor, liveness=lambda s: s == primary
        )
        assert binder.bind(plan, "A") == primary


# ---------------------------------------------------------------------------
# differential: the UTILITY policy against the vector-based scoring it
# replaced (kept here as the reference)
# ---------------------------------------------------------------------------
ALL_PROPS = {
    name: STANDARD_PROPERTIES[name]
    for name in ("response_time", "cost", "availability", "reliability")
}
#: Few distinct values, so exact ties and zero-width spans occur.
VALUES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 10.0])


def _reference_vector(monitor, service):
    """A service's run-time estimate as a vector: each advertised value,
    replaced by the monitor's estimate where one exists."""
    advertised = service.advertised_qos
    values = {}
    for name in advertised:
        estimate = monitor.estimate(service.service_id, name)
        values[name] = estimate if estimate is not None else advertised[name]
    return QoSVector(values, advertised.properties())


def reference_pick(monitor, properties, request, alive):
    """The UTILITY pick as vectors, a normaliser over them and
    ``service_utility``, the first-ranked service winning ties."""
    if not any(
        monitor.estimate(s.service_id, name) is not None
        for s in alive for name in properties
    ):
        return alive[0]
    weights = request.normalised_weights(properties)
    vectors = [_reference_vector(monitor, s) for s in alive]
    normalizer = Normalizer.from_vectors(vectors, properties)
    scored = [
        (service_utility(vector, normalizer, weights), service)
        for vector, service in zip(vectors, alive)
    ]
    best_utility, best = scored[0]
    for utility, service in scored[1:]:
        if utility > best_utility:
            best_utility, best = utility, service
    return best


@st.composite
def binding_cases(draw):
    """``(plan, monitor)``: one activity ranking 1-6 services that each
    advertise a random subset of the properties, estimates on random
    (service, property) pairs, and a request weighting a random subset."""
    names = sorted(ALL_PROPS)
    count = draw(st.integers(1, 6))
    services = []
    for index in range(count):
        advertised = draw(st.lists(st.sampled_from(names), unique=True))
        services.append(ServiceDescription(
            f"S{index}", "task:A",
            QoSVector({n: draw(VALUES) for n in advertised}, ALL_PROPS),
        ))
    monitor = QoSMonitor(ALL_PROPS)
    # A pair may name a property its service does not advertise.
    estimates = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.sampled_from(names), VALUES),
        max_size=12,
    ))
    for step, (index, name, value) in enumerate(estimates):
        monitor.observe(QoSObservation(
            services[index].service_id, name, value, float(step)
        ))
    weighted = draw(st.lists(st.sampled_from(names), unique=True))
    request = UserRequest(
        Task("t", sequence(leaf("A", "task:A"))),
        weights={n: draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
                 for n in weighted},
    )
    plan = CompositionPlan(
        task=request.task, request=request,
        selections={"A": SelectedActivity("A", services)},
        aggregated_qos=QoSVector({}, ALL_PROPS), utility=0.0,
        feasible=True, approach=AggregationApproach.PESSIMISTIC,
    )
    return plan, monitor


class TestUtilityPolicyDifferential:
    @settings(max_examples=300, deadline=None)
    @given(binding_cases())
    def test_picks_the_reference_service(self, case):
        plan, monitor = case
        alive = plan.selections["A"].services
        picked = DynamicBinder(ALL_PROPS, monitor=monitor).bind(plan, "A")
        assert picked is reference_pick(monitor, ALL_PROPS, plan.request,
                                        alive)

    @settings(max_examples=50, deadline=None)
    @given(binding_cases())
    def test_without_evidence_keeps_the_plan_ranking(self, case):
        plan, _ = case
        alive = plan.selections["A"].services
        binder = DynamicBinder(ALL_PROPS, monitor=QoSMonitor(ALL_PROPS))
        assert binder.bind(plan, "A") is alive[0]
