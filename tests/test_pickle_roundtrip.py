"""Pickle round-trips for everything the process backend transports.

The process execution backend ships :class:`RegistrySnapshot`,
:class:`UserRequest` and exceptions to worker processes and receives
:class:`CompositionPlan` replies — all over :mod:`pickle`.  These tests
pin the round-trip for each transported type, plus the regression for the
exception double-wrap bug: default exception pickling replays ``args``
(the *formatted message*) through ``__init__``, so
``NoCandidateError('Pay')`` used to come back reading ``no service
candidate for activity "no service candidate for activity 'Pay'"``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import NoCandidateError, UnknownConceptError
from repro.observability.context import TraceContext

from tests.worlds import CAPS, build_world


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestRegistrySnapshotRoundTrip:
    def test_snapshot_pickles_with_full_read_surface(self):
        middleware, _, _ = build_world(seed=101)
        snapshot = middleware.environment.registry.snapshot()
        copy = roundtrip(snapshot)
        assert copy.generation == snapshot.generation
        assert len(copy) == len(snapshot)
        assert copy.capabilities() == snapshot.capabilities()
        for capability in CAPS:
            original = snapshot.by_capability(capability)
            restored = copy.by_capability(capability)
            assert [s.service_id for s in restored] == [
                s.service_id for s in original
            ]
            assert [s.name for s in restored] == [s.name for s in original]

    def test_snapshot_copy_is_independent(self):
        middleware, _, _ = build_world(seed=103)
        snapshot = middleware.environment.registry.snapshot()
        copy = roundtrip(snapshot)
        service = next(iter(snapshot))
        assert copy.get(service.service_id) is not service
        assert dict(copy.get(service.service_id).advertised_qos.items()) == (
            dict(service.advertised_qos.items())
        )


class TestRequestAndPlanRoundTrip:
    def test_user_request_roundtrips(self):
        _, requests, _ = build_world(seed=107, profiles=1, repeats=1)
        request = requests[0]
        copy = roundtrip(request)
        assert copy.weights == request.weights
        assert copy.constraints == request.constraints
        assert copy.task.name == request.task.name
        assert [a.name for a in copy.task.activities] == [
            a.name for a in request.task.activities
        ]

    def test_composition_plan_roundtrips(self):
        middleware, requests, _ = build_world(seed=109, profiles=1,
                                              repeats=1)
        plan = middleware.submit(requests[0], execute=False).plan()
        copy = roundtrip(plan)
        assert copy.service_ids() == plan.service_ids()
        assert copy.utility == plan.utility
        assert copy.feasible == plan.feasible
        assert copy.approach == plan.approach
        for name in plan.aggregated_qos:
            assert copy.aggregated_qos[name] == plan.aggregated_qos[name]
        assert copy.statistics.utility_evaluations == (
            plan.statistics.utility_evaluations
        )

    def test_trace_context_roundtrips(self):
        context = TraceContext.mint().child("span-7")
        copy = roundtrip(context)
        assert copy == context
        assert copy.trace_id == context.trace_id
        assert copy.parent_span_id == "span-7"


class TestExceptionRoundTrip:
    """The double-wrap regression: messages survive pickling unchanged."""

    @pytest.mark.parametrize("exc", [
        NoCandidateError("Pay"),
        UnknownConceptError("task:Missing"),
    ], ids=lambda e: type(e).__name__)
    def test_message_survives_roundtrip(self, exc):
        copy = roundtrip(exc)
        assert type(copy) is type(exc)
        assert str(copy) == str(exc)

    def test_no_candidate_error_keeps_its_activity(self):
        copy = roundtrip(NoCandidateError("Pay"))
        assert copy.activity == "Pay"
        assert str(copy) == "no service candidate for activity 'Pay'"

    def test_unknown_concept_error_keeps_its_uri(self):
        copy = roundtrip(UnknownConceptError("task:Missing"))
        assert copy.uri == "task:Missing"
        assert str(copy) == "unknown concept: 'task:Missing'"

    def test_double_roundtrip_is_stable(self):
        exc = NoCandidateError("Pay")
        assert str(roundtrip(roundtrip(exc))) == str(exc)
