"""Tests for QoS monitoring: EWMA, forecasting, triggers."""

from __future__ import annotations

import pytest

from repro.errors import AdaptationError
from repro.qos.properties import AVAILABILITY, RESPONSE_TIME
from repro.qos.values import QoSVector
from repro.services.discovery import QoSConstraint
from repro.adaptation.monitoring import (
    MonitorConfig,
    QoSMonitor,
    QoSObservation,
    TriggerKind,
)

PROPS = {"response_time": RESPONSE_TIME, "availability": AVAILABILITY}


def make_monitor(**config_overrides):
    config = MonitorConfig(**config_overrides) if config_overrides else MonitorConfig()
    return QoSMonitor(PROPS, config)


def obs(service, prop, value, t):
    return QoSObservation(service, prop, value, t)


class TestEWMA:
    def test_first_observation_sets_estimate(self):
        monitor = make_monitor()
        monitor.observe(obs("s1", "response_time", 100.0, 0.0))
        assert monitor.estimate("s1", "response_time") == 100.0

    def test_ewma_smooths(self):
        monitor = make_monitor(alpha=0.5)
        monitor.observe(obs("s1", "response_time", 100.0, 0.0))
        monitor.observe(obs("s1", "response_time", 200.0, 1.0))
        assert monitor.estimate("s1", "response_time") == pytest.approx(150.0)

    def test_alpha_one_tracks_raw(self):
        monitor = make_monitor(alpha=1.0)
        for i, value in enumerate([10.0, 50.0, 30.0]):
            monitor.observe(obs("s1", "response_time", value, float(i)))
        assert monitor.estimate("s1", "response_time") == 30.0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(AdaptationError):
            make_monitor(alpha=0.0)
        with pytest.raises(AdaptationError):
            make_monitor(alpha=1.5)

    def test_unobserved_returns_none(self):
        assert make_monitor().estimate("ghost", "response_time") is None


class TestForecast:
    def test_no_forecast_below_min_samples(self):
        monitor = make_monitor(min_samples_for_forecast=3)
        monitor.observe(obs("s1", "response_time", 100.0, 0.0))
        monitor.observe(obs("s1", "response_time", 110.0, 1.0))
        assert monitor.projected("s1", "response_time") is None

    def test_upward_drift_projects_higher(self):
        monitor = make_monitor(alpha=0.5, trend_gain=2.0)
        for i, value in enumerate([100.0, 120.0, 140.0, 160.0]):
            monitor.observe(obs("s1", "response_time", value, float(i)))
        projection = monitor.projected("s1", "response_time")
        estimate = monitor.estimate("s1", "response_time")
        assert projection is not None and projection > estimate

    def test_stable_series_projects_flat(self):
        monitor = make_monitor()
        for i in range(5):
            monitor.observe(obs("s1", "response_time", 100.0, float(i)))
        assert monitor.projected("s1", "response_time") == pytest.approx(100.0)


class TestTriggers:
    def test_violation_trigger(self):
        monitor = make_monitor()
        monitor.watch("s1", [QoSConstraint("response_time", "<=", 100.0)])
        triggers = monitor.observe(obs("s1", "response_time", 150.0, 0.0))
        assert len(triggers) == 1
        assert triggers[0].kind is TriggerKind.VIOLATION
        assert triggers[0].observed == 150.0
        assert triggers[0].bound == 100.0

    def test_no_trigger_when_within_bound(self):
        monitor = make_monitor()
        monitor.watch("s1", [QoSConstraint("response_time", "<=", 100.0)])
        assert monitor.observe(obs("s1", "response_time", 50.0, 0.0)) == []

    def test_proactive_forecast_trigger(self):
        """A drifting-but-not-yet-violating series raises a FORECAST trigger."""
        monitor = make_monitor(alpha=0.6, trend_gain=4.0)
        monitor.watch("s1", [QoSConstraint("response_time", "<=", 100.0)])
        kinds = []
        for i, value in enumerate([60.0, 75.0, 90.0, 98.0]):
            for trigger in monitor.observe(
                obs("s1", "response_time", value, float(i))
            ):
                kinds.append(trigger.kind)
        assert TriggerKind.FORECAST in kinds
        assert TriggerKind.VIOLATION not in kinds

    def test_unwatched_service_never_triggers(self):
        monitor = make_monitor()
        assert monitor.observe(obs("sX", "response_time", 1e9, 0.0)) == []

    def test_failure_report(self):
        monitor = make_monitor()
        trigger = monitor.report_failure("s1", 5.0)
        assert trigger.kind is TriggerKind.FAILURE
        assert trigger.service_id == "s1"

    def test_listener_dispatch_and_unsubscribe(self):
        monitor = make_monitor()
        monitor.watch("s1", [QoSConstraint("response_time", "<=", 1.0)])
        seen = []
        unsubscribe = monitor.subscribe(seen.append)
        monitor.observe(obs("s1", "response_time", 2.0, 0.0))
        unsubscribe()
        monitor.observe(obs("s1", "response_time", 2.0, 1.0))
        assert len(seen) == 1

    def test_unwatch_clears_series(self):
        monitor = make_monitor()
        monitor.watch("s1", [QoSConstraint("response_time", "<=", 100.0)])
        monitor.observe(obs("s1", "response_time", 50.0, 0.0))
        monitor.unwatch("s1")
        assert monitor.estimate("s1", "response_time") is None
        assert monitor.observe(obs("s1", "response_time", 1e9, 1.0)) == []


class TestVectors:
    def test_observe_vector_feeds_all_properties(self):
        monitor = make_monitor()
        vector = QoSVector(
            {"response_time": 80.0, "availability": 0.9}, PROPS
        )
        monitor.observe_vector("s1", vector, 0.0)
        assert monitor.estimate("s1", "response_time") == 80.0
        assert monitor.estimate("s1", "availability") == 0.9

    def test_estimated_vector_falls_back_to_advertised(self):
        monitor = make_monitor()
        advertised = QoSVector(
            {"response_time": 100.0, "availability": 0.95}, PROPS
        )
        monitor.observe(obs("s1", "response_time", 300.0, 0.0))
        estimated = monitor.estimated_vector("s1", advertised)
        assert estimated["response_time"] == 300.0
        assert estimated["availability"] == 0.95  # never observed

    def test_estimated_row_agrees_with_estimated_vector(self):
        monitor = make_monitor(alpha=0.5)
        advertised = QoSVector(
            {"response_time": 100.0, "availability": 0.95}, PROPS
        )
        monitor.observe(obs("s1", "response_time", 300.0, 0.0))
        monitor.observe(obs("s1", "response_time", 200.0, 1.0))
        vector = monitor.estimated_vector("s1", advertised)
        names = ("availability", "response_time")
        assert monitor.estimated_row("s1", advertised, names) == tuple(
            vector[name] for name in names
        ) == (0.95, 250.0)
        # An unobserved service reads its advertisement.
        assert monitor.estimated_row("s2", advertised, names) == (0.95, 100.0)

    def test_estimated_row_skips_what_the_fallback_lacks(self):
        """An estimate alone does not add a property: the vector leaves it
        out and the row holds None there."""
        monitor = make_monitor()
        advertised = QoSVector({"response_time": 100.0}, PROPS)
        monitor.observe(obs("s1", "availability", 0.5, 0.0))
        assert "availability" not in monitor.estimated_vector("s1", advertised)
        assert monitor.estimated_row(
            "s1", advertised, ("availability", "response_time")
        ) == (None, 100.0)


class TestSeriesIndex:
    def test_unwatch_drops_exactly_one_services_series(self):
        monitor = make_monitor()
        for service in ("s1", "s2", "s3"):
            monitor.watch(service, [QoSConstraint("response_time", "<=", 1e3)])
            monitor.observe_vector(service, QoSVector(
                {"response_time": 80.0, "availability": 0.9}, PROPS
            ), 0.0)
        monitor.unwatch("s2")
        for name in PROPS:
            assert monitor.estimate("s2", name) is None
            assert monitor.estimate("s1", name) is not None
            assert monitor.estimate("s3", name) is not None
        assert monitor.projected("s2", "response_time") is None
