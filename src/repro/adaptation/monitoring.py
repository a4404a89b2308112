"""Global and proactive QoS monitoring (§V.1.1).

The monitor watches the run-time QoS of every service taking part in a
running composition (*global* scope — not just the next service to invoke)
and raises adaptation triggers **proactively**: an exponentially weighted
moving average (EWMA) forecasts each property's short-term trajectory, so a
drifting service is flagged *before* it actually breaches the user's
constraints.

Observations are pushed by the execution engine (or the environment
simulator); the monitor keeps one series per (service, property), indexed
by service and then property, maintains EWMA estimates, and evaluates two
kinds of rules:

* **violation** — the observed value already breaches a bound;
* **forecast** — the EWMA-projected value breaches a bound while the
  observed one does not yet (the proactive case, ablated in
  ``benchmarks/bench_ablation_monitoring.py``).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.errors import AdaptationError
from repro.observability import core as observability_core
from repro.qos.properties import QoSProperty
from repro.qos.values import QoSVector
from repro.services.discovery import QoSConstraint


class TriggerKind(enum.Enum):
    """Why the monitor raised an adaptation trigger."""

    VIOLATION = "violation"     # bound already breached
    FORECAST = "forecast"       # the forecaster projects a breach
    FAILURE = "failure"         # service stopped responding


class ForecastMethod(enum.Enum):
    """How the proactive projection is computed.

    EWMA_TREND is the paper-era default (Holt-style smoothed level + drift).
    LINEAR fits a least-squares line over the observation window and
    extrapolates ``horizon`` steps ahead — the "more accurate QoS
    prediction" direction of the thesis' perspectives chapter.
    """

    EWMA_TREND = "ewma_trend"
    LINEAR = "linear"


@dataclass(frozen=True)
class QoSObservation:
    """One run-time measurement of one service's QoS property."""

    service_id: str
    property_name: str
    value: float
    timestamp: float


@dataclass(frozen=True)
class AdaptationTrigger:
    """What the monitor hands to the adaptation manager."""

    kind: TriggerKind
    service_id: str
    property_name: str
    observed: Optional[float]
    projected: Optional[float]
    bound: Optional[float]
    timestamp: float


@dataclass(frozen=True)
class MonitorConfig:
    """EWMA smoothing and window parameters.

    ``alpha`` close to 1 tracks raw observations; close to 0 smooths hard.
    ``trend_gain`` amplifies the recent drift when projecting forward
    (a Holt-style one-step-ahead forecast).
    """

    alpha: float = 0.3
    trend_gain: float = 2.0
    window: int = 20
    min_samples_for_forecast: int = 3
    method: ForecastMethod = ForecastMethod.EWMA_TREND
    horizon: float = 2.0   # steps ahead for the LINEAR method


@dataclass
class _Series:
    values: Deque[float]
    ewma: Optional[float] = None
    previous_ewma: Optional[float] = None

    def push(self, value: float, alpha: float) -> None:
        self.values.append(value)
        if self.ewma is None:
            self.ewma = value
            self.previous_ewma = value
        else:
            self.previous_ewma = self.ewma
            self.ewma = alpha * value + (1 - alpha) * self.ewma

    def trend(self) -> float:
        if self.ewma is None or self.previous_ewma is None:
            return 0.0
        return self.ewma - self.previous_ewma


class QoSMonitor:
    """Per-service, per-property run-time QoS tracking with forecasting."""

    def __init__(
        self,
        properties: Mapping[str, QoSProperty],
        config: MonitorConfig = MonitorConfig(),
        observability=None,
    ) -> None:
        if not 0 < config.alpha <= 1:
            raise AdaptationError("EWMA alpha must be in (0, 1]")
        self.properties = dict(properties)
        self.config = config
        self.obs = observability_core.resolve(observability)
        #: service id -> property name -> series.
        self._series: Dict[str, Dict[str, _Series]] = {}
        self._watches: Dict[str, List[QoSConstraint]] = {}
        self._listeners: List[Callable[[AdaptationTrigger], None]] = []
        self._failed: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def watch(self, service_id: str, constraints: List[QoSConstraint]) -> None:
        """Attach per-service bounds derived from the user's requirements.

        The adaptation framework decomposes global constraints into
        per-service watch bounds (see
        :meth:`repro.adaptation.manager.AdaptationManager.deploy`).
        """
        self._watches[service_id] = list(constraints)

    def unwatch(self, service_id: str) -> None:
        self._watches.pop(service_id, None)
        self._failed.pop(service_id, None)
        self._series.pop(service_id, None)

    def subscribe(
        self, listener: Callable[[AdaptationTrigger], None]
    ) -> Callable[[], None]:
        """Register a trigger listener; returns an unsubscribe callable."""
        self._listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return unsubscribe

    # ------------------------------------------------------------------
    def observe(self, observation: QoSObservation) -> List[AdaptationTrigger]:
        """Ingest one measurement; returns (and dispatches) any triggers."""
        by_property = self._series.get(observation.service_id)
        if by_property is None:
            by_property = self._series[observation.service_id] = {}
        series = by_property.get(observation.property_name)
        if series is None:
            series = _Series(values=deque(maxlen=self.config.window))
            by_property[observation.property_name] = series
        series.push(observation.value, self.config.alpha)

        triggers = self._evaluate(observation, series)
        if self.obs.enabled:
            self.obs.counter("monitor_observations_total").inc()
            for trigger in triggers:
                self.obs.counter(
                    "monitor_triggers_total", kind=trigger.kind.value
                ).inc()
        for trigger in triggers:
            self._dispatch(trigger)
        return triggers

    def observe_vector(
        self, service_id: str, vector: QoSVector, timestamp: float
    ) -> List[AdaptationTrigger]:
        triggers: List[AdaptationTrigger] = []
        for name, value in vector.items():
            triggers.extend(
                self.observe(QoSObservation(service_id, name, value, timestamp))
            )
        return triggers

    def report_failure(self, service_id: str, timestamp: float) -> AdaptationTrigger:
        """The execution engine reports an outright invocation failure."""
        self._failed[service_id] = timestamp
        if self.obs.enabled:
            self.obs.counter(
                "monitor_triggers_total", kind=TriggerKind.FAILURE.value
            ).inc()
        trigger = AdaptationTrigger(
            kind=TriggerKind.FAILURE,
            service_id=service_id,
            property_name="availability",
            observed=0.0,
            projected=None,
            bound=None,
            timestamp=timestamp,
        )
        self._dispatch(trigger)
        return trigger

    # ------------------------------------------------------------------
    def estimate(self, service_id: str, property_name: str) -> Optional[float]:
        """Current EWMA estimate of a service's property, if observed."""
        by_property = self._series.get(service_id)
        if by_property is None:
            return None
        series = by_property.get(property_name)
        return series.ewma if series is not None else None

    def estimated_row(
        self, service_id: str, fallback: QoSVector, names: Sequence[str]
    ) -> Tuple[Optional[float], ...]:
        """The service's run-time QoS estimate over ``names``, in order.

        Each value is the EWMA estimate where the property was observed
        and ``fallback``'s (advertised) value otherwise; None where
        ``fallback`` has no value, even when an estimate exists.
        """
        by_property = self._series.get(service_id, {})
        row = []
        for name in names:
            value = fallback.get(name)
            if value is not None:
                series = by_property.get(name)
                if series is not None and series.ewma is not None:
                    value = series.ewma
            row.append(value)
        return tuple(row)

    def estimated_vector(
        self, service_id: str, fallback: QoSVector
    ) -> QoSVector:
        """The service's run-time QoS estimate, falling back to advertised
        values for properties never observed."""
        names = tuple(fallback)
        row = self.estimated_row(service_id, fallback, names)
        return QoSVector(dict(zip(names, row)), fallback.properties())

    def projected(self, service_id: str, property_name: str) -> Optional[float]:
        """Short-horizon forecast under the configured method."""
        series = self._series.get(service_id, {}).get(property_name)
        if series is None or series.ewma is None:
            return None
        if len(series.values) < self.config.min_samples_for_forecast:
            return None
        if self.config.method is ForecastMethod.LINEAR:
            return self._linear_projection(series)
        return series.ewma + self.config.trend_gain * series.trend()

    def _linear_projection(self, series: _Series) -> float:
        """Least-squares extrapolation ``horizon`` steps past the window."""
        values = list(series.values)
        n = len(values)
        xs = range(n)
        mean_x = (n - 1) / 2.0
        mean_y = sum(values) / n
        denominator = sum((x - mean_x) ** 2 for x in xs)
        if denominator == 0:
            return values[-1]
        slope = sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, values)
        ) / denominator
        intercept = mean_y - slope * mean_x
        return intercept + slope * (n - 1 + self.config.horizon)

    # ------------------------------------------------------------------
    def _evaluate(
        self, observation: QoSObservation, series: _Series
    ) -> List[AdaptationTrigger]:
        constraints = self._watches.get(observation.service_id, ())
        triggers: List[AdaptationTrigger] = []
        for constraint in constraints:
            if constraint.property_name != observation.property_name:
                continue
            if not constraint.satisfied_by(observation.value):
                triggers.append(
                    AdaptationTrigger(
                        kind=TriggerKind.VIOLATION,
                        service_id=observation.service_id,
                        property_name=observation.property_name,
                        observed=observation.value,
                        projected=None,
                        bound=constraint.bound,
                        timestamp=observation.timestamp,
                    )
                )
                continue
            forecast = self.projected(
                observation.service_id, observation.property_name
            )
            if forecast is not None and not constraint.satisfied_by(forecast):
                triggers.append(
                    AdaptationTrigger(
                        kind=TriggerKind.FORECAST,
                        service_id=observation.service_id,
                        property_name=observation.property_name,
                        observed=observation.value,
                        projected=forecast,
                        bound=constraint.bound,
                        timestamp=observation.timestamp,
                    )
                )
        return triggers

    def _dispatch(self, trigger: AdaptationTrigger) -> None:
        for listener in list(self._listeners):
            listener(trigger)
