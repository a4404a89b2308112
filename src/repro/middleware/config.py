"""Middleware-level configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.composition.aggregation import AggregationApproach
from repro.composition.qassa import QassaConfig
from repro.adaptation.homeomorphism import HomeomorphismConfig
from repro.adaptation.monitoring import MonitorConfig
from repro.observability import ObservabilityConfig
from repro.resilience.policies import ResilienceConfig
from repro.semantics.matching import MatchDegree


@dataclass(frozen=True, kw_only=True)
class MiddlewareConfig:
    """One place to tune the whole QASOM stack.

    The defaults mirror the paper's prototype: pessimistic aggregation (the
    only approach whose results are *guaranteed* bounds), PLUGIN-or-better
    semantic matching, proactive monitoring on.

    Construction is keyword-only: a dozen positional booleans/enums would
    be unreadable and unorderable at call sites, and keyword-only fields
    let this dataclass grow without breaking existing callers.
    """

    aggregation: AggregationApproach = AggregationApproach.PESSIMISTIC
    qassa: QassaConfig = field(default_factory=QassaConfig)
    homeomorphism: HomeomorphismConfig = field(default_factory=HomeomorphismConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    discovery_minimum_degree: MatchDegree = MatchDegree.PLUGIN
    #: When on, discovery corrects advertised QoS with cross-layer estimates
    #: from the live infrastructure state (device load/battery, link
    #: latency/loss) before selection sees the candidates — the operational
    #: form of Ch. III's end-to-end dependencies.
    infrastructure_aware: bool = False
    max_execution_attempts: int = 3
    seed: int = 0
    #: Tracing + metrics for every component the middleware constructs
    #: (off by default — the disabled path is near-zero cost).  See
    #: ``docs/OBSERVABILITY.md``.
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )
    #: Retry/timeout/backoff policies, per-service circuit breakers and
    #: graceful degradation for composition execution (off by default —
    #: the fault-free hot path is unchanged).  See ``docs/RESILIENCE.md``.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
