"""Provider reputation from observed behaviour (the Trust QoS category).

The Service QoS ontology's ``sqos:Reputation`` is "the average user rating
of the provider" — but in an open pervasive environment nobody hands out
ratings; the middleware *is* the witness.  This module closes the loop:

* every invocation outcome (success / failure) and every SLA compliance
  check feeds a per-provider Beta-style score:
  ``(successes + prior_successes) / (total + prior_total)``, mapped to the
  ``reputation`` property's 0-5 scale;
* :meth:`ReputationManager.refresh_registry` republishes the providers'
  services with the updated reputation, so the *next* selection round
  naturally favours providers who delivered — no change to the selection
  algorithms required.

The Laplace-style prior keeps one bad observation from destroying a new
provider and one good one from canonising it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.services.registry import ServiceRegistry
from repro.execution.engine import ExecutionReport

#: Scale of the reputation property (matches REPUTATION.value_range).
REPUTATION_SCALE = 5.0


@dataclass
class ProviderRecord:
    """Evidence accumulated about one provider."""

    provider: str
    successes: int = 0
    failures: int = 0
    sla_violations: int = 0

    @property
    def observations(self) -> int:
        return self.successes + self.failures


class ReputationManager:
    """Evidence-based reputation scoring and registry refresh."""

    def __init__(
        self,
        registry: ServiceRegistry,
        prior_successes: float = 3.0,
        prior_total: float = 4.0,
        violation_weight: float = 1.0,
    ) -> None:
        if not 0 < prior_successes <= prior_total:
            raise ValueError("prior must satisfy 0 < successes <= total")
        self.registry = registry
        self.prior_successes = prior_successes
        self.prior_total = prior_total
        self.violation_weight = violation_weight
        self._records: Dict[str, ProviderRecord] = {}

    # ------------------------------------------------------------------
    def record_success(self, provider: str, count: int = 1) -> None:
        self._record(provider).successes += count

    def record_failure(self, provider: str, count: int = 1) -> None:
        self._record(provider).failures += count

    def record_sla_violation(self, provider: str, count: int = 1) -> None:
        self._record(provider).sla_violations += count

    def ingest_report(self, report: ExecutionReport) -> None:
        """Digest an execution trace: one success/failure per invocation.

        Providers are resolved through the registry; invocations of
        services that already left the environment still count against
        their provider if the id is known, and are skipped otherwise.
        """
        for record in report.invocations:
            service = self.registry.get(record.service_id)
            if service is None:
                continue
            if record.succeeded:
                self.record_success(service.provider)
            else:
                self.record_failure(service.provider)

    # ------------------------------------------------------------------
    def score(self, provider: str) -> float:
        """Current reputation of a provider on the 0-5 scale.

        Beta-mean with priors; SLA violations weigh in as fractional
        failures (an unreliable-but-up provider is still a bad citizen).
        """
        record = self._records.get(provider)
        if record is None:
            return (
                self.prior_successes / self.prior_total
            ) * REPUTATION_SCALE
        effective_failures = (
            record.failures + self.violation_weight * record.sla_violations
        )
        total = record.successes + effective_failures + self.prior_total
        positive = record.successes + self.prior_successes
        return max(0.0, min(1.0, positive / total)) * REPUTATION_SCALE

    def record_of(self, provider: str) -> Optional[ProviderRecord]:
        return self._records.get(provider)

    def providers(self) -> List[str]:
        return sorted(self._records)

    # ------------------------------------------------------------------
    def refresh_registry(self) -> int:
        """Republish every known provider's services with updated
        reputation; returns how many services were refreshed."""
        refreshed = 0
        for service in self.registry.services():
            if "reputation" not in service.advertised_qos:
                continue
            if service.provider not in self._records:
                continue
            new_score = self.score(service.provider)
            if abs(service.advertised_qos["reputation"] - new_score) < 1e-9:
                continue
            self.registry.publish(
                service.with_qos(
                    service.advertised_qos.replace("reputation", new_score)
                )
            )
            refreshed += 1
        return refreshed

    def _record(self, provider: str) -> ProviderRecord:
        record = self._records.get(provider)
        if record is None:
            record = ProviderRecord(provider)
            self._records[provider] = record
        return record
