"""QoS-aware semantic service discovery (Chapter II §3).

Discovery matches a *required activity* against the registry along two axes:

1. **Functional matching** — the required capability concept vs the offered
   one, graded with :class:`repro.semantics.MatchDegree`.  Semantic matching
   (through a task ontology) widens the candidate spectrum compared with
   syntactic lookup: a request for ``task:Payment`` is satisfied by a
   ``task:CardPayment`` service (PLUGIN).  IOPE compatibility is checked when
   the query specifies inputs/outputs.
2. **QoS filtering** — *local* QoS constraints attached to the query prune
   candidates whose advertised QoS already violates them (global constraints
   are the selection algorithm's job, not discovery's).

Results are ranked by (match degree, QoS utility-free score) so callers can
truncate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.errors import DiscoveryError
from repro.observability import core as observability_core
from repro.semantics.matching import MatchCache, MatchDegree
from repro.semantics.ontology import Ontology
from repro.services.description import ServiceDescription
from repro.services.registry import RegistrySnapshot, ServiceRegistry


#: Candidate-pool-size buckets for the discovery histogram (counts, not
#: seconds — the shared default buckets are latency-shaped).
_POOL_BUCKETS = (0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)


@dataclass(frozen=True)
class QoSConstraint:
    """A bound on one QoS property: ``response_time <= 500`` etc.

    ``operator`` is ``"<="`` or ``">="``; values are in the property's
    canonical unit.  See :mod:`repro.composition.request` for the
    user-request-level (global) constraints, which reuse this class.
    """

    property_name: str
    operator: str
    bound: float

    def __post_init__(self) -> None:
        if self.operator not in ("<=", ">="):
            raise DiscoveryError(
                f"unsupported constraint operator {self.operator!r}"
            )

    def satisfied_by(self, value: float) -> bool:
        if self.operator == "<=":
            return value <= self.bound
        return value >= self.bound

    def slack(self, value: float) -> float:
        """Signed margin to the bound; positive means satisfied with room."""
        if self.operator == "<=":
            return self.bound - value
        return value - self.bound

    def __str__(self) -> str:
        return f"{self.property_name} {self.operator} {self.bound:g}"


@dataclass(frozen=True)
class DiscoveryQuery:
    """One abstract activity to resolve against the environment."""

    capability: str
    inputs: FrozenSet[str] = frozenset()
    outputs: FrozenSet[str] = frozenset()
    local_constraints: Tuple[QoSConstraint, ...] = ()
    minimum_degree: MatchDegree = MatchDegree.PLUGIN


@dataclass(frozen=True)
class DiscoveryMatch:
    """One discovery result: the service plus how well it matched."""

    service: ServiceDescription
    degree: MatchDegree


class QoSAwareDiscovery:
    """Semantic, QoS-filtered discovery over a :class:`ServiceRegistry`.

    ``task_ontology`` holds the capability/IOPE concepts.  When it is
    ``None``, matching degrades gracefully to syntactic equality (degree
    EXACT or FAIL), which is what a legacy UDDI-style directory would do.
    ``registry`` is the directory a query searches unless the call names
    another one, such as a :class:`RegistrySnapshot`; it may be None when
    every call does.
    """

    def __init__(
        self,
        registry: Optional[ServiceRegistry],
        task_ontology: Optional[Ontology] = None,
        observability=None,
        match_cache: Optional[MatchCache] = None,
    ) -> None:
        self.registry = registry
        self.ontology = task_ontology
        #: Memoised concept grading, shared with translation/adaptation when
        #: the caller passes one in.  Ontology mutations flush it through the
        #: ``Ontology.invalidate_caches`` generation counter.
        self.match_cache: Optional[MatchCache] = None
        if task_ontology is not None:
            self.match_cache = (
                match_cache
                if match_cache is not None
                else MatchCache(task_ontology)
            )
        self.obs = observability_core.resolve(observability)

    # ------------------------------------------------------------------
    def discover(
        self,
        query: DiscoveryQuery,
        registry: Optional[RegistrySnapshot] = None,
    ) -> List[DiscoveryMatch]:
        """All services of ``registry`` (default: the discovery's own)
        satisfying the query, best matches first."""
        cache = self.match_cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        matches: List[DiscoveryMatch] = []
        examined = 0
        for service in self._candidate_pool(
            query, self.registry if registry is None else registry
        ):
            examined += 1
            degree = self._functional_degree(query.capability, service.capability)
            if degree < query.minimum_degree:
                continue
            if not self._iope_compatible(query, service):
                continue
            if not self._qos_admissible(query, service):
                continue
            matches.append(DiscoveryMatch(service, degree))
        matches.sort(key=lambda m: (-m.degree, m.service.name, m.service.service_id))
        obs = self.obs
        if obs.enabled:
            obs.counter("discovery_queries_total").inc()
            obs.counter("discovery_services_examined_total").inc(examined)
            obs.histogram(
                "discovery_pool_size", buckets=_POOL_BUCKETS
            ).observe(len(matches))
            if cache is not None:
                obs.counter("semantic_match_cache_hits_total").inc(
                    cache.hits - hits_before
                )
                obs.counter("semantic_match_cache_misses_total").inc(
                    cache.misses - misses_before
                )
        return matches

    def candidates(
        self,
        query: DiscoveryQuery,
        registry: Optional[RegistrySnapshot] = None,
    ) -> List[ServiceDescription]:
        """Just the services, best matches first (selection entry point)."""
        return [m.service for m in self.discover(query, registry)]

    # ------------------------------------------------------------------
    def _candidate_pool(
        self, query: DiscoveryQuery, registry
    ) -> List[ServiceDescription]:
        """Services whose *capability concept* can satisfy the query.

        Grades each distinct advertised capability once (memoised across
        queries by the match cache) and expands the survivors through the
        registry's capability index, instead of re-grading every advertised
        service per activity.  With ``minimum_degree == FAIL`` everything
        passes, which degrades to the old full scan.
        """
        pool: List[ServiceDescription] = []
        for capability in sorted(registry.capabilities()):
            degree = self._functional_degree(query.capability, capability)
            if degree >= query.minimum_degree:
                pool.extend(registry.by_capability(capability))
        return pool

    def _functional_degree(self, required: str, offered: str) -> MatchDegree:
        if self.ontology is None or not (
            self.ontology.is_class(required) and self.ontology.is_class(offered)
        ):
            return MatchDegree.EXACT if required == offered else MatchDegree.FAIL
        assert self.match_cache is not None
        return self.match_cache.match(required, offered)

    def _iope_compatible(
        self, query: DiscoveryQuery, service: ServiceDescription
    ) -> bool:
        """The service must accept the query's inputs and produce its outputs.

        Each required output must be matched (semantically, PLUGIN or better)
        by some service output; each service *required* input must be
        coverable by the query's provided inputs.  Empty sets impose nothing.
        """
        for required_output in query.outputs:
            if not any(
                self._functional_degree(required_output, offered).satisfies
                for offered in service.outputs
            ):
                return False
        for needed_input in service.inputs:
            if query.inputs and not any(
                self._functional_degree(needed_input, provided).satisfies
                for provided in query.inputs
            ):
                return False
        return True

    @staticmethod
    def _qos_admissible(query: DiscoveryQuery, service: ServiceDescription) -> bool:
        for constraint in query.local_constraints:
            value = service.advertised_qos.get(constraint.property_name)
            if value is None:
                # Advertising nothing for a constrained property is a miss:
                # the middleware cannot assume compliance.
                return False
            if not constraint.satisfied_by(value):
                return False
        return True
