"""Child-process side of the process execution backend.

A worker process is a tiny request-reply server over one
:mod:`multiprocessing` pipe.  The parent primes it with a
:class:`WorkerContext` (the picklable slice of middleware configuration
composition needs), ships a pickled
:class:`~repro.services.registry.RegistrySnapshot` once per registry
generation, and then sends one ``("compose", RunSpec)`` message per
request.  The child composes with the same :class:`WorkerState` a
thread-backend worker uses — memoised discovery against the snapshot, a
private QASSA selector — and returns the finished
:class:`~repro.composition.selection.CompositionPlan` list, which the
parent rehydrates onto its own service objects (see
:meth:`repro.runtime.backends.ProcessBackend._rehydrate`).

Determinism across the pickle boundary is load-bearing: discovery iterates
capabilities in sorted order and snapshots index candidates as materialised
tuples, so a deserialised snapshot yields byte-identical candidate pools —
and QASSA is a pure function of pools + request — which is what lets the
process backend keep the runtime's pooled==serial plan guarantee.

Messages (all tuples, first element is the kind):

``("context", WorkerContext)``
    Fire-and-forget; must precede any compose.
``("snapshot", RegistrySnapshot)``
    Fire-and-forget; replaces the worker's world view.
``("compose", RunSpec)``
    Request-reply; answered with ``("ok", [CompositionPlan, ...])`` or
    ``("error", exception)`` (``("error_opaque", type_name, message)``
    when the exception itself does not pickle).  A reply that does not
    pickle is answered with the error its send raised.
``("exit",)``
    Clean shutdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import NoCandidateError
from repro.composition.qassa import QASSA, QassaConfig
from repro.composition.aggregation import AggregationApproach
from repro.composition.selection import CandidateSets, CompositionPlan
from repro.composition.selection_cache import SelectionCache
from repro.observability import core as observability_core
from repro.qos.properties import QoSProperty
from repro.runtime.batching import SingleFlight
from repro.semantics.matching import MatchCache, MatchDegree
from repro.semantics.ontology import Ontology
from repro.services.discovery import DiscoveryQuery, QoSAwareDiscovery

#: Observability counters of a discovery-pool memo: computed, coalesced.
POOL_COUNTERS = (
    "runtime_discovery_batched_total",
    "runtime_discovery_coalesced_total",
)


@dataclass(frozen=True)
class WorkerContext:
    """Everything a worker needs to compose, beyond the snapshot.

    Picklable, so the same context that builds a thread-backend worker's
    :class:`WorkerState` primes a worker process.
    """

    properties: Dict[str, QoSProperty]
    aggregation: AggregationApproach
    qassa: QassaConfig
    discovery_minimum_degree: MatchDegree
    ontology: Optional[Ontology]


class WorkerState:
    """One worker's composition machinery: memoised discovery plus a
    private QASSA — the runtime's only discovery + selection path.

    ``pools`` is the :class:`~repro.runtime.batching.SingleFlight` memo of
    discovery pools, keyed ``(generation, capability, degree)``; a miss
    grades concepts through ``match_cache``, so cold lookups for
    different capabilities reuse each other's gradings.  A worker process
    builds one from its :class:`WorkerContext` alone (its own memo and
    match cache, no observability: its ``compose`` span is a no-op); the
    thread backend passes the runtime's shared memo, the middleware's
    match cache, observability and the cross-layer estimator.
    """

    def __init__(
        self,
        context: WorkerContext,
        *,
        pools: Optional[SingleFlight] = None,
        match_cache: Optional[MatchCache] = None,
        observability=None,
        estimator=None,
    ) -> None:
        self.context = context
        self.obs = observability_core.resolve(observability)
        if pools is None:
            pools = SingleFlight(*POOL_COUNTERS)
        if match_cache is None and context.ontology is not None:
            match_cache = MatchCache(context.ontology)
        self.pools = pools
        self.match_cache = match_cache
        self.estimator = estimator
        self.selector = QASSA(
            context.properties,
            context.aggregation,
            context.qassa,
            observability=self.obs,
            cache=SelectionCache(),
        )

    def compose(self, spec, snapshot) -> List[CompositionPlan]:
        """Discover every activity's pool on ``snapshot``, then select
        as the :class:`~repro.runtime.handle.RunSpec` ``spec`` asks."""
        request = spec.request
        pools: Dict[str, list] = {}
        with self.obs.span(
            "compose", task=request.task.name,
            activities=request.task.size(), generation=snapshot.generation,
        ) as span:
            for activity in request.task.activities:
                services = self.candidates(snapshot, activity.capability)
                if self.estimator is not None:
                    services = [
                        self.estimator.estimated_service(s)
                        for s in services
                    ]
                if not services:
                    raise NoCandidateError(activity.name)
                pools[activity.name] = services
            candidates = CandidateSets(request.task, pools)
            if spec.ranked:
                plans = self.selector.select_ranked(
                    request, candidates, k=spec.ranked
                )
            else:
                plans = [
                    self.selector.select(
                        request, candidates, best_effort=spec.best_effort
                    )
                ]
            span.set(utility=plans[0].utility, feasible=plans[0].feasible)
        return plans

    def candidates(self, snapshot, capability: str) -> list:
        """The discovery pool for ``capability`` on ``snapshot``.

        Served from the pool memo; a miss runs semantic discovery on the
        snapshot.  Every caller gets its own list, safe to reorder.
        """
        degree = self.context.discovery_minimum_degree

        def discover():
            discovery = QoSAwareDiscovery(
                snapshot,  # duck-types the registry read surface
                self.context.ontology,
                observability=self.obs,
                match_cache=self.match_cache,
            )
            return discovery.candidates(
                DiscoveryQuery(capability=capability, minimum_degree=degree)
            )

        return list(self.pools.get(
            (snapshot.generation, capability, degree), discover
        ))


def _send_error(conn, exc: Exception) -> None:
    """Reply ``("error", exc)``, degrading to opaque transport.

    ``Connection.send`` pickles the whole message before it writes a
    byte, so a send that raises leaves the stream clean for the next one.
    """
    try:
        conn.send(("error", exc))
    except Exception:  # noqa: BLE001 - any pickle failure degrades
        conn.send(("error_opaque", type(exc).__name__, str(exc)))


def worker_main(conn) -> None:
    """Entry point of a worker process (module-level for spawn pickling)."""
    state: Optional[WorkerState] = None
    snapshot = None
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return  # parent went away; nothing left to serve
            kind = message[0]
            if kind == "context":
                state = WorkerState(message[1])
            elif kind == "snapshot":
                snapshot = message[1]
            elif kind == "compose":
                try:
                    if state is None or snapshot is None:
                        raise RuntimeError("compose before context/snapshot")
                    conn.send(("ok", state.compose(message[1], snapshot)))
                except Exception as exc:  # noqa: BLE001 - shipped to parent
                    _send_error(conn, exc)
            elif kind == "exit":
                return
    finally:
        conn.close()
