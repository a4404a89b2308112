"""Child-process side of the process execution backend.

A worker process is a tiny request-reply server over one
:mod:`multiprocessing` pipe.  The parent primes it with a
:class:`WorkerContext` (the picklable slice of middleware configuration
composition needs, the task ontology included), ships a
:class:`~repro.services.registry.RegistrySnapshot` once per registry
generation, and then sends one ``("compose", RunSpec)`` message per
request.  The child composes with a :class:`WorkerState` of its own —
the class serial submits and thread-backend workers share: memoised
discovery against the snapshot, a QASSA selector, and :func:`compose` —
and returns the finished
:class:`~repro.composition.selection.CompositionPlan` list.

Both ends pickle every message with :func:`dumps` and read it with
:func:`loads`, against the snapshot the two ends share: the one the
parent last shipped to this worker, of which the worker holds its copy.
A :class:`~repro.services.description.ServiceDescription` that snapshot
holds travels as its service id and loads as the receiver's own object.
So a new snapshot carries in full only the services its predecessor did
not hold (new, rejoined or republished ones), and a reply names its
plans' services by id, which load as the parent's own objects.  The
worker's snapshot, and with it every service it kept, survives an
ontology re-prime; a respawned worker starts from none and gets a full
snapshot.

Determinism across the pickle boundary is load-bearing: discovery iterates
capabilities in sorted order and snapshots index candidates as materialised
tuples, so a deserialised snapshot yields byte-identical candidate pools —
and QASSA is a pure function of pools + request — which is what lets the
process backend keep the runtime's pooled==serial plan guarantee.

Messages (all tuples, first element is the kind):

``("context", WorkerContext)``
    Fire-and-forget; must precede any compose.  Sent again when the
    parent's task ontology changed since the last one: the child rebuilds
    its state (pool memo, match cache, selector) on the new ontology and
    keeps its snapshot.
``("snapshot", RegistrySnapshot)``
    Fire-and-forget; replaces the worker's world view.
``("compose", RunSpec)``
    Request-reply; answered with ``("ok", [CompositionPlan, ...])`` or
    ``("error", exception)`` (``("error_opaque", type_name, message)``
    when the exception itself does not pickle).  A reply that does not
    pickle is answered with the error its pickling raised.
``("exit",)``
    Clean shutdown.
"""

from __future__ import annotations

import functools
import io
import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

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
from repro.services.description import ServiceDescription
from repro.services.discovery import DiscoveryQuery, QoSAwareDiscovery
from repro.services.registry import RegistrySnapshot


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


def discover_candidates(task, pool, observability, estimator) -> CandidateSets:
    """Each activity's pool from ``pool(capability)``, which returns
    ``(services, memo_hit)``, under its own ``discovery`` span tagged
    ``memo_hit``; with an ``estimator`` the services advertise their
    estimated effective QoS.  An empty pool raises NoCandidateError."""
    pools: Dict[str, list] = {}
    for activity in task.activities:
        with observability.span(
            "discovery", activity=activity.name,
            capability=activity.capability,
        ) as span:
            services, memo_hit = pool(activity.capability)
            if estimator is not None:
                services = [estimator.estimated_service(s) for s in services]
            span.set(pool_size=len(services), memo_hit=memo_hit)
            if not services:
                raise NoCandidateError(activity.name)
        pools[activity.name] = services
    return CandidateSets(task, pools)


def compose(
    selector, spec, pool, observability, estimator
) -> List[CompositionPlan]:
    """Discover + select under one ``compose`` span, as the ``RunSpec``
    asks: one plan, or up to ``spec.ranked`` feasible ones, best first.

    Serial submits, thread workers and worker processes all compose here
    and differ only in ``pool``.  ``selector.select`` is looked up on
    every call, so a wrapper installed on a live selector sees them all.
    """
    request = spec.request
    with observability.span(
        "compose", task=request.task.name, activities=request.task.size(),
    ) as span:
        candidates = discover_candidates(
            request.task, pool, observability, estimator
        )
        if spec.ranked:
            plans = selector.select_ranked(request, candidates, k=spec.ranked)
        else:
            plans = [selector.select(
                request, candidates, best_effort=spec.best_effort
            )]
        span.set(utility=plans[0].utility, feasible=plans[0].feasible)
    return plans


class WorkerState:
    """The composition machinery of a middleware or of a worker process:
    memoised discovery plus a QASSA selector, composing through
    :func:`compose`.

    ``pools`` is the :class:`~repro.runtime.batching.SingleFlight` memo of
    discovery pools, keyed ``(snapshot.generations, capability, degree)``
    -- the registry and ontology generations, the capability and the
    match degree, everything discovery reads.  A miss runs ``discovery``
    on the snapshot; its match cache lets cold lookups for different
    capabilities reuse each other's gradings.  The selector keeps its
    weight-free local stages in a :class:`SelectionCache`.

    Each middleware builds one on its own discovery, observability and
    cross-layer estimator; serial submits and every worker thread of a
    thread runtime compose on it, so they share one pool memo and one
    selection cache.  A worker process builds one from its
    :class:`WorkerContext` alone: a discovery with no registry of its own
    (each lookup names its snapshot) grading through ``match_cache`` or
    a new one, and no observability, so its spans are no-ops.
    """

    def __init__(
        self,
        context: WorkerContext,
        *,
        discovery: Optional[QoSAwareDiscovery] = None,
        match_cache: Optional[MatchCache] = None,
        observability=None,
        estimator=None,
    ) -> None:
        self.context = context
        self.obs = observability_core.resolve(observability)
        if discovery is None:
            discovery = QoSAwareDiscovery(
                None, context.ontology, observability=self.obs,
                match_cache=match_cache,
            )
        self.discovery = discovery
        self.pools = SingleFlight(
            "runtime_discovery_batched_total",
            "runtime_discovery_coalesced_total",
            observability=self.obs,
        )
        self.estimator = estimator
        self.selector = QASSA(
            context.properties,
            context.aggregation,
            context.qassa,
            observability=self.obs,
            cache=SelectionCache(),
        )

    def compose(
        self, spec, snapshot: RegistrySnapshot
    ) -> List[CompositionPlan]:
        """Compose ``spec`` on ``snapshot``'s memoised discovery pools."""
        return compose(
            self.selector, spec, functools.partial(self.pool, snapshot),
            self.obs, self.estimator,
        )

    def candidates(self, snapshot: RegistrySnapshot, capability: str) -> list:
        """The discovery pool for ``capability`` on ``snapshot``.

        Served from the pool memo; a miss runs semantic discovery on the
        snapshot.  Every caller gets its own list, safe to reorder.
        """
        return self.pool(snapshot, capability)[0]

    def pool(
        self, snapshot: RegistrySnapshot, capability: str
    ) -> Tuple[list, bool]:
        """``(candidates(snapshot, capability), memo_hit)``: ``memo_hit``
        is False when this lookup ran discovery."""
        degree = self.context.discovery_minimum_degree
        services, memo_hit = self.pools.lookup(
            (snapshot.generations, capability, degree),
            lambda: self.discovery.candidates(
                DiscoveryQuery(capability=capability, minimum_degree=degree),
                snapshot,
            ),
        )
        return list(services), memo_hit


class _Pickler(pickle.Pickler):
    """Pickles each service ``snapshot`` holds, that very object, as its
    service id."""

    def __init__(self, file, snapshot) -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.snapshot = snapshot

    def persistent_id(self, obj) -> Optional[str]:
        if (
            isinstance(obj, ServiceDescription)
            and self.snapshot.get(obj.service_id) is obj
        ):
            return obj.service_id
        return None


class _Unpickler(pickle.Unpickler):
    """Loads each service id through ``snapshot``, the receiver's copy of
    the snapshot the message was pickled against."""

    def __init__(self, file, snapshot) -> None:
        super().__init__(file)
        self.snapshot = snapshot

    def persistent_load(self, service_id: str) -> ServiceDescription:
        service = (
            None if self.snapshot is None else self.snapshot.get(service_id)
        )
        if service is None:
            raise pickle.UnpicklingError(
                f"service {service_id!r} is not in the receiver's snapshot"
            )
        return service


def dumps(message: Any, snapshot: Optional[RegistrySnapshot]) -> bytes:
    """``message`` pickled against ``snapshot``: every
    :class:`ServiceDescription` the snapshot holds (the very object, not
    an equal one) travels as its service id, everything else in full.
    With no snapshot, everything travels in full."""
    if snapshot is None:
        return pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    buffer = io.BytesIO()
    _Pickler(buffer, snapshot).dump(message)
    return buffer.getvalue()


def loads(data: bytes, snapshot: Optional[RegistrySnapshot]) -> Any:
    """The message :func:`dumps` pickled against the sender's copy of
    ``snapshot``, its service ids resolved through ``snapshot`` when the
    message names one.  An id ``snapshot`` lacks raises
    :class:`pickle.UnpicklingError`."""
    return _Unpickler(io.BytesIO(data), snapshot).load()


def _send_error(conn, exc: Exception, snapshot) -> None:
    """Reply ``("error", exc)``, degrading to opaque transport.

    A message is pickled whole before its first byte is written, so a
    pickling failure leaves the stream clean for the next one.
    """
    try:
        data = dumps(("error", exc), snapshot)
    except Exception:  # noqa: BLE001 - any pickle failure degrades
        data = dumps(("error_opaque", type(exc).__name__, str(exc)), None)
    conn.send_bytes(data)


def worker_main(conn) -> None:
    """Entry point of a worker process (module-level for spawn pickling)."""
    state: Optional[WorkerState] = None
    snapshot = None
    try:
        while True:
            try:
                message = loads(conn.recv_bytes(), snapshot)
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
                    data = dumps(
                        ("ok", state.compose(message[1], snapshot)), snapshot
                    )
                except Exception as exc:  # noqa: BLE001 - shipped to parent
                    _send_error(conn, exc, snapshot)
                else:
                    conn.send_bytes(data)
            elif kind == "exit":
                return
    finally:
        conn.close()
