"""The service directory of a pervasive environment.

Providers publish :class:`~repro.services.description.ServiceDescription`
entries; the registry indexes them by capability concept and by identifier,
and exposes a small pub/sub hook so the middleware's monitoring and
adaptation frameworks learn about churn (services joining/leaving) — the
paper's environments are dynamic and selection results can be invalidated by
departures.

Two guarantees matter to callers that overlap reads with churn:

* every read accessor (:meth:`~ServiceRegistry.by_capability`,
  :meth:`~ServiceRegistry.capabilities`, :meth:`~ServiceRegistry.services`,
  iteration) returns a **materialised** copy, never a live dict/set view —
  a candidate list held across a churn event stays iterable and stable;
* every mutation bumps :attr:`~ServiceRegistry.generation`, so callers can
  detect churn cheaply and :meth:`~ServiceRegistry.snapshot` can be cached
  copy-on-write (the runtime's snapshot-isolation layer builds on this —
  see :mod:`repro.runtime.snapshot`).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import ServiceDescriptionError
from repro.services.description import ServiceDescription

RegistryListener = Callable[[str, ServiceDescription], None]
#: Events delivered to listeners.
EVENT_PUBLISHED = "published"
EVENT_WITHDRAWN = "withdrawn"
EVENT_UPDATED = "updated"


class RegistrySnapshot:
    """An immutable, materialised view of a registry at one generation.

    Exposes the registry's read surface (:meth:`by_capability`,
    :meth:`capabilities`, :meth:`services`, :meth:`get`, containment,
    iteration) over copied indexes, so discovery can run against it while
    churn proceeds on the live registry — the snapshot never changes.
    Obtain one from :meth:`ServiceRegistry.snapshot`.
    """

    __slots__ = ("generation", "_by_id", "_by_capability")

    def __init__(
        self,
        generation: int,
        by_id: Dict[str, ServiceDescription],
        by_capability: Dict[str, Tuple[str, ...]],
    ) -> None:
        self.generation = generation
        self._by_id = by_id
        self._by_capability = by_capability

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, service_id: str) -> bool:
        return service_id in self._by_id

    def __iter__(self) -> Iterator[ServiceDescription]:
        return iter(list(self._by_id.values()))

    def get(self, service_id: str) -> Optional[ServiceDescription]:
        """The description published under ``service_id``, if any."""
        return self._by_id.get(service_id)

    def by_capability(self, capability: str) -> List[ServiceDescription]:
        """Services advertising exactly this capability at snapshot time."""
        ids = self._by_capability.get(capability, ())
        return [self._by_id[i] for i in ids]

    def capabilities(self) -> Set[str]:
        """Capability concepts with at least one provider at snapshot time."""
        return set(self._by_capability)

    def services(self) -> List[ServiceDescription]:
        """Every service visible in this snapshot."""
        return list(self._by_id.values())

    def __repr__(self) -> str:
        return (
            f"RegistrySnapshot(generation={self.generation}, "
            f"services={len(self._by_id)})"
        )


class ServiceRegistry:
    """An in-memory, capability-indexed service directory."""

    def __init__(self) -> None:
        self._by_id: Dict[str, ServiceDescription] = {}
        self._by_capability: Dict[str, Set[str]] = {}
        self._listeners: List[RegistryListener] = []
        self._generation = 0
        #: Serialises writers and snapshots: a write mutates both indexes
        #: and the generation, and a snapshot must see all of it or none.
        self._lock = threading.Lock()

    @property
    def generation(self) -> int:
        """Monotonic mutation counter: bumped by every publish/withdraw.

        Equal generations imply identical directory contents, so callers
        (snapshot managers, the runtime's memos) can cache derived state
        keyed by generation and invalidate on change.
        """
        return self._generation

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, service_id: str) -> bool:
        return service_id in self._by_id

    def __iter__(self) -> Iterator[ServiceDescription]:
        return iter(list(self._by_id.values()))

    # ------------------------------------------------------------------
    def publish(self, service: ServiceDescription) -> ServiceDescription:
        """Add a service to the directory.

        Re-publishing the same ``service_id`` replaces the previous entry and
        fires an ``updated`` event (providers refresh their advertised QoS
        this way).
        """
        with self._lock:
            previous = self._by_id.get(service.service_id)
            if previous is not None:
                self._unindex(previous)
            self._by_id[service.service_id] = service
            self._by_capability.setdefault(service.capability, set()).add(
                service.service_id
            )
            self._generation += 1
        self._notify(EVENT_UPDATED if previous else EVENT_PUBLISHED, service)
        return service

    def publish_all(self, services: Iterable[ServiceDescription]) -> None:
        for service in services:
            self.publish(service)

    def withdraw(self, service_id: str) -> ServiceDescription:
        """Remove a service (provider left the environment)."""
        with self._lock:
            try:
                service = self._by_id.pop(service_id)
            except KeyError:
                raise ServiceDescriptionError(
                    f"cannot withdraw unknown service {service_id!r}"
                ) from None
            self._unindex(service, drop_id=False)
            self._generation += 1
        self._notify(EVENT_WITHDRAWN, service)
        return service

    def get(self, service_id: str) -> Optional[ServiceDescription]:
        return self._by_id.get(service_id)

    def require(self, service_id: str) -> ServiceDescription:
        service = self._by_id.get(service_id)
        if service is None:
            raise ServiceDescriptionError(f"unknown service {service_id!r}")
        return service

    def by_capability(self, capability: str) -> List[ServiceDescription]:
        """All services advertising exactly this capability concept.

        Semantic (subsumption-aware) lookup lives in
        :class:`repro.services.discovery.QoSAwareDiscovery`; the registry
        itself is purely syntactic, as a real directory would be.

        The returned list is a materialised snapshot: the index set is
        copied before expansion, so churn fired mid-call (by a registry
        listener, or another thread) can neither corrupt the iteration nor
        leave the caller holding a half-mutated view.
        """
        ids = tuple(self._by_capability.get(capability, ()))
        by_id = self._by_id
        return [by_id[i] for i in ids if i in by_id]

    def capabilities(self) -> Set[str]:
        """Capability concepts with at least one registered provider
        (materialised — safe to hold across churn)."""
        return {c for c, ids in list(self._by_capability.items()) if ids}

    def services(self) -> List[ServiceDescription]:
        """Every registered service, as a materialised list."""
        return list(self._by_id.values())

    def snapshot(self) -> RegistrySnapshot:
        """A consistent, immutable copy of the whole directory.

        Taken under the writers' lock, so a snapshot never interleaves
        with a concurrent publish or withdraw: every id it indexes
        resolves, and its generation names exactly the copied contents.
        """
        with self._lock:
            by_id = dict(self._by_id)
            by_capability = {
                capability: tuple(ids)
                for capability, ids in self._by_capability.items()
                if ids
            }
            return RegistrySnapshot(self._generation, by_id, by_capability)

    # ------------------------------------------------------------------
    def subscribe(self, listener: RegistryListener) -> Callable[[], None]:
        """Register a churn listener; returns an unsubscribe callable."""
        self._listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return unsubscribe

    def _notify(self, event: str, service: ServiceDescription) -> None:
        for listener in list(self._listeners):
            listener(event, service)

    def _unindex(self, service: ServiceDescription, drop_id: bool = True) -> None:
        ids = self._by_capability.get(service.capability)
        if ids is not None:
            ids.discard(service.service_id)
            if not ids:
                del self._by_capability[service.capability]
        if drop_id:
            self._by_id.pop(service.service_id, None)
