"""Copy-on-write snapshot isolation over the live service registry.

Concurrent requests must each see a *consistent* world: a selection that
starts with five candidates for an activity must not watch two of them
vanish mid-phase because churn fired on another thread.  The
:class:`SnapshotManager` provides that isolation the same way the PR-4
caches do — a **generation counter**: the registry bumps
:attr:`~repro.services.registry.ServiceRegistry.generation` on every
publish/withdraw, and the manager materialises a fresh
:class:`~repro.services.registry.RegistrySnapshot` only when the counter
moved.  Between churn events every in-flight request shares one immutable
snapshot object (copy-on-write, not copy-per-request), so the steady-state
cost is two integer comparisons per acquire.

Discovery also reads the task ontology, so each snapshot is stamped with
the :attr:`~repro.semantics.ontology.Ontology.cache_generation` read when
it was acquired: a request reads that counter once, here, and keys its
discovery pools and its plan on the snapshot's
:attr:`~repro.services.registry.RegistrySnapshot.generations`.  An axiom
restamps the current snapshot without copying the registry.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.semantics.ontology import Ontology
from repro.services.registry import RegistrySnapshot, ServiceRegistry


class SnapshotManager:
    """Hands out generation-consistent registry snapshots, lazily refreshed.

    ``acquire()`` is safe to call from any thread; the snapshot it returns
    is immutable and may be read without locking for as long as the caller
    likes (it simply describes an older generation once churn proceeds).
    """

    def __init__(
        self, registry: ServiceRegistry, ontology: Optional[Ontology] = None
    ) -> None:
        self.registry = registry
        self.ontology = ontology
        self._lock = threading.Lock()
        self._current: Optional[RegistrySnapshot] = None
        self._refreshes = 0
        self._acquires = 0

    @property
    def ontology_generation(self) -> int:
        """The task ontology's generation now (0 without an ontology)."""
        ontology = self.ontology
        return 0 if ontology is None else ontology.cache_generation

    def acquire(self) -> RegistrySnapshot:
        """The snapshot for the registry's current generation, stamped
        with the ontology's."""
        self._acquires += 1
        stamp = self.ontology_generation
        current = self._current
        if (
            current is not None
            and current.generation == self.registry.generation
            and current.ontology_generation == stamp
        ):
            return current
        with self._lock:
            current = self._current
            if (
                current is None
                or current.generation != self.registry.generation
            ):
                current = self.registry.snapshot()
                self._refreshes += 1
            if current.ontology_generation != stamp:
                current = current.stamped(stamp)
            self._current = current
            return current

    @property
    def refreshes(self) -> int:
        """How many times churn forced a fresh copy."""
        return self._refreshes

    @property
    def acquires(self) -> int:
        """Total ``acquire()`` calls (hit rate = 1 - refreshes/acquires)."""
        return self._acquires

    def invalidate(self) -> None:
        """Drop the cached snapshot (the next acquire re-copies)."""
        with self._lock:
            self._current = None
