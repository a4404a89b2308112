"""Incremental re-selection cache for QASSA's local phase.

In a pervasive environment selection runs repeatedly: services churn,
faults trigger substitution, users re-issue requests with their own
weights.  Most of the time the candidate set of *most* activities is
unchanged between two runs — only the activity whose provider
appeared/vanished actually needs its normalisation, Pareto pruning and
clustering redone, and none of those read the user's weights.
:class:`SelectionCache` makes that incremental: it remembers, per activity,
the weight-free part of the local phase keyed by a **fingerprint** of the
candidate set, and a selector asks it before recomputing.

Design notes
------------

* The payload is *opaque* to this module (QASSA stores its weight-free
  stage: normaliser, extremes, kept and pruned candidates with their
  normalised points, k-means clusters) so the cache carries no import
  dependency on the selector — the selector depends on the cache, never
  the reverse.  Payloads are shared by every later run that hits them, so
  the selector treats them as read-only and builds each run's
  ``LocalSelection`` (utilities, levels, reserve order) afresh.
* The fingerprint covers everything the local phase reads from a candidate:
  ``(service_id, advertised QoS vector)`` per service, in pool order.  Any
  publish/withdraw/QoS-refresh of a candidate changes the fingerprint and
  forces a recompute; reordering the pool does too (clustering seeds index
  into pool order, so order is part of the contract).
* Results also depend on the selection *context* — which properties are
  relevant (in the request's order, which the cached normaliser and value
  rows keep) and the k-means seed.  The user's weights and the
  aggregation approach are not part of it: the weight-free stage never
  reads them.  :meth:`lookup` and :meth:`store` take the hashable context:
  a lookup under another context misses, a store under a new one flushes
  the whole cache.  Within one context, cached results are byte-equal to
  recomputed ones because the stage is deterministic (seeded k-means,
  stable sorts).
* Every method holds the cache's lock, so a middleware's serial submits
  and its thread runtime's workers share one cache whatever their
  contexts.  Substitution does not read it: each plan carries its
  activities' local normalisers
  (:attr:`~repro.composition.selection.SelectedActivity.normalizer`).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.services.description import ServiceDescription

#: One candidate set's identity: ``(service_id, advertised_qos)`` per
#: service, in pool order.  ``QoSVector`` is hashable and value-compares,
#: so a provider refreshing its advertised QoS changes the fingerprint.
Fingerprint = Tuple[Tuple[str, Any], ...]


class SelectionCache:
    """Per-activity memo of local-phase results across selection runs."""

    def __init__(self) -> None:
        self._entries: Dict[str, Tuple[Fingerprint, Any]] = {}
        self._context: Optional[Any] = None  # the context of every entry
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(services: Sequence[ServiceDescription]) -> Fingerprint:
        """Identity of a candidate pool for caching purposes."""
        return tuple((s.service_id, s.advertised_qos) for s in services)

    def lookup(
        self, activity_name: str, fingerprint: Fingerprint, context: Any
    ) -> Optional[Any]:
        """The payload stored for ``activity_name`` under ``context`` and
        an unchanged candidate pool, else None."""
        with self._lock:
            entry = self._entries.get(activity_name)
            if context == self._context and entry and entry[0] == fingerprint:
                self.hits += 1
                return entry[1]
            self.misses += 1
            return None

    def store(
        self, activity_name: str, fingerprint: Fingerprint, payload: Any,
        context: Any,
    ) -> None:
        """Keep ``payload`` for ``activity_name``'s pool under ``context``,
        first flushing the entries of any other context: results computed
        under another context (other relevant properties or seed) are not
        comparable, let alone reusable."""
        with self._lock:
            if context != self._context:
                self._entries.clear()
                self._context = context
            self._entries[activity_name] = (fingerprint, payload)
