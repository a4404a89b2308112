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
  stage: normaliser, pool bounds, kept and pruned pool positions with their
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
  reads them.  :meth:`lookup` and :meth:`store` take the hashable context;
  within one context, cached results are byte-equal to recomputed ones
  because the stage is deterministic (seeded k-means, stable sorts).
* Churn keeps returning a pool to states it held before: a provider
  leaves, then rejoins.  So each ``(activity, context)`` keeps up to
  :data:`STATES_PER_POOL` pool states, most recent first, and a lookup
  compares its fingerprint with each by ``==`` (equal tuples of the same
  service objects compare by identity; hashing one would sort every
  ``QoSVector``'s items).  Contexts live side by side, so requests over
  other relevant properties do not flush each other.  At most
  :data:`CAPACITY` pool states are kept in all, the oldest states of the
  least recently used key dropped first: a state holds a normalised point
  per candidate, so the memory the cache can hold is :data:`CAPACITY`
  times its largest pool's state.
* Every method holds the cache's lock, so a middleware's serial submits
  and its thread runtime's workers share one cache whatever their
  contexts.  Substitution does not read it: each plan carries its
  activities' local normalisers
  (:attr:`~repro.composition.selection.SelectedActivity.normalizer`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, List, Optional, Sequence, Tuple

from repro.services.description import ServiceDescription

#: One candidate set's identity: ``(service_id, advertised_qos)`` per
#: service, in pool order.  ``QoSVector`` value-compares, so a provider
#: refreshing its advertised QoS changes the fingerprint.
Fingerprint = Tuple[Tuple[str, Any], ...]

#: Pool states kept per ``(activity, context)``, most recent first
#: (docs/PERFORMANCE.md has the measurements behind the depth).
STATES_PER_POOL = 8
#: Pool states kept in all, a safety limit on memory: the benchmark's
#: workloads use 4 keys of one context (32 states under churn), and 64
#: also fits two contexts under churn.  A state holds a normalised point
#: per candidate, about 0.6 MB on a 1000-service pool.
CAPACITY = 64


class SelectionCache:
    """Per-activity memo of local-phase results across selection runs."""

    def __init__(self) -> None:
        # (activity, context) -> [(fingerprint, payload), ...], most
        # recent state first; the dict runs least recently used key first.
        self._entries: "OrderedDict[Tuple[str, Any], List[Tuple]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Pool states held, over every activity and context."""
        with self._lock:
            return sum(len(states) for states in self._entries.values())

    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(services: Sequence[ServiceDescription]) -> Fingerprint:
        """Identity of a candidate pool for caching purposes."""
        return tuple((s.service_id, s.advertised_qos) for s in services)

    def lookup(
        self, activity_name: str, fingerprint: Fingerprint, context: Any
    ) -> Optional[Any]:
        """The payload stored for ``activity_name`` under ``context`` and
        a pool state equal to ``fingerprint``, else None."""
        key = (activity_name, context)
        with self._lock:
            states = self._entries.get(key)
            if states is not None:
                self._entries.move_to_end(key)
                for position, state in enumerate(states):
                    if state[0] == fingerprint:
                        if position:
                            states.insert(0, states.pop(position))
                        self.hits += 1
                        return state[1]
            self.misses += 1
            return None

    def store(
        self, activity_name: str, fingerprint: Fingerprint, payload: Any,
        context: Any,
    ) -> None:
        """Keep ``payload`` as ``activity_name``'s most recent pool state
        under ``context``, dropping the oldest state past
        :data:`STATES_PER_POOL`, then the least recently used key's oldest
        states while more than :data:`CAPACITY` are held."""
        key = (activity_name, context)
        with self._lock:
            states = self._entries.get(key)
            if states is None:
                states = self._entries[key] = []
            else:
                self._entries.move_to_end(key)
                # Two racing misses store the same state: keep one.
                states[:] = [s for s in states if s[0] != fingerprint]
            states.insert(0, (fingerprint, payload))
            del states[STATES_PER_POOL:]
            # The stored key is the most recent and holds at most
            # STATES_PER_POOL states, so this never drops what it stored.
            held = sum(len(s) for s in self._entries.values())
            while held > CAPACITY:
                oldest_key, oldest = next(iter(self._entries.items()))
                oldest.pop()
                if not oldest:
                    del self._entries[oldest_key]
                held -= 1
