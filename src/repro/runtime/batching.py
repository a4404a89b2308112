"""Single-flight memo: compute each lookup once across co-arriving requests.

Requests that arrive together mostly ask for the same work (the paper's
scenarios are task templates shared across users), and both steps of the
request path are pure functions of the registry generation plus their
inputs, so :class:`~repro.runtime.runtime.MiddlewareRuntime` memoises
each step with one :class:`SingleFlight`:

* ``runtime.batcher`` holds discovery pools, keyed
  ``(generation, capability, degree)``;
* ``runtime.coalescer`` holds composed plans, keyed by the generation, the
  request and its selection options, so N identical requests against an
  unchanged world compose once.

Churn invalidates naturally: a new registry generation produces new keys,
and storing its first result drops the older ones.  Within one generation
a memo keeps at most :data:`MEMO_CAPACITY` values, so a long-lived runtime
serving distinct requests in an unchanged world stays bounded.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, Optional, Set

from repro.observability import core as observability_core

#: Most values one memo stores; past it, the oldest stored value goes.
MEMO_CAPACITY = 256


class SingleFlight:
    """A generation-keyed memo that computes each key at most once at a time.

    The rules:

    * The call is :meth:`get` ``(key, compute)``, where ``key[0]`` is the
      registry generation.
    * A hit returns the stored value.  Values are stored untouched, so a
      caller copies what it mutates.
    * A caller whose key is already being computed waits on the memo's one
      :class:`threading.Condition`, then checks again.
    * A failed computation is not stored.  Its exception reaches only the
      caller that computed; the waiters then compute the key themselves,
      again one at a time.
    * Storing a result for a newer generation drops every older entry.  A
      result for a generation older than the newest stored one goes back
      to its caller but is not stored.
    * At most :data:`MEMO_CAPACITY` values are stored; storing one more
      drops the oldest, which computes again on its next lookup.
    * :attr:`lookups` counts calls, :attr:`computed` counts computations
      that returned, and :attr:`coalesced` counts hits plus joins.  The
      observability counters named ``computed_counter`` and
      ``coalesced_counter`` count the same events.
    """

    def __init__(
        self,
        computed_counter: str,
        coalesced_counter: str,
        observability=None,
    ) -> None:
        self.obs = observability_core.resolve(observability)
        self._computed_counter = computed_counter
        self._coalesced_counter = coalesced_counter
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._values: Dict[Hashable, Any] = {}
        self._inflight: Set[Hashable] = set()
        self._generation: Optional[int] = None
        self._lookups = 0
        self._computed = 0
        self._coalesced = 0

    def get(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The value for ``key``, calling ``compute()`` on a miss."""
        with self._changed:
            self._lookups += 1
            while key in self._inflight:
                self._changed.wait()
            hit = key in self._values
            if hit:
                self._coalesced += 1
                value = self._values[key]
            else:
                self._inflight.add(key)
        if hit:
            self.obs.counter(self._coalesced_counter).inc()
            return value
        returned = False
        try:
            value = compute()
            returned = True
        finally:
            with self._changed:
                self._inflight.discard(key)
                if returned:
                    self._computed += 1
                    self._store(key, value)
                self._changed.notify_all()
        self.obs.counter(self._computed_counter).inc()
        return value

    def _store(self, key: Hashable, value: Any) -> None:
        """File ``value`` under ``key`` unless its generation is stale."""
        generation = key[0]
        if self._generation is None or generation > self._generation:
            self._values.clear()
            self._generation = generation
        if generation == self._generation:
            self._values[key] = value
            if len(self._values) > MEMO_CAPACITY:
                del self._values[next(iter(self._values))]

    # ------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        """Calls to :meth:`get`."""
        return self._lookups

    @property
    def computed(self) -> int:
        """Computations that returned a value."""
        return self._computed

    @property
    def coalesced(self) -> int:
        """Calls answered by a stored value or a joined computation."""
        return self._coalesced
