"""Worker supervision and overload-safe retry budgets.

The worker pool's fault domain: PR 5's runtime assumed worker threads are
immortal — an exception escaping :meth:`MiddlewareRuntime._process`
(or a chaos-injected :class:`~repro.runtime.chaos.InjectedWorkerCrash`)
silently shrank the pool forever and left the dead worker's request
stranded, its ``result()`` blocking indefinitely.  Two pieces fix that:

* :class:`WorkerSupervisor` — every worker thread runs under the
  supervisor's wrapper.  When a worker dies it (1) lets the worker loop
  salvage the in-flight request *first* (requeue under the original
  admission ticket, or fail the handle — never strand it), (2) emits a
  ``worker.restart`` event on the runtime's stream (which counts
  ``runtime_worker_restarts_total`` and opens a
  ``runtime.supervisor.restart`` span), then (3) respawns a fresh thread
  in the dead worker's slot, so the pool always returns to
  ``config.workers`` threads while the runtime is open.

* :class:`RetryBudget` — a token bucket capping the *fraction* of traffic
  that may be retry/requeue work, the classic metastability guard: under
  overload a retry storm amplifies load exactly when capacity is scarcest,
  so requeues are paid for from a budget that only first-time admissions
  refill.  Each admitted request deposits ``ratio`` tokens (capped);
  each requeue spends one.  An empty bucket means the crashed/transiently
  failed request fails fast instead of being retried.

Both are deterministic given a deterministic workload: the budget is
arithmetic over admission/requeue counts (no clocks), and respawning is
confluent — any interleaving of deaths and respawns converges to a full
pool.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import MiddlewareRuntimeError
from repro.observability import NULL_OBSERVABILITY
from repro.observability.events import WORKER_RESTART

if TYPE_CHECKING:  # pragma: no cover - circular import guard, typing only
    from repro.runtime.runtime import MiddlewareRuntime


class RetryBudget:
    """A token bucket bounding requeue/retry work relative to admissions.

    ``ratio`` tokens are deposited per first-time admission (so at most
    ~``ratio`` of sustained traffic can be retries), ``initial`` seeds the
    bucket (tolerating early faults before any deposits), and ``cap``
    bounds the burst of retries a quiet period can bank.  Thread-safe.
    """

    def __init__(
        self,
        *,
        ratio: float = 0.1,
        initial: float = 4.0,
        cap: float = 32.0,
        observability: Any = NULL_OBSERVABILITY,
    ) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise MiddlewareRuntimeError(
                "retry budget ratio must be in [0, 1]"
            )
        if initial < 0 or cap < 0:
            raise MiddlewareRuntimeError(
                "retry budget initial/cap must be >= 0"
            )
        if cap < initial:
            raise MiddlewareRuntimeError(
                "retry budget cap must be >= the initial balance"
            )
        self.ratio = float(ratio)
        self.cap = float(cap)
        self.observability = observability
        self._lock = threading.Lock()
        self._tokens = float(initial)
        self._granted = 0
        self._denied = 0
        self._gauge()

    def on_admit(self) -> None:
        """Deposit for one first-time admission."""
        with self._lock:
            self._tokens = min(self.cap, self._tokens + self.ratio)
        self._gauge()

    def try_acquire(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens for one requeue/retry, if affordable."""
        with self._lock:
            if self._tokens < cost:
                self._denied += 1
                denied = True
            else:
                self._tokens -= cost
                self._granted += 1
                denied = False
        if denied:
            self.observability.counter(
                "runtime_retry_budget_denied_total"
            ).inc()
        self._gauge()
        return not denied

    @property
    def tokens(self) -> float:
        """The current balance."""
        with self._lock:
            return self._tokens

    @property
    def granted(self) -> int:
        """Requeues the budget has paid for."""
        with self._lock:
            return self._granted

    @property
    def denied(self) -> int:
        """Requeues refused for lack of tokens."""
        with self._lock:
            return self._denied

    def _gauge(self) -> None:
        self.observability.gauge("runtime_retry_budget_tokens").set(
            self.tokens
        )

    def __repr__(self) -> str:
        return (
            f"RetryBudget(tokens={self.tokens:.2f}, ratio={self.ratio:g}, "
            f"granted={self.granted}, denied={self.denied})"
        )


class WorkerSupervisor:
    """Detects worker deaths, restores the pool, keeps the restart ledger.

    The supervisor owns thread creation for the runtime: ``spawn(index)``
    registers a worker thread in slot ``index`` (refusing after close, so
    a death racing a shutdown cannot leak an unjoined thread) and the
    wrapper it runs catches *any* escaping exception — including
    ``BaseException``-derived injected crashes — and respawns the slot.
    The in-flight request is salvaged by the worker loop itself before the
    exception reaches the supervisor, so queue/in-flight accounting is
    already consistent by the time the replacement thread starts.
    """

    def __init__(self, runtime: "MiddlewareRuntime") -> None:
        self.runtime = runtime
        self._lock = threading.Lock()
        self._restarts = 0

    def spawn(self, index: int) -> Optional[threading.Thread]:
        """Start a worker thread in slot ``index`` (None if runtime closed).

        Registration and the closed-check are atomic with
        ``MiddlewareRuntime.close``'s thread snapshot, so every spawned
        thread is joined at shutdown.
        """
        runtime = self.runtime
        thread = threading.Thread(
            target=self._run,
            args=(index,),
            name=f"qasom-runtime-{index}",
            daemon=True,
        )
        with runtime._lock:
            if runtime._closed:
                return None
            while len(runtime._threads) <= index:
                runtime._threads.append(None)
            runtime._threads[index] = thread
        thread.start()
        return thread

    @property
    def restarts(self) -> int:
        """Worker deaths handled (each one respawned unless closing)."""
        with self._lock:
            return self._restarts

    # ------------------------------------------------------------------
    def _run(self, index: int) -> None:
        try:
            self.runtime._worker_loop(index)
        except BaseException as exc:  # noqa: BLE001 - supervision boundary
            self._on_worker_death(index, exc)

    def _on_worker_death(self, index: int, error: BaseException) -> None:
        with self._lock:
            self._restarts += 1
        self.runtime.events.emit(
            WORKER_RESTART, worker=index, error=type(error).__name__
        )
        self.spawn(index)

    def __repr__(self) -> str:
        return f"WorkerSupervisor(restarts={self.restarts})"
