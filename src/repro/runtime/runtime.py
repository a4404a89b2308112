"""The concurrent multi-request runtime: admission, workers, ordered commit.

:class:`MiddlewareRuntime` turns a single-shot :class:`~repro.middleware.qasom.QASOM`
instance into a request broker that admits many
:class:`~repro.composition.request.UserRequest` submissions against one
shared environment:

* **Admission control** — a bounded FIFO queue; submissions beyond
  ``queue_depth`` are rejected immediately
  (:class:`~repro.errors.AdmissionRejectedError`) so overload surfaces as
  backpressure, not unbounded latency.  Per-request deadlines reuse the
  resilience layer's :class:`~repro.resilience.policies.TimeoutPolicy`:
  a request whose deadline lapses while queued is expired, never run.
* **Snapshot isolation** — every composition runs against a
  generation-consistent registry snapshot stamped with the task
  ontology's generation (the middleware's
  :class:`~repro.runtime.snapshot.SnapshotManager`), so churn proceeding
  on the environment can never show a half-mutated world to an in-flight
  selection.
* **Discovery batching & request coalescing** — capability lookups share
  the middleware's one :class:`~repro.runtime.batching.SingleFlight` memo
  of discovery pools (which its serial submits use too), and whole
  composition results for *identical* requests share a second one — the
  throughput win on repeated task templates under the thread backend,
  where the GIL serialises selection.  Both key on the snapshot's
  registry and ontology generations, so an axiom invalidates them as
  churn does.
* **Pluggable execution backends** — the CPU-bound composition step runs
  on an :class:`~repro.runtime.backends.ExecutionBackend`:
  ``backend="thread"`` composes inline on the worker threads,
  ``backend="process"`` dispatches to a pool of worker processes
  recomposing on pickled registry snapshots — genuinely parallel
  selection beyond the GIL, still byte-identical to serial.  Both run the
  same composition code and everything else here on the parent's worker
  threads, so chaos, the flight recorder and forensics work on both.
* **Deterministic ordered commit** — composition is concurrent, but
  executions commit strictly in admission order
  (:class:`~repro.runtime.commit.CommitSequencer`) under the
  environment's shared clock/RNG, so a pooled run produces byte-identical
  plans *and* execution reports to the same workload run serially.
  Selection itself is deterministic per request (a pure function of the
  pools and the request), so concurrency never changes what gets
  composed.

Every request ends through one terminal transition, which also leaves
exactly one terminal flight-recorder event per request.

See ``docs/RUNTIME.md`` for the architecture and tuning guide.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    MiddlewareRuntimeError,
    RuntimeShutdownError,
    WorkerCrashError,
    WorkerProcessCrash,
)
from repro.composition.request import UserRequest
from repro.composition.selection import CompositionPlan
from repro.observability import events as rt_events
from repro.observability.context import TraceContext
from repro.observability.events import NULL_RECORDER, FlightRecorder
from repro.observability.forensics import ForensicReporter
from repro.resilience.policies import TimeoutPolicy
from repro.runtime.admission import build_admission_controller
from repro.runtime.backends import BACKEND_CHOICES, build_backend
from repro.runtime.batching import SingleFlight
from repro.runtime.chaos import ChaosPolicy, InjectedSnapshotFailure
from repro.runtime.commit import CommitSequencer
from repro.runtime.handle import RequestStatus, RunHandle, RunSpec
from repro.runtime.supervisor import RetryBudget, WorkerSupervisor

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.middleware.qasom import QASOM, RunResult


@dataclass(frozen=True, kw_only=True)
class RuntimeConfig:
    """Tuning knobs of the concurrent runtime.

    ``backend`` selects the :class:`~repro.runtime.backends.ExecutionBackend`
    that runs the CPU-bound composition step: ``"thread"`` (inline on the
    worker threads) or ``"process"`` (a pool of worker processes
    recomposing on pickled registry snapshots — parallel selection beyond
    the GIL; cross-layer estimation is unsupported there and raises
    :class:`~repro.errors.UnsupportedBackendFeatureError` at runtime
    construction).  An unknown backend name raises :class:`ValueError`
    listing the valid choices.  ``workers`` bounds the composition pool
    for either backend; ``queue_depth`` bounds the admission queue (beyond
    it, submissions are rejected — backpressure); ``deadline`` is the
    per-request completion budget on the wall clock (the default policy
    has no timeout).

    ``admission`` selects the backpressure policy: ``"static"`` (the
    default — the fixed ``queue_depth`` bound, byte-identical to the
    pre-policy runtime) or ``"adaptive"`` (an
    :class:`~repro.runtime.admission.AdaptiveAdmissionController` that
    tightens the effective depth under load via Little's law, keeping the
    expected admission wait under ``admission_target_delay_ms``; λ and W
    are measured over ``admission_window_seconds`` on the simulated
    clock, and the depth never drops below ``admission_min_depth``).
    """

    backend: str = "thread"
    workers: int = 4
    queue_depth: int = 64
    deadline: TimeoutPolicy = field(default_factory=TimeoutPolicy)
    admission: str = "static"
    admission_target_delay_ms: float = 250.0
    admission_window_seconds: float = 5.0
    admission_min_depth: int = 1
    #: Fault-domain knobs: ``max_requeues`` bounds how often one request may
    #: be re-admitted after a worker crash / transient runtime fault;
    #: the ``retry_budget_*`` trio parameterises the token bucket that caps
    #: the fraction of traffic that may be requeue work (each admission
    #: deposits ``ratio`` tokens up to ``cap``; each requeue spends one);
    #: ``close_join_seconds`` bounds how long :meth:`MiddlewareRuntime.close`
    #: waits for each worker before declaring it leaked.
    max_requeues: int = 2
    retry_budget_ratio: float = 0.1
    retry_budget_initial: float = 4.0
    retry_budget_cap: float = 32.0
    close_join_seconds: float = 30.0
    #: Causal forensics: ``flight_recorder`` attaches a
    #: :class:`~repro.observability.events.FlightRecorder` whose ring the
    #: runtime stamps with every lifecycle event (admission, pickup,
    #: chaos, crash, requeue, commit, expiry).  ``forensics_dir`` makes
    #: anomaly triggers (worker crash, invariant violation, SLO breach)
    #: dump JSON bundles there — and, when set without an explicit
    #: recorder, implies a default-capacity one.  Both work on either
    #: backend: every event is recorded on the parent's worker threads.
    flight_recorder: Optional[FlightRecorder] = None
    forensics_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown execution backend {self.backend!r}; "
                f"valid choices: {', '.join(BACKEND_CHOICES)}"
            )
        if self.workers < 1:
            raise MiddlewareRuntimeError("runtime needs at least one worker")
        if self.queue_depth < 1:
            raise MiddlewareRuntimeError("queue depth must be >= 1")
        if self.admission not in ("static", "adaptive"):
            raise MiddlewareRuntimeError(
                f"unknown admission policy {self.admission!r}; "
                "expected 'static' or 'adaptive'"
            )
        if self.admission_target_delay_ms <= 0:
            raise MiddlewareRuntimeError(
                "admission target delay must be positive"
            )
        if self.admission_window_seconds <= 0:
            raise MiddlewareRuntimeError(
                "admission measurement window must be positive"
            )
        if not 1 <= self.admission_min_depth <= self.queue_depth:
            raise MiddlewareRuntimeError(
                "admission_min_depth must satisfy "
                "1 <= min_depth <= queue_depth"
            )
        if self.max_requeues < 0:
            raise MiddlewareRuntimeError("max_requeues must be >= 0")
        if not 0.0 <= self.retry_budget_ratio <= 1.0:
            raise MiddlewareRuntimeError(
                "retry_budget_ratio must be in [0, 1]"
            )
        if self.retry_budget_initial < 0 or self.retry_budget_cap < 0:
            raise MiddlewareRuntimeError(
                "retry budget initial/cap must be >= 0"
            )
        if self.retry_budget_cap < self.retry_budget_initial:
            raise MiddlewareRuntimeError(
                "retry_budget_cap must be >= retry_budget_initial"
            )
        if self.close_join_seconds <= 0:
            raise MiddlewareRuntimeError(
                "close_join_seconds must be positive"
            )


#: The event each terminal status emits (its counter: ``EFFECTS``).
_TERMINAL = {
    RequestStatus.DONE: rt_events.REQUEST_DONE,
    RequestStatus.FAILED: rt_events.REQUEST_FAILED,
    RequestStatus.EXPIRED: rt_events.DEADLINE_EXPIRED,
    RequestStatus.REJECTED: rt_events.ADMISSION_REJECT,
    RequestStatus.CANCELLED: rt_events.REQUEST_CANCELLED,
}


class MiddlewareRuntime:
    """A bounded worker pool brokering requests for one QASOM instance.

    Usable as a context manager::

        with MiddlewareRuntime(middleware, RuntimeConfig(workers=8)) as rt:
            handles = [rt.submit(r) for r in requests]
            results = [h.result() for h in handles]
    """

    def __init__(
        self,
        middleware: QASOM,
        config: Optional[RuntimeConfig] = None,
        *,
        autostart: bool = True,
        chaos: Optional[ChaosPolicy] = None,
    ) -> None:
        self.middleware = middleware
        self.config = config if config is not None else RuntimeConfig()
        self.autostart = autostart
        self.chaos = chaos
        self.observability = middleware.observability
        # The middleware's snapshots and discovery-pool memo, shared with
        # its serial submits; composed plans are keyed by _plan_key.
        self.snapshots = middleware.snapshots
        self.batcher = middleware.worker_state.pools
        self.coalescer = SingleFlight(
            "runtime_plans_computed_total",
            "runtime_plans_coalesced_total",
            observability=self.observability,
        )
        self._clock = middleware.environment.clock

        # Causal forensics: the flight recorder stamps lifecycle events on
        # the shared sim clock; a forensics directory without an explicit
        # recorder implies a default-capacity one.  The reporter is built
        # whenever a recorder is live (bundles stay in memory when no
        # directory is configured).
        recorder = self.config.flight_recorder
        if recorder is None and self.config.forensics_dir is not None:
            recorder = FlightRecorder()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.forensics: Optional[ForensicReporter] = None
        if self.recorder.enabled:
            self.recorder.attach_clock(self._clock)
            self.forensics = ForensicReporter(
                self.recorder,
                observability=self.observability,
                directory=self.config.forensics_dir,
                chaos_report=chaos.report if chaos is not None else None,
            )
        # The one stream of every lifecycle edge: the runtime's, its
        # supervisor's, its admission controller's and its chaos policy's.
        self.events = rt_events.EventStream(
            self.observability, self.recorder, self.forensics
        )
        if chaos is not None:
            chaos.events = self.events

        self.admission = build_admission_controller(self.config, self.events)
        self.supervisor = WorkerSupervisor(self)
        self.retry_budget = RetryBudget(
            ratio=self.config.retry_budget_ratio,
            initial=self.config.retry_budget_initial,
            cap=self.config.retry_budget_cap,
            observability=self.observability,
        )

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: Deque[RunHandle] = deque()
        # Worker slot -> thread; the supervisor replaces a slot in place
        # when it respawns a dead worker.
        self._threads: List[Optional[threading.Thread]] = []
        self._started = False
        self._closed = False
        self._in_flight = 0
        self._idle = threading.Condition(self._lock)
        # Executing submissions take a ticket at admission and execute
        # strictly in ticket order.
        self.commits = CommitSequencer()
        self._requeues = 0

        # Where composition executes: the worker threads themselves
        # (ThreadBackend) or a pool of worker processes the threads
        # dispatch to (ProcessBackend).  Built last — backends may read
        # any of the runtime state above.
        self.backend = build_backend(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MiddlewareRuntime":
        """Spin up the supervised worker pool (idempotent)."""
        with self._lock:
            if self._closed:
                raise RuntimeShutdownError("runtime already closed")
            if self._started:
                return self
            self._started = True
        # Backend first: worker threads may dispatch to it immediately.
        self.backend.start()
        for index in range(self.config.workers):
            self.supervisor.spawn(index)
        return self

    def close(self, drain: bool = True) -> None:
        """Stop the pool: finish the queued work, or cancel it.

        With ``drain=False`` the queued handles end ``CANCELLED`` with
        :class:`~repro.errors.RuntimeShutdownError`.  Workers that fail to
        exit within ``config.close_join_seconds`` each are counted on
        ``runtime_threads_leaked_total``; when draining, leaked workers
        additionally raise
        :class:`~repro.errors.MiddlewareRuntimeError` — a drained close
        promises all work finished, which a wedged worker belies.
        """
        cancelled: List[RunHandle] = []
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not drain:
                cancelled = list(self._queue)
                self._queue.clear()
            # Snapshot under the same lock the supervisor registers new
            # threads under: every spawned thread is either in this list
            # or was refused (post-close), so none can escape the join.
            threads = [t for t in self._threads if t is not None]
            self._work.notify_all()
        for handle in cancelled:
            self._finish(
                handle, RequestStatus.CANCELLED,
                error=RuntimeShutdownError(
                    "runtime shut down before the request was processed"
                ),
            )
            self._crash_bundle(handle)
        for thread in threads:
            thread.join(timeout=self.config.close_join_seconds)
        leaked = [t for t in threads if t.is_alive()]
        self._threads.clear()
        # Backend teardown after the dispatching threads are gone (they
        # hold backend channels while composing) — and before any leak
        # error, so worker processes never outlive a failed close.
        leaked_workers = self.backend.stop(self.config.close_join_seconds)
        if leaked_workers:
            self._counter("runtime_processes_leaked_total").inc(
                leaked_workers
            )
        if leaked:
            self._counter("runtime_threads_leaked_total").inc(len(leaked))
        if drain and (leaked or leaked_workers):
            parts = []
            if leaked:
                names = ", ".join(t.name for t in leaked)
                parts.append(
                    f"{len(leaked)} worker thread(s) still alive "
                    f"{self.config.close_join_seconds:g}s after a draining "
                    f"close: {names}"
                )
            if leaked_workers:
                parts.append(
                    f"{leaked_workers} worker process(es) survived "
                    f"termination"
                )
            raise MiddlewareRuntimeError("; ".join(parts))

    def __enter__(self) -> "MiddlewareRuntime":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # submission surface (mirrors QASOM.submit)
    # ------------------------------------------------------------------
    def submit(
        self,
        request: Optional[UserRequest] = None,
        *,
        plan: Optional[CompositionPlan] = None,
        execute: bool = True,
        adapt: bool = True,
        ranked: int = 0,
        best_effort: bool = False,
        track_sla: bool = False,
    ) -> RunHandle:
        """Admit one request; returns immediately with a :class:`RunHandle`.

        Raises nothing on overload: a rejected submission comes back as a
        handle in ``REJECTED`` state whose accessors raise
        :class:`~repro.errors.AdmissionRejectedError` — callers that fan
        out many submissions inspect failures per handle.
        """
        spec = RunSpec(
            request=request, plan=plan, execute=execute, adapt=adapt,
            ranked=ranked, best_effort=best_effort, track_sla=track_sla,
        )
        handle = RunHandle(spec)
        handle.submitted_sim = self._clock.now()
        if self.observability.enabled or self.recorder.enabled:
            # The request's causal identity, minted exactly once; every
            # span and flight-recorder event it produces carries this id.
            handle.trace_context = TraceContext.mint()
            handle.trace_id = handle.trace_context.trace_id
        self._counter("runtime_submitted_total").inc()
        self.admission.on_arrival(handle.submitted_sim)
        with self._lock:
            if self._closed:
                raise RuntimeShutdownError("runtime is closed")
            if not self.admission.admit(len(self._queue)):
                depth = self.admission.effective_depth()
                self._finish(
                    handle, RequestStatus.REJECTED,
                    error=AdmissionRejectedError(
                        f"admission queue full ({depth} pending)"
                    ),
                    depth=depth,
                )
                return handle
            if spec.execute:
                self.commits.issue(handle.seq)
            self._queue.append(handle)
            self._gauge("runtime_queue_depth").set(len(self._queue))
            self.events.emit(
                rt_events.ADMISSION_ACCEPT, handle.trace_id, seq=handle.seq,
                queued=len(self._queue),
            )
            self._work.notify()
        self.retry_budget.on_admit()
        if self.autostart and not self._started:
            self.start()
        return handle

    def run(self, request: UserRequest, **options) -> RunResult:
        """Submit and block for the full result (stable-API convenience)."""
        return self.submit(request, **options).result()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until the queue is empty and no request is in flight."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._idle:
            while self._queue or self._in_flight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        raise MiddlewareRuntimeError(
                            "runtime did not drain within the timeout"
                        )
                self._idle.wait(remaining)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet picked up."""
        with self._lock:
            return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Requests currently on a worker."""
        with self._lock:
            return self._in_flight

    @property
    def running(self) -> bool:
        """Started and not yet closed."""
        with self._lock:
            return self._started and not self._closed

    @property
    def alive_workers(self) -> int:
        """Worker threads currently alive (the supervised pool size)."""
        with self._lock:
            return sum(
                1 for t in self._threads if t is not None and t.is_alive()
            )

    @property
    def commit_log(self) -> tuple:
        """``(ticket, handle.seq)`` pairs in the order commits happened.

        The invariant checker's raw material: strictly increasing tickets
        with unique seqs mean no commit was duplicated or reordered, even
        across crash-requeue cycles.
        """
        return self.commits.log()

    @property
    def requeued(self) -> int:
        """Crash/fault-orphaned requests successfully re-admitted."""
        with self._lock:
            return self._requeues

    @property
    def open_tickets(self) -> int:
        """Commit tickets not yet released (in-flight executing requests)."""
        return self.commits.open_tickets()

    # ------------------------------------------------------------------
    # worker machinery
    # ------------------------------------------------------------------
    def _worker_loop(self, worker: int = 0) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._work.wait()
                if not self._queue:
                    return  # closed and drained (or cancelled)
                handle = self._queue.popleft()
                self._gauge("runtime_queue_depth").set(len(self._queue))
                self._in_flight += 1
                self._gauge("runtime_in_flight").set(self._in_flight)
            self.events.emit(
                rt_events.WORKER_PICKUP, handle.trace_id, seq=handle.seq,
                worker=worker, attempt=handle.requeues,
            )
            try:
                try:
                    if self.chaos is not None:
                        self.chaos.on_worker_pickup(worker)
                    self._process(handle)
                    if not handle.done():
                        # _process returned without a terminal state — a
                        # bug, but never one the caller should block on.
                        self._requeue_or_fail(
                            handle,
                            MiddlewareRuntimeError(
                                "request processing finished without a "
                                "terminal state"
                            ),
                        )
                except (InjectedSnapshotFailure, WorkerProcessCrash) as exc:
                    # Transient runtime fault (injected, or a worker
                    # process death the backend already absorbed by
                    # respawning): the dispatching thread survives, the
                    # request goes back to the queue (budget permitting).
                    self._requeue_or_fail(handle, exc)
                except BaseException as exc:
                    # This worker is about to die (injected crash, or a
                    # bug that escaped _process).  Salvage its request
                    # *before* the in-flight count drops so drain() can
                    # never observe the orphan as finished work, then let
                    # the supervisor see the death.
                    handle.crashes += 1
                    self.events.emit(
                        rt_events.WORKER_CRASH, handle.trace_id,
                        seq=handle.seq, worker=worker,
                        error=type(exc).__name__,
                    )
                    self._requeue_or_fail(handle, exc)
                    raise
            finally:
                # Deferred crash bundle: by now the attempt's spans have
                # closed (the ``with`` blocks unwound inside _process), so
                # the bundle captures the victim's complete span tree.  It
                # is written before the decrement, so a returned drain()
                # means the bundle is on disk; a bundle that raises must
                # still release the in-flight slot, or drain() never ends.
                try:
                    self._crash_bundle(handle)
                finally:
                    with self._lock:
                        self._in_flight -= 1
                        self._gauge("runtime_in_flight").set(self._in_flight)
                        self._idle.notify_all()

    def _requeue_or_fail(
        self, handle: RunHandle, error: BaseException
    ) -> None:
        """Salvage an orphaned request: re-admit it, or fail it fast.

        Requeueing keeps the *original* admission ticket, so a crashed
        request still commits in its original order (pooled==serial
        byte-identity survives crashes).  It is refused — failing the
        handle instead — when the runtime is closing, the bounded requeue
        count is spent, the :class:`RetryBudget` is empty (the
        metastability guard), or the ticket was already consumed (the
        crash landed mid-commit, where re-execution could duplicate
        environment side effects).
        """
        if handle.done():
            return
        with self._lock:
            closed = self._closed
        retryable = (
            not closed
            and (not handle.spec.execute or self.commits.holds(handle.seq))
            and handle.requeues < self.config.max_requeues
        )
        if retryable and self.retry_budget.try_acquire():
            handle.requeues += 1
            handle._mark_requeued()
            with self._lock:
                # Front of the queue: the request already holds the oldest
                # ticket, so the commit pipeline unblocks fastest this way.
                self._queue.appendleft(handle)
                self._gauge("runtime_queue_depth").set(len(self._queue))
                self._work.notify()
                self._requeues += 1
            self.events.emit(
                rt_events.REQUEST_REQUEUED, handle.trace_id, seq=handle.seq,
                attempt=handle.requeues, error=type(error).__name__,
            )
            return
        if retryable:
            # The retryable conditions held, so the budget was consulted
            # and said no — the metastability guard refusing a requeue.
            self.events.emit(
                rt_events.RETRY_DENIED, handle.trace_id, seq=handle.seq,
                tokens=self.retry_budget.tokens,
            )
        if not isinstance(error, Exception):
            error = WorkerCrashError(
                f"worker crashed while processing this request and it "
                f"could not be requeued: {error}"
            )
        self._finish(handle, RequestStatus.FAILED, error=error)

    def _process(self, handle: RunHandle) -> None:
        """Adopt the request's trace context, then run the pipeline.

        Adoption happens here — *after* the chaos pickup point — so a
        crash-at-pickup attempt contributes no spans to the request's
        trace; the surviving attempt's ``runtime.request`` span is the
        tree's sole root.
        """
        context = handle.trace_context
        if context is None:
            self._process_adopted(handle)
            return
        with self.observability.adopt(context):
            self._process_adopted(handle)

    def _process_adopted(self, handle: RunHandle) -> None:
        spec = handle.spec
        handle._mark_running()
        if self._expire_if_due(handle, "queued"):
            return
        task = spec.plan.task if spec.request is None else spec.request.task
        with self.observability.span(
            "runtime.request", task=task.name, execute=spec.execute,
            attempt=handle.requeues,
        ) as span:
            span.set(queue_ms=round((handle.queue_seconds or 0.0) * 1e3, 3))
            context = handle.trace_context
            span_id = getattr(span, "span_id", None)
            if (
                context is not None
                and span_id is not None
                and context.parent_span_id is None
            ):
                # First attempt: later causal work — the commit stage, a
                # crash-requeued retry on another worker — links under
                # this root span instead of opening a second root.
                handle.trace_context = context.child(span_id)
            try:
                plans = (
                    [spec.plan] if spec.plan is not None
                    else self._compose(spec)
                )
                if not spec.execute:
                    self._finish(handle, RequestStatus.DONE, plans=plans)
                elif not self._expire_if_due(handle, "pre-commit"):
                    result = self._commit(handle, plans[0])
                    if result is not None:  # None: expired at its turn
                        if self.observability.enabled:
                            result.trace = span
                        self._finish(handle, RequestStatus.DONE, result=result)
            except (InjectedSnapshotFailure, WorkerProcessCrash):
                # Transient fault (injected chaos, or a worker process
                # crash) — keep the ticket; the worker loop requeues the
                # request under the retry budget.
                span.set(status="requeued")
                raise
            except Exception as exc:  # noqa: BLE001 - failure lands on handle
                self._finish(handle, RequestStatus.FAILED, error=exc)
            span.set(status=handle.status.value)

    def _compose(self, spec: RunSpec) -> List[CompositionPlan]:
        """Concurrent composition: snapshot + memoised discovery + the
        middleware's selector, with whole-result coalescing across
        identical requests.  Pools and plans are identical to the serial
        path.

        Every caller gets its own plan clones: the memo keeps the composed
        plans pristine, and execution-time substitution mutates plans in
        place."""
        if self.chaos is not None:
            self.chaos.on_snapshot_acquire()
        snapshot = self.snapshots.acquire()
        key = self._plan_key(spec, snapshot.generations)
        if key is None:
            return self.backend.compose(spec, snapshot)
        plans = self.coalescer.get(
            key, lambda: self.backend.compose(spec, snapshot)
        )
        return [plan.clone() for plan in plans]

    def _plan_key(self, spec: RunSpec, generations: Tuple[int, int]):
        """The coalescing key for a request, or ``None`` when uncacheable.

        Composition is a pure function of the snapshot's registry and
        ontology ``generations`` plus the request content and selection
        options — *except* when the cross-layer estimator is on
        (candidate QoS then depends on live device/link state the
        generations do not cover), so those requests always compose fresh.
        """
        if spec.request is None or self.middleware.estimator is not None:
            return None
        request = spec.request
        return (
            generations,
            id(request.task),
            tuple(request.constraints),
            tuple(sorted(request.weights.items())),
            spec.ranked,
            spec.best_effort,
        )

    def _commit(
        self, handle: RunHandle, plan: CompositionPlan
    ) -> Optional[RunResult]:
        """Execute in strict admission order against the live environment.

        Returns ``None`` when the deadline lapsed while the request awaited
        its turn (the handle is then already expired).
        """
        wait_started = time.perf_counter()
        # Once the turn is ours the ticket is consumed: a crash can no
        # longer requeue this request (re-execution would duplicate
        # environment side effects).
        ticket = self.commits.wait_turn(handle.seq)
        commit_wait_ms = (time.perf_counter() - wait_started) * 1e3
        try:
            if self.chaos is not None:
                self.chaos.on_commit(ticket)
            if self._expire_if_due(handle, "commit"):
                return None
            service_started = self._clock.now()
            with self.observability.span(
                "runtime.commit", ticket=ticket,
                commit_wait_ms=round(commit_wait_ms, 3),
            ):
                result = self.middleware._execute_plan(
                    plan, adapt=handle.spec.adapt,
                    track_sla=handle.spec.track_sla,
                )
            service_ended = self._clock.now()
            self.events.emit(
                rt_events.COMMIT, handle.trace_id, seq=handle.seq,
                ticket=ticket, service_seconds=service_ended - service_started,
            )
            self.admission.on_complete(
                service_ended - service_started, service_ended
            )
            return result
        finally:
            self.commits.advance()

    # ------------------------------------------------------------------
    def _expire_if_due(self, handle: RunHandle, stage: str) -> bool:
        """Expire ``handle`` if its deadline lapsed; True when it did."""
        elapsed_ms = (time.perf_counter() - handle.submitted_wall) * 1e3
        if not self.config.deadline.expired(elapsed_ms):
            return False
        self._finish(
            handle, RequestStatus.EXPIRED,
            error=DeadlineExceededError(
                f"deadline of {self.config.deadline.invoke_timeout_ms:g} ms "
                f"elapsed ({stage})"
            ),
            stage=stage,
        )
        return True

    def _finish(
        self,
        handle: RunHandle,
        status: RequestStatus,
        *,
        result: Optional[RunResult] = None,
        plans: Optional[List[CompositionPlan]] = None,
        error: Optional[BaseException] = None,
        **attrs,
    ) -> None:
        """The one terminal transition every request ends through.

        Releases the commit ticket (so later tickets never wait on this
        request), stamps ``finished_sim`` before the handle completes
        (a rejection keeps ``finished_sim == submitted_sim``), completes
        or fails the handle, then emits the status's event
        (:data:`_TERMINAL`).  ``attrs`` are the event's attributes;
        ``request.done`` adds ``requeues`` and ``request.failed`` the
        error's type name.
        """
        self.commits.release(handle.seq)
        handle.finished_sim = (
            handle.submitted_sim if status is RequestStatus.REJECTED
            else self._clock.now()
        )
        if status is RequestStatus.DONE:
            handle._complete(result, plans)
            attrs["requeues"] = handle.requeues
        else:
            handle._fail(error, status)
            if status is RequestStatus.FAILED:
                attrs["error"] = type(error).__name__
        self.events.emit(
            _TERMINAL[status], handle.trace_id, seq=handle.seq, **attrs
        )

    def _crash_bundle(self, handle: RunHandle) -> None:
        """Dump the deferred ``worker_crash`` bundle for a crash survivor.

        Triggered when a crash-victim request reaches a terminal state —
        not at crash time, and only after its spans have closed — so the
        bundle tells the whole story: admission → pickup → crash →
        requeue → (pickup →) commit or failure, plus the request's
        complete single-rooted span tree.  At most one bundle per request.
        """
        if handle.crashes == 0 or self.forensics is None:
            return
        if not handle.done():
            return  # still requeued; bundle at the terminal state instead
        if getattr(handle, "_crash_bundled", False):
            return
        handle._crash_bundled = True
        self.forensics.trigger(
            "worker_crash",
            trace_id=handle.trace_id,
            seq=handle.seq,
            crashes=handle.crashes,
            requeues=handle.requeues,
            status=handle.status.value,
        )

    # ------------------------------------------------------------------
    def _counter(self, name: str):
        return self.observability.counter(name)

    def _gauge(self, name: str):
        return self.observability.gauge(name)
