"""Deterministic chaos injection for the concurrent runtime.

PR 3 gave the *service* layer a fault model: seeded
:class:`~repro.resilience.faults.FaultSchedule`\\ s the environment replays
deterministically.  This module extends the same discipline to the
*platform* layer — the worker pool, snapshot manager and commit stage the
runtime itself is built from — so "a worker thread dies mid-request" is as
reproducible as "service X vanishes at t=3.2".

A :class:`ChaosPolicy` consumes the runtime-kind subset of a fault
schedule (``worker_crash`` / ``worker_stall`` / ``snapshot_failure`` /
``commit_delay``) and is consulted by :class:`~repro.runtime.runtime.MiddlewareRuntime`
at four well-defined injection points:

* **worker pickup** — right after a worker dequeues a request: a due
  ``worker_stall`` freezes the worker for the event's ``duration`` (wall
  seconds, capped), a due ``worker_crash`` raises
  :class:`InjectedWorkerCrash` — a ``BaseException`` no pipeline handler
  swallows, so the thread genuinely dies and the supervisor takes over;
* **snapshot acquire** — before composition takes its registry snapshot: a
  due ``snapshot_failure`` raises :class:`InjectedSnapshotFailure`, a
  *transient* fault the runtime requeues under the retry budget;
* **commit** — after a request wins its commit ticket: a due
  ``commit_delay`` stalls the commit stage while holding its turn.

Events fire **at most once**, in schedule order per kind, when the first
matching injection point observes simulated time ``>= at`` — so a chaos
run is a pure function of (schedule, workload, seed) and replaying the
same JSON schedule yields the same injected faults.

The module also hosts the runtime's **invariant checker**
(:func:`verify_runtime_invariants` / :func:`assert_runtime_invariants`):
after any run — chaotic or not — no request may be lost, no commit
duplicated, ticket order must be preserved, and the worker pool must be
back at its configured size.  ``benchmarks/bench_chaos.py`` gates on it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import MiddlewareRuntimeError, RuntimeInvariantError
from repro.observability import NULL_OBSERVABILITY
from repro.observability.events import (
    CHAOS_INJECTED,
    INVARIANT_VIOLATION,
    EventStream,
)
from repro.resilience.faults import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    RUNTIME_KINDS,
)


class InjectedWorkerCrash(BaseException):
    """A chaos-injected worker death.

    Deliberately derives from ``BaseException`` (not ``Exception``) so no
    ``except Exception`` handler anywhere in the pipeline can swallow it:
    the worker thread it is raised on *will* die, exactly like a thread
    hit by an unrecoverable bug, and recovery is the supervisor's job.
    """


class InjectedSnapshotFailure(MiddlewareRuntimeError):
    """A chaos-injected transient failure acquiring a registry snapshot.

    Transient by contract: the runtime requeues the affected request under
    its original admission ticket (budget permitting) instead of failing
    it, modelling a registry replica that answers on the next try.
    """


@dataclass(frozen=True)
class FiredFault:
    """One chaos event that has been injected.

    ``sim_at`` is the simulated-clock reading at the injection point that
    consumed the event (>= the event's scheduled ``at``); ``worker`` is
    the worker index for worker-kind events, ``None`` otherwise.
    """

    event: FaultEvent
    sim_at: float
    worker: Optional[int] = None

    def signature(self) -> Tuple[str, float, str]:
        """Replay-stable identity: (kind, scheduled at, target).

        Excludes ``sim_at``/``worker``, which depend on thread timing.
        """
        return (self.event.kind.value, self.event.at, self.event.target)


class ChaosPolicy:
    """Replayable runtime fault injection driven by a fault schedule.

    Thread-safe: every injection point may be reached from any worker
    concurrently; events are consumed under one lock, in schedule order
    per kind.  ``max_sleep_seconds`` caps stall/commit-delay sleeps so a
    typo in a schedule cannot hang a benchmark.

    Each injection is a ``chaos.injected`` event on :attr:`events`, a
    stream over ``observability`` until a runtime sets its own there.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        clock: Any,
        *,
        observability: Any = NULL_OBSERVABILITY,
        max_sleep_seconds: float = 5.0,
    ) -> None:
        if max_sleep_seconds <= 0:
            raise MiddlewareRuntimeError(
                "chaos max_sleep_seconds must be positive"
            )
        self.clock = clock
        self.events = EventStream(observability)
        self.max_sleep_seconds = float(max_sleep_seconds)
        self._lock = threading.Lock()
        self._pending: Dict[FaultKind, List[FaultEvent]] = {
            kind: [] for kind in RUNTIME_KINDS
        }
        for event in schedule:
            if event.kind in RUNTIME_KINDS:
                self._pending[event.kind].append(event)
        self._fired: List[FiredFault] = []

    @classmethod
    def from_schedule(
        cls, schedule: FaultSchedule, clock: Any, **kwargs: Any
    ) -> Optional["ChaosPolicy"]:
        """A policy for the schedule's runtime events — ``None`` if none."""
        runtime = schedule.runtime_events()
        if not runtime:
            return None
        return cls(runtime, clock, **kwargs)

    # -- injection points ------------------------------------------------
    def on_worker_pickup(self, worker: int) -> None:
        """Consulted by a worker right after it dequeues a request.

        May sleep (``worker_stall``) and may raise
        :class:`InjectedWorkerCrash` (``worker_crash``).
        """
        stall = self._take(FaultKind.WORKER_STALL, worker=worker)
        if stall is not None:
            self._emit(stall)
            time.sleep(min(stall.duration, self.max_sleep_seconds))
        crash = self._take(FaultKind.WORKER_CRASH, worker=worker)
        if crash is not None:
            self._emit(crash)
            raise InjectedWorkerCrash(
                f"chaos: worker {worker} crashed "
                f"(scheduled at t={crash.at:g})"
            )

    def on_snapshot_acquire(self) -> None:
        """Consulted before composition acquires its registry snapshot."""
        event = self._take(FaultKind.SNAPSHOT_FAILURE)
        if event is not None:
            self._emit(event)
            raise InjectedSnapshotFailure(
                f"chaos: snapshot refresh failed (scheduled at "
                f"t={event.at:g})"
            )

    def on_commit(self, ticket: int) -> None:
        """Consulted after a request wins its commit ticket."""
        event = self._take(FaultKind.COMMIT_DELAY)
        if event is not None:
            self._emit(event)
            time.sleep(min(event.duration, self.max_sleep_seconds))

    # -- introspection ---------------------------------------------------
    @property
    def fired(self) -> Tuple[FiredFault, ...]:
        """Events injected so far, in injection order."""
        with self._lock:
            return tuple(self._fired)

    @property
    def pending(self) -> Tuple[FaultEvent, ...]:
        """Events not yet injected, ordered by scheduled time."""
        with self._lock:
            remaining = [e for events in self._pending.values()
                         for e in events]
        return tuple(sorted(remaining, key=lambda e: e.at))

    def report(self) -> Dict[str, Any]:
        """A replay-stable summary: fired signatures + pending count."""
        with self._lock:
            fired = list(self._fired)
            pending = sum(len(v) for v in self._pending.values())
        return {
            "fired": sorted(f.signature() for f in fired),
            "pending": pending,
        }

    # -- internals -------------------------------------------------------
    def _take(
        self, kind: FaultKind, worker: Optional[int] = None
    ) -> Optional[FaultEvent]:
        with self._lock:
            now = self.clock.now()
            events = self._pending[kind]
            for index, event in enumerate(events):
                if event.at > now:
                    continue
                if not self._matches(event, worker):
                    continue
                del events[index]
                self._fired.append(FiredFault(event, now, worker))
                return event
        return None

    @staticmethod
    def _matches(event: FaultEvent, worker: Optional[int]) -> bool:
        if worker is None or event.target in ("any", "*"):
            return True
        return event.target == f"worker-{worker}"

    def _emit(self, event: FaultEvent) -> None:
        self.events.emit(
            CHAOS_INJECTED, kind=event.kind.value, target=event.target,
            scheduled_at=event.at,
        )

    def __repr__(self) -> str:
        with self._lock:
            pending = sum(len(v) for v in self._pending.values())
            fired = len(self._fired)
        return f"ChaosPolicy(fired={fired}, pending={pending})"


# ----------------------------------------------------------------------
# invariant checking
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InvariantReport:
    """The outcome of one runtime invariant sweep.

    ``violations`` is empty when every invariant held.  The counts give
    the checker's evidence base: how many handles were inspected, how many
    commits the runtime logged, how many requeues/restarts the fault
    machinery performed, and how many workers are alive.
    """

    handles: int
    committed: int
    requeued: int
    restarts: int
    alive_workers: int
    expected_workers: int
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether every invariant held."""
        return not self.violations

    def emit(self, events: EventStream) -> None:
        """Emit this sweep's ``invariant.violation`` on a runtime's
        stream (a ring entry and an ``invariant_violation`` bundle)."""
        events.emit(
            INVARIANT_VIOLATION, violations=list(self.violations),
            handles=self.handles, committed=self.committed,
        )


def verify_runtime_invariants(
    runtime: Any, handles: Sequence[Any]
) -> InvariantReport:
    """Check the runtime's safety invariants after a (chaotic) run.

    1. **No request lost** — every submitted handle reached a terminal
       state; ``result()`` can never block forever.
    2. **No commit duplicated** — no admission ticket, and no handle,
       committed more than once (a requeued request re-executes at most
       once).
    3. **Ticket order preserved** — the commit log is strictly increasing
       in ticket order, so pooled==serial byte-identity survives crashes.
    4. **No ticket leaked** — every terminal handle released its ticket.
    5. **Pool restored** — the supervisor brought the worker pool back to
       ``config.workers`` threads (checked on a running runtime only).
    """
    violations: List[str] = []
    lost = [h for h in handles if not h.done()]
    if lost:
        violations.append(
            f"{len(lost)} request(s) lost (non-terminal handles): "
            f"{[repr(h) for h in lost[:5]]}"
        )
    log = runtime.commit_log
    tickets = [ticket for ticket, _ in log]
    seqs = [seq for _, seq in log]
    if len(set(tickets)) != len(tickets):
        violations.append(f"duplicate ticket committed: {tickets}")
    if len(set(seqs)) != len(seqs):
        violations.append(f"request committed more than once: {seqs}")
    if tickets != sorted(tickets):
        violations.append(f"commits out of ticket order: {tickets}")
    if runtime.open_tickets:
        violations.append(
            f"{runtime.open_tickets} commit ticket(s) leaked by terminal "
            "requests"
        )
    expected = runtime.config.workers
    alive = runtime.alive_workers
    running = runtime.running
    if running and alive != expected:
        # Supervision is asynchronous: a crash on the last in-flight
        # request can land this check in the gap between the worker's
        # death and the supervisor's respawn.  Restoration only has to
        # *happen*, not to have happened already, so poll briefly before
        # calling the pool unrestored.
        deadline = time.monotonic() + 2.0
        while alive != expected and time.monotonic() < deadline:
            time.sleep(0.01)
            alive = runtime.alive_workers
    if running and alive != expected:
        violations.append(
            f"worker pool not restored: {alive} alive of {expected}"
        )
    restarts = runtime.supervisor.restarts
    requeued = sum(getattr(h, "requeues", 0) for h in handles)
    return InvariantReport(
        handles=len(handles),
        committed=len(log),
        requeued=requeued,
        restarts=restarts,
        alive_workers=alive,
        expected_workers=expected,
        violations=tuple(violations),
    )


def assert_runtime_invariants(
    runtime: Any, handles: Sequence[Any]
) -> InvariantReport:
    """:func:`verify_runtime_invariants`, raising on any violation.

    Before raising, the violation is emitted on the runtime's event stream
    (:meth:`InvariantReport.emit`), so the evidence survives the raised
    exception.
    """
    report = verify_runtime_invariants(runtime, handles)
    if not report.ok:
        report.emit(runtime.events)
        raise RuntimeInvariantError(
            "runtime invariants violated: " + "; ".join(report.violations)
        )
    return report
