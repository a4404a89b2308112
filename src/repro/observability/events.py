"""Flight recorder: a bounded ring buffer of structured runtime events.

Spans answer "how long did each stage take"; the flight recorder answers
"what *happened*, in what order, across all requests" — the black-box a
crashed worker or a breached SLO can be debugged from after the fact.
Every lifecycle edge the runtime crosses (admission verdicts, adaptive
depth changes, worker pickups, chaos injections, stalls, crashes,
restarts, requeues, retry-budget denials, commits, deadline expiries,
completions, failures, cancellations) drops one :class:`RuntimeEvent`
into the ring, stamped with wall time, simulated time, the request's
trace id, and a global sequence number.  Every request that reaches a
terminal state leaves exactly one terminal event: ``request.done``,
``request.failed``, ``deadline.expired``, ``admission.reject`` or
``request.cancelled``.

The ring is bounded (oldest events fall off) and guarded by one lock, so
recording from eight worker threads is safe and cheap; the disabled path
(:data:`NULL_RECORDER`) is a shared singleton whose :meth:`record` is a
single no-op call, keeping the PR 1 <5% disabled-observability overhead
gate intact.

Event kinds are dotted strings (``"worker.crash"``) rather than an enum so
forensic bundles stay greppable JSON and downstream consumers can add
kinds without touching this module; the constants below name the kinds
the runtime emits today.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

# -- event kinds emitted by the runtime --------------------------------
ADMISSION_ACCEPT = "admission.accept"
ADMISSION_REJECT = "admission.reject"
ADMISSION_DEPTH = "admission.depth"
WORKER_PICKUP = "worker.pickup"
WORKER_CRASH = "worker.crash"
WORKER_RESTART = "worker.restart"
CHAOS_INJECTED = "chaos.injected"
REQUEST_REQUEUED = "request.requeued"
RETRY_DENIED = "retry.denied"
COMMIT = "commit"
DEADLINE_EXPIRED = "deadline.expired"
REQUEST_DONE = "request.done"
REQUEST_FAILED = "request.failed"
REQUEST_CANCELLED = "request.cancelled"
SLO_BREACH = "slo.breach"
INVARIANT_VIOLATION = "invariant.violation"


@dataclass(frozen=True)
class RuntimeEvent:
    """One structured entry in the flight-recorder ring.

    ``seq`` is a recorder-wide monotonic sequence number — the total order
    events were recorded in, even when wall timestamps collide.  ``sim``
    is ``None`` when no simulated clock was attached.  ``trace_id`` links
    the event to a request's span tree (``None`` for events that are not
    about one request, e.g. adaptive-depth changes).
    """

    seq: int
    kind: str
    wall: float
    sim: Optional[float] = None
    trace_id: Optional[str] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (used verbatim in forensic bundles)."""
        record: Dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "wall": self.wall,
        }
        if self.sim is not None:
            record["sim"] = self.sim
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        return record


class FlightRecorder:
    """Bounded, thread-safe ring buffer of :class:`RuntimeEvent`\\ s.

    ``capacity`` bounds memory: once full, recording a new event evicts
    the oldest (the global ``seq`` keeps the record of how many were ever
    recorded).  ``clock`` is the environment's simulated clock; attach one
    later with :meth:`attach_clock` — the runtime does this when the
    recorder is created before the environment exists.
    """

    enabled = True

    def __init__(self, capacity: int = 1024, clock: Optional[Any] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock
        self._events: Deque[RuntimeEvent] = deque(maxlen=capacity)
        self._recorded = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def attach_clock(self, clock: Any) -> None:
        """Adopt a simulated clock for the ``sim`` stamp of later events."""
        self.clock = clock

    def record(
        self,
        kind: str,
        /,
        trace_id: Optional[str] = None,
        **attributes: Any,
    ) -> RuntimeEvent:
        """Append one event (thread-safe); returns the recorded event.

        ``kind`` is positional-only so an attribute may itself be named
        ``kind`` without colliding with the parameter.
        """
        clock = self.clock
        sim = clock.now() if clock is not None else None
        wall = time.time()
        with self._lock:
            self._recorded += 1
            event = RuntimeEvent(
                seq=self._recorded,
                kind=kind,
                wall=wall,
                sim=sim,
                trace_id=trace_id,
                attributes=dict(attributes) if attributes else {},
            )
            self._events.append(event)
        return event

    # -- read side ------------------------------------------------------
    def events(self) -> List[RuntimeEvent]:
        """Snapshot of the ring, oldest first (safe while recording)."""
        with self._lock:
            return list(self._events)

    def tail(self, n: int) -> List[RuntimeEvent]:
        """The most recent ``n`` events, oldest first."""
        with self._lock:
            if n >= len(self._events):
                return list(self._events)
            return list(self._events)[-n:]

    def for_trace(self, trace_id: str) -> List[RuntimeEvent]:
        """Every retained event stamped with ``trace_id``, oldest first."""
        with self._lock:
            return [e for e in self._events if e.trace_id == trace_id]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def recorded_total(self) -> int:
        """How many events were ever recorded (evicted ones included)."""
        with self._lock:
            return self._recorded

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(capacity={self.capacity}, "
            f"retained={len(self)})"
        )


class _NullRecorder:
    """Disabled flight recorder — records nothing, allocation-free."""

    enabled = False
    capacity = 0
    clock = None

    def attach_clock(self, clock: Any) -> None:
        """Ignore the clock: nothing will ever be stamped."""

    def record(
        self,
        kind: str,
        /,
        trace_id: Optional[str] = None,
        **attributes: Any,
    ) -> None:
        """Drop the event."""
        return None

    def events(self) -> tuple:
        """Always empty."""
        return ()

    def tail(self, n: int) -> tuple:
        """Always empty."""
        return ()

    def for_trace(self, trace_id: str) -> tuple:
        """Always empty."""
        return ()

    recorded_total = 0

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NULL_RECORDER"


#: Shared disabled recorder; the runtime falls back to it when no
#: ``RuntimeConfig(flight_recorder=...)`` is supplied.
NULL_RECORDER = _NullRecorder()
