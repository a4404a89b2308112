"""Hierarchical tracing for the QASOM pipeline.

A :class:`Span` is one timed stage of the compose → discover → select →
bind → invoke → adapt pipeline.  Spans carry *two* time axes:

* **wall clock** (``time.perf_counter``) — what the paper's Ch. VI timing
  figures measure (selection time, adaptation latency);
* **simulated clock** — the environment's :class:`SimulatedClock`, so a
  trace also shows where *simulated* execution time went (invocation
  response times, parallel-branch joins).

The :class:`Tracer` maintains the parent/child structure with an explicit
stack: spans opened while another span is active become its children, so
instrumented components nest correctly without passing span objects
around.  Everything here is synchronous and allocation-light; the
*disabled* path (see :data:`NULL_SPAN` and :class:`NullTracer`) does no
allocation at all — instrumented call sites pay one attribute lookup and a
no-op context-manager enter/exit.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Protocol

#: Finished root spans a :class:`Tracer` keeps; finishing one more drops
#: (and counts) the oldest.
TRACE_CAPACITY = 2048


class Clock(Protocol):
    """Anything with a ``now() -> float`` (the simulated clock qualifies)."""

    def now(self) -> float: ...


class Span:
    """One timed, attributed stage of a pipeline run (context manager)."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "started_wall",
        "ended_wall",
        "started_sim",
        "ended_sim",
        "attributes",
        "children",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        tracer: "Tracer",
        attributes: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        #: The causal request identity this span belongs to (None for
        #: spans opened outside any adopted TraceContext).
        self.trace_id = trace_id
        self.started_wall: float = 0.0
        self.ended_wall: Optional[float] = None
        self.started_sim: Optional[float] = None
        self.ended_sim: Optional[float] = None
        self.attributes: Dict[str, Any] = attributes if attributes else {}
        self.children: List["Span"] = []
        self._tracer = tracer

    # ------------------------------------------------------------------
    def set(self, **attributes: Any) -> "Span":
        """Attach attributes (candidate-pool sizes, utilities, triggers…)."""
        self.attributes.update(attributes)
        return self

    @property
    def duration(self) -> float:
        """Wall-clock seconds (0.0 while the span is still open)."""
        if self.ended_wall is None:
            return 0.0
        return self.ended_wall - self.started_wall

    @property
    def sim_duration(self) -> Optional[float]:
        """Simulated seconds, when a simulated clock was attached."""
        if self.started_sim is None or self.ended_sim is None:
            return None
        return self.ended_sim - self.started_sim

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.attributes.setdefault("error", repr(exc))
        self._tracer._close(self)
        return False

    # ------------------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """All descendant spans (including self) with the given name."""
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (children referenced by parent_id)."""
        record: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_wall": self.started_wall,
            "duration_s": self.duration,
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.started_sim is not None:
            record["started_sim"] = self.started_sim
        if self.ended_sim is not None:
            record["ended_sim"] = self.ended_sim
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        return record

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"duration={self.duration:.6f}s, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """The shared do-nothing span the disabled path hands out."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    @property
    def duration(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NULL_SPAN"


#: Singleton returned by every disabled tracer — no allocation per span.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects hierarchical spans for one middleware instance.

    ``clock`` is the environment's simulated clock; when present every
    span also records simulated start/end timestamps.  Finished *root*
    spans accumulate in :attr:`spans` (children hang off their parents),
    oldest first, at most :data:`TRACE_CAPACITY` of them: like the
    :class:`~repro.observability.events.FlightRecorder`, the tracer is a
    ring, so a long-running traced middleware keeps bounded memory.
    :attr:`dropped_roots` counts the roots it dropped, so "dropped" reads
    differently from "none".  A caller that needs every tree drains the
    ring with :meth:`reset` within the window (each request's
    ``RunResult.trace`` holds its own tree anyway).

    The open-span stack is **thread-local**: spans opened by a runtime
    worker thread nest under that thread's own ancestry and surface as
    separate roots, so concurrent requests produce coherent per-request
    trees instead of corrupting one shared stack.  Span ids are drawn from
    an atomic counter and stay unique across threads.

    Cross-thread causality is explicit: a thread that :meth:`adopt`\\ s a
    :class:`~repro.observability.context.TraceContext` stamps the
    context's ``trace_id`` on every span it opens while adopted, and links
    its local roots to the context's ``parent_span_id`` — so one request's
    spans stay one causal tree no matter how many threads touch it.

    The finished-roots list is guarded by a lock: worker threads finish
    root spans concurrently with :meth:`reset` / :meth:`all_spans` calls
    from the submitting thread, and an unguarded read-swap would silently
    drop a span finishing in between.
    """

    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: Finished roots dropped from the full ring since construction.
        self.dropped_roots = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._roots_lock = threading.Lock()

    @property
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def _context(self) -> Optional[Any]:
        return getattr(self._local, "context", None)

    # ------------------------------------------------------------------
    def adopt(self, context: Any) -> "_Adoption":
        """Adopt a trace context for this thread (context manager).

        While adopted, spans opened with an empty local stack become the
        context's causal children: they carry its ``trace_id`` and link to
        its ``parent_span_id`` (nested spans inherit the trace id from
        their in-thread parent as usual).  Adoptions nest; ``None``
        restores untraced behaviour.
        """
        return _Adoption(self, context)

    def current_trace_id(self) -> Optional[str]:
        """The adopted context's trace id on this thread, if any."""
        context = self._context
        return context.trace_id if context is not None else None

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        """Create (but not yet start) a span; use as a context manager."""
        stack = self._stack
        parent = stack[-1] if stack else None
        context = self._context if parent is None else None
        if parent is not None:
            parent_id: Optional[str] = parent.span_id
            trace_id: Optional[str] = parent.trace_id
        elif context is not None:
            parent_id = context.parent_span_id
            trace_id = context.trace_id
        else:
            parent_id = None
            trace_id = None
        return Span(
            name,
            span_id=f"s{next(self._ids):04d}",
            parent_id=parent_id,
            tracer=self,
            attributes=attributes or None,
            trace_id=trace_id,
        )

    def _open(self, span: Span) -> None:
        # Re-resolve the parent at enter time: a span object may be
        # created and entered later (or re-parented by sibling order).
        if self._stack:
            parent = self._stack[-1]
            span.parent_id = parent.span_id
            span.trace_id = parent.trace_id
        else:
            context = self._context
            if context is not None:
                span.parent_id = context.parent_span_id
                span.trace_id = context.trace_id
        self._stack.append(span)
        span.started_wall = time.perf_counter()
        if self.clock is not None:
            span.started_sim = self.clock.now()

    def _close(self, span: Span) -> None:
        span.ended_wall = time.perf_counter()
        if self.clock is not None:
            span.ended_sim = self.clock.now()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span)
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent.span_id == span.parent_id:
            parent.children.append(span)
        else:
            # No enclosing span on this thread: the span is a local root.
            # (Its parent_id may still point at a span on another thread —
            # cross-thread assembly links it back up by id.)
            with self._roots_lock:
                self.spans.append(span)
                if len(self.spans) > TRACE_CAPACITY:
                    del self.spans[0]
                    self.dropped_roots += 1

    # ------------------------------------------------------------------
    def reset(self) -> List[Span]:
        """Atomically drop (and return) all finished root spans.

        The swap happens under the roots lock, so a worker finishing a
        root span concurrently either lands in the returned batch or in
        the fresh list — never in a discarded copy.  The per-thread stacks
        of *open* spans are kept.
        """
        with self._roots_lock:
            dropped, self.spans = self.spans, []
        return dropped

    def all_spans(self) -> List[Span]:
        """Every finished span, depth-first across all roots.

        Snapshot-safe: the roots list is copied under the lock, so workers
        finishing spans mid-iteration can never corrupt the walk.
        """
        with self._roots_lock:
            roots = list(self.spans)
        collected: List[Span] = []
        for root in roots:
            collected.extend(root.walk())
        return collected


class _Adoption:
    """Reusable enter/exit guard installing a trace context on a thread."""

    __slots__ = ("_tracer", "_context", "_previous")

    def __init__(self, tracer: Tracer, context: Any) -> None:
        self._tracer = tracer
        self._context = context
        self._previous: Any = None

    def __enter__(self) -> Any:
        local = self._tracer._local
        self._previous = getattr(local, "context", None)
        local.context = self._context
        return self._context

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._local.context = self._previous
        return False


class _NullAdoption:
    """No-op adoption guard shared by the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_ADOPTION = _NullAdoption()


class NullTracer:
    """Tracer with tracing compiled out — hands back :data:`NULL_SPAN`."""

    enabled = False
    clock = None

    #: Shared empty tuple so callers can iterate without branching.
    spans: tuple = ()
    dropped_roots = 0

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    def adopt(self, context: Any) -> _NullAdoption:
        """Adopting a context is a no-op when tracing is disabled."""
        return _NULL_ADOPTION

    def current_trace_id(self) -> None:
        """No context is ever adopted on the disabled path."""
        return None

    def reset(self) -> tuple:
        return ()

    def all_spans(self) -> tuple:
        return ()


#: Singleton disabled tracer.
NULL_TRACER = NullTracer()
