"""The observability facade the rest of the middleware talks to.

One :class:`Observability` object bundles a tracer and a metrics registry;
every instrumented component (discovery, QASSA, binder, engine, monitor,
adaptation manager) takes one as an optional constructor argument.  The
default is :data:`NULL_OBSERVABILITY`, whose span/counter/histogram calls
are no-ops on shared singletons — the disabled pipeline pays only a
handful of no-op method calls per request (asserted ≤ 5 % by
``tests/test_observability_overhead.py``).

For code paths that build their own components deep inside experiment
sweeps (where threading a parameter through would be invasive), a module
*default* can be installed — usually via the :func:`enabled` context
manager — and is picked up by components constructed while it is active.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.observability.metrics import (
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)
from repro.observability.spans import (
    Clock,
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Tracer,
)


@dataclass(frozen=True)
class ObservabilityConfig:
    """The middleware-level observability knob.

    ``enabled`` turns tracing + metrics on for components the middleware
    constructs.
    """

    enabled: bool = False


class Observability:
    """A live tracer + metrics registry pair."""

    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.tracer = Tracer(clock)
        self.metrics = MetricsRegistry()

    # -- tracing -------------------------------------------------------
    def span(self, name: str, **attributes: Any):
        return self.tracer.span(name, **attributes)

    def adopt(self, context: Any):
        """Adopt a :class:`TraceContext` for the calling thread.

        Context manager: spans opened inside carry the context's trace id
        and link under its parent span (see ``Tracer.adopt``).
        """
        return self.tracer.adopt(context)

    @property
    def spans(self):
        """Finished root spans."""
        return self.tracer.spans

    # -- metrics -------------------------------------------------------
    def counter(self, name: str, **labels: Any):
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any):
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, buckets=None, **labels: Any):
        return self.metrics.histogram(name, buckets=buckets, **labels)

    # ------------------------------------------------------------------
    def attach_clock(self, clock: Optional[Clock]) -> None:
        """Point span simulated-time capture at an environment's clock."""
        self.tracer.clock = clock

    def reset(self) -> None:
        self.tracer.reset()
        self.metrics.reset()

    @classmethod
    def from_config(
        cls, config: ObservabilityConfig, clock: Optional[Clock] = None
    ) -> "Observability":
        if not config.enabled:
            return NULL_OBSERVABILITY  # type: ignore[return-value]
        return cls(clock=clock)


class _NullObservability:
    """Disabled observability: every hook is a no-op on a singleton."""

    enabled = False
    tracer: NullTracer = NULL_TRACER
    metrics: NullMetricsRegistry = NULL_METRICS
    spans: tuple = ()

    def span(self, name: str, **attributes: Any):
        return NULL_SPAN

    def adopt(self, context: Any):
        return NULL_TRACER.adopt(context)

    def counter(self, name: str, **labels: Any):
        return NULL_METRICS.counter(name)

    def gauge(self, name: str, **labels: Any):
        return NULL_METRICS.gauge(name)

    def histogram(self, name: str, buckets=None, **labels: Any):
        return NULL_METRICS.histogram(name)

    def attach_clock(self, clock: Optional[Clock]) -> None:
        pass

    def reset(self) -> None:
        pass


#: The shared disabled instance — the default everywhere.
NULL_OBSERVABILITY = _NullObservability()

_default: Any = NULL_OBSERVABILITY


def get_default() -> Any:
    """The ambient observability components fall back to when none is
    passed explicitly (``NULL_OBSERVABILITY`` unless installed)."""
    return _default


def set_default(observability: Optional[Any]) -> Any:
    """Install (or, with ``None``, clear) the ambient default.

    Returns the previous default so callers can restore it.
    """
    global _default
    previous = _default
    _default = observability if observability is not None else NULL_OBSERVABILITY
    return previous


@contextlib.contextmanager
def enabled(clock: Optional[Clock] = None) -> Iterator[Observability]:
    """Run a block with a fresh ambient :class:`Observability` installed.

    Components constructed inside the block (experiment sweeps, ad-hoc
    selectors) pick it up automatically::

        with observability.enabled() as obs:
            figures.fig_vi5a()
        print(render_span_tree(obs.spans))
    """
    obs = Observability(clock=clock)
    previous = set_default(obs)
    try:
        yield obs
    finally:
        set_default(previous)


def resolve(observability: Optional[Any]) -> Any:
    """What instrumented constructors call: explicit wins, else ambient."""
    return observability if observability is not None else _default
