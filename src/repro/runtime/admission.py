"""Admission control policies for the concurrent runtime.

PR 5 gave the runtime one blunt instrument against overload: a hard-coded
``queue_depth`` — reject everything beyond it.  That bound is *static*: a
queue of 64 requests each taking 5 simulated seconds to serve promises the
last admission a ~5-minute wait, while the same queue of 5 ms requests
rejects load the pool could absorb easily.  This module makes the bound a
*policy*:

* :class:`StaticAdmissionController` — the original behaviour (admit while
  the queue is shorter than ``queue_depth``), preserved as the default so
  pooled-vs-serial byte-identity is untouched;
* :class:`AdaptiveAdmissionController` — sizes the effective queue depth
  from *measured* load via Little's law.  Over a sliding window on the
  **simulated clock** it tracks the arrival rate λ and the mean service
  time W of committed executions; a queue of length L in front of a
  serialised commit stage imposes a wait of ≈ L·W on the last arrival, so
  bounding the admission wait by ``target_delay`` means admitting at most
  ``L = target_delay / W`` requests:

  .. math:: d_{\\text{eff}} = \\mathrm{clamp}\\left(
      \\lceil \\text{target\\_delay} / W \\rceil,
      d_{\\min}, \\text{queue\\_depth} \\right)

  Until service-time samples exist the controller behaves exactly like the
  static one (``d_eff = queue_depth``), and it never admits *more* than
  the static bound — adaptivity only tightens admission under load.

Both controllers are driven entirely by timestamps their caller passes in
(the runtime passes simulated-clock readings), so identical simulated
timelines produce identical depth decisions.  Each depth *change* emits
an ``admission.depth`` event on the runtime's event stream (which opens a
``runtime.admission`` decision span) and refreshes the
``runtime_admission_*`` gauges.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.observability import NULL_OBSERVABILITY
from repro.observability.events import ADMISSION_DEPTH, EventStream


class StaticAdmissionController:
    """The fixed bound: admit while the queue is shorter than the depth."""

    adaptive = False

    def __init__(self, queue_depth: int) -> None:
        self.queue_depth = queue_depth

    def on_arrival(self, now: float) -> None:
        """Arrival notification (ignored — the bound is fixed)."""

    def on_complete(self, service_seconds: float, now: float) -> None:
        """Completion notification (ignored — the bound is fixed)."""

    def effective_depth(self) -> int:
        """The current admission bound (always ``queue_depth``)."""
        return self.queue_depth

    def admit(self, queue_length: int) -> bool:
        """Whether a submission may join a queue of ``queue_length``."""
        return queue_length < self.queue_depth

    def __repr__(self) -> str:
        return f"StaticAdmissionController(depth={self.queue_depth})"


class AdaptiveAdmissionController:
    """Little's-law admission: depth follows measured λ and W.

    ``target_delay_seconds`` is the admission-wait budget the controller
    defends; ``window_seconds`` is the sliding measurement window on the
    caller's clock; ``min_depth`` floors the bound so a burst of slow
    requests cannot close admission entirely; ``queue_depth`` (the static
    bound) caps it.  Thread-safe: runtime submit and worker threads call
    in concurrently.  Depth changes and gauges go to ``events`` (the
    runtime's stream), else to a stream over ``observability``.
    """

    adaptive = True

    def __init__(
        self,
        queue_depth: int,
        *,
        target_delay_seconds: float,
        window_seconds: float = 5.0,
        min_depth: int = 1,
        observability: Any = NULL_OBSERVABILITY,
        events: Optional[EventStream] = None,
    ) -> None:
        if target_delay_seconds <= 0:
            raise ValueError("target delay must be positive")
        if window_seconds <= 0:
            raise ValueError("measurement window must be positive")
        if not 1 <= min_depth <= queue_depth:
            raise ValueError(
                "min_depth must satisfy 1 <= min_depth <= queue_depth"
            )
        self.queue_depth = queue_depth
        self.target_delay_seconds = float(target_delay_seconds)
        self.window_seconds = float(window_seconds)
        self.min_depth = min_depth
        self.events = events or EventStream(observability)
        self._lock = threading.Lock()
        self._arrivals: Deque[float] = deque()
        self._services: Deque[Tuple[float, float]] = deque()
        self._depth = queue_depth
        self._decisions = 0

    # ------------------------------------------------------------------
    def on_arrival(self, now: float) -> None:
        """Record one arrival at clock time ``now`` and re-size the bound."""
        with self._lock:
            self._arrivals.append(now)
            self._refresh(now)

    def on_complete(self, service_seconds: float, now: float) -> None:
        """Record one committed execution's service time and re-size."""
        with self._lock:
            self._services.append((now, max(0.0, service_seconds)))
            self._refresh(now)

    def effective_depth(self) -> int:
        """The current measured admission bound."""
        with self._lock:
            return self._depth

    def admit(self, queue_length: int) -> bool:
        """Whether a submission may join a queue of ``queue_length``."""
        with self._lock:
            return queue_length < self._depth

    # ------------------------------------------------------------------
    def arrival_rate(self) -> float:
        """Arrivals per second over the current window."""
        with self._lock:
            return self._arrival_rate()

    def service_seconds(self) -> float:
        """Mean committed service time over the current window (0 if none)."""
        with self._lock:
            return self._service_seconds()

    @property
    def decisions(self) -> int:
        """How many times the effective depth has changed."""
        return self._decisions

    # -- internals (call with the lock held) ----------------------------
    def _prune(self, now: float) -> None:
        horizon = now - self.window_seconds
        while self._arrivals and self._arrivals[0] < horizon:
            self._arrivals.popleft()
        while self._services and self._services[0][0] < horizon:
            self._services.popleft()

    def _arrival_rate(self) -> float:
        return len(self._arrivals) / self.window_seconds

    def _service_seconds(self) -> float:
        if not self._services:
            return 0.0
        return sum(s for _, s in self._services) / len(self._services)

    def _refresh(self, now: float) -> None:
        self._prune(now)
        service = self._service_seconds()
        rate = self._arrival_rate()
        if service <= 0.0:
            # No evidence yet — behave exactly like the static bound.
            depth = self.queue_depth
        else:
            depth = math.ceil(self.target_delay_seconds / service)
            depth = max(self.min_depth, min(depth, self.queue_depth))
        utilisation = rate * service
        observability = self.events.observability
        observability.gauge("runtime_admission_arrival_rate").set(rate)
        observability.gauge("runtime_admission_service_seconds").set(service)
        observability.gauge("runtime_admission_utilisation").set(utilisation)
        if depth == self._depth:
            return
        previous, self._depth = self._depth, depth
        self._decisions += 1
        observability.gauge("runtime_admission_effective_depth").set(depth)
        self.events.emit(
            ADMISSION_DEPTH,
            effective_depth=depth,
            previous_depth=previous,
            arrival_rate=round(rate, 6),
            service_seconds=round(service, 6),
            utilisation=round(utilisation, 6),
        )

    def __repr__(self) -> str:
        return (
            f"AdaptiveAdmissionController(depth={self._depth}/"
            f"{self.queue_depth}, target={self.target_delay_seconds:g}s, "
            f"window={self.window_seconds:g}s)"
        )


def build_admission_controller(
    config: Any, events: Optional[EventStream] = None
) -> Any:
    """The controller a :class:`RuntimeConfig` asks for.

    ``config.admission`` selects the policy: ``"static"`` (the default,
    byte-identical to the pre-policy runtime) or ``"adaptive"``, which
    emits its depth changes on ``events`` (the runtime's event stream).
    """
    if config.admission == "adaptive":
        return AdaptiveAdmissionController(
            config.queue_depth,
            target_delay_seconds=config.admission_target_delay_ms / 1e3,
            window_seconds=config.admission_window_seconds,
            min_depth=config.admission_min_depth,
            events=events,
        )
    return StaticAdmissionController(config.queue_depth)
