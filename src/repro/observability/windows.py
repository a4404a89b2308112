"""Windowed tail-latency telemetry: per-window percentile series.

The cumulative histograms in :mod:`repro.observability.metrics` answer
"what was p99 since the process started?" — useless for the Ch. VI
question of how response time behaves *under load over time*.  This
module adds the time axis:

* :class:`WindowedHistogram` — a ring buffer of fixed-bucket
  :class:`~repro.observability.metrics.Histogram` instances keyed to a
  clock (normally the environment's simulated clock), producing a
  per-window ``count/mean/p50/p95/p99`` series
  (:class:`WindowStats`) with bounded memory;
* :class:`StageWindows` — the pipeline-stage aggregator: it is fed from
  the *existing* span tracer (no new instrumentation call sites), mapping
  span names onto the stages of the request pipeline — admission-wait,
  discovery, selection, binding, execution, commit — and windowing each
  stage's wall durations by the span's simulated start time;
* :class:`Slo` — a windowed SLO evaluator (``p99_ms`` latency bound +
  ``availability`` floor) producing a per-window pass/fail series
  (:class:`SloVerdict`);
* exporters — :func:`write_window_jsonl` (one JSON object per window per
  stage) and :func:`render_window_table` (a console table with a
  sparkline of each stage's per-window p99).

Windows are *aligned* to multiples of ``window_seconds`` on the clock
axis (window ``i`` covers ``[i·w, (i+1)·w)``), so two runs over the same
simulated timeline bucket identically — the determinism the adaptive
admission controller and the tail-latency benchmark gates rely on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.observability.events import SLO_BREACH, EventStream
from repro.observability.exporters import render_table, write_atomic
from repro.observability.metrics import DEFAULT_BUCKETS, Histogram
from repro.observability.spans import Span

#: Pipeline stages in presentation order (the span-name mapping below
#: feeds them; ``admission-wait`` comes from the ``queue_ms`` attribute
#: of ``runtime.request`` spans rather than a span's own duration).
PIPELINE_STAGES: Tuple[str, ...] = (
    "admission-wait", "discovery", "selection", "binding", "execution",
    "commit", "request",
)

#: Span name -> pipeline stage.  ``compose`` spans are deliberately not a
#: stage of their own: their time is already attributed to discovery +
#: selection children (serial path) or reported as ``request`` minus the
#: other stages (runtime path).
SPAN_STAGE_NAMES: Mapping[str, str] = {
    "discovery": "discovery",
    "qassa.select": "selection",
    "bind": "binding",
    "execute": "execution",
    "runtime.commit": "commit",
    "runtime.request": "request",
}

#: Default number of windows a ring buffer retains.
DEFAULT_MAX_WINDOWS = 512


@dataclass(frozen=True)
class WindowStats:
    """The per-window summary row of one windowed series.

    ``exemplar_trace_id`` / ``exemplar_value`` name the worst observation
    the window saw, when observations carried exemplars — the concrete
    request behind the window's tail percentile.
    """

    index: int
    start: float
    end: float
    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float
    exemplar_trace_id: Optional[str] = None
    exemplar_value: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (what the timeline exporter writes)."""
        record = {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }
        if self.exemplar_trace_id is not None:
            record["exemplar_trace_id"] = self.exemplar_trace_id
            record["exemplar_value"] = self.exemplar_value
        return record


class StatsWindow:
    """One window of the ring: its index, clock bounds, and histogram."""

    __slots__ = ("index", "start", "end", "histogram")

    def __init__(
        self, index: int, window_seconds: float, histogram: Histogram
    ) -> None:
        self.index = index
        self.start = index * window_seconds
        self.end = (index + 1) * window_seconds
        self.histogram = histogram

    def stats(self) -> WindowStats:
        """Summarise the window's histogram into a :class:`WindowStats`."""
        h = self.histogram
        empty = h.count == 0
        exemplar = h.exemplar()
        return WindowStats(
            index=self.index,
            start=self.start,
            end=self.end,
            count=h.count,
            mean=h.mean,
            p50=h.quantile(0.50),
            p95=h.quantile(0.95),
            p99=h.quantile(0.99),
            minimum=0.0 if empty else h.minimum,
            maximum=0.0 if empty else h.maximum,
            exemplar_trace_id=exemplar[1] if exemplar else None,
            exemplar_value=exemplar[0] if exemplar else None,
        )

    def __repr__(self) -> str:
        return (
            f"StatsWindow(index={self.index}, "
            f"[{self.start:g}, {self.end:g}), "
            f"count={self.histogram.count})"
        )


class WindowedHistogram:
    """A ring buffer of per-window histograms keyed to a clock.

    ``observe(value, at=timestamp)`` files ``value`` into the window
    containing ``timestamp``; with no explicit ``at`` the attached
    ``clock`` is read.  Windows are created lazily (a clock jump across
    quiet windows costs nothing) and evicted oldest-first beyond
    ``max_windows``.  Observations that land *before* the oldest retained
    window are counted in :attr:`dropped` instead of corrupting evicted
    history.
    """

    def __init__(
        self,
        name: str,
        *,
        window_seconds: float = 1.0,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        buckets: Optional[Sequence[float]] = None,
        clock: Optional[Any] = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if max_windows < 1:
            raise ValueError("a windowed histogram needs >= 1 window")
        self.name = name
        self.window_seconds = float(window_seconds)
        self.max_windows = max_windows
        self.buckets = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS
        self.clock = clock
        #: Observations older than the oldest retained window.
        self.dropped = 0
        #: Observations filed across all retained windows.
        self.observed = 0
        self._windows: Dict[int, StatsWindow] = {}

    # ------------------------------------------------------------------
    def index_of(self, at: float) -> int:
        """The window index containing clock timestamp ``at``."""
        return int(math.floor(at / self.window_seconds))

    def observe(
        self,
        value: float,
        at: Optional[float] = None,
        exemplar: Optional[str] = None,
    ) -> None:
        """File one observation at clock time ``at`` (default: now).

        ``exemplar`` tags the observation with a request identity (trace
        id); the window remembers its worst exemplar so per-window stats
        can point at the exact request behind the tail.
        """
        if at is None:
            if self.clock is None:
                raise ValueError(
                    "observe() needs an explicit timestamp when no clock "
                    "is attached"
                )
            at = self.clock.now()
        index = self.index_of(at)
        window = self._windows.get(index)
        if window is None:
            if self._windows and index < min(self._windows):
                self.dropped += 1
                return
            window = StatsWindow(
                index, self.window_seconds,
                Histogram(self.name, buckets=self.buckets),
            )
            self._windows[index] = window
            self._evict()
        window.histogram.observe(value, exemplar=exemplar)
        self.observed += 1

    def _evict(self) -> None:
        while len(self._windows) > self.max_windows:
            del self._windows[min(self._windows)]

    # ------------------------------------------------------------------
    def window(self, index: int) -> Optional[StatsWindow]:
        """The retained window at ``index``, or None."""
        return self._windows.get(index)

    def windows(self) -> List[StatsWindow]:
        """All retained windows, oldest first."""
        return [self._windows[i] for i in sorted(self._windows)]

    def series(self, fill_gaps: bool = True) -> List[WindowStats]:
        """Per-window stats, oldest first.

        With ``fill_gaps`` (the default), quiet windows between the
        oldest and newest retained window appear as zero-count rows, so
        the series is a contiguous timeline rather than a sparse one.
        """
        if not self._windows:
            return []
        stats = []
        indexes = sorted(self._windows)
        span = range(indexes[0], indexes[-1] + 1) if fill_gaps else indexes
        for index in span:
            window = self._windows.get(index)
            if window is not None:
                stats.append(window.stats())
            else:
                start = index * self.window_seconds
                stats.append(WindowStats(
                    index=index, start=start,
                    end=start + self.window_seconds, count=0, mean=0.0,
                    p50=0.0, p95=0.0, p99=0.0, minimum=0.0, maximum=0.0,
                ))
        return stats

    def merged(self) -> Histogram:
        """One cumulative histogram over every retained window."""
        merged = Histogram(self.name, buckets=self.buckets)
        for window in self._windows.values():
            merged.merge(window.histogram)
        return merged

    def __len__(self) -> int:
        return len(self._windows)

    def __repr__(self) -> str:
        return (
            f"WindowedHistogram({self.name!r}, windows={len(self._windows)}, "
            f"observed={self.observed}, dropped={self.dropped})"
        )


class StageWindows:
    """Per-pipeline-stage windowed histograms fed from finished spans.

    The aggregator walks span trees the tracer already collects — no new
    instrumentation call sites — and files each recognised span's
    **wall-clock duration** (seconds) into its stage's
    :class:`WindowedHistogram`, windowed by the span's **simulated start
    time** (falling back to wall offsets from the first ingested span
    when no simulated clock was attached).

    ``runtime.request`` spans additionally contribute:

    * their ``queue_ms`` attribute as the ``admission-wait`` stage;
    * their terminal ``status`` attribute to the per-window outcome
      tally behind :meth:`availability`.
    """

    def __init__(
        self,
        *,
        window_seconds: float = 1.0,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.window_seconds = float(window_seconds)
        self.max_windows = max_windows
        self.buckets = buckets
        self._stages: Dict[str, WindowedHistogram] = {}
        self._outcomes: Dict[int, Dict[str, int]] = {}
        self._wall_epoch: Optional[float] = None
        self.ingested = 0

    # ------------------------------------------------------------------
    def stage(self, name: str) -> WindowedHistogram:
        """The (lazily created) windowed histogram of one stage."""
        histogram = self._stages.get(name)
        if histogram is None:
            histogram = self._stages[name] = WindowedHistogram(
                name,
                window_seconds=self.window_seconds,
                max_windows=self.max_windows,
                buckets=self.buckets,
            )
        return histogram

    def stages(self) -> Dict[str, WindowedHistogram]:
        """Stage name -> series, in :data:`PIPELINE_STAGES` order."""
        ordered = {
            name: self._stages[name]
            for name in PIPELINE_STAGES if name in self._stages
        }
        for name in sorted(self._stages):
            ordered.setdefault(name, self._stages[name])
        return ordered

    # ------------------------------------------------------------------
    def _timestamp(self, span: Span) -> float:
        if span.started_sim is not None:
            return span.started_sim
        if self._wall_epoch is None:
            self._wall_epoch = span.started_wall
        return span.started_wall - self._wall_epoch

    def ingest(self, spans: Iterable[Span]) -> int:
        """Walk root spans (and descendants); returns spans recognised."""
        recognised = 0
        for root in spans:
            for span in root.walk():
                stage_name = SPAN_STAGE_NAMES.get(span.name)
                if stage_name is None:
                    continue
                at = self._timestamp(span)
                self.stage(stage_name).observe(
                    span.duration, at=at, exemplar=span.trace_id
                )
                recognised += 1
                if span.name != "runtime.request":
                    continue
                queue_ms = span.attributes.get("queue_ms")
                if queue_ms is not None:
                    self.stage("admission-wait").observe(
                        float(queue_ms) / 1e3, at=at, exemplar=span.trace_id
                    )
                status = str(span.attributes.get("status", "done"))
                tally = self._outcomes.setdefault(
                    self.stage(stage_name).index_of(at), {}
                )
                tally[status] = tally.get(status, 0) + 1
        self.ingested += recognised
        return recognised

    def ingest_observability(self, observability: Any) -> int:
        """Ingest every finished root span of an observability instance."""
        return self.ingest(getattr(observability, "spans", ()) or ())

    # ------------------------------------------------------------------
    def outcomes(self) -> Dict[int, Dict[str, int]]:
        """Per-window ``runtime.request`` terminal-status tallies."""
        return {index: dict(tally) for index, tally in self._outcomes.items()}

    def availability(self) -> Dict[int, float]:
        """Per-window fraction of requests that completed (``done``)."""
        series = {}
        for index, tally in sorted(self._outcomes.items()):
            total = sum(tally.values())
            series[index] = (tally.get("done", 0) / total) if total else 1.0
        return series

    def __repr__(self) -> str:
        return (
            f"StageWindows(stages={sorted(self._stages)}, "
            f"ingested={self.ingested})"
        )


# ----------------------------------------------------------------------
# SLO evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SloVerdict:
    """One window's pass/fail against an :class:`Slo`.

    ``exemplar_trace_id`` names the window's worst request (when the
    underlying observations carried exemplars) — the request to pull a
    forensic bundle or span tree for when the verdict is a failure.
    """

    index: int
    start: float
    p99_ms: float
    availability: Optional[float]
    passed: bool
    failures: Tuple[str, ...] = ()
    exemplar_trace_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "index": self.index,
            "start": self.start,
            "p99_ms": self.p99_ms,
            "availability": self.availability,
            "passed": self.passed,
            "failures": list(self.failures),
            "exemplar_trace_id": self.exemplar_trace_id,
        }


@dataclass(frozen=True)
class Slo:
    """A windowed service-level objective.

    ``p99_ms`` bounds each window's p99 latency (milliseconds);
    ``availability`` floors each window's completed-request fraction.
    Either may be ``None`` (not part of the objective).  Empty windows
    pass trivially — no traffic, no violation.
    """

    p99_ms: Optional[float] = None
    availability: Optional[float] = None

    def __post_init__(self) -> None:
        if self.p99_ms is None and self.availability is None:
            raise ValueError("an SLO needs a p99_ms bound, an availability "
                             "floor, or both")
        if self.p99_ms is not None and self.p99_ms <= 0:
            raise ValueError("p99_ms must be positive")
        if self.availability is not None and not 0 <= self.availability <= 1:
            raise ValueError("availability must be a fraction in [0, 1]")

    def evaluate(
        self,
        windows: Sequence[WindowStats],
        availability: Optional[Mapping[int, float]] = None,
        events: Optional[EventStream] = None,
    ) -> List[SloVerdict]:
        """Judge each latency window (seconds-valued) against the SLO.

        ``availability`` maps window index -> completed fraction (e.g.
        :meth:`StageWindows.availability` or a driver report's); windows
        absent from the mapping are judged on latency alone.

        ``events`` (a runtime's :class:`EventStream`) records each failed
        verdict as one ``slo.breach`` event on the window's exemplar
        request: a ``slo_breaches_total`` count, a ring entry and a
        ``slo_breach`` forensic bundle
        (:data:`~repro.observability.events.EFFECTS`).
        """
        verdicts = []
        for stats in windows:
            failures: List[str] = []
            p99_ms = stats.p99 * 1e3
            window_availability = (
                availability.get(stats.index) if availability else None
            )
            if stats.count:
                if self.p99_ms is not None and p99_ms > self.p99_ms:
                    failures.append(
                        f"p99 {p99_ms:.1f} ms > {self.p99_ms:g} ms"
                    )
                if (
                    self.availability is not None
                    and window_availability is not None
                    and window_availability < self.availability
                ):
                    failures.append(
                        f"availability {window_availability:.3f} < "
                        f"{self.availability:g}"
                    )
            verdict = SloVerdict(
                index=stats.index,
                start=stats.start,
                p99_ms=p99_ms,
                availability=window_availability,
                passed=not failures,
                failures=tuple(failures),
                exemplar_trace_id=stats.exemplar_trace_id,
            )
            verdicts.append(verdict)
            if events is not None and not verdict.passed:
                events.emit(
                    SLO_BREACH,
                    verdict.exemplar_trace_id,
                    window=verdict.index,
                    window_start=verdict.start,
                    failures=list(verdict.failures),
                    slo=str(self),
                )
        return verdicts

    def passed(
        self,
        windows: Sequence[WindowStats],
        availability: Optional[Mapping[int, float]] = None,
    ) -> bool:
        """Whether every window passes."""
        return all(v.passed for v in self.evaluate(windows, availability))

    def __str__(self) -> str:
        parts = []
        if self.p99_ms is not None:
            parts.append(f"p99<={self.p99_ms:g}ms")
        if self.availability is not None:
            parts.append(f"availability>={self.availability:g}")
        return " & ".join(parts)


# ----------------------------------------------------------------------
# timeline exporters
# ----------------------------------------------------------------------
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """A unicode sparkline of a value series (empty string for none)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_LEVELS[0] * len(values)
    scale = (len(_SPARK_LEVELS) - 1) / (hi - lo)
    return "".join(
        _SPARK_LEVELS[int((value - lo) * scale)] for value in values
    )


def window_records(stage_windows: StageWindows) -> List[Dict[str, Any]]:
    """The timeline as JSON-serialisable records, one per stage-window."""
    records: List[Dict[str, Any]] = []
    availability = stage_windows.availability()
    for stage_name, histogram in stage_windows.stages().items():
        for stats in histogram.series():
            record = stats.to_dict()
            record["type"] = "window"
            record["stage"] = stage_name
            record["window_seconds"] = histogram.window_seconds
            if stage_name == "request" and stats.index in availability:
                record["availability"] = availability[stats.index]
            records.append(record)
    return records


def write_window_jsonl(
    stage_windows: StageWindows, stream_or_path: Any
) -> int:
    """Write the per-window timeline as JSONL; returns records written."""
    records = window_records(stage_windows)

    def _write(handle: Any) -> None:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    if hasattr(stream_or_path, "write"):
        _write(stream_or_path)
    else:
        write_atomic(stream_or_path, _write)
    return len(records)


def render_window_table(
    stage_windows: StageWindows, value: str = "p99"
) -> str:
    """The console timeline: one row per stage with a p99 sparkline.

    ``value`` picks the sparklined statistic (an attribute of
    :class:`WindowStats`: ``p50``/``p95``/``p99``/``mean``/``count``).
    """
    headers = ("stage", "windows", "count", "mean", "p50", "p95", "p99",
               f"{value}/window")
    rows = []
    for stage_name, histogram in stage_windows.stages().items():
        series = histogram.series()
        merged = histogram.merged().summary()
        rows.append((
            stage_name,
            str(len(series)),
            str(int(merged["count"])),
            f"{merged['mean'] * 1e3:.2f}ms",
            f"{merged['p50'] * 1e3:.2f}ms",
            f"{merged['p95'] * 1e3:.2f}ms",
            f"{merged['p99'] * 1e3:.2f}ms",
            sparkline([getattr(s, value) for s in series]),
        ))
    return render_table(headers, rows)


def render_slo_table(verdicts: Sequence[SloVerdict], slo: Slo) -> str:
    """Per-window SLO pass/fail, ready to print under the timeline."""
    headers = ("window", "start", "p99", "availability", "verdict")
    rows = []
    for verdict in verdicts:
        availability = (
            f"{verdict.availability:.3f}"
            if verdict.availability is not None else "-"
        )
        status = "pass" if verdict.passed else (
            "FAIL: " + "; ".join(verdict.failures)
        )
        rows.append((
            str(verdict.index),
            f"{verdict.start:g}s",
            f"{verdict.p99_ms:.1f}ms",
            availability,
            status,
        ))
    return render_table(headers, rows, title=f"SLO {slo}")
