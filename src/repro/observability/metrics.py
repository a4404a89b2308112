"""Counters, gauges and histograms for the middleware — stdlib only.

The registry follows the Prometheus naming idiom (snake-case metric names,
optional label sets) but keeps everything in-process: experiments read the
registry directly, exporters serialise a snapshot.  Histograms use fixed
upper-bound buckets, so percentile *summaries* are estimates (the upper
bound of the bucket the quantile lands in) — cheap, bounded memory, and
accurate enough for the per-stage latency breakdowns the Ch. VI figures
need.

Instruments are **thread-safe**: runtime worker threads share one
registry, and the read-modify-write sequences in ``Counter.inc``,
``Gauge.add`` and ``Histogram.observe`` would silently drop observations
under concurrent access (``x += 1`` is not atomic — the GIL can switch
threads between the read and the store).  Each instrument carries its own
small lock; the disabled path (:data:`NULL_METRIC`) stays lock- and
allocation-free.

Histograms optionally record **exemplars**: the worst ``(value,
trace_id)`` seen per bucket, so a p99 summary can name the exact request
that produced the tail (see ``observe(..., exemplar=...)``).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Default histogram buckets, in seconds — spans from sub-millisecond
#: selection steps to multi-second simulated executions.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A value that can go up and down (pool sizes, utilities, clock skew)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """Fixed-bucket histogram with percentile summaries.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.  Bucket lookup is a binary
    search (``bisect``), so ``observe`` is O(log buckets).  ``quantile(q)``
    interpolates linearly *within* the bucket containing the q-th
    observation — see its docstring for the estimator.
    """

    __slots__ = (
        "name", "labels", "buckets", "counts", "count", "total",
        "minimum", "maximum", "exemplars", "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: _LabelKey = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        #: Per-bucket worst observation, bucket index -> (value, trace_id);
        #: populated lazily, only for ``observe(..., exemplar=...)`` calls.
        self.exemplars: Dict[int, Tuple[float, str]] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        """Record one observation.

        ``exemplar`` is an opaque identity (the request's trace id): when
        given, the bucket remembers the worst value it has seen with that
        identity, so percentile summaries can point at a concrete request.
        """
        # bisect_left finds the first bound >= value (bounds are inclusive
        # upper bounds); values above the last bound land in the implicit
        # overflow bucket at index len(buckets).
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
            self.counts[index] += 1
            if exemplar is not None:
                worst = self.exemplars.get(index)
                if worst is None or value > worst[0]:
                    self.exemplars[index] = (value, exemplar)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 < q <= 1) from the bucket counts.

        Estimator: find the bucket containing the q-th observation, then
        interpolate linearly within it, assuming observations are spread
        uniformly across the bucket's span.  The bucket's lower edge is
        the previous bound (or the observed minimum for the first bucket);
        its upper edge is the bound itself (or the observed maximum for
        the overflow bucket).  The interpolated estimate is finally
        clamped into ``[minimum, maximum]`` — the conservative guarantee
        that an estimate never leaves the observed range, which matters
        for sparse histograms whose single occupied bucket is much wider
        than the data.
        """
        if not 0 < q <= 1:
            raise ValueError("quantile must be in (0, 1]")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        rank = math.ceil(q * self.count)
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.minimum if i == 0 else self.buckets[i - 1]
                upper = (
                    self.maximum if i == len(self.buckets)
                    else self.buckets[i]
                )
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + fraction * (upper - lower)
                return max(self.minimum, min(estimate, self.maximum))
            cumulative += bucket_count
        return self.maximum

    def exemplar(self) -> Optional[Tuple[float, str]]:
        """The overall worst recorded ``(value, trace_id)``, if any."""
        with self._lock:
            if not self.exemplars:
                return None
            return max(self.exemplars.values(), key=lambda e: e[0])

    def summary(self) -> Dict[str, float]:
        """Count/sum/min/max/mean plus estimated percentiles.

        Computed under one lock acquisition so the fields are mutually
        consistent even while worker threads keep observing.
        """
        with self._lock:
            return {
                "count": float(self.count),
                "sum": self.total,
                "min": self.minimum if self.count else 0.0,
                "max": self.maximum if self.count else 0.0,
                "mean": self.total / self.count if self.count else 0.0,
                "p50": self._quantile_locked(0.50),
                "p90": self._quantile_locked(0.90),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
                "p999": self._quantile_locked(0.999),
            }

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram's observations into this one (in place).

        Both histograms must share the same bucket bounds — the windowed
        telemetry layer relies on this to collapse per-window histograms
        into one cumulative distribution without re-observing values.
        """
        if other.buckets != self.buckets:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        # Snapshot ``other`` under its own lock, then apply under ours —
        # never holding both (two opposite-direction merges would deadlock).
        with other._lock:
            counts = list(other.counts)
            count, total = other.count, other.total
            minimum, maximum = other.minimum, other.maximum
            exemplars = dict(other.exemplars)
        with self._lock:
            for i, bucket_count in enumerate(counts):
                self.counts[i] += bucket_count
            self.count += count
            self.total += total
            if count:
                self.minimum = min(self.minimum, minimum)
                self.maximum = max(self.maximum, maximum)
            for index, candidate in exemplars.items():
                worst = self.exemplars.get(index)
                if worst is None or candidate[0] > worst[0]:
                    self.exemplars[index] = candidate
        return self

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "summary": self.summary(),
        }
        with self._lock:
            if self.exemplars:
                record["exemplars"] = {
                    str(index): {"value": value, "trace_id": trace_id}
                    for index, (value, trace_id)
                    in sorted(self.exemplars.items())
                }
        return record


class MetricsRegistry:
    """Get-or-create store for all of a middleware instance's metrics.

    Get-or-create is race-free under concurrent access (``setdefault`` on
    the instrument maps is atomic in CPython), so runtime worker threads
    sharing one registry always converge on the same instrument object.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, _LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, _LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters.setdefault(key, Counter(name, key[1]))
        return counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges.setdefault(key, Gauge(name, key[1]))
        return gauge

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms.setdefault(
                key, Histogram(name, key[1], buckets)
            )
        return histogram

    # ------------------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        """All metrics as JSON-serialisable dicts, sorted by (name, labels)."""
        records: List[Dict[str, Any]] = []
        for store in (self._counters, self._gauges, self._histograms):
            # Copy first: another thread may create an instrument while
            # this one serialises, and a dict must not change size
            # during iteration.
            records.extend(metric.to_dict() for metric in list(store.values()))
        records.sort(key=lambda r: (r["name"], sorted(r["labels"].items())))
        return records

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Convenience lookup: a counter/gauge's value — or, for
        histograms, the observation count — if the instrument exists."""
        key = (name, _label_key(labels))
        metric = self._counters.get(key) or self._gauges.get(key)
        if metric is not None:
            return metric.value
        histogram = self._histograms.get(key)
        return float(histogram.count) if histogram is not None else None

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


class _NullMetric:
    """One shared sink for every disabled counter/gauge/histogram."""

    __slots__ = ()
    value = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        pass


NULL_METRIC = _NullMetric()


class NullMetricsRegistry:
    """Registry with metrics compiled out."""

    enabled = False

    def counter(self, name: str, **labels: Any) -> _NullMetric:
        return NULL_METRIC

    def gauge(self, name: str, **labels: Any) -> _NullMetric:
        return NULL_METRIC

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> _NullMetric:
        return NULL_METRIC

    def snapshot(self) -> List[Dict[str, Any]]:
        return []

    def value(self, name: str, **labels: Any) -> Optional[float]:
        return None

    def reset(self) -> None:
        pass


NULL_METRICS = NullMetricsRegistry()
