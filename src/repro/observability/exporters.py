"""Exporters: console span tree, JSONL dump, per-stage breakdowns.

Three ways out of the in-process tracer/registry:

* :func:`render_span_tree` — a human-readable tree with wall/simulated
  durations and the most useful attributes (what ``--trace`` prints);
* :func:`export_jsonl` / :func:`write_jsonl` — one JSON object per line
  (``{"type": "span"|"metric.*"|"trace.dropped", ...}``), the
  machine-readable format ``--metrics-out`` writes and tests round-trip;
* :func:`stage_breakdown` / :func:`render_breakdown` — aggregate spans by
  name into per-stage timing tables (the experiment harness's answer to
  "where did the time go?"), laid out by :func:`render_table`, the one
  fixed-width text table every console report prints.

The *no-op* exporter is simply not calling any of these — the disabled
middleware never materialises spans or metrics in the first place.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
from typing import (
    Any, Callable, Dict, IO, Iterable, List, Mapping, Optional, Sequence,
)

from repro.observability.spans import Span


def write_atomic(path: Any, render: Callable[[IO[str]], None]) -> None:
    """Write a file atomically: temp file in the target dir + ``os.replace``.

    A crash mid-export (a real scenario under chaos injection) leaves
    either the previous file or the complete new one — never a torn
    half-written dump.  The temp file lives in the destination directory
    so the final rename stays on one filesystem.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            render(handle)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise

#: Span attributes surfaced inline in the console tree, in display order.
_TREE_ATTRIBUTES = (
    "task", "activity", "capability", "service_id", "attempt", "succeeded",
    "pool_size", "candidates", "levels", "combinations_explored",
    "utility", "feasible", "kind", "action", "trigger_kind", "policy",
    "error",
)


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000:.3f}ms"


def _format_attributes(span: Span) -> str:
    shown = []
    for key in _TREE_ATTRIBUTES:
        if key in span.attributes:
            value = span.attributes[key]
            if isinstance(value, float):
                value = f"{value:.4g}"
            shown.append(f"{key}={value}")
    for key, value in span.attributes.items():
        if key not in _TREE_ATTRIBUTES:
            if isinstance(value, float):
                value = f"{value:.4g}"
            shown.append(f"{key}={value}")
    return f" [{', '.join(shown)}]" if shown else ""


def render_span_tree(spans: Iterable[Span]) -> str:
    """An indented tree of spans with durations, ready to print."""
    lines: List[str] = []

    def _render(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        sim = span.sim_duration
        sim_part = f" (sim {_format_duration(sim)})" if sim else ""
        lines.append(
            f"{prefix}{connector}{span.name}"
            f"  {_format_duration(span.duration)}{sim_part}"
            f"{_format_attributes(span)}"
        )
        child_prefix = prefix if is_root else (
            prefix + ("   " if is_last else "│  ")
        )
        for i, child in enumerate(span.children):
            _render(child, child_prefix, i == len(span.children) - 1, False)

    roots = list(spans)
    for root in roots:
        _render(root, "", True, True)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def export_jsonl(observability: Any) -> List[Dict[str, Any]]:
    """All retained spans and metrics as JSON-serialisable records.

    A live tracer also writes one ``{"type": "trace.dropped", "roots":
    N}`` record: the finished root spans its ring dropped before the
    export (0 when the spans are complete).
    """
    records: List[Dict[str, Any]] = []
    tracer = observability.tracer
    for root in tracer.all_spans() if hasattr(tracer, "all_spans") else ():
        record = root.to_dict()
        record["type"] = "span"
        records.append(record)
    if getattr(tracer, "enabled", False):
        records.append(
            {"type": "trace.dropped", "roots": tracer.dropped_roots}
        )
    for metric in observability.metrics.snapshot():
        metric = dict(metric)
        metric["type"] = f"metric.{metric.pop('type')}"
        records.append(metric)
    return records


def write_jsonl(observability: Any, stream_or_path: Any) -> int:
    """Write the JSONL dump; returns the number of records written.

    Paths are written atomically (see :func:`write_atomic`): readers — and
    post-crash forensics — never observe a torn file.
    """
    records = export_jsonl(observability)
    if hasattr(stream_or_path, "write"):
        _write_records(records, stream_or_path)
    else:
        write_atomic(
            stream_or_path, lambda handle: _write_records(records, handle)
        )
    return len(records)


def _write_records(records: Sequence[Mapping[str, Any]], handle: IO[str]) -> None:
    for record in records:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(stream_or_path: Any) -> List[Dict[str, Any]]:
    """Parse a JSONL dump back into records (the round-trip helper)."""
    if hasattr(stream_or_path, "read"):
        text = stream_or_path.read()
    else:
        with open(stream_or_path, "r", encoding="utf-8") as handle:
            text = handle.read()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# ----------------------------------------------------------------------
# per-stage breakdowns
# ----------------------------------------------------------------------
def stage_breakdown(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Aggregate all spans (roots + descendants) by span name.

    Returns ``name -> {count, total_s, self_s, median_s, min_s, max_s}``,
    sorted by descending total time.  ``self_s`` sums each span's
    :func:`_self_time`, the part of the stage no child stage accounts for.
    """
    durations: Dict[str, List[float]] = {}
    self_times: Dict[str, float] = {}
    for root in spans:
        for span in root.walk():
            durations.setdefault(span.name, []).append(span.duration)
            self_times[span.name] = (
                self_times.get(span.name, 0.0) + _self_time(span)
            )
    breakdown = {
        name: {
            "count": float(len(values)),
            "total_s": sum(values),
            "self_s": self_times[name],
            "median_s": statistics.median(values),
            "min_s": min(values),
            "max_s": max(values),
        }
        for name, values in durations.items()
    }
    return dict(
        sorted(breakdown.items(), key=lambda kv: -kv[1]["total_s"])
    )


def _self_time(span: Span) -> float:
    """``span``'s duration less the union of its children's intervals.

    Each child's interval is clipped to the span's own, and overlapping
    children (a parallel branch's) are counted once, so the result is
    never negative.
    """
    if not span.children:
        return span.duration
    start = span.started_wall
    end = start + span.duration
    covered, reach = 0.0, start
    for child in sorted(span.children, key=lambda c: c.started_wall):
        low = max(child.started_wall, reach)
        high = min(child.started_wall + child.duration, end)
        if high > low:
            covered += high - low
            reach = high
    return span.duration - covered


def render_breakdown(breakdown: Mapping[str, Mapping[str, float]]) -> str:
    """The per-stage table ``experiment --trace`` prints."""
    headers = ("stage", "count", "total", "self", "median", "min", "max")
    rows = [
        (
            name,
            f"{int(stats['count'])}",
            _format_duration(stats["total_s"]),
            _format_duration(stats["self_s"]),
            _format_duration(stats["median_s"]),
            _format_duration(stats["min_s"]),
            _format_duration(stats["max_s"]),
        )
        for name, stats in breakdown.items()
    ]
    return render_table(headers, rows)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """A fixed-width table with a rule under the header."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
