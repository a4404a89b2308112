"""Tests for the console tree, JSONL round-trip and stage breakdowns."""

from __future__ import annotations

import io
import json

import pytest

from repro.execution.clock import SimulatedClock
from repro.observability import (
    Observability,
    export_jsonl,
    read_jsonl,
    render_breakdown,
    render_span_tree,
    stage_breakdown,
    write_jsonl,
)


def _sample_observability() -> Observability:
    obs = Observability(clock=SimulatedClock())
    with obs.span("run", task="shopping"):
        with obs.span("compose"):
            with obs.span("discovery", activity="Pay", pool_size=30):
                pass
        with obs.span("invoke", activity="Pay", attempt=1) as span:
            span.set(succeeded=True)
    obs.counter("invocations_total", status="ok").inc()
    obs.histogram("qassa_selection_seconds").observe(0.012)
    return obs


class TestSpanTree:
    def test_tree_contains_names_durations_and_attributes(self):
        obs = _sample_observability()
        text = render_span_tree(obs.spans)
        lines = text.splitlines()
        assert lines[0].startswith("run")
        assert "ms" in lines[0] or "s" in lines[0]
        assert any("discovery" in line and "pool_size=30" in line
                   for line in lines)
        assert any("invoke" in line and "succeeded=True" in line
                   for line in lines)
        # Tree connectors show the hierarchy.
        assert any(line.lstrip().startswith(("├─", "└─")) for line in lines)

    def test_empty_trace_renders_empty(self):
        assert render_span_tree([]) == ""


class TestJsonlRoundTrip:
    def test_every_line_parses_and_types_partition(self):
        obs = _sample_observability()
        buffer = io.StringIO()
        count = write_jsonl(obs, buffer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == count
        records = [json.loads(line) for line in lines]
        spans = [r for r in records if r["type"] == "span"]
        metrics = [r for r in records if r["type"].startswith("metric.")]
        assert len(spans) == 4
        assert len(metrics) == 2
        assert spans and all("duration_s" in r for r in spans)

    def test_parent_links_reconstruct_the_tree(self):
        obs = _sample_observability()
        records = export_jsonl(obs)
        spans = {r["span_id"]: r for r in records if r["type"] == "span"}
        roots = [r for r in spans.values() if r["parent_id"] is None]
        assert [r["name"] for r in roots] == ["run"]
        compose = next(r for r in spans.values() if r["name"] == "compose")
        discovery = next(r for r in spans.values() if r["name"] == "discovery")
        assert compose["parent_id"] == roots[0]["span_id"]
        assert discovery["parent_id"] == compose["span_id"]

    def test_file_round_trip(self, tmp_path):
        obs = _sample_observability()
        path = tmp_path / "dump.jsonl"
        written = write_jsonl(obs, str(path))
        records = read_jsonl(str(path))
        assert len(records) == written
        counter = next(
            r for r in records if r["type"] == "metric.counter"
        )
        assert counter["name"] == "invocations_total"
        assert counter["labels"] == {"status": "ok"}
        assert counter["value"] == 1.0


class TestStageBreakdown:
    def test_aggregates_by_name_sorted_by_total(self):
        obs = Observability()
        with obs.span("outer"):
            for _ in range(3):
                with obs.span("inner"):
                    sum(range(200))
        breakdown = stage_breakdown(obs.spans)
        assert set(breakdown) == {"outer", "inner"}
        assert breakdown["inner"]["count"] == 3
        assert breakdown["outer"]["total_s"] >= breakdown["inner"]["total_s"]
        # outer contains the inners, so it sorts first.
        assert list(breakdown)[0] == "outer"

    def test_self_time_subtracts_the_union_of_the_children(self):
        obs = Observability()
        with obs.span("parent"):
            with obs.span("child"):
                pass
            with obs.span("child"):
                pass
        (parent,) = obs.spans
        first, second = parent.children
        parent.started_wall, parent.ended_wall = 10.0, 20.0
        first.started_wall, first.ended_wall = 11.0, 14.0
        # Overlaps the first child: the union is [11, 16], 5 s long.
        second.started_wall, second.ended_wall = 13.0, 16.0
        breakdown = stage_breakdown(obs.spans)
        assert breakdown["parent"]["total_s"] == 10.0
        assert breakdown["parent"]["self_s"] == 5.0
        assert breakdown["child"]["total_s"] == 6.0
        assert breakdown["child"]["self_s"] == 6.0
        header = render_breakdown(breakdown).splitlines()[0].split()
        assert header[:4] == ["stage", "count", "total", "self"]

    def test_render_breakdown_table(self):
        obs = _sample_observability()
        text = render_breakdown(stage_breakdown(obs.spans))
        lines = text.splitlines()
        assert lines[0].split()[:2] == ["stage", "count"]
        assert any("invoke" in line for line in lines)

    def test_render_empty_breakdown(self):
        text = render_breakdown({})
        assert "stage" in text


class TestAtomicWrites:
    def test_write_atomic_replaces_and_leaves_no_temp_files(self, tmp_path):
        from repro.observability.exporters import write_atomic

        path = tmp_path / "dump.jsonl"
        path.write_text("previous contents\n")
        write_atomic(path, lambda handle: handle.write("fresh\n"))
        assert path.read_text() == "fresh\n"
        assert [p.name for p in tmp_path.iterdir()] == ["dump.jsonl"]

    def test_failed_render_preserves_the_previous_file(self, tmp_path):
        from repro.observability.exporters import write_atomic

        path = tmp_path / "dump.jsonl"
        path.write_text("previous contents\n")

        def torn(handle):
            handle.write("half a reco")
            raise RuntimeError("crash mid-export")

        with pytest.raises(RuntimeError):
            write_atomic(path, torn)
        # The old file survives untouched; the torn temp file is gone.
        assert path.read_text() == "previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["dump.jsonl"]
