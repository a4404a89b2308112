"""Tests for the span tracer (repro.observability.spans)."""

from __future__ import annotations

import pytest

from repro.execution.clock import SimulatedClock
from repro.observability import (
    NULL_SPAN,
    NULL_TRACER,
    Observability,
    Span,
    Tracer,
    export_jsonl,
)
from repro.observability.spans import TRACE_CAPACITY, NullTracer


class TestSpanNesting:
    def test_root_span_lands_in_tracer(self):
        tracer = Tracer()
        with tracer.span("compose"):
            pass
        assert [s.name for s in tracer.spans] == ["compose"]
        assert tracer.spans[0].parent_id is None

    def test_children_nest_under_open_parent(self):
        tracer = Tracer()
        with tracer.span("compose") as parent:
            with tracer.span("discovery"):
                pass
            with tracer.span("qassa.select"):
                with tracer.span("qassa.cluster"):
                    pass
        assert [c.name for c in parent.children] == [
            "discovery", "qassa.select",
        ]
        assert [c.name for c in parent.children[1].children] == [
            "qassa.cluster"
        ]
        # Only the root is registered at top level.
        assert [s.name for s in tracer.spans] == ["compose"]

    def test_sequential_roots_accumulate(self):
        tracer = Tracer()
        with tracer.span("run"):
            pass
        with tracer.span("run"):
            pass
        assert len(tracer.spans) == 2

    def test_walk_and_find(self):
        tracer = Tracer()
        with tracer.span("run") as root:
            with tracer.span("invoke"):
                pass
            with tracer.span("invoke"):
                pass
        assert len(root.find("invoke")) == 2
        assert [s.name for s in root.walk()] == ["run", "invoke", "invoke"]


class TestSpanTimestamps:
    def test_wall_duration_is_positive(self):
        tracer = Tracer()
        with tracer.span("stage") as span:
            sum(range(1000))
        assert span.duration > 0.0
        assert span.ended_wall >= span.started_wall

    def test_open_span_reports_zero_duration(self):
        tracer = Tracer()
        span = tracer.span("stage")
        with span:
            assert span.duration == 0.0
        assert span.duration > 0.0

    def test_simulated_clock_captured(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        with tracer.span("invoke") as span:
            clock.advance(2.5)
        assert span.started_sim == 0.0
        assert span.ended_sim == 2.5
        assert span.sim_duration == 2.5

    def test_no_clock_means_no_sim_times(self):
        tracer = Tracer()
        with tracer.span("invoke") as span:
            pass
        assert span.started_sim is None
        assert span.sim_duration is None


class TestSpanAttributes:
    def test_creation_and_set_attributes_merge(self):
        tracer = Tracer()
        with tracer.span("discovery", activity="Pay") as span:
            span.set(pool_size=30)
        assert span.attributes == {"activity": "Pay", "pool_size": 30}

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("stage") as span:
                raise ValueError("boom")
        assert "ValueError" in span.attributes["error"]
        # The span still closed and registered.
        assert tracer.spans == [span]

    def test_to_dict_round_trip_fields(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("invoke", attempt=1) as span:
            pass
        record = span.to_dict()
        assert record["name"] == "invoke"
        assert record["attributes"] == {"attempt": 1}
        assert record["parent_id"] is None
        assert record["duration_s"] == span.duration


class TestTracerHousekeeping:
    def test_reset_drops_finished_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.spans == []

    def test_all_spans_flattens_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.name for s in tracer.all_spans()] == ["a", "b", "c"]

    def test_span_ids_unique(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        ids = [s.span_id for s in tracer.all_spans()]
        assert len(set(ids)) == len(ids)


class TestNullTracer:
    def test_null_tracer_is_shared_and_allocation_free(self):
        assert isinstance(NULL_TRACER, NullTracer)
        span = NULL_TRACER.span("anything", attr=1)
        assert span is NULL_SPAN
        # Re-issuing returns the very same object: no per-span allocation.
        assert NULL_TRACER.span("other") is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            assert span.set(foo=1) is NULL_SPAN
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.all_spans() == ()

    def test_null_span_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            with NULL_SPAN:
                raise RuntimeError("boom")


class TestTracerRing:
    """The tracer keeps the newest TRACE_CAPACITY root trees, like the
    flight recorder keeps its newest events, and counts what it drops."""

    @staticmethod
    def _request(tracer, index):
        with tracer.span("runtime.request", index=index):
            for stage in ("discovery", "qassa.select", "execute"):
                with tracer.span(stage, index=index):
                    pass

    def test_keeps_the_newest_roots_and_counts_the_dropped(self):
        tracer = Tracer()
        total = TRACE_CAPACITY + 10
        for index in range(total):
            self._request(tracer, index)
        assert len(tracer.spans) == TRACE_CAPACITY
        assert tracer.dropped_roots == 10
        assert [s.attributes["index"] for s in tracer.spans] == list(
            range(10, total)
        )
        assert len(tracer.all_spans()) == 4 * TRACE_CAPACITY

    def test_nothing_dropped_reads_zero(self):
        tracer = Tracer()
        self._request(tracer, 0)
        assert tracer.dropped_roots == 0
        assert NULL_TRACER.dropped_roots == 0
        tracer.reset()
        assert tracer.dropped_roots == 0

    def test_the_dump_says_how_many_roots_were_dropped(self):
        obs = Observability()
        for index in range(TRACE_CAPACITY + 3):
            self._request(obs.tracer, index)
        records = export_jsonl(obs)
        (dropped,) = [r for r in records if r["type"] == "trace.dropped"]
        assert dropped["roots"] == 3
        spans = [r for r in records if r["type"] == "span"]
        assert len(spans) == 4 * TRACE_CAPACITY

    def test_the_traced_heap_stops_growing(self):
        import tracemalloc

        tracer = Tracer()
        tracemalloc.start()
        try:
            for index in range(TRACE_CAPACITY + 256):
                self._request(tracer, index)
            full, _ = tracemalloc.get_traced_memory()
            for index in range(2 * TRACE_CAPACITY):
                self._request(tracer, index)
            later, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert later - full < 0.05 * full


class TestTracerConcurrency:
    """Regression: reset() racing workers that append roots concurrently."""

    def test_reset_never_drops_concurrently_finished_roots(self):
        import threading

        tracer = Tracer()
        per_thread = 500
        workers = 4
        batches = []
        stop = threading.Event()

        def produce():
            for _ in range(per_thread):
                with tracer.span("root"):
                    pass

        def reap():
            while not stop.is_set():
                batches.append(tracer.reset())

        threads = [threading.Thread(target=produce) for _ in range(workers)]
        reaper = threading.Thread(target=reap)
        reaper.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        reaper.join()
        batches.append(tracer.reset())
        # Every finished root landed in exactly one reaped batch.
        reaped = [span for batch in batches for span in batch]
        assert len(reaped) == workers * per_thread
        assert len({span.span_id for span in reaped}) == len(reaped)

    def test_all_spans_snapshot_is_stable_under_concurrent_appends(self):
        import threading

        tracer = Tracer()
        done = threading.Event()

        def produce():
            while not done.is_set():
                with tracer.span("root"):
                    pass

        producer = threading.Thread(target=produce)
        producer.start()
        try:
            for _ in range(200):
                snapshot = tracer.all_spans()
                # The walk over the snapshot never raises even while the
                # producer keeps appending to the live roots list.
                assert all(span.name == "root" for span in snapshot)
        finally:
            done.set()
            producer.join()
