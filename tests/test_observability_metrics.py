"""Tests for counters, gauges and histograms (repro.observability.metrics)."""

from __future__ import annotations

import pytest

from repro.observability import MetricsRegistry, NULL_METRICS
from repro.observability.metrics import Counter, Histogram, NULL_METRIC


class TestCounter:
    def test_get_or_create_and_increment(self):
        registry = MetricsRegistry()
        registry.counter("invocations_total").inc()
        registry.counter("invocations_total").inc(2)
        assert registry.value("invocations_total") == 3

    def test_labels_partition_series(self):
        registry = MetricsRegistry()
        registry.counter("invocations_total", status="ok").inc()
        registry.counter("invocations_total", status="failed").inc(4)
        assert registry.value("invocations_total", status="ok") == 1
        assert registry.value("invocations_total", status="failed") == 4
        assert registry.value("invocations_total") is None

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("pool_size")
        gauge.set(10)
        gauge.add(-3)
        assert registry.value("pool_size") == 7


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 4.0, 10.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 16.0
        assert histogram.minimum == 0.5
        assert histogram.maximum == 10.0
        assert histogram.mean == 4.0

    def test_bucket_assignment_with_overflow(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        for value in (0.1, 0.9, 1.5, 99.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1]

    def test_quantiles_interpolate_within_the_bucket(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 5.0, 10.0))
        for value in [0.5] * 50 + [1.5] * 40 + [8.0] * 10:
            histogram.observe(value)
        # p50: rank 50 of 100 sits at the end of the first bucket, whose
        # span is [min=0.5, 1.0] -> 0.5 + (50/50)*0.5 = 1.0.
        assert histogram.quantile(0.5) == pytest.approx(1.0)
        # p90: rank 90, 40th of 40 in bucket (1.0, 2.0] -> its upper edge.
        assert histogram.quantile(0.9) == pytest.approx(2.0)
        # p99: rank 99, 9th of 10 in bucket (5.0, 10.0], clamped to the
        # observed maximum 8.0 (interpolation alone would say 9.5).
        assert histogram.quantile(0.99) == pytest.approx(8.0)
        # Interior interpolation: rank 70 is the 20th of 40 observations
        # in bucket (1.0, 2.0] -> 1.0 + (20/40)*1.0 = 1.5.
        assert histogram.quantile(0.7) == pytest.approx(1.5)

    def test_quantile_clamped_to_observed_range(self):
        histogram = Histogram("h", buckets=(100.0,))
        histogram.observe(3.0)
        assert histogram.quantile(0.5) == 3.0

    def test_empty_histogram_summary(self):
        histogram = Histogram("h", buckets=(1.0,))
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["min"] == 0.0
        assert summary["p99"] == 0.0

    def test_quantile_validation(self):
        histogram = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            histogram.quantile(0.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)


class TestHistogramEdgeCases:
    def test_empty_histogram_quantiles_and_mean(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        assert histogram.quantile(0.5) == 0.0
        assert histogram.mean == 0.0
        summary = histogram.summary()
        assert summary["p95"] == 0.0 and summary["p999"] == 0.0

    def test_single_observation_pins_every_quantile(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 5.0))
        histogram.observe(1.7)
        for q in (0.01, 0.5, 0.95, 0.999, 1.0):
            assert histogram.quantile(q) == pytest.approx(1.7)
        summary = histogram.summary()
        assert summary["min"] == summary["max"] == 1.7

    def test_overflow_bucket_interpolates_toward_the_maximum(self):
        histogram = Histogram("h", buckets=(1.0,))
        for value in (5.0, 10.0, 20.0):
            histogram.observe(value)
        # All mass in the overflow bucket [1.0, max=20.0]; quantiles stay
        # inside the observed range and are monotone in q.
        q50, q99 = histogram.quantile(0.5), histogram.quantile(0.99)
        assert 5.0 <= q50 <= q99 <= 20.0

    def test_unsorted_custom_bucket_bounds_are_sorted(self):
        histogram = Histogram("h", buckets=(5.0, 1.0, 2.0))
        assert histogram.buckets == (1.0, 2.0, 5.0)
        histogram.observe(1.5)
        assert histogram.counts == [0, 1, 0, 0]

    def test_summary_exposes_p95_and_p999(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        for value in range(1, 101):
            histogram.observe(value / 100)
        summary = histogram.summary()
        assert summary["p50"] <= summary["p90"] <= summary["p95"]
        assert summary["p95"] <= summary["p99"] <= summary["p999"]

    def test_merge_requires_identical_buckets_and_folds_counts(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        b = Histogram("h", buckets=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(99.0)
        a.merge(b)
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.minimum == 0.5 and a.maximum == 99.0
        with pytest.raises(ValueError):
            a.merge(Histogram("h", buckets=(1.0,)))

    def test_merge_with_empty_histogram_keeps_extremes(self):
        a = Histogram("h", buckets=(1.0,))
        a.observe(0.5)
        a.merge(Histogram("h", buckets=(1.0,)))
        assert a.minimum == 0.5 and a.maximum == 0.5 and a.count == 1


class TestRegistryLabelKeys:
    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("x_total", a="1", b="2").inc()
        assert registry.value("x_total", b="2", a="1") == 1
        assert registry.counter("x_total", b="2", a="1") is registry.counter(
            "x_total", a="1", b="2"
        )

    def test_non_string_label_values_are_stringified(self):
        registry = MetricsRegistry()
        registry.counter("x_total", code=200).inc()
        assert registry.value("x_total", code="200") == 1

    def test_same_name_different_label_keys_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        registry.gauge("g", shard="a").set(2.0)
        assert registry.value("g") == 1.0
        assert registry.value("g", shard="a") == 2.0
        labels = [r["labels"] for r in registry.snapshot()]
        assert {} in labels and {"shard": "a"} in labels


class TestRegistrySnapshot:
    def test_snapshot_is_json_shaped_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc()
        registry.gauge("a_gauge").set(1.0)
        registry.histogram("c_hist", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert [r["name"] for r in snapshot] == ["a_gauge", "b_total", "c_hist"]
        histogram_record = snapshot[2]
        assert histogram_record["type"] == "histogram"
        assert histogram_record["summary"]["count"] == 1.0

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert registry.snapshot() == []

    def test_snapshot_survives_an_instrument_created_mid_iteration(self):
        # Stands in for a worker thread creating its first instrument
        # while another thread serialises the registry.
        registry = MetricsRegistry()

        class SpawningCounter(Counter):
            def to_dict(self):
                registry.counter("spawned_total").inc()
                return super().to_dict()

        registry._counters[("spawning_total", ())] = SpawningCounter(
            "spawning_total"
        )
        names = [r["name"] for r in registry.snapshot()]
        assert names == ["spawning_total"]
        assert registry.value("spawned_total") == 1.0


class TestNullRegistry:
    def test_null_registry_hands_out_shared_sink(self):
        assert NULL_METRICS.counter("a") is NULL_METRIC
        assert NULL_METRICS.gauge("b") is NULL_METRIC
        assert NULL_METRICS.histogram("c") is NULL_METRIC

    def test_null_sink_is_inert(self):
        NULL_METRIC.inc()
        NULL_METRIC.set(5)
        NULL_METRIC.observe(1.0)
        assert NULL_METRICS.snapshot() == []
        assert NULL_METRICS.value("a") is None


class TestExemplars:
    def test_observe_keeps_the_worst_exemplar_per_bucket(self):
        histogram = Histogram("h", buckets=(1.0, 5.0))
        histogram.observe(0.4, exemplar="t1")
        histogram.observe(0.9, exemplar="t2")
        histogram.observe(0.5, exemplar="t3")  # not the bucket's worst
        histogram.observe(7.0, exemplar="t4")
        assert histogram.exemplar() == (7.0, "t4")
        record = histogram.to_dict()
        by_bucket = {
            index: entry["trace_id"]
            for index, entry in record["exemplars"].items()
        }
        assert by_bucket["0"] == "t2"
        assert by_bucket["2"] == "t4"

    def test_exemplar_is_none_without_observations_or_trace_ids(self):
        histogram = Histogram("h", buckets=(1.0,))
        assert histogram.exemplar() is None
        histogram.observe(0.5)  # untraced observation
        assert histogram.exemplar() is None
        assert "exemplars" not in histogram.to_dict()

    def test_merge_folds_exemplars_keeping_the_worst(self):
        left = Histogram("h", buckets=(1.0,))
        right = Histogram("h", buckets=(1.0,))
        left.observe(0.5, exemplar="slow-ish")
        right.observe(0.9, exemplar="slowest")
        left.merge(right)
        assert left.exemplar() == (0.9, "slowest")


class TestRegistryValue:
    def test_value_reads_histogram_counts(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency", buckets=(1.0,))
        histogram.observe(0.5)
        histogram.observe(2.0)
        assert registry.value("latency") == 2.0


class TestThreadSafety:
    """Lost-update regressions: instruments under concurrent mutation."""

    THREADS = 8
    PER_THREAD = 5_000

    def _hammer(self, target):
        import threading

        threads = [
            threading.Thread(target=target) for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_concurrent_histogram_observes_lose_no_updates(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 5.0))

        def worker():
            for index in range(self.PER_THREAD):
                histogram.observe(index % 7, exemplar=f"t{index}")

        self._hammer(worker)
        expected = self.THREADS * self.PER_THREAD
        assert histogram.count == expected
        assert sum(histogram.counts) == expected
        per_thread_total = sum(index % 7 for index in range(self.PER_THREAD))
        assert histogram.total == self.THREADS * per_thread_total

    def test_concurrent_gauge_adds_lose_no_updates(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")

        def worker():
            for _ in range(self.PER_THREAD):
                gauge.add(1.0)

        self._hammer(worker)
        assert registry.value("g") == self.THREADS * self.PER_THREAD

    def test_concurrent_counter_incs_lose_no_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")

        def worker():
            for _ in range(self.PER_THREAD):
                counter.inc()

        self._hammer(worker)
        assert registry.value("c_total") == self.THREADS * self.PER_THREAD
