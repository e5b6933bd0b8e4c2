"""Instrument semantics and the metrics snapshot document."""

import pytest

from repro.obs.metrics import (
    METRICS_SCHEMA,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    get_registry,
    use_registry,
)
from repro.obs.schema import validate_metrics


class TestCounter:
    def test_accumulates_per_label_combination(self):
        registry = MetricsRegistry()
        counter = registry.counter("verify.checks")
        counter.inc(method="exact")
        counter.inc(2, method="exact")
        counter.inc(method="bounded")
        assert counter.value(method="exact") == 3
        assert counter.value(method="bounded") == 1
        assert counter.value(method="missing") == 0

    def test_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_registry_returns_the_same_instrument_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")


class TestGauge:
    def test_set_overwrites_and_set_max_keeps_high_water(self):
        gauge = MetricsRegistry().gauge("medium.queue_depth")
        gauge.set(3, channel="1->2")
        gauge.set(1, channel="1->2")
        assert gauge.value(channel="1->2") == 1
        gauge.set_max(5, channel="1->2")
        gauge.set_max(2, channel="1->2")
        assert gauge.value(channel="1->2") == 5

    def test_unset_series_reads_none(self):
        assert MetricsRegistry().gauge("g").value(channel="?") is None


class TestHistogram:
    def test_bounds_are_upper_inclusive_with_overflow(self):
        histogram = Histogram("h", buckets=(1, 5, 10))
        for value in (0, 1, 2, 5, 11):
            histogram.observe(value)
        series, = histogram.series()
        assert series["count"] == 5
        assert series["sum"] == 19
        assert series["buckets"] == [[1, 2], [5, 2], [10, 0]]
        assert series["overflow"] == 1

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", buckets=(5, 1))

    def test_count_per_labels(self):
        histogram = Histogram("h", buckets=(10,))
        histogram.observe(1, channel="a")
        histogram.observe(2, channel="a")
        assert histogram.count(channel="a") == 2
        assert histogram.count(channel="b") == 0


class TestSnapshot:
    def test_document_shape_and_schema(self):
        registry = MetricsRegistry()
        registry.counter("derive.places", help="places").inc(3)
        registry.gauge("g").set(1, channel="1->2")
        registry.histogram("h").observe(4)
        document = registry.snapshot()
        assert document["schema"] == METRICS_SCHEMA
        assert validate_metrics(document) == []
        names = [entry["name"] for entry in document["metrics"]]
        assert names == sorted(names)

    def test_render_lists_every_series(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(2)
        registry.gauge("depth").set(4, channel="1->2")
        registry.histogram("delay").observe(3)
        text = registry.render()
        assert "runs 2" in text
        assert "depth{channel=1->2} 4" in text
        assert "delay count=1 sum=3" in text

    def test_reset_clears_all_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot()["metrics"] == []


class TestNullRegistry:
    def test_default_is_the_null_registry(self):
        assert get_registry() is NULL_REGISTRY
        assert not NULL_REGISTRY.enabled

    def test_instruments_are_the_shared_noop(self):
        assert NULL_REGISTRY.counter("x") is NULL_INSTRUMENT
        assert NULL_REGISTRY.gauge("y") is NULL_INSTRUMENT
        assert NULL_REGISTRY.histogram("z") is NULL_INSTRUMENT
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.set(3)
        NULL_INSTRUMENT.observe(1)
        assert NULL_INSTRUMENT.value() == 0

    def test_use_registry_restores_the_previous_one(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            assert get_registry() is registry
        assert get_registry() is NULL_REGISTRY
