"""MetricsRegistry semantics: labels, buckets, conflicts, no-op mode."""

import pytest

from repro.exceptions import ALVCError, TelemetryError
from repro.observability import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NullMetricsRegistry,
    prometheus_metrics_text,
)
from repro.service.journal import NULL_RECORDER


class TestCounters:
    def test_inc_defaults_to_one(self):
        registry = MetricsRegistry()
        registry.counter("events_total").inc()
        registry.counter("events_total").inc(2)
        assert registry.value_of("events_total") == 3

    def test_same_name_same_labels_is_same_series(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", kind="a")
        second = registry.counter("x_total", kind="a")
        assert first is second

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("x_total", kind="a").inc()
        registry.counter("x_total", kind="b").inc(5)
        assert registry.value_of("x_total", kind="a") == 1
        assert registry.value_of("x_total", kind="b") == 5
        assert registry.series_count() == 2

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("x_total", a="1", b="2").inc()
        assert registry.value_of("x_total", b="2", a="1") == 1

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.counter("x_total").inc(-1)

    def test_telemetry_error_is_alvc_error(self):
        assert issubclass(TelemetryError, ALVCError)


class TestGauges:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(3)
        assert registry.value_of("depth") == 3


class TestHistograms:
    def test_observations_land_in_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sizes", buckets=(1, 2, 4))
        for value in (0.5, 1.5, 3, 100):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(105.0)
        # Cumulative: le=1 sees 0.5; le=2 sees 0.5, 1.5; le=4 adds 3.
        assert histogram.bucket_counts == [1, 2, 3]

    def test_default_buckets_used_when_omitted(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sizes")
        assert histogram.upper_bounds == tuple(
            float(bound) for bound in DEFAULT_BUCKETS
        )

    def test_value_of_returns_count(self):
        registry = MetricsRegistry()
        registry.histogram("sizes", buckets=(1,)).observe(9)
        assert registry.value_of("sizes") == 1


class TestRegistry:
    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TelemetryError):
            registry.gauge("thing")

    def test_bad_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.counter("no spaces allowed")

    def test_snapshot_round_trips_series(self):
        registry = MetricsRegistry()
        registry.counter("x_total", kind="a", help="things").inc(2)
        snapshot = registry.snapshot()
        family = snapshot["x_total"]
        assert family["kind"] == "counter"
        [series] = family["series"]
        assert series["labels"] == {"kind": "a"}
        assert series["value"] == 2

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("x_total").inc()
        registry.reset()
        assert registry.series_count() == 0

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help text", kind="a").inc(2)
        registry.histogram("h", buckets=(1, 2)).observe(1.5)
        text = prometheus_metrics_text(registry)
        assert "# HELP x_total help text" in text
        assert "# TYPE x_total counter" in text
        assert 'x_total{kind="a"} 2' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 1.5" in text
        assert "h_count 1" in text


class _Unwind(Exception):
    """Raised inside a frame to unwind what it recorded."""


class TestRewind:
    def test_values_return_and_new_series_go(self):
        registry = MetricsRegistry()
        registry.counter("x_total", kind="a").inc(2)
        registry.gauge("level").set(5)
        registry.histogram("h", buckets=(1, 2)).observe(1.5)
        before = registry.snapshot()
        with pytest.raises(_Unwind), NULL_RECORDER.operation():
            registry.counter("x_total", kind="a").inc(3)
            registry.counter("x_total", kind="b").inc()
            registry.counter("fresh_total").inc()
            registry.gauge("level").set(9)
            registry.gauge("level").dec(2)
            raise _Unwind
        # New series are gone, not left at 0, and so is a family that
        # only they made up.
        assert registry.snapshot() == before

    def test_histograms_keep_their_observations(self):
        registry = MetricsRegistry()
        with pytest.raises(_Unwind), NULL_RECORDER.operation():
            registry.histogram("h", buckets=(1, 2)).observe(1.5)
            registry.counter("alvc_chains_provision_failures_total").inc()
            raise _Unwind
        assert registry.value_of("h") == 1.0
        assert registry.value_of("alvc_chains_provision_failures_total") == 1

    def test_null_registry_marks_nothing(self):
        registry = NullMetricsRegistry()
        with pytest.raises(_Unwind), NULL_RECORDER.operation():
            registry.counter("x_total").inc()
            raise _Unwind
        assert registry.snapshot() == {}


class TestNullRegistry:
    def test_disabled_and_shared_singletons(self):
        registry = NullMetricsRegistry()
        assert not registry.enabled
        # All calls return the same preallocated no-op objects: no
        # allocation on the hot path.
        assert registry.counter("a_total") is registry.counter("b_total", k="v")
        assert registry.gauge("a") is registry.gauge("b")
        assert registry.histogram("a") is registry.histogram("b")

    def test_noop_instruments_record_nothing(self):
        registry = NullMetricsRegistry()
        registry.counter("x_total").inc(10)
        registry.gauge("g").set(3)
        registry.histogram("h").observe(1)
        assert registry.series_count() == 0
        assert registry.snapshot() == {}
