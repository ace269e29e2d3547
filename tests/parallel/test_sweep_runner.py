"""Unit tests for :class:`repro.parallel.SweepRunner`.

Trial functions live at module top level so the ``spawn`` start method
can pickle them by qualified name into worker processes.
"""

import pytest

from repro.exceptions import TelemetryError, ValidationError
from repro.observability import Telemetry
from repro.parallel import SweepRunner


def square(value):
    return value * value


def record_one(value):
    from repro.observability import current_telemetry

    current_telemetry().counter(
        "alvc_test_trials_total", "trials run by the rollup test"
    ).inc()
    current_telemetry().histogram(
        "alvc_test_value", "trial parameter", buckets=(1.0, 10.0, 100.0)
    ).observe(float(value))
    return value


def failing(value):
    raise RuntimeError(f"boom on {value}")


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValidationError):
            SweepRunner(workers=0)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValidationError):
            SweepRunner(chunk_size=0)

    @pytest.mark.parametrize("workers", [True, 2.5, "2"])
    def test_workers_must_be_an_integer(self, workers):
        with pytest.raises(ValidationError):
            SweepRunner(workers=workers)


class TestInline:
    def test_empty_params(self):
        assert SweepRunner().map(square, []) == []

    def test_ordered_results(self):
        assert SweepRunner().map(square, range(6)) == [
            0,
            1,
            4,
            9,
            16,
            25,
        ]

    def test_inline_records_into_parent_telemetry(self):
        telemetry = Telemetry.enabled_instance()
        runner = SweepRunner(telemetry=telemetry)
        runner.map(record_one, [1, 2, 3])
        registry = telemetry.registry
        assert registry.value_of("alvc_test_trials_total") == 3.0
        assert registry.value_of("alvc_sweep_trials_total", workers="1") == 3.0
        assert registry.value_of("alvc_sweep_chunks_total", workers="1") == 1.0

    def test_trial_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom on 2"):
            SweepRunner().map(failing, [2])


class TestChunking:
    def test_default_chunks_four_per_worker(self):
        runner = SweepRunner(workers=2)
        chunks = runner._chunks(list(range(16)))
        assert [len(chunk) for chunk in chunks] == [2] * 8

    def test_explicit_chunk_size(self):
        runner = SweepRunner(workers=2, chunk_size=5)
        chunks = runner._chunks(list(range(12)))
        assert [len(chunk) for chunk in chunks] == [5, 5, 2]

    def test_chunks_preserve_order(self):
        runner = SweepRunner(workers=3, chunk_size=4)
        chunks = runner._chunks(list(range(10)))
        assert [value for chunk in chunks for value in chunk] == list(
            range(10)
        )


class TestParallel:
    def test_results_match_inline(self):
        params = list(range(20))
        inline = SweepRunner(workers=1).map(square, params)
        parallel = SweepRunner(workers=2, chunk_size=3).map(square, params)
        assert parallel == inline

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            SweepRunner(workers=2).map(failing, [1, 2])

    def test_worker_telemetry_rolls_up(self):
        telemetry = Telemetry.enabled_instance()
        runner = SweepRunner(workers=2, chunk_size=2, telemetry=telemetry)
        runner.map(record_one, [1, 2, 3, 4, 5])
        registry = telemetry.registry
        assert registry.value_of("alvc_test_trials_total") == 5.0
        # Histogram counts merged across worker snapshots.
        assert registry.value_of("alvc_test_value") == 5.0
        assert registry.value_of("alvc_sweep_trials_total", workers="2") == 5.0
        assert registry.value_of("alvc_sweep_chunks_total", workers="2") == 3.0

    def test_disabled_telemetry_stays_silent(self):
        telemetry = Telemetry.disabled_instance()
        runner = SweepRunner(workers=2, telemetry=telemetry)
        assert runner.map(square, [1, 2, 3]) == [1, 4, 9]
        assert telemetry.registry.series_count() == 0


class TestMergeSnapshot:
    def test_counters_and_gauges_add(self):
        source = Telemetry.enabled_instance()
        source.counter("alvc_c_total", "c", arm="x").inc(3)
        source.gauge("alvc_g", "g").set(2.5)
        target = Telemetry.enabled_instance()
        target.counter("alvc_c_total", "c", arm="x").inc(1)
        target.registry.merge_snapshot(source.registry.snapshot())
        assert target.registry.value_of("alvc_c_total", arm="x") == 4.0
        assert target.registry.value_of("alvc_g") == 2.5

    def test_histograms_merge_bucketwise(self):
        source = Telemetry.enabled_instance()
        histogram = source.histogram(
            "alvc_h", "h", buckets=(1.0, 5.0)
        )
        histogram.observe(0.5)
        histogram.observe(3.0)
        histogram.observe(99.0)
        target = Telemetry.enabled_instance()
        target.histogram("alvc_h", "h", buckets=(1.0, 5.0)).observe(0.1)
        target.registry.merge_snapshot(source.registry.snapshot())
        merged = target.registry.histogram("alvc_h", buckets=(1.0, 5.0))
        assert merged.count == 4
        assert merged.sum == pytest.approx(102.6)
        assert merged.bucket_counts == [2, 3]

    def test_kind_mismatch_rejected(self):
        source = Telemetry.enabled_instance()
        source.counter("alvc_clash", "as counter").inc()
        target = Telemetry.enabled_instance()
        target.gauge("alvc_clash", "as gauge").set(1)
        with pytest.raises(TelemetryError):
            target.registry.merge_snapshot(source.registry.snapshot())

    def test_bucket_mismatch_rejected(self):
        source = Telemetry.enabled_instance()
        source.histogram("alvc_hb", "h", buckets=(1.0, 2.0)).observe(0.5)
        target = Telemetry.enabled_instance()
        target.histogram("alvc_hb", "h", buckets=(1.0, 4.0)).observe(0.5)
        with pytest.raises(TelemetryError):
            target.registry.merge_snapshot(source.registry.snapshot())

    def test_null_registry_swallows(self):
        source = Telemetry.enabled_instance()
        source.counter("alvc_c_total", "c").inc()
        null = Telemetry.disabled_instance()
        null.registry.merge_snapshot(source.registry.snapshot())
        assert null.registry.series_count() == 0
