"""Metric instruments and their registry.

A dependency-free, Prometheus-shaped metrics model:

* a **counter** only goes up (events, items processed);
* a **gauge** tracks a current level (active slices, queue depth);
* a **histogram** accumulates observations into cumulative buckets
  (latencies, cover sizes).

Instruments are grouped into **families** (one metric name, one kind, one
help string) and keyed by their **label set**, so
``registry.counter("alvc_vnfs_deployed_total", domain="optical")`` and the
same name with ``domain="electronic"`` are two series of one family —
exactly the Prometheus data model, but in-process and allocation-light.

The registry hands back live instrument objects; hot paths fetch an
instrument once and call ``inc``/``observe`` on it, paying a single method
call per event.  For the zero-cost-when-disabled mode see
:class:`~repro.observability.metrics.NullMetricsRegistry`, whose
instruments are preallocated no-op singletons.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping

from repro import undo
from repro.exceptions import TelemetryError

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds — tuned for sub-second control
#: plane latencies (seconds) but equally serviceable for small counts.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelSet = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelSet:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


#: Counters of *attempts* — requests that arrive or fail, not state.
#: Their increments are never unwound (:mod:`repro.undo`), so a failed
#: command still counts, and the state digest leaves them out.
ATTEMPT_COUNTERS = frozenset(
    {
        "alvc_provision_batches_total",
        "alvc_chains_provision_failures_total",
        "alvc_cover_infeasible_total",
        "alvc_faults_injected_total",
    }
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    #: Whether a failed command takes this counter's increments back.
    _unwound = True

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise TelemetryError(
                f"counters only go up; got inc({amount})"
            )
        if self._unwound:
            undo.push((setattr, self, "_value", self._value))
        self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        return self._value


class _AttemptCounter(Counter):
    """A counter in :data:`ATTEMPT_COUNTERS`."""

    __slots__ = ()

    _unwound = False


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to an absolute level."""
        undo.push((setattr, self, "_value", self._value))
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Raise the gauge."""
        undo.push((setattr, self, "_value", self._value))
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Lower the gauge."""
        undo.push((setattr, self, "_value", self._value))
        self._value -= amount

    @property
    def value(self) -> float:
        """Current level."""
        return self._value


class Histogram:
    """Observations accumulated into cumulative buckets.

    ``bucket_counts[i]`` counts observations ``<= upper_bounds[i]``
    (cumulative, Prometheus-style); observations above the last bound
    only land in the implicit ``+Inf`` bucket (``count``).
    """

    __slots__ = ("upper_bounds", "bucket_counts", "_count", "_sum")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise TelemetryError(
                f"histogram buckets must be non-empty and ascending: {buckets}"
            )
        self.upper_bounds = tuple(float(bound) for bound in buckets)
        self.bucket_counts = [0] * len(self.upper_bounds)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._count += 1
        self._sum += value
        for index, bound in enumerate(self.upper_bounds):
            if value <= bound:
                for later in range(index, len(self.bucket_counts)):
                    self.bucket_counts[later] += 1
                return

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0


class _Family:
    """One metric name: its kind, help text, and labeled series."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.series: dict[LabelSet, object] = {}


class MetricsRegistry:
    """Creates, deduplicates, and snapshots metric instruments.

    Asking twice for the same (name, labels) returns the *same*
    instrument, so call sites never need to cache instruments for
    correctness — only for speed.

    Inside a command (:mod:`repro.undo`) counter and gauge changes are
    logged, and so is each counter or gauge series the command creates:
    a failed command's series are dropped, not left at 0, because
    :meth:`snapshot` lists series, not only values.  Histograms
    (timings) and :data:`ATTEMPT_COUNTERS` are never unwound.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        """The counter series ``name{labels}`` (created on first use)."""
        factory = _AttemptCounter if name in ATTEMPT_COUNTERS else Counter
        return self._instrument(name, "counter", help, labels, factory)

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        """The gauge series ``name{labels}`` (created on first use)."""
        return self._instrument(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: object,
    ) -> Histogram:
        """The histogram series ``name{labels}`` (created on first use)."""

        def factory() -> Histogram:
            return Histogram(buckets or DEFAULT_BUCKETS)

        return self._instrument(name, "histogram", help, labels, factory)

    def _instrument(self, name, kind, help_text, labels, factory):
        if not _NAME_RE.match(name):
            raise TelemetryError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is not None and family.kind != kind:
            raise TelemetryError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        key = _label_key(labels)
        instrument = family.series.get(key) if family is not None else None
        if instrument is None:
            if kind != "histogram" and name not in ATTEMPT_COUNTERS:
                undo.push((self._drop, name, key))
            if family is None:
                family = _Family(name, kind, help_text)
                self._families[name] = family
            instrument = factory()
            family.series[key] = instrument
        return instrument

    def _drop(self, name: str, key: LabelSet) -> None:
        """Undo a series' creation, and its family's once empty.

        An instrument its caller cached is detached from the registry.
        """
        family = self._families[name]
        del family.series[key]
        if not family.series:
            del self._families[name]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Real registries record; the null registry reports False."""
        return True

    def series_count(self) -> int:
        """Number of labeled series across all families."""
        return sum(len(family.series) for family in self._families.values())

    def families(self) -> Iterator[_Family]:
        """All families, sorted by metric name."""
        for name in sorted(self._families):
            yield self._families[name]

    def value_of(self, name: str, **labels: object) -> float | None:
        """Value of a counter/gauge series, or None when absent.

        Histogram series return their observation count.
        """
        family = self._families.get(name)
        if family is None:
            return None
        instrument = family.series.get(_label_key(labels))
        if instrument is None:
            return None
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return instrument.value  # type: ignore[union-attr]

    def snapshot(self) -> dict:
        """A JSON-serializable view of every series.

        Shape::

            {name: {"kind": ..., "help": ...,
                    "series": [{"labels": {...}, ...values...}, ...]}}
        """
        out: dict = {}
        for family in self.families():
            series = []
            for key in sorted(family.series):
                instrument = family.series[key]
                entry: dict = {"labels": dict(key)}
                if isinstance(instrument, Histogram):
                    entry.update(
                        count=instrument.count,
                        sum=instrument.sum,
                        buckets=[
                            {"le": bound, "count": count}
                            for bound, count in zip(
                                instrument.upper_bounds,
                                instrument.bucket_counts,
                            )
                        ],
                    )
                else:
                    entry["value"] = instrument.value  # type: ignore[union-attr]
                series.append(entry)
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` (e.g. from a sweep worker) into this
        registry.

        Counters and gauges add their values; histograms add their
        per-bucket counts, observation counts, and sums.  Families and
        series absent here are created; merging a family whose kind (or
        a histogram whose bucket bounds) disagrees with an existing one
        raises :class:`TelemetryError`.  The parallel sweep runner uses
        this to roll per-worker telemetry up into the parent registry —
        summing is the only order-independent combination, so the rollup
        is deterministic regardless of worker count or completion order.
        """
        for name, family_data in snapshot.items():
            kind = family_data["kind"]
            help_text = family_data.get("help", "")
            for entry in family_data["series"]:
                labels = entry.get("labels", {})
                if kind == "counter":
                    self.counter(name, help_text, **labels).inc(
                        float(entry["value"])
                    )
                elif kind == "gauge":
                    self.gauge(name, help_text, **labels).inc(
                        float(entry["value"])
                    )
                elif kind == "histogram":
                    buckets = entry.get("buckets", [])
                    bounds = tuple(float(b["le"]) for b in buckets)
                    histogram = self.histogram(
                        name, help_text, buckets=bounds or None, **labels
                    )
                    if histogram.upper_bounds != bounds:
                        raise TelemetryError(
                            f"histogram {name!r} bucket bounds differ: "
                            f"{histogram.upper_bounds} vs {bounds}"
                        )
                    for index, bucket in enumerate(buckets):
                        histogram.bucket_counts[index] += int(bucket["count"])
                    histogram._count += int(entry["count"])
                    histogram._sum += float(entry["sum"])
                else:
                    raise TelemetryError(
                        f"cannot merge metric {name!r} of unknown kind "
                        f"{kind!r}"
                    )

    def reset(self) -> None:
        """Drop every family and series."""
        self._families.clear()


class NullCounter(Counter):
    """A counter that records nothing (shared singleton)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass


class NullGauge(Gauge):
    """A gauge that records nothing (shared singleton)."""

    __slots__ = ()

    def set(self, value: float) -> None:  # noqa: D102 - no-op
        pass

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass

    def dec(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass


class NullHistogram(Histogram):
    """A histogram that records nothing (shared singleton)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(buckets=(1.0,))

    def observe(self, value: float) -> None:  # noqa: D102 - no-op
        pass


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullMetricsRegistry(MetricsRegistry):
    """The zero-cost disabled registry.

    Every factory returns a preallocated no-op singleton: no families,
    no series, and no per-call allocations on instrumented paths.
    """

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        """The shared no-op counter."""
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        """The shared no-op gauge."""
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: object,
    ) -> Histogram:
        """The shared no-op histogram."""
        return _NULL_HISTOGRAM

    @property
    def enabled(self) -> bool:
        """Always False: nothing is recorded."""
        return False

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """No-op: the disabled registry swallows worker rollups too."""
