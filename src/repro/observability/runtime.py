"""The :class:`Telemetry` bundle and the process-wide default.

Instrumented components resolve their telemetry in one of two ways:

* **explicit injection** — pass ``telemetry=...`` to the constructor
  (what :class:`~repro.stack.AlvcStack` does, so each stack owns an
  isolated registry);
* **ambient default** — omit it and the component binds
  :func:`current_telemetry` at construction time, which is the no-op
  :data:`NULL_TELEMETRY` unless the process opted in via
  :func:`set_telemetry`, :func:`configure`, or the ``ALVC_TELEMETRY``
  environment variable (``json``/``prom``/``on``).

The disabled default is deliberate: benchmarks and library users pay
nothing unless they ask to be measured.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Iterator

from repro.exceptions import TelemetryError
from repro.observability.metrics import MetricsRegistry, NullMetricsRegistry
from repro.observability.tracing import NullTracer, Tracer

_ENV_VAR = "ALVC_TELEMETRY"
_OFF_VALUES = frozenset({"off", "0", "false", "none", "disabled", ""})
_ON_VALUES = frozenset({"on", "1", "true", "enabled", "json", "prom"})


class Telemetry:
    """One registry + one tracer, with convenience passthroughs.

    The common call sites::

        telemetry.counter("alvc_cover_skips_total").inc()
        with telemetry.span("provision.route"):
            ...
        telemetry.to_json()        # snapshot exporter
        telemetry.to_prometheus()  # text exposition format
    """

    __slots__ = ("registry", "tracer", "enabled")

    def __init__(self, registry: MetricsRegistry, tracer: Tracer) -> None:
        self.registry = registry
        self.tracer = tracer
        #: True when this telemetry records anything (the registry's
        #: flag, read once: hot paths test it several times a command).
        self.enabled: bool = registry.enabled

    # Snapshots pickle the telemetry a stack holds.  ``enabled`` derives
    # from the registry, so a stream carries only the constructor's
    # arguments; one pickled before ``enabled`` was a slot is
    # ``(None, {"registry": ..., "tracer": ...})`` state.
    def __reduce__(self):
        return Telemetry, (self.registry, self.tracer)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(**state[1])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def enabled_instance(cls) -> "Telemetry":
        """A fresh recording telemetry (own registry, own tracer)."""
        return cls(MetricsRegistry(), Tracer())

    @classmethod
    def disabled_instance(cls) -> "Telemetry":
        """The shared no-op telemetry."""
        return NULL_TELEMETRY

    # ------------------------------------------------------------------
    # Passthroughs (hot paths use these)
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: object):
        """See :meth:`MetricsRegistry.counter`."""
        return self.registry.counter(name, help, **labels)

    def gauge(self, name: str, help: str = "", **labels: object):
        """See :meth:`MetricsRegistry.gauge`."""
        return self.registry.gauge(name, help, **labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: object,
    ):
        """See :meth:`MetricsRegistry.histogram`."""
        return self.registry.histogram(name, help, buckets, **labels)

    def span(self, name: str, **attributes: object):
        """See :meth:`Tracer.span`."""
        return self.tracer.span(name, **attributes)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Combined JSON-serializable metrics + tracing snapshot."""
        return {
            "metrics": self.registry.snapshot(),
            "tracing": self.tracer.snapshot(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Metrics (plus span aggregates) in Prometheus text format."""
        from repro.observability.export import prometheus_text

        return prometheus_text(self)

    def reset(self) -> None:
        """Clear every metric series and finished span."""
        self.registry.reset()
        self.tracer.reset()


#: The process-wide no-op telemetry; instrumented code paths bound to it
#: allocate no metric objects and never read the clock.
NULL_TELEMETRY = Telemetry(NullMetricsRegistry(), NullTracer())


def _from_env() -> Telemetry:
    value = os.environ.get(_ENV_VAR, "").strip().lower()
    if value in _ON_VALUES:
        return Telemetry.enabled_instance()
    return NULL_TELEMETRY


_current: Telemetry = _from_env()


def current_telemetry() -> Telemetry:
    """The ambient telemetry components bind when none is injected."""
    return _current


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Install ``telemetry`` as the ambient default; returns the old one."""
    global _current
    previous = _current
    _current = telemetry
    return previous


def configure(mode: object = True) -> Telemetry:
    """Install (and return) an ambient telemetry from a mode flag.

    Accepts ``True``/``"json"``/``"prom"``/``"on"`` (record),
    ``False``/``"off"``/``None`` (no-op), or a :class:`Telemetry`
    instance to install verbatim.
    """
    if isinstance(mode, Telemetry):
        telemetry = mode
    elif isinstance(mode, str):
        lowered = mode.strip().lower()
        if lowered in _ON_VALUES:
            telemetry = Telemetry.enabled_instance()
        elif lowered in _OFF_VALUES:
            telemetry = NULL_TELEMETRY
        else:
            raise TelemetryError(
                f"unknown telemetry mode {mode!r} "
                f"(expected json, prom, on, or off)"
            )
    elif mode:
        telemetry = Telemetry.enabled_instance()
    else:
        telemetry = NULL_TELEMETRY
    set_telemetry(telemetry)
    return telemetry


def resolve(mode: object = None) -> Telemetry:
    """Turn a mode flag into a :class:`Telemetry` *without* installing it.

    ``None`` resolves to the ambient default; other values follow
    :func:`configure`'s accepted forms.
    """
    if mode is None:
        return current_telemetry()
    if isinstance(mode, Telemetry):
        return mode
    if isinstance(mode, str):
        lowered = mode.strip().lower()
        if lowered in _ON_VALUES:
            return Telemetry.enabled_instance()
        if lowered in _OFF_VALUES:
            return NULL_TELEMETRY
        raise TelemetryError(
            f"unknown telemetry mode {mode!r} "
            f"(expected json, prom, on, or off)"
        )
    return Telemetry.enabled_instance() if mode else NULL_TELEMETRY


@contextlib.contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Temporarily install an ambient telemetry (restores on exit)."""
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
