"""LRU route caching for the SDN routing layer.

Flat shortest paths cost a BFS over the fabric and AL-confined paths
additionally restrict it to the layer's switches.  Routing is
deterministic given the fabric and the abstraction layer, so repeated
(source, destination) pairs — the common case under service-correlated
traffic — can be served from a cache.  Its only user is E22's
``csr+cache`` arm, which measures it on top of the CSR path engine; the
orchestrator memoizes its AL-confined chain segments in a plain dict of
its own, without counters (``NetworkOrchestrator._al_path``).

:class:`RouteCache` is a plain LRU keyed by
``(src_host, dst_host, al_signature)``:

* ``al_signature`` is the frozenset of the abstraction layer's switches
  (``None`` for flat routing), so reconstructing an AL yields new keys
  and stale entries simply age out — no epoch bookkeeping needed;
* infeasible routes are cached as :data:`NO_ROUTE` so repeated dead-end
  lookups (e.g. an AL that does not connect two hosts) stay cheap.

Topology mutations are *not* observed automatically: callers that
change the fabric must call :meth:`RouteCache.invalidate`.

Telemetry: hits, misses and evictions are counted on
``alvc_route_cache_{hits,misses,evictions}_total`` and the entry count
is tracked on the ``alvc_route_cache_size`` gauge; plain Python
counters are kept as well so tests and reports can read
:meth:`RouteCache.stats` without a recording telemetry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from repro.exceptions import ValidationError


class _NoRoute:
    """Sentinel cached when a key has no feasible route."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "NO_ROUTE"


#: Cache value meaning "this key is known to have no feasible route".
NO_ROUTE = _NoRoute()

_ABSENT = object()

DEFAULT_ROUTE_CACHE_SIZE = 1024


class RouteCache:
    """A bounded LRU mapping route keys to cached paths.

    Values are opaque to the cache; by convention the routing layer
    stores tuples of node ids and :data:`NO_ROUTE` for infeasible keys.
    """

    __slots__ = (
        "_entries",
        "_max_entries",
        "hits",
        "misses",
        "evictions",
        "_hits_counter",
        "_misses_counter",
        "_evictions_counter",
        "_size_gauge",
    )

    def __init__(
        self,
        max_entries: int = DEFAULT_ROUTE_CACHE_SIZE,
        *,
        telemetry=None,
    ) -> None:
        """Create an empty cache.

        Args:
            max_entries: LRU capacity; must be positive.
            telemetry: metrics sink (ambient default when omitted).

        Raises:
            ValidationError: on a non-positive ``max_entries``.
        """
        if max_entries <= 0:
            raise ValidationError(
                f"route cache size must be positive, got {max_entries}"
            )
        from repro.observability.runtime import current_telemetry

        sink = telemetry if telemetry is not None else current_telemetry()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._hits_counter = sink.counter(
            "alvc_route_cache_hits_total", "route cache lookup hits"
        )
        self._misses_counter = sink.counter(
            "alvc_route_cache_misses_total", "route cache lookup misses"
        )
        self._evictions_counter = sink.counter(
            "alvc_route_cache_evictions_total", "route cache LRU evictions"
        )
        self._size_gauge = sink.gauge(
            "alvc_route_cache_size", "route cache entry count"
        )

    # ------------------------------------------------------------------
    @property
    def max_entries(self) -> int:
        """The LRU capacity."""
        return self._max_entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Hits, misses, evictions, current size and hit rate."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "hit_rate": self.hit_rate,
        }

    # ------------------------------------------------------------------
    def get(self, key: Hashable):
        """The cached value for ``key`` (marked most-recently-used), or
        ``None`` on a miss.  A hit may return :data:`NO_ROUTE` — callers
        must distinguish it from a cached path."""
        entries = self._entries
        value = entries.get(key, _ABSENT)
        if value is _ABSENT:
            self.misses += 1
            self._misses_counter.inc()
            return None
        entries.move_to_end(key)
        self.hits += 1
        self._hits_counter.inc()
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value
        if len(entries) > self._max_entries:
            entries.popitem(last=False)
            self.evictions += 1
            self._evictions_counter.inc()
        self._size_gauge.set(len(entries))

    def invalidate(self) -> int:
        """Drop every entry (call after any topology or AL change).

        Returns:
            The number of entries dropped.
        """
        dropped = len(self._entries)
        self._entries.clear()
        self._size_gauge.set(0)
        return dropped
