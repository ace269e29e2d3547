"""Tests for the SDN LRU route cache."""

import pytest

from repro.exceptions import ValidationError
from repro.observability import Telemetry
from repro.sdn.route_cache import NO_ROUTE, RouteCache


class TestBasics:
    def test_miss_returns_none(self):
        cache = RouteCache(4)
        assert cache.get(("a", "b", None, False)) is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_put_then_hit(self):
        cache = RouteCache(4)
        key = ("a", "b", None, False)
        cache.put(key, ("a", "tor-0", "b"))
        assert cache.get(key) == ("a", "tor-0", "b")
        assert cache.hits == 1

    def test_no_route_sentinel_is_a_hit(self):
        cache = RouteCache(4)
        key = ("a", "z", None, False)
        cache.put(key, NO_ROUTE)
        assert cache.get(key) is NO_ROUTE
        assert cache.hits == 1

    def test_len_and_contains(self):
        cache = RouteCache(4)
        cache.put("k1", "v1")
        assert len(cache) == 1
        assert "k1" in cache
        assert "k2" not in cache

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValidationError):
            RouteCache(0)
        with pytest.raises(ValidationError):
            RouteCache(-3)


class TestLru:
    def test_evicts_least_recently_used(self):
        cache = RouteCache(2)
        cache.put("k1", 1)
        cache.put("k2", 2)
        cache.get("k1")  # refresh k1; k2 is now LRU
        cache.put("k3", 3)
        assert "k1" in cache
        assert "k2" not in cache
        assert "k3" in cache
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = RouteCache(2)
        cache.put("k1", 1)
        cache.put("k2", 2)
        cache.put("k1", 10)  # refresh, no eviction
        cache.put("k3", 3)  # evicts k2, not k1
        assert cache.get("k1") == 10
        assert "k2" not in cache
        assert len(cache) == 2

    def test_capacity_never_exceeded(self):
        cache = RouteCache(3)
        for i in range(10):
            cache.put(f"k{i}", i)
        assert len(cache) == 3
        assert cache.evictions == 7


class TestInvalidate:
    def test_invalidate_drops_everything(self):
        cache = RouteCache(8)
        for i in range(5):
            cache.put(f"k{i}", i)
        assert cache.invalidate() == 5
        assert len(cache) == 0
        assert cache.get("k0") is None

    def test_invalidate_empty_cache(self):
        assert RouteCache(8).invalidate() == 0


class TestStats:
    def test_hit_rate(self):
        cache = RouteCache(4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("k")
        cache.get("missing")
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_unused(self):
        assert RouteCache(4).hit_rate == 0.0

    def test_stats_shape(self):
        cache = RouteCache(2)
        cache.put("k1", 1)
        cache.put("k2", 2)
        cache.put("k3", 3)
        cache.get("k3")
        cache.get("gone")
        stats = cache.stats()
        assert stats == {
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "size": 2,
            "hit_rate": 0.5,
        }

    def test_telemetry_counters_recorded(self):
        telemetry = Telemetry.enabled_instance()
        cache = RouteCache(1, telemetry=telemetry)
        cache.put("k1", 1)
        cache.put("k2", 2)  # evicts k1
        cache.get("k2")
        cache.get("k1")
        value_of = telemetry.registry.value_of
        assert value_of("alvc_route_cache_hits_total") == 1
        assert value_of("alvc_route_cache_misses_total") == 1
        assert value_of("alvc_route_cache_evictions_total") == 1
        assert value_of("alvc_route_cache_size") == 1
