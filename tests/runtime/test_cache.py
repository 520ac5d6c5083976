"""LruCache semantics."""

import pytest

from repro.runtime.cache import LruCache


class TestLruCache:
    def test_get_put_roundtrip(self):
        cache = LruCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", -1) == -1
        assert "a" in cache and len(cache) == 1

    def test_evicts_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_put_refreshes_recency(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # overwrite refreshes; b is oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_bounded(self):
        cache = LruCache(3)
        for i in range(50):
            cache.put(i, i)
        assert len(cache) == 3
        assert list(cache) == [47, 48, 49]

    def test_get_or_build(self):
        cache = LruCache(2)
        calls = []

        def build():
            calls.append(1)
            return "built"

        assert cache.get_or_build("k", build) == "built"
        assert cache.get_or_build("k", build) == "built"
        assert len(calls) == 1

    def test_caches_none_values(self):
        cache = LruCache(2)
        cache.put("k", None)
        assert "k" in cache
        assert cache.get_or_build("k", lambda: "rebuilt") is None

    def test_clear(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    def test_validates_maxsize(self):
        with pytest.raises(ValueError, match="maxsize"):
            LruCache(0)
