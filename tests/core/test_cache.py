"""Tests for the shared-data caches and their statistics."""

import pytest

import repro.core.cache as cache_module
from repro.core.cache import (
    CacheStats,
    ClosureCache,
    RTCCache,
    body_footprint,
    make_key_function,
    update_touches,
)
from repro.core.rtc import compute_rtc
from repro.regex.parser import parse


class TestKeyFunctions:
    def test_syntactic_keys(self):
        key = make_key_function("syntactic")
        assert key(parse("a.b")) == key(parse("a . b"))
        assert key(parse("a.b|a.c")) != key(parse("a.(b|c)"))

    def test_semantic_keys(self):
        key = make_key_function("semantic")
        assert key(parse("a.b|a.c")) == key(parse("a.(b|c)"))
        assert key(parse("a+")) != key(parse("a*"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_key_function("telepathic")


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)

    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0


class TestRTCCache:
    def test_lookup_store_cycle(self):
        cache = RTCCache()
        node = parse("a.b")
        key, value = cache.lookup(node)
        assert value is None
        assert cache.stats.misses == 1
        rtc = compute_rtc({(0, 1), (1, 0)})
        cache.store(key, rtc)
        assert cache.stats.entries == 1
        assert node in cache
        _key, again = cache.lookup(node)
        assert again is rtc
        assert cache.stats.hits == 1

    def test_total_shared_pairs(self):
        cache = RTCCache()
        cache.store("k1", compute_rtc({(0, 1), (1, 0)}))  # 1 SCC pair
        cache.store("k2", compute_rtc({(0, 1)}))  # 1 pair
        assert cache.total_shared_pairs() == 2

    def test_clear_keeps_stats(self):
        cache = RTCCache()
        cache.store("k", compute_rtc({(0, 1)}))
        cache.lookup(parse("a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.entries == 0
        assert cache.stats.misses == 1


class TestClosureCache:
    def test_entry_size(self):
        entry = {0: frozenset({1, 2}), 1: frozenset(), 2: frozenset({0})}
        assert ClosureCache.entry_size(entry) == 3

    def test_total_shared_pairs(self):
        cache = ClosureCache()
        cache.store("k1", {0: frozenset({1, 2})})
        cache.store("k2", {5: frozenset({6})})
        assert cache.total_shared_pairs() == 3


class TestGetOrCompute:
    """The atomic miss path: one computation per key, race or no race."""

    def test_single_threaded_semantics(self):
        cache = RTCCache()
        node = parse("a.b")
        rtc = compute_rtc({(0, 1)})
        calls = []

        def factory():
            calls.append(1)
            return rtc

        key, value = cache.get_or_compute(node, factory)
        assert value is rtc
        assert cache.stats.misses == 1
        _key, again = cache.get_or_compute(node, factory)
        assert again is rtc
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert key == cache.key_for(node)

    def test_concurrent_misses_compute_once(self):
        import threading
        import time

        cache = RTCCache()
        node = parse("a.b")
        rtc = compute_rtc({(0, 1)})
        calls = []
        barrier = threading.Barrier(8)
        results = []

        def factory():
            calls.append(1)
            time.sleep(0.05)  # hold the latch long enough for real overlap
            return rtc

        def racer() -> None:
            barrier.wait()
            results.append(cache.get_or_compute(node, factory)[1])

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1, "concurrent misses must compute once"
        assert all(value is rtc for value in results)
        stats = cache.snapshot_stats()
        assert stats.misses == 1
        assert stats.hits == 7

    def test_failed_factory_releases_the_latch(self):
        import threading

        cache = RTCCache()
        node = parse("a.b")
        rtc = compute_rtc({(0, 1)})
        attempts = []
        owner_in_factory = threading.Event()
        gate = threading.Event()

        def failing():
            attempts.append(1)
            owner_in_factory.set()
            gate.wait(timeout=5)
            raise RuntimeError("boom")

        errors = []

        def owner() -> None:
            try:
                cache.get_or_compute(node, failing)
            except RuntimeError as error:
                errors.append(error)

        waiter_result = []

        def waiter() -> None:
            waiter_result.append(cache.get_or_compute(node, lambda: rtc)[1])

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert owner_in_factory.wait(timeout=5)  # owner holds the latch
        waiter_thread = threading.Thread(target=waiter)
        waiter_thread.start()
        gate.set()
        owner_thread.join(timeout=5)
        waiter_thread.join(timeout=5)
        assert len(errors) == 1, "the owner sees its own factory error"
        assert waiter_result == [rtc], "waiters retry after an owner failure"
        assert cache.snapshot_stats().misses == 2  # two computation attempts


class TestGetOrComputeReentrancy:
    def test_same_key_reentrant_factory_does_not_deadlock(self):
        """A factory may recurse into its own key (semantic-mode collisions)."""
        cache = RTCCache()
        node = parse("a.b")
        inner_rtc = compute_rtc({(0, 1)})
        outer_rtc = compute_rtc({(0, 1), (1, 0)})

        def outer_factory():
            _key, nested = cache.get_or_compute(node, lambda: inner_rtc)
            assert nested is inner_rtc
            return outer_rtc

        key, value = cache.get_or_compute(node, outer_factory)
        assert value is outer_rtc, "the enclosing computation wins"
        assert cache.stats.misses == 2  # two computation attempts
        _key, cached = cache.get_or_compute(node, lambda: None)
        assert cached is outer_rtc
        # The in-flight latch is released: a later miss works normally.
        cache.clear()
        _key, again = cache.get_or_compute(node, lambda: inner_rtc)
        assert again is inner_rtc

    def test_semantic_mode_nested_equal_body_terminates(self, fig1):
        """Engine-level regression: evaluating a query whose nested closure
        body is language-equal to the enclosing one must terminate (it
        used to wait on its own in-flight latch forever)."""
        from repro.core.engines import RTCSharingEngine

        # The outer closure body (b*)+ and its own nested body b* both
        # canonicalise to the language b*, so evaluating the outer body
        # re-enters get_or_compute on the exact key it owns.
        query = "((b*)+)+"
        semantic = RTCSharingEngine(fig1, cache_mode="semantic")
        syntactic = RTCSharingEngine(fig1)
        assert semantic.evaluate(query) == syntactic.evaluate(query)
        assert semantic.rtc_cache.stats.misses >= 3  # re-entrant attempts


class TestEnginesComputeOnce:
    def test_worker_engines_share_one_rtc_construction(self, fig1):
        """Two engines over one cache, racing the same body: one miss."""
        import threading

        from repro.core.engines import RTCSharingEngine

        primary = RTCSharingEngine(fig1)
        secondary = RTCSharingEngine(fig1)
        secondary.rtc_cache = primary.rtc_cache  # the server's worker setup
        barrier = threading.Barrier(2)
        results = []

        def run(engine) -> None:
            barrier.wait()
            results.append(engine.evaluate("a.(b.c)+"))

        threads = [
            threading.Thread(target=run, args=(engine,))
            for engine in (primary, secondary)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results[0] == results[1]
        assert primary.rtc_cache.snapshot_stats().misses == 1


class TestThreadSafety:
    """The concurrency contract: individually atomic operations."""

    def test_snapshot_stats_is_a_copy(self):
        cache = RTCCache()
        node = parse("a")
        cache.lookup(node)
        snapshot = cache.snapshot_stats()
        cache.lookup(node)
        assert snapshot.misses == 1
        assert cache.stats.misses == 2

    def test_concurrent_lookup_store_counts_consistently(self):
        import threading

        cache = RTCCache()
        node = parse("a.b")
        rtc = compute_rtc({(0, 1)})
        workers, rounds = 8, 200

        def hammer() -> None:
            for _ in range(rounds):
                key, value = cache.lookup(node)
                if value is None:
                    cache.store(key, rtc)
                cache.total_shared_pairs()

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.snapshot_stats()
        assert stats.hits + stats.misses == workers * rounds
        assert stats.entries == 1
        _key, value = cache.lookup(node)
        assert value is rtc


class TestInvalidate:
    """`invalidate(labels, vertex_added)`: drop what the update can have
    changed, keep everything else as the same object."""

    @staticmethod
    def fill(cache, *bodies):
        values = {}
        for body in bodies:
            _key, values[body] = cache.get_or_compute(parse(body), object)
        return values

    @pytest.mark.parametrize("cache_class", [RTCCache, ClosureCache])
    @pytest.mark.parametrize("mode", ["syntactic", "semantic"])
    def test_drops_only_bodies_reading_an_applied_label(self, cache_class, mode):
        cache = cache_class(mode=mode)
        values = self.fill(cache, "a", "b.c", "a|c")
        assert cache.invalidate({"c"}) == 2
        assert parse("a") in cache
        assert parse("b.c") not in cache and parse("a|c") not in cache
        assert cache.stats.entries == len(cache) == 1
        misses = cache.stats.misses
        assert cache.get_or_compute(parse("a"), object)[1] is values["a"]
        assert cache.stats.misses == misses

    def test_nested_closure_uses_the_whole_body_alphabet(self):
        cache = RTCCache()
        self.fill(cache, "a.(b)+", "a")
        cache.invalidate({"b"})
        assert parse("a.(b)+") not in cache
        assert parse("a") in cache

    @pytest.mark.parametrize("body", ["a?", "a*", "(a?)+", "a*|b"])
    def test_nullable_body_goes_with_a_new_vertex_only(self, body):
        cache = RTCCache()
        self.fill(cache, body, "a")
        assert cache.invalidate({"z"}, vertex_added=False) == 0
        assert cache.invalidate({"z"}, vertex_added=True) == 1
        assert parse(body) not in cache
        assert parse("a") in cache

    def test_entry_stored_by_textual_key_is_read_back_from_the_key(self):
        cache = RTCCache(mode="syntactic")
        cache.store("a.b", "ab")
        cache.store("c*", "c-star")
        assert cache.invalidate({"z"}) == 0
        assert cache.invalidate({"z"}, vertex_added=True) == 1
        assert cache.invalidate({"b"}) == 1
        assert len(cache) == 0

    def test_entry_with_an_unreadable_key_goes_with_every_update(self):
        semantic = RTCCache(mode="semantic")
        semantic.store(make_key_function("semantic")(parse("a")), "rtc")
        assert semantic.invalidate({"z"}) == 1
        syntactic = RTCCache(mode="syntactic")
        syntactic.store("((not a regex", "rtc")
        assert syntactic.invalidate({"z"}) == 1

    def test_legacy_lookup_then_store_knows_its_body(self):
        cache = RTCCache(mode="semantic")
        key, value = cache.lookup(parse("a.b"))
        assert value is None
        cache.store(key, "rtc")
        assert cache.invalidate({"c"}) == 0
        assert cache.invalidate({"a"}) == 1

    def test_clear_forgets_the_bodies_too(self):
        cache = RTCCache(mode="semantic")
        self.fill(cache, "a")
        cache.clear()
        cache.store(cache.key_for(parse("a")), "reloaded")
        assert cache.invalidate({"z"}) == 1

    def test_hit_path_does_no_alphabet_work(self, monkeypatch):
        cache = RTCCache()
        self.fill(cache, "a.b")

        def boom(*_args):
            raise AssertionError("footprint computed on the hit path")

        monkeypatch.setattr(cache_module, "body_footprint", boom)
        cache.get_or_compute(parse("a.b"), object)
        cache.get_or_compute(parse("c"), object)  # a miss computes none either


class TestFootprint:
    def test_body_footprint(self):
        assert body_footprint(parse("a.(b|c)+")) == (frozenset("abc"), False)
        assert body_footprint(parse("(a*)+")) == (frozenset("a"), True)

    def test_update_touches(self):
        assert update_touches(frozenset("ab"), False, {"b", "z"}, False)
        assert not update_touches(frozenset("ab"), False, {"z"}, True)
        assert update_touches(frozenset("a"), True, {"z"}, True)
        assert not update_touches(frozenset("a"), True, {"z"}, False)
        assert not update_touches(frozenset("a"), True, (), False)
