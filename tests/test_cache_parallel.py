"""Tests for the routing cache and parallel LUT generation."""

import multiprocessing
import random

import pytest

from repro.core.cache import CachedRouter, canonical_key, translation_key
from repro.core.pareto_dw import pareto_frontier
from repro.core.patlabor import PatLabor
from repro.geometry.net import Net, random_net
from repro.lut.generator import generate_degree, generate_degree_parallel


class TestTranslationKey:
    def test_translates_share_key(self):
        net = random_net(6, rng=random.Random(1))
        moved = net.translated(123.5, -77.25)
        assert translation_key(net) == translation_key(moved)

    def test_different_shapes_differ(self):
        a = Net.from_points((0, 0), [(1, 1)])
        b = Net.from_points((0, 0), [(1, 2)])
        assert translation_key(a) != translation_key(b)

    def test_sub_micro_noise_shares_key(self):
        # The documented contract: source-relative coordinates are rounded
        # to 1e-6, so noise well below that collapses onto one key.
        a = Net.from_points((0, 0), [(1.0, 1.0), (2.0, 3.0)])
        b = Net.from_points((0, 0), [(1.0 + 4e-7, 1.0 - 4e-7), (2.0, 3.0)])
        assert translation_key(a) == translation_key(b)

    def test_above_micro_difference_splits_key(self):
        a = Net.from_points((0, 0), [(1.0, 1.0), (2.0, 3.0)])
        b = Net.from_points((0, 0), [(1.0 + 2e-6, 1.0), (2.0, 3.0)])
        assert translation_key(a) != translation_key(b)


class TestCachedRouter:
    def test_hit_on_exact_repeat(self):
        router = CachedRouter(PatLabor())
        net = random_net(5, rng=random.Random(2))
        first = router.route(net)
        second = router.route(net)
        assert router.hits == 1 and router.misses == 1
        assert [(w, d) for w, d, _ in first] == [(w, d) for w, d, _ in second]

    def test_hit_on_translate_returns_valid_trees(self):
        router = CachedRouter(PatLabor())
        net = random_net(5, rng=random.Random(3))
        moved = net.translated(50, 75)
        base = router.route(net)
        translated = router.route(moved)
        assert router.hits == 1
        # Objectives identical; trees live at the translated coordinates.
        assert [(w, d) for w, d, _ in base] == [
            (w, d) for w, d, _ in translated
        ]
        for _w, _d, tree in translated:
            tree.validate()
            assert tree.net is moved or tree.net.key() == moved.key()

    def test_translated_results_match_direct_routing(self, assert_fronts_equal):
        router = CachedRouter(PatLabor())
        net = random_net(6, rng=random.Random(4))
        moved = net.translated(-31.5, 12.0)
        router.route(net)
        cached = router.route(moved)
        assert_fronts_equal(cached, pareto_frontier(moved))

    def test_eviction(self):
        router = CachedRouter(PatLabor(), max_entries=2)
        rng = random.Random(5)
        nets = [random_net(4, rng=rng) for _ in range(3)]
        for n in nets:
            router.route(n)
        router.route(nets[0])  # evicted: must be a miss again
        assert router.misses == 4

    def test_sub_micro_noise_shares_cache_entry(self):
        # Regression for the 1e-6 rounding contract of translation_key:
        # nets differing by < 1e-6 hit the same entry and serve valid
        # trees snapped onto the query net's own pins...
        router = CachedRouter(PatLabor())
        a = Net.from_points((0, 0), [(10.0, 2.0), (7.0, 9.0), (3.0, 8.0)])
        b = Net.from_points(
            (0, 0), [(10.0 + 4e-7, 2.0), (7.0, 9.0 - 4e-7), (3.0, 8.0)]
        )
        first = router.route(a)
        second = router.route(b)
        assert router.hits == 1 and router.misses == 1
        assert [(w, d) for w, d, _ in first] == [
            (w, d) for w, d, _ in second
        ]
        for _w, _d, tree in second:
            tree.validate()
            assert tree.net.key() == b.key()

    def test_above_micro_difference_misses(self):
        # ...while nets differing by > 1e-6 get their own entries.
        router = CachedRouter(PatLabor())
        a = Net.from_points((0, 0), [(10.0, 2.0), (7.0, 9.0), (3.0, 8.0)])
        b = Net.from_points((0, 0), [(10.0 + 2e-6, 2.0), (7.0, 9.0), (3.0, 8.0)])
        router.route(a)
        router.route(b)
        assert router.hits == 0 and router.misses == 2

    def test_hit_rate_and_clear(self):
        router = CachedRouter(PatLabor())
        net = random_net(4, rng=random.Random(6))
        router.route(net)
        router.route(net)
        assert router.hit_rate == 0.5
        router.clear()
        assert router.hit_rate == 0.0
        assert not router._cache


class TestParallelGeneration:
    def test_matches_serial(self):
        serial = generate_degree(4, limit=6)
        parallel = generate_degree_parallel(4, limit=6, jobs=2)
        assert set(serial) == set(parallel)
        for key in serial:
            a = sorted(
                (s.w, tuple(sorted(s.rows))) for s in serial[key].solutions
            )
            b = sorted(
                (s.w, tuple(sorted(s.rows))) for s in parallel[key].solutions
            )
            assert a == b

    def test_jobs_one_falls_back_to_serial(self):
        out = generate_degree_parallel(4, limit=3, jobs=1)
        assert len(out) == 3


class TestLruEviction:
    def test_hits_refresh_recency(self):
        # Access pattern a,b, a, c with capacity 2: the LRU entry is b,
        # so a must survive eviction (FIFO-of-insertion would drop a).
        router = CachedRouter(PatLabor(), max_entries=2)
        rng = random.Random(31)
        a, b, c = (random_net(4, rng=rng) for _ in range(3))
        router.route(a)
        router.route(b)
        router.route(a)  # refresh a
        router.route(c)  # evicts b, not a
        assert router.evictions == 1
        router.route(a)
        assert router.hits == 2 and router.misses == 3
        router.route(b)  # b was evicted: a miss again
        assert router.misses == 4

    def test_capacity_is_fully_used_and_evictions_counted(self):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            router = CachedRouter(PatLabor(), max_entries=2)
            rng = random.Random(32)
            nets = [random_net(4, rng=rng) for _ in range(2)]
            for n in nets:
                router.route(n)
            # At capacity with no overflow: nothing evicted, both resident.
            assert router.evictions == 0
            for n in nets:
                router.route(n)
            assert router.hits == 2
            router.route(random_net(4, rng=rng))
            assert router.evictions == 1
            snap = obs.snapshot()
            assert snap["counters"]["cache.evictions"] == 1
        finally:
            obs.disable()
            obs.reset()

    def test_clear_resets_eviction_count(self):
        router = CachedRouter(PatLabor(), max_entries=1)
        rng = random.Random(33)
        router.route(random_net(4, rng=rng))
        router.route(random_net(4, rng=rng))
        assert router.evictions == 1
        router.clear()
        assert router.evictions == 0

    def test_unknown_canonicalize_mode_rejected(self):
        with pytest.raises(ValueError, match="canonicalize"):
            CachedRouter(PatLabor(), canonicalize="rotation-only")


def _stress_writer(db: str, seed: int, count: int) -> None:
    """One writer process: route ``count`` nets and append them all."""
    from repro.core.cache_store import PersistentStore

    rng = random.Random(seed)
    store = PersistentStore(db)
    router = PatLabor()
    for _ in range(count):
        net = random_net(4, rng=rng)
        key, t = canonical_key(net)
        store.put(key, net, t, list(router.route(net)))
    store.close()


class TestConcurrentStoreWriters:
    def test_many_writers_one_store(self, tmp_path):
        # Four processes hammer one store; two share a seed so they race
        # on identical keys (first writer wins, the rest must not error).
        from repro.core.cache_store import PersistentStore

        db = str(tmp_path / "stress.sqlite")
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_stress_writer, args=(db, seed, 8))
            for seed in (101, 101, 202, 303)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(120)
            assert p.exitcode == 0
        store = PersistentStore(db, readonly=True)
        assert store.healthy
        # 3 distinct seeds x 8 nets, minus any canonical collisions.
        assert 1 <= len(store) <= 24
        # Every key a fresh writer would produce must now be servable.
        rng = random.Random(202)
        for _ in range(8):
            net = random_net(4, rng=rng)
            key, _t = canonical_key(net)
            assert store.get(key) is not None
        assert store.hits == 8

    def test_route_batch_workers_share_a_store(self, tmp_path):
        from repro.core.batch import route_batch
        from repro.engine import EngineSpec

        db = str(tmp_path / "batch.sqlite")
        rng = random.Random(404)
        nets = [random_net(4, rng=rng, name=f"n{i}") for i in range(12)]
        cold = route_batch(
            nets, EngineSpec(cache="symmetry", cache_store=db), jobs=2
        )
        assert len(cold.fronts) == 12
        # A second pool over the same store: every net is a store hit.
        warm = route_batch(
            nets, EngineSpec(cache="symmetry", cache_store=db), jobs=2
        )
        assert warm.cache_hit_rate == 1.0
        for name, front in warm.fronts.items():
            assert [(w, d) for w, d, _ in front] == [
                (w, d) for w, d, _ in cold.fronts[name]
            ]
