"""Tests for the persistent cache tier (repro.core.cache_store)."""

import os
import random
import subprocess
import sys
from pathlib import Path

from repro.core.cache import CachedRouter, canonical_key
from repro.core.cache_store import PersistentStore, key_to_text
from repro.core.patlabor import PatLabor
from repro.geometry.net import random_net


def _front_bits(front):
    """A front as exact comparable data: objectives and tree geometry."""
    return [
        (
            w,
            d,
            tuple((p.x, p.y) for p in tree.points),
            tuple(tree.parent),
        )
        for w, d, tree in front
    ]


class TestPersistentStore:
    def test_round_trip_is_bit_identical(self, tmp_path):
        net = random_net(6, rng=random.Random(11))
        front = PatLabor().route(net)
        key, t_query = canonical_key(net)
        store = PersistentStore(tmp_path / "s.sqlite")
        assert store.put(key, net, t_query, list(front))
        entry = store.get(key)
        assert entry is not None
        got_net, got_t, got_front = entry
        assert tuple((p.x, p.y) for p in got_net.pins) == tuple(
            (p.x, p.y) for p in net.pins
        )
        assert got_t == t_query
        assert _front_bits(got_front) == _front_bits(front)
        store.close()

    def test_append_only_first_writer_wins(self, tmp_path):
        net = random_net(5, rng=random.Random(12))
        front = PatLabor().route(net)
        key, t = canonical_key(net)
        store = PersistentStore(tmp_path / "s.sqlite")
        assert store.put(key, net, t, list(front))
        # A second put under the same key is ignored, not an error.
        assert store.put(key, net, t, list(front[:1]))
        entry = store.get(key)
        assert entry is not None and len(entry[2]) == len(front)
        assert len(store) == 1
        store.close()

    def test_objective_only_fronts_are_not_stored(self, tmp_path):
        net = random_net(4, rng=random.Random(13))
        key, t = canonical_key(net)
        store = PersistentStore(tmp_path / "s.sqlite")
        assert not store.put(key, net, t, [(1.0, 2.0, None)])
        assert store.get(key) is None
        store.close()

    def test_cross_process_round_trip(self, tmp_path):
        # Write in a subprocess, hit in the parent: keys and payloads must
        # be byte-identical across interpreter instances.
        db = tmp_path / "s.sqlite"
        script = (
            "import random\n"
            "from repro.core.cache import canonical_key\n"
            "from repro.core.cache_store import PersistentStore\n"
            "from repro.core.patlabor import PatLabor\n"
            "from repro.geometry.net import random_net\n"
            "net = random_net(5, rng=random.Random(14))\n"
            "front = PatLabor().route(net)\n"
            "key, t = canonical_key(net)\n"
            f"store = PersistentStore({str(db)!r})\n"
            "assert store.put(key, net, t, list(front))\n"
            "store.close()\n"
        )
        env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
        # Pass the caller's choice through: without it the child writes
        # .pyc files under src/, and start-up timings taken from the tree
        # afterwards read faster than a clean checkout's.
        if "PYTHONDONTWRITEBYTECODE" in os.environ:
            env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            cwd=str(Path(__file__).resolve().parent.parent),
            env=env,
        )
        net = random_net(5, rng=random.Random(14))
        key, _t = canonical_key(net)
        store = PersistentStore(db, readonly=True)
        entry = store.get(key)
        assert entry is not None
        assert _front_bits(entry[2]) == _front_bits(PatLabor().route(net))
        assert store.hits == 1

    def test_corrupt_file_degrades_to_misses(self, tmp_path):
        db = tmp_path / "s.sqlite"
        db.write_bytes(b"this is not a sqlite database at all\x00\x01")
        store = PersistentStore(db)
        net = random_net(4, rng=random.Random(15))
        key, t = canonical_key(net)
        assert store.get(key) is None
        assert not store.healthy
        assert not store.put(key, net, t, list(PatLabor().route(net)))
        assert store.misses >= 1

    def test_truncated_store_degrades_to_misses(self, tmp_path):
        db = tmp_path / "s.sqlite"
        net = random_net(5, rng=random.Random(16))
        key, t = canonical_key(net)
        store = PersistentStore(db)
        store.put(key, net, t, list(PatLabor().route(net)))
        store.close()
        # Chop the file mid-way: a torn write / partial copy.
        data = db.read_bytes()
        db.write_bytes(data[: len(data) // 2])
        reopened = PersistentStore(db)
        assert reopened.get(key) is None  # miss, never a crash

    def test_torn_payload_is_a_miss(self, tmp_path):
        import sqlite3

        db = tmp_path / "s.sqlite"
        store = PersistentStore(db)
        net = random_net(4, rng=random.Random(17))
        key, t = canonical_key(net)
        store.put(key, net, t, list(PatLabor().route(net)))
        store.close()
        conn = sqlite3.connect(db)
        conn.execute(
            "UPDATE entries SET payload = ? WHERE key = ?",
            ('{"v": 1, "net":', key_to_text(key)),
        )
        conn.commit()
        conn.close()
        reopened = PersistentStore(db, readonly=True)
        assert reopened.get(key) is None
        assert reopened.healthy  # the file is fine, only the row is torn

    def test_readonly_store_never_writes(self, tmp_path):
        db = tmp_path / "s.sqlite"
        store = PersistentStore(db, readonly=True)
        net = random_net(4, rng=random.Random(18))
        key, t = canonical_key(net)
        assert not store.put(key, net, t, list(PatLabor().route(net)))
        assert not db.exists()
        assert not store.lock_path.exists()

    def test_lifetime_stats_accumulate_across_sessions(self, tmp_path):
        db = tmp_path / "s.sqlite"
        net = random_net(5, rng=random.Random(19))
        key, t = canonical_key(net)
        for _round in range(2):
            store = PersistentStore(db)
            if store.get(key) is None:
                store.put(key, net, t, list(PatLabor().route(net)))
            store.close()  # close() flushes session counters
        stats = PersistentStore(db, readonly=True).stats()
        assert stats["total_misses"] == 1
        assert stats["total_puts"] == 1
        assert stats["total_hits"] == 1
        assert stats["entries"] == 1
        assert stats["healthy"]


class TestCachedRouterStoreTier:
    def test_store_hit_is_bit_identical_to_fresh_solve(self, tmp_path):
        db = tmp_path / "s.sqlite"
        net = random_net(6, rng=random.Random(21))
        warm = CachedRouter(PatLabor(), canonicalize="symmetry", store=db)
        baseline = warm.route(net)
        warm.close()
        # A fresh process-equivalent: empty LRU, same store file.
        cold = CachedRouter(PatLabor(), canonicalize="symmetry", store=db)
        served = cold.route(net)
        assert cold.store_hits == 1 and cold.misses == 0
        assert _front_bits(served) == _front_bits(baseline)
        assert _front_bits(served) == _front_bits(PatLabor().route(net))
        cold.close()

    def test_store_hit_serves_dihedral_images(self, tmp_path):
        db = tmp_path / "s.sqlite"
        from repro.geometry.net import Net

        net = random_net(5, rng=random.Random(22))
        mirrored = Net(
            pins=tuple((-p.x, p.y) for p in net.pins),  # type: ignore[arg-type]
            name="mirrored",
        )
        warm = CachedRouter(PatLabor(), canonicalize="symmetry", store=db)
        base = warm.route(net)
        warm.close()
        cold = CachedRouter(PatLabor(), canonicalize="symmetry", store=db)
        served = cold.route(mirrored)
        assert cold.store_hits == 1
        assert [(w, d) for w, d, _ in served] == [(w, d) for w, d, _ in base]
        for _w, _d, tree in served:
            tree.validate()
            assert tree.net.key() == mirrored.key()
        cold.close()

    def test_lru_eviction_recovers_from_store(self, tmp_path):
        # Capacity-1 LRU over a store: an evicted entry must come back as
        # a *store* hit (not a re-route), then be resident again.
        db = tmp_path / "s.sqlite"
        rng = random.Random(23)
        a, b = (random_net(4, rng=rng) for _ in range(2))
        router = CachedRouter(
            PatLabor(), max_entries=1, canonicalize="symmetry", store=db
        )
        router.route(a)
        router.route(b)  # evicts a from memory; both are on disk
        assert router.evictions == 1
        router.route(a)
        assert router.store_hits == 1 and router.misses == 2
        router.route(a)  # promoted by the store hit: now a memory hit
        assert router.hits == 1
        assert router.store_hit_rate == 1 / 3
        router.close()

    def test_memory_tier_shields_store(self, tmp_path):
        db = tmp_path / "s.sqlite"
        net = random_net(5, rng=random.Random(24))
        router = CachedRouter(PatLabor(), canonicalize="symmetry", store=db)
        router.route(net)
        router.route(net)
        router.route(net)
        # Repeats are memory hits; the store saw exactly one get + one put.
        assert router.hits == 2 and router.store_hits == 0
        assert router.store is not None
        assert router.store.misses == 1 and router.store.puts == 1
        router.close()

    def test_degraded_store_keeps_routing(self, tmp_path):
        db = tmp_path / "s.sqlite"
        db.write_bytes(b"garbage")
        router = CachedRouter(PatLabor(), canonicalize="symmetry", store=db)
        net = random_net(4, rng=random.Random(25))
        front = router.route(net)
        assert front and router.misses == 1
        assert router.store is not None and not router.store.healthy
        router.close()

    def test_engine_spec_wires_store(self, tmp_path):
        from repro.engine import EngineSpec, build_engine

        db = tmp_path / "s.sqlite"
        engine = build_engine(
            EngineSpec(router="patlabor", cache="symmetry",
                       cache_store=str(db))
        )
        net = random_net(4, rng=random.Random(26))
        engine.route(net)
        close = getattr(engine, "close", None)
        assert callable(close)
        close()
        assert db.exists()
        again = build_engine(
            EngineSpec(router="patlabor", cache="symmetry",
                       cache_store=str(db))
        )
        again.route(net)
        assert getattr(again, "store_hits") == 1

    def test_engine_spec_rejects_store_without_cache(self):
        import pytest

        from repro.engine import EngineSpec, build_engine

        with pytest.raises(ValueError, match="cache_store"):
            build_engine(EngineSpec(router="patlabor", cache=None,
                                    cache_store="x.sqlite"))


class TestCacheStatsCli:
    """`repro cache stats`: store report, --json, and the daemon section."""

    def _seed_store(self, tmp_path):
        db = tmp_path / "cli.sqlite"
        store = PersistentStore(db)
        net = random_net(4, rng=random.Random(71))
        key, transform = canonical_key(net)
        store.put(key, net, transform, list(PatLabor().route(net)))
        assert store.get(key) is not None               # one hit
        other = random_net(5, rng=random.Random(73))
        assert store.get(canonical_key(other)[0]) is None  # one miss
        store.close()        # flushes lifetime counters
        return db

    def test_json_report_fields(self, tmp_path, capsys):
        import json

        from repro.cli import main

        db = self._seed_store(tmp_path)
        assert main(["cache", "stats", "--store", str(db), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 1
        assert report["size_bytes"] > 0
        assert report["total_hits"] == 1 and report["total_misses"] == 1
        assert report["lifetime_hit_rate"] == 0.5
        assert report["healthy"] is True
        assert "daemon" not in report

    def test_text_report_mentions_size_and_rate(self, tmp_path, capsys):
        from repro.cli import main

        db = self._seed_store(tmp_path)
        assert main(["cache", "stats", "--store", str(db)]) == 0
        out = capsys.readouterr().out
        assert "entries   1" in out
        assert "bytes" in out and "hit rate" in out

    def test_missing_store_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["cache", "stats", "--store", str(tmp_path / "none.sqlite")])
        assert rc == 1
        assert "no store" in capsys.readouterr().err

    def test_daemon_section_reports_since_start_rates(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.serve import ServeClient, ServeConfig, ServerThread

        db = self._seed_store(tmp_path)
        config = ServeConfig(
            host="127.0.0.1", port=0, workers=1, store_path=str(db)
        )
        with ServerThread(config) as handle:
            with ServeClient(
                host="127.0.0.1", port=handle.server.tcp_port
            ) as client:
                client.route([random_net(4, rng=random.Random(72))])
            rc = main([
                "cache", "stats", "--store", str(db), "--json",
                "--daemon-host", "127.0.0.1",
                "--daemon-port", str(handle.server.tcp_port),
            ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        daemon = report["daemon"]
        assert daemon["nets"] == 1
        assert 0.0 <= daemon["warm_hit_rate"] <= 1.0
        assert {"served_memory", "served_store", "served_routed"} <= set(daemon)


def _child_env():
    """Environment for a child interpreter that imports ``repro`` from src/."""
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


#: Puts the fronts of ``count`` seeded nets into the store at ``db``.
_WRITER = """
import random, sys
from repro.core.cache import canonical_key
from repro.core.cache_store import PersistentStore
from repro.core.patlabor import PatLabor
from repro.geometry.net import random_net
db, count = sys.argv[1], int(sys.argv[2])
store = PersistentStore(db)
for i in range(count):
    net = random_net(4 + i % 3, rng=random.Random(500 + i))
    key, t = canonical_key(net)
    assert store.put(key, net, t, list(PatLabor().route(net)))
"""


def _written_keys(count):
    """The canonical keys :data:`_WRITER` puts for ``count`` nets."""
    return [
        canonical_key(random_net(4 + i % 3, rng=random.Random(500 + i)))[0]
        for i in range(count)
    ]


def _journal_mode(db):
    import sqlite3

    conn = sqlite3.connect(db)
    try:
        return conn.execute("PRAGMA journal_mode").fetchone()[0]
    finally:
        conn.close()


class TestWriteAheadLog:
    """WAL commits: visible to other processes, durable across a torn exit."""

    REPO = str(Path(__file__).resolve().parent.parent)

    def test_writer_store_runs_in_wal_mode(self, tmp_path):
        db = tmp_path / "s.sqlite"
        net = random_net(4, rng=random.Random(31))
        key, t = canonical_key(net)
        store = PersistentStore(db)
        assert store.put(key, net, t, list(PatLabor().route(net)))
        assert store.wal_path.exists()
        assert _journal_mode(db) == "wal"
        store.close()

    def test_entries_survive_exit_without_close(self, tmp_path):
        # A torn-down pool worker ends by os._exit: no close(), no atexit,
        # no checkpoint. Its commits sit in the WAL and must still be hits.
        db = tmp_path / "s.sqlite"
        count = 12
        subprocess.run(
            [sys.executable, "-c", _WRITER + "import os\nos._exit(0)\n",
             str(db), str(count)],
            check=True, cwd=self.REPO, env=_child_env(),
        )
        assert (tmp_path / "s.sqlite-wal").stat().st_size > 0
        keys = _written_keys(count)
        readonly = PersistentStore(db, readonly=True)
        assert all(readonly.get(key) is not None for key in keys)
        assert readonly.hits == count and readonly.healthy
        fresh = PersistentStore(db)
        assert all(fresh.get(key) is not None for key in keys)
        assert fresh.hits == count and len(fresh) == count
        fresh.close()

    def test_readonly_store_reads_while_writer_is_open(self, tmp_path):
        db = tmp_path / "s.sqlite"
        count = 6
        with subprocess.Popen(
            [sys.executable, "-c",
             _WRITER + "print('ready', flush=True)\nsys.stdin.readline()\n"
             "store.close()\n",
             str(db), str(count)],
            cwd=self.REPO, env=_child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        ) as writer:
            try:
                assert writer.stdout is not None and writer.stdin is not None
                assert writer.stdout.readline().strip() == "ready"
                reader = PersistentStore(db, readonly=True)
                keys = _written_keys(count)
                assert all(reader.get(key) is not None for key in keys)
                assert reader.hits == count and len(reader) == count
                assert writer.poll() is None  # the writer still holds its connection
                writer.stdin.write("done\n")
                writer.stdin.flush()
                assert writer.wait(timeout=60) == 0
            finally:
                if writer.poll() is None:
                    writer.kill()

    def test_cache_stats_counts_uncheckpointed_entries(self, tmp_path, capsys):
        import json

        from repro.cli import main

        db = tmp_path / "live.sqlite"
        store = PersistentStore(db)
        rng = random.Random(81)
        for _ in range(3):
            net = random_net(5, rng=rng)
            key, t = canonical_key(net)
            assert store.put(key, net, t, list(PatLabor().route(net)))
        try:
            assert main(["cache", "stats", "--store", str(db), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["entries"] == 3
            assert report["size_bytes"] > 0
            # The commits are still in the WAL: the main file alone is smaller.
            assert report["size_bytes"] > db.stat().st_size
        finally:
            store.close()
