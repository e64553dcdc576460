"""Disk-backed persistent tier for the symmetry-canonicalizing cache.

The in-memory :class:`~repro.core.cache.CachedRouter` dies with its
process, so every CLI invocation and every fresh worker pays the same
routing work again. :class:`PersistentStore` keeps routed frontiers in an
**append-only SQLite file** keyed on the exact same canonical key the
memory tier uses, so hit rates compound across runs *and* processes: warm
a store once (``repro warm``), and every later process — batch workers,
the ``repro serve`` daemon, plain CLI runs — starts with the whole
history of solved patterns.

Design constraints, in order:

* **Bit-identical transparency.** Entries are stored exactly as the
  memory tier holds them — base-net pins, the store-frame transform, and
  per-solution ``(w, d, points, parent)`` — serialised with ``repr``-
  round-tripping JSON floats. A solution served from disk is therefore
  the same floats the original solve produced (see ``docs/numerics.md``).
* **Never corrupt a reader, never crash on a corrupt file.** Writes are
  ``INSERT OR IGNORE`` transactions serialised by an ``fcntl`` exclusive
  lock on a sidecar ``<path>.lock`` file (single writer at a time, like
  the run ledger); any :class:`sqlite3.Error` — truncated file, garbage
  bytes, concurrent schema surprise — flips the store into a degraded
  mode where every ``get`` is a miss and every ``put`` a no-op.
* **Cheap commits, a cache's durability.** The writer runs SQLite in
  write-ahead-log mode (``journal_mode=WAL``) with ``synchronous=NORMAL``:
  a commit appends to ``<path>-wal`` without an fsync. Other processes
  see each committed entry at once, and a process that exits without
  :meth:`PersistentStore.close` (a torn-down pool worker) keeps every
  commit. An OS crash or power loss may drop the last commits but never
  corrupts the file; the store is a cache, so a lost entry is re-solved.
* **Append-only.** Entries are immutable once written and never evicted;
  recency management stays in the memory LRU in front. ``repro cache
  stats`` reports entry counts and file size (main file plus WAL) so
  growth is observable.

The module has no dependency on the router stack; it serialises plain
``(Net, GridTransform, [Solution])`` triples.
"""

from __future__ import annotations

import atexit
import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

try:  # POSIX advisory locking; other platforms fall back to SQLite's own.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from ..geometry.net import Net
from ..geometry.transforms import GridTransform
from ..routing.tree import RoutingTree
from .pareto import Solution

PathLike = Union[str, Path]

#: Bumped when the entry payload layout changes; readers reject mismatches
#: (treated as misses) instead of mis-decoding old layouts.
FORMAT_VERSION = 1

#: One stored cache entry: the same triple the memory tier keeps.
StoreEntry = Tuple[Net, GridTransform, List[Solution]]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    created REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    k TEXT PRIMARY KEY,
    v TEXT NOT NULL
);
"""


def key_to_text(key: Tuple[Tuple[float, float], ...]) -> str:
    """Serialise a canonical cache key to its stable TEXT primary key.

    JSON floats round-trip via ``repr``, so two processes computing the
    same canonical key always produce byte-identical TEXT — the property
    cross-process hits rely on. Negative zeros are folded into positive
    ones first: ``0.0 == -0.0`` (so the memory tier treats them as one
    key) but ``repr`` distinguishes them, and mirrored nets routinely
    produce ``-0.0`` coordinates.
    """
    return json.dumps([[x + 0.0, y + 0.0] for x, y in key])


def _encode_entry(net: Net, transform: GridTransform, solutions: List[Solution]) -> str:
    """One cache entry as a JSON document (floats repr-round-trip)."""
    return json.dumps(
        {
            "v": FORMAT_VERSION,
            "net": {
                "name": net.name,
                "pins": [[p.x, p.y] for p in net.pins],
            },
            "transform": [transform.swap, transform.flip_x, transform.flip_y],
            "solutions": [
                {
                    "w": w,
                    "d": d,
                    "points": [[p.x, p.y] for p in tree.points],
                    "parent": list(tree.parent),
                }
                for w, d, tree in solutions
            ],
        }
    )


def _decode_entry(payload: str) -> Optional[StoreEntry]:
    """Rebuild the ``(net, transform, solutions)`` triple (None if torn)."""
    try:
        doc = json.loads(payload)
        if doc.get("v") != FORMAT_VERSION:
            return None
        net = Net(
            pins=tuple((x, y) for x, y in doc["net"]["pins"]),  # type: ignore[arg-type]
            name=doc["net"].get("name", ""),
        )
        swap, flip_x, flip_y = doc["transform"]
        transform = GridTransform(swap=bool(swap), flip_x=bool(flip_x), flip_y=bool(flip_y))
        solutions: List[Solution] = []
        for sol in doc["solutions"]:
            tree = RoutingTree.from_parent(net, sol["points"], sol["parent"])
            solutions.append((float(sol["w"]), float(sol["d"]), tree))
        return net, transform, solutions
    except Exception:
        # A torn or foreign payload is a miss, never a crash: the router
        # below the cache can always re-solve.
        return None


def _file_size(path: Path) -> int:
    """Bytes in ``path`` (0 when absent, e.g. a WAL removed at close)."""
    try:
        return path.stat().st_size
    except OSError:
        return 0


class PersistentStore:
    """Append-only SQLite store of routed frontiers, keyed canonically.

    Parameters
    ----------
    path:
        SQLite file location (created on first write; parent directories
        are created eagerly). A sidecar ``<path>.lock`` file serialises
        writers across processes.
    readonly:
        Open without write intent: ``put`` becomes a no-op and no lock
        file is touched. Useful for read-mostly fan-out (serve workers on
        a pre-warmed store).

    The store is resilient by construction: any :class:`sqlite3.Error`
    degrades it (``healthy`` turns False), after which every ``get``
    misses and every ``put`` no-ops — callers never see an exception from
    a corrupt or concurrently-rewritten file.
    """

    def __init__(self, path: PathLike, *, readonly: bool = False) -> None:
        self.path = Path(path)
        self.readonly = readonly
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._degraded = False
        self._conn: Optional[sqlite3.Connection] = None
        self._stats_flushed = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not readonly:
            atexit.register(self.close)

    # ------------------------------------------------------------- plumbing

    @property
    def healthy(self) -> bool:
        """False once the store degraded (corrupt file / SQLite error)."""
        return not self._degraded

    @property
    def lock_path(self) -> Path:
        """The sidecar file writers flock while appending."""
        return self.path.with_name(self.path.name + ".lock")

    @property
    def wal_path(self) -> Path:
        """The write-ahead log beside the store, where commits land first."""
        return self.path.with_name(self.path.name + "-wal")

    def _connect(self) -> Optional[sqlite3.Connection]:
        """The lazily-opened connection (None while degraded/absent)."""
        if self._degraded:
            return None
        if self._conn is not None:
            return self._conn
        if self.readonly and not self.path.exists():
            return None
        try:
            conn = sqlite3.connect(self.path, timeout=5.0)
            conn.execute("PRAGMA busy_timeout=5000")
            if not self.readonly:
                with self._writer_lock():
                    conn.execute("PRAGMA journal_mode=WAL")
                    conn.execute("PRAGMA synchronous=NORMAL")
                    conn.executescript(_SCHEMA)
                    conn.execute(
                        "INSERT OR IGNORE INTO meta (k, v) VALUES (?, ?)",
                        ("format_version", str(FORMAT_VERSION)),
                    )
                    conn.commit()
            self._conn = conn
            return conn
        except sqlite3.Error:
            self._degrade()
            return None

    def _degrade(self) -> None:
        self._degraded = True
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - close never raises here
                pass
            self._conn = None

    class _writer_lock_ctx:
        """``with``-scoped exclusive flock on the sidecar lock file."""

        def __init__(self, lock_path: Path) -> None:
            self._lock_path = lock_path
            self._fd: Optional[int] = None

        def __enter__(self) -> "PersistentStore._writer_lock_ctx":
            if fcntl is not None:
                self._fd = os.open(self._lock_path, os.O_WRONLY | os.O_CREAT, 0o644)
                fcntl.flock(self._fd, fcntl.LOCK_EX)
            return self

        def __exit__(self, *exc: object) -> None:
            if self._fd is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
                os.close(self._fd)
                self._fd = None

    def _writer_lock(self) -> "PersistentStore._writer_lock_ctx":
        return PersistentStore._writer_lock_ctx(self.lock_path)

    # ------------------------------------------------------------- get / put

    def get(self, key: Tuple[Tuple[float, float], ...]) -> Optional[StoreEntry]:
        """The stored entry under ``key``, or None (miss / torn / degraded)."""
        conn = self._connect()
        if conn is None:
            self.misses += 1
            return None
        try:
            row = conn.execute(
                "SELECT payload FROM entries WHERE key = ?", (key_to_text(key),)
            ).fetchone()
        except sqlite3.Error:
            self._degrade()
            self.misses += 1
            return None
        if row is None:
            self.misses += 1
            return None
        entry = _decode_entry(row[0])
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(
        self,
        key: Tuple[Tuple[float, float], ...],
        net: Net,
        transform: GridTransform,
        solutions: List[Solution],
    ) -> bool:
        """Append one entry (first writer wins; repeats are ignored).

        Returns True when the row is (already or newly) present, False on
        a degraded store, a readonly store, or payload-free solutions
        (objective-only fronts cannot be replayed into other frames).
        """
        if self.readonly or any(tree is None for _w, _d, tree in solutions):
            return False
        conn = self._connect()
        if conn is None:
            return False
        try:
            payload = _encode_entry(net, transform, solutions)
            with self._writer_lock():
                conn.execute(
                    "INSERT OR IGNORE INTO entries (key, payload, created) "
                    "VALUES (?, ?, ?)",
                    (key_to_text(key), payload, time.time()),
                )
                conn.commit()
        except sqlite3.Error:
            self._degrade()
            return False
        self.puts += 1
        return True

    # ---------------------------------------------------------------- stats

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk this session."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        conn = self._connect()
        if conn is None:
            return 0
        try:
            row = conn.execute("SELECT COUNT(*) FROM entries").fetchone()
            return int(row[0]) if row else 0
        except sqlite3.Error:
            self._degrade()
            return 0

    def flush_stats(self) -> None:
        """Fold this session's hit/miss/put counters into the meta table.

        Cumulative counters survive the process, so ``repro cache stats``
        can report lifetime traffic for a store path. Degraded or
        readonly stores skip the write silently.
        """
        if self.readonly or (self.hits == 0 and self.misses == 0 and self.puts == 0):
            return
        conn = self._connect()
        if conn is None:
            return
        try:
            with self._writer_lock():
                for name, value in (
                    ("hits", self.hits),
                    ("misses", self.misses),
                    ("puts", self.puts),
                ):
                    conn.execute(
                        "INSERT INTO meta (k, v) VALUES (?, ?) "
                        "ON CONFLICT(k) DO UPDATE SET v = CAST(v AS INTEGER) + ?",
                        (f"total_{name}", str(value), value),
                    )
                conn.commit()
            self.hits = self.misses = self.puts = 0
        except sqlite3.Error:
            self._degrade()

    def stats(self) -> Dict[str, object]:
        """A snapshot for ``repro cache stats``: sizes plus counters.

        ``session_*`` counters cover this process since the last flush
        (``session_hit_rate`` is the hit fraction over exactly those, so a
        daemon that queries its own store reports the rate *since start*,
        not lifetime); ``total_*`` counters are the flushed lifetime
        numbers persisted in the meta table (0 when the store never
        flushed).
        """
        out: Dict[str, object] = {
            "path": str(self.path),
            "healthy": self.healthy,
            "entries": len(self),
            "size_bytes": _file_size(self.path) + _file_size(self.wal_path),
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_puts": self.puts,
            "session_hit_rate": self.hit_rate,
        }
        for name in ("total_hits", "total_misses", "total_puts"):
            out[name] = 0
        conn = self._connect()
        if conn is not None:
            try:
                for k, v in conn.execute("SELECT k, v FROM meta"):
                    if str(k).startswith("total_"):
                        out[str(k)] = int(v)
            except sqlite3.Error:
                self._degrade()
                out["healthy"] = False
        return out

    def close(self) -> None:
        """Flush session counters and release the connection (idempotent)."""
        try:
            self.flush_stats()
        finally:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:  # pragma: no cover
                    pass
                self._conn = None
