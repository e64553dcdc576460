"""Lookup-table (de)serialisation — JSON with interned topologies.

The on-disk layout mirrors the in-memory structure: one shared topology
pool (edge lists over grid nodes) plus, per degree and per canonical
pattern, rows of ``(W, D, topology-id)``. JSON keeps the artefact
inspectable and platform-independent. The shipped degree 4–6 table
(1.9 MB) loads in 0.08–0.13 s on a 2-core x86-64 host, 0.06–0.09 s of
it the JSON parse (``docs/performance.md``, "Start-up").
"""

from __future__ import annotations

import gc
import json
from pathlib import Path
from typing import List, Union

from ..exceptions import SerializationError
from ..lut.cluster import TopologyPool
from ..lut.table import DegreeStats, LookupTable

PathLike = Union[str, Path]

FORMAT_VERSION = 1


def _encode_edges(edges) -> List[List[int]]:
    return sorted([a[0], a[1], b[0], b[1]] for a, b in edges)


def _decode_edges(data: List[List[int]]):
    return frozenset(
        ((e[0], e[1]), (e[2], e[3])) for e in data
    )


def save_lut(table: LookupTable, path: PathLike) -> None:
    """Write a lookup table to ``path`` (JSON)."""
    doc = {
        "version": FORMAT_VERSION,
        "prune_mode": table.prune_mode,
        "pool": [_encode_edges(table.pool.get(i)) for i in range(len(table.pool))],
        "degrees": {},
        "stats": {
            str(n): {
                "degree": st.degree,
                "num_index": st.num_index,
                "avg_topologies": st.avg_topologies,
                "max_topologies": st.max_topologies,
                "distinct_topologies": st.distinct_topologies,
                "build_seconds": st.build_seconds,
                "sampled": st.sampled,
            }
            for n, st in table.stats.items()
        },
    }
    for n, patterns in table.entries.items():
        deg_doc = {}
        for (perm, src), rows in patterns.items():
            key = ",".join(map(str, perm)) + f"/{src}"
            deg_doc[key] = [
                {"w": list(w), "d": [list(r) for r in rows_d], "t": tid}
                for (w, rows_d, tid) in rows
            ]
        doc["degrees"][str(n)] = deg_doc
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_lut(path: PathLike) -> LookupTable:
    """Read a lookup table previously written by :func:`save_lut`.

    The decode allocates hundreds of thousands of containers (the parsed
    document, then the table's tuples and frozensets), all alive until
    it returns, so the cyclic GC's passes over them collect nothing. The
    GC is paused for the decode and restored afterwards (left off if the
    caller had it off).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _decode(path)
    finally:
        if was_enabled:
            gc.enable()


def _decode(path: PathLike) -> LookupTable:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read LUT file {path}: {exc}") from exc
    if doc.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"LUT file {path} has version {doc.get('version')}, "
            f"expected {FORMAT_VERSION}"
        )
    table = LookupTable()
    table.prune_mode = doc.get("prune_mode", "componentwise")
    pool = TopologyPool()
    for encoded in doc["pool"]:
        pool.intern(_decode_edges(encoded))
    table.pool = pool
    for n_str, patterns in doc["degrees"].items():
        n = int(n_str)
        table.entries[n] = {}
        for key, rows in patterns.items():
            perm_str, src_str = key.rsplit("/", 1)
            perm = tuple(int(x) for x in perm_str.split(","))
            table.entries[n][(perm, int(src_str))] = [
                (
                    tuple(r["w"]),
                    tuple(tuple(row) for row in r["d"]),
                    int(r["t"]),
                )
                for r in rows
            ]
    for n_str, st in doc.get("stats", {}).items():
        table.stats[int(n_str)] = DegreeStats(**st)
    return table


def lut_file_size(path: PathLike) -> int:
    """Size of the serialized table in bytes (Table II's Size column)."""
    return Path(path).stat().st_size
