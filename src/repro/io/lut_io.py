"""Lookup-table (de)serialisation — JSON with interned topologies.

The on-disk layout mirrors the in-memory structure: one shared topology
pool (edge lists over grid nodes) plus, per degree and per canonical
pattern, rows of ``(W, D, topology-id)``. JSON keeps the artefact
inspectable and platform-independent.

:func:`load_lut` decodes the parsed document straight into the table's
int8/int32 columns (:class:`~repro.lut.table.DegreeRows`) and the pool's
edge matrix (:class:`~repro.lut.cluster.TopologyPool`), with the GC
paused, and drops the document. The shipped degree 4–6 table (1.9 MB)
loads in 0.08–0.13 s on a 2-core x86-64 host, 0.06–0.09 s of it the JSON
parse, and leaves ~700 GC-tracked objects and ~5 MB resident
(``docs/performance.md``, "Start-up" and "The table in memory").
"""

from __future__ import annotations

import gc
import json
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

import numpy as np

from ..exceptions import LookupTableError, SerializationError
from ..lut.cluster import TopologyPool
from ..lut.table import (
    DegreeRows,
    DegreeStats,
    LookupTable,
    Pattern,
    int8_values,
)

PathLike = Union[str, Path]

FORMAT_VERSION = 1


def save_lut(table: LookupTable, path: PathLike) -> None:
    """Write a lookup table to ``path`` (JSON)."""
    pool = table.pool
    doc: Dict[str, Any] = {
        "version": FORMAT_VERSION,
        "prune_mode": table.prune_mode,
        "pool": [sorted(pool.rows(i).tolist()) for i in range(len(pool))],
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
    for n, block in table.entries.items():
        deg_doc: Dict[str, List[Dict[str, Any]]] = {}
        for (perm, src), (start, stop) in block.index.items():
            key = ",".join(map(str, perm)) + f"/{src}"
            deg_doc[key] = [
                {"w": w, "d": d, "t": t}
                for w, d, t in zip(
                    block.w[start:stop].tolist(),
                    block.d[start:stop].tolist(),
                    block.topo[start:stop].tolist(),
                )
            ]
        doc["degrees"][str(n)] = deg_doc
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_lut(path: PathLike) -> LookupTable:
    """Read a lookup table previously written by :func:`save_lut`.

    The decode allocates hundreds of thousands of containers (the parsed
    document, then the flat value lists the columns are read from), all
    alive until it returns, so the cyclic GC's passes over them collect
    nothing. The GC is paused for the decode and restored afterwards
    (left off if the caller had it off).
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
    try:
        table.pool = _decode_edges(doc["pool"])
        for n_str, patterns in doc["degrees"].items():
            n = int(n_str)
            table.entries[n] = _decode_degree(n, patterns)
    except LookupTableError as exc:
        raise SerializationError(f"bad LUT file {path}: {exc}") from exc
    for n_str, st in doc.get("stats", {}).items():
        table.stats[int(n_str)] = DegreeStats(**st)
    return table


def _decode_edges(pool: List[List[List[int]]]) -> TopologyPool:
    """The topology pool from its per-topology edge lists, in file order."""
    ptr = np.zeros(len(pool) + 1, dtype=np.int64)
    np.cumsum([len(edges) for edges in pool], out=ptr[1:])
    rows = int8_values(chain.from_iterable(chain.from_iterable(pool)))
    if rows.size != 4 * ptr[-1]:
        raise LookupTableError("every pool edge needs 4 coordinates")
    return TopologyPool(rows.reshape(-1, 4), ptr)


def _decode_degree(
    n: int, patterns: Dict[str, List[Dict[str, Any]]]
) -> DegreeRows:
    """One degree's columns from its ``"perm/src" -> rows`` mapping."""
    index: Dict[Pattern, Tuple[int, int]] = {}
    rows: List[Dict[str, Any]] = []
    for key, pattern_rows in patterns.items():
        perm_str, src_str = key.rsplit("/", 1)
        start = len(rows)
        rows += pattern_rows
        perm = tuple(int(x) for x in perm_str.split(","))
        index[(perm, int(src_str))] = (start, len(rows))
    return DegreeRows.from_rows(
        n,
        index,
        list(map(itemgetter("w"), rows)),
        list(map(itemgetter("d"), rows)),
        list(map(itemgetter("t"), rows)),
    )


def lut_file_size(path: PathLike) -> int:
    """Size of the serialized table in bytes (Table II's Size column)."""
    return Path(path).stat().st_size
