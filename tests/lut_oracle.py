"""Reference lookup table: one tuple per row, one frozenset per topology.

The form :class:`repro.lut.table.LookupTable` held before its int8/int32
columns, kept as the oracle the compact table must equal row for row,
topology for topology (including frozenset iteration order) and lookup
for lookup. It decodes the shipped table as the JSON document it was
generated as (``tests/data/patlabor_lut_456.json.gz``, the source of the
shipped ``.npz``), reads a saved ``.npz`` member by member with its own
Python loops, ingests the same generator output and evaluates a
pattern's rows with the same Python loop.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.core.frontier import pareto_filter_sorted
from repro.core.pareto import Solution, clean_front
from repro.geometry.net import Net
from repro.geometry.transforms import canonical_pattern
from repro.lut.table import TableRow, _instantiate, net_pattern

Pattern = Tuple[Tuple[int, ...], int]

#: The shipped table in the JSON form it was generated in.
SHIPPED_JSON = Path(__file__).resolve().parent / "data" / "patlabor_lut_456.json.gz"


class OracleTable:
    """Rows as ``(w, d, topology id)`` tuples; topologies as frozensets."""

    def __init__(self) -> None:
        self.entries: Dict[int, Dict[Pattern, List[TableRow]]] = {}
        self.pool: List[frozenset] = []
        self._index: Dict[frozenset, int] = {}

    def intern(self, edges: frozenset) -> int:
        """The pool id of ``edges``; the first interned object is kept."""
        idx = self._index.get(edges)
        if idx is None:
            idx = self._index[edges] = len(self.pool)
            self.pool.append(edges)
        return idx


def oracle_load(path: Path) -> OracleTable:
    """Decode a table file: gzipped JSON (``.json.gz``) or a saved ``.npz``."""
    if str(path).endswith(".json.gz"):
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return _oracle_from_json(json.load(fh))
    return _oracle_from_npz(path)


def _oracle_from_json(doc) -> OracleTable:
    table = OracleTable()
    for data in doc["pool"]:
        table.intern(frozenset(((e[0], e[1]), (e[2], e[3])) for e in data))
    for n_str, patterns in doc["degrees"].items():
        per_pattern = table.entries[int(n_str)] = {}
        for key, rows in patterns.items():
            perm_str, src_str = key.rsplit("/", 1)
            perm = tuple(int(x) for x in perm_str.split(","))
            per_pattern[(perm, int(src_str))] = [
                (
                    tuple(r["w"]),
                    tuple(tuple(row) for row in r["d"]),
                    int(r["t"]),
                )
                for r in rows
            ]
    return table


def _oracle_from_npz(path: Path) -> OracleTable:
    table = OracleTable()
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(archive["meta"].tobytes())
        edge_rows = archive["pool_rows"].tolist()
        ptr = archive["pool_ptr"].tolist()
        for start, stop in zip(ptr, ptr[1:]):
            table.intern(
                frozenset(((a, b), (c, d)) for a, b, c, d in edge_rows[start:stop])
            )
        for n in meta["degrees"]:
            w, d, t = (archive[f"d{n}_{col}"].tolist() for col in ("w", "d", "topo"))
            per_pattern = table.entries[n] = {}
            for perm, src, (start, stop) in zip(
                archive[f"d{n}_perm"].tolist(),
                archive[f"d{n}_src"].tolist(),
                archive[f"d{n}_range"].tolist(),
            ):
                per_pattern[(tuple(perm), src)] = [
                    (tuple(w[r]), tuple(tuple(row) for row in d[r]), t[r])
                    for r in range(start, stop)
                ]
    return table


def oracle_ingest(table: OracleTable, n: int, raw) -> None:
    """Store the generator's ``pattern -> PatternSolutions`` for degree n."""
    table.entries[n] = {
        key: [(sol.w, sol.rows, table.intern(sol.payload)) for sol in ps.solutions]
        for key, ps in raw.items()
    }


def oracle_lookup(table: OracleTable, net: Net) -> List[Solution]:
    """The exact front of ``net`` (degree >= 4, pattern present)."""
    n = net.degree
    perm, src, xs, ys = net_pattern(net)
    cperm, csrc, t = canonical_pattern(perm, src)
    rows = table.entries[n][(cperm, csrc)]
    qx = [xs[i + 1] - xs[i] for i in range(n - 1)]
    qy = [ys[i + 1] - ys[i] for i in range(n - 1)]
    cgx, cgy = t.apply_gaps(qx, qy)
    gaps = list(cgx) + list(cgy)
    evaluated = []
    for w_vec, d_rows, topo_id in rows:
        w = sum(c * g for c, g in zip(w_vec, gaps))
        d = max(sum(c * g for c, g in zip(r, gaps)) for r in d_rows)
        evaluated.append((w, d, topo_id))
    front = pareto_filter_sorted(evaluated)
    t_inv = t.inverse(n, n)
    out = []
    for w, d, topo_id in front:
        tree = _instantiate(net, table.pool[topo_id], t_inv, n, xs, ys)
        tw, td = tree.objective()
        out.append((min(w, tw), min(d, td), tree))
    return clean_front(out)
