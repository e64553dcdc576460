"""Lookup-table files: one uncompressed NumPy ``.npz`` archive.

The archive holds the table's in-memory columns as they are, so loading
is a handful of array reads, not a parse:

* ``meta``: a JSON document in a uint8 array (``format``, ``version``,
  ``prune_mode``, the stored ``degrees`` and the Table II
  :class:`~repro.lut.table.DegreeStats`);
* ``pool_rows`` (int8, ``(edges, 4)``) and ``pool_ptr`` (int64, one more
  entry than topologies): the :class:`~repro.lut.cluster.TopologyPool`;
* per degree ``n``, the :class:`~repro.lut.table.DegreeRows` columns
  ``d{n}_perm`` (int8, ``(patterns, n)``), ``d{n}_src`` (int8),
  ``d{n}_range`` (int32, ``(patterns, 2)``, each pattern's
  ``(start, stop)`` rows), ``d{n}_w``, ``d{n}_d`` (int8) and ``d{n}_topo``
  (int32).

Patterns and pool rows keep their stored order: a loaded topology's
frozenset is built from its rows in that order, and that order numbers
the nodes of the trees a lookup builds.

:func:`load_lut` never unpickles (``allow_pickle=False``) and checks every
member's name, dtype and shape and every coefficient's range (0..127)
before building the table; any violation raises
:class:`~repro.exceptions.SerializationError`. The shipped degree 4–6
table (0.6 MB) loads in ~5 ms on a 2-core x86-64 host and leaves ~700
GC-tracked objects and ~5 MB resident (``docs/performance.md``,
"Start-up" and "The table in memory"). Tables in the JSON format of
earlier releases are not read; regenerate them with ``repro gen-lut``.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path
from typing import Any, Dict, List, Tuple, Type, Union

import numpy as np

from ..exceptions import SerializationError
from ..lut.cluster import TopologyPool
from ..lut.table import DegreeRows, DegreeStats, LookupTable, Pattern

PathLike = Union[str, Path]

FORMAT = "patlabor-lut"
FORMAT_VERSION = 2

_ZIP_MAGIC = b"PK\x03\x04"
_REGENERATE = "regenerate it with `repro gen-lut`"


def save_lut(table: LookupTable, path: PathLike) -> None:
    """Write ``table`` to exactly ``path`` as an uncompressed ``.npz``.

    The archive is written to a temporary file in the same directory and
    moved into place, so ``path`` never holds a partial table. The output
    is deterministic: saving one table twice gives identical bytes.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        # An open file, not a name: np.savez appends ".npz" to a name.
        with open(tmp, "wb") as fh:
            np.savez(fh, **_members(table))
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _members(table: LookupTable) -> Dict[str, np.ndarray]:
    pool = table.pool
    edges = [pool.rows(i) for i in range(len(pool))]
    ptr = np.zeros(len(edges) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in edges], out=ptr[1:])
    meta = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "prune_mode": table.prune_mode,
        "degrees": list(table.entries),
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
    members: Dict[str, np.ndarray] = {
        "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        "pool_rows": (
            np.concatenate(edges) if edges else np.empty((0, 4), dtype=np.int8)
        ),
        "pool_ptr": ptr,
    }
    for n, block in table.entries.items():
        patterns = list(block.index)
        members[f"d{n}_perm"] = np.array(
            [perm for perm, _ in patterns], dtype=np.int8
        ).reshape(len(patterns), n)
        members[f"d{n}_src"] = np.array([src for _, src in patterns], dtype=np.int8)
        members[f"d{n}_range"] = np.array(
            list(block.index.values()), dtype=np.int32
        ).reshape(len(patterns), 2)
        members[f"d{n}_w"] = block.w
        members[f"d{n}_d"] = block.d
        members[f"d{n}_topo"] = block.topo
    return members


def load_lut(path: PathLike) -> LookupTable:
    """Read a lookup table previously written by :func:`save_lut`."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(_ZIP_MAGIC))
    except OSError as exc:
        raise SerializationError(f"cannot read LUT file {path}: {exc}") from exc
    if head != _ZIP_MAGIC:
        kind = "a JSON table" if head.lstrip()[:1] == b"{" else "not a LUT archive"
        raise SerializationError(
            f"LUT file {path} is {kind}; this release reads only .npz tables, "
            f"{_REGENERATE}"
        )
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise SerializationError(f"cannot read LUT file {path}: {exc}") from exc
    try:
        return _decode(arrays)
    except SerializationError as exc:
        raise SerializationError(f"bad LUT file {path}: {exc}") from exc


def _decode(arrays: Dict[str, np.ndarray]) -> LookupTable:
    # np.load hands back a member that is not a .npy file as raw bytes.
    raw = sorted(
        name for name, arr in arrays.items() if not isinstance(arr, np.ndarray)
    )
    if raw:
        raise SerializationError(f"members {raw} are not .npy arrays")
    meta = _meta(arrays)
    degrees: List[int] = meta["degrees"]
    expected = {"meta", "pool_rows", "pool_ptr"}
    for n in degrees:
        expected.update(
            f"d{n}_{col}" for col in ("perm", "src", "range", "w", "d", "topo")
        )
    if set(arrays) != expected:
        missing = sorted(expected - set(arrays))
        extra = sorted(set(arrays) - expected)
        raise SerializationError(f"members missing {missing}, unexpected {extra}")

    rows = _member(arrays, "pool_rows", np.int8, (-1, 4))
    ptr = _member(arrays, "pool_ptr", np.int64, (-1,))
    if len(ptr) == 0 or ptr[0] != 0 or ptr[-1] != len(rows) or np.any(np.diff(ptr) < 0):
        raise SerializationError("pool_ptr must rise from 0 to the number of edges")
    table = LookupTable()
    table.prune_mode = meta["prune_mode"]
    table.pool = TopologyPool(rows, ptr)
    for n in degrees:
        table.entries[n] = _degree(arrays, n, len(ptr) - 1)
    try:
        for n_str, st in meta["stats"].items():
            table.stats[int(n_str)] = DegreeStats(**st)
    except (TypeError, ValueError, AttributeError) as exc:
        raise SerializationError(f"bad stats in meta: {exc}") from exc
    return table


def _meta(arrays: Dict[str, np.ndarray]) -> Dict[str, Any]:
    if "meta" not in arrays:
        raise SerializationError("no meta member")
    raw = arrays["meta"]
    if raw.dtype != np.uint8 or raw.ndim != 1:
        raise SerializationError("meta must be a 1-d uint8 array")
    try:
        meta = json.loads(raw.tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"meta is not JSON: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format") != FORMAT:
        raise SerializationError(f"meta does not describe a {FORMAT} table")
    if meta.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"format version {meta.get('version')}, expected {FORMAT_VERSION}; "
            f"{_REGENERATE}"
        )
    degrees = meta.get("degrees")
    if not (
        isinstance(degrees, list)
        and all(type(n) is int and 2 <= n <= 127 for n in degrees)
        and len(set(degrees)) == len(degrees)
    ):
        raise SerializationError("meta degrees must be distinct integers in 2..127")
    if not isinstance(meta.get("prune_mode"), str):
        raise SerializationError("meta prune_mode must be a string")
    if not isinstance(meta.get("stats"), dict):
        raise SerializationError("meta stats must be an object")
    return meta


def _member(
    arrays: Dict[str, np.ndarray],
    name: str,
    dtype: Type[np.generic],
    shape: Tuple[int, ...],
) -> np.ndarray:
    """``arrays[name]``, checked for ``dtype`` and ``shape`` (``-1`` is any
    length); int8 members must hold only 0..127."""
    arr = arrays[name]
    if arr.dtype != np.dtype(dtype):
        raise SerializationError(
            f"{name} has dtype {arr.dtype}, expected {np.dtype(dtype)}"
        )
    if arr.ndim != len(shape) or any(
        want not in (-1, got) for want, got in zip(shape, arr.shape)
    ):
        raise SerializationError(f"{name} has shape {arr.shape}, expected {shape}")
    if dtype is np.int8 and arr.size and int(arr.min()) < 0:
        raise SerializationError(f"{name} values must be integers in 0..127")
    return arr


def _degree(arrays: Dict[str, np.ndarray], n: int, num_topologies: int) -> DegreeRows:
    """Degree ``n``'s columns and its pattern index."""
    k = 2 * (n - 1)
    perm = _member(arrays, f"d{n}_perm", np.int8, (-1, n))
    src = _member(arrays, f"d{n}_src", np.int8, (len(perm),))
    ranges = _member(arrays, f"d{n}_range", np.int32, (len(perm), 2))
    w = _member(arrays, f"d{n}_w", np.int8, (-1, k))
    d = _member(arrays, f"d{n}_d", np.int8, (len(w), n - 1, k))
    topo = _member(arrays, f"d{n}_topo", np.int32, (len(w),))
    if ranges.size and (
        ranges.min() < 0 or ranges.max() > len(w) or np.any(ranges[:, 0] > ranges[:, 1])
    ):
        raise SerializationError(f"d{n}_range must hold row ranges within 0..{len(w)}")
    if topo.size and (topo.min() < 0 or topo.max() >= num_topologies):
        raise SerializationError(
            f"d{n}_topo must cite topologies 0..{num_topologies - 1}"
        )
    index: Dict[Pattern, Tuple[int, int]] = {
        (tuple(p), s): (start, stop)
        for p, s, (start, stop) in zip(perm.tolist(), src.tolist(), ranges.tolist())
    }
    if len(index) != len(perm):
        raise SerializationError(f"d{n}_perm/d{n}_src repeat a pattern")
    return DegreeRows(n, index, w, d, topo)


def lut_file_size(path: PathLike) -> int:
    """Size of the serialized table in bytes (Table II's Size column)."""
    return Path(path).stat().st_size
