"""Topology interning pool — the paper's table-compression clustering.

Section V-A observes that "for a single set of pins with different
sources, many topologies are the same", and stores one representative per
cluster. The pool interns topologies by their undirected grid-edge set:
every table entry references pool indices instead of owning copies, which
is where the bulk of the size reduction in Table II's ``Size`` column
comes from.

In memory the pool is one int8 ``(edges, 4)`` matrix, one
``(ax, ay, bx, by)`` row per undirected grid edge, and a row pointer per
topology: the shipped table's 4525 topologies take 142 KB, not 4525
frozensets of 107k tuples. :meth:`TopologyPool.get`
hands out a frozenset per call. The frozenset's iteration order decides
the node numbering of the tree built from it, so it must not change:

* a pool read from a file builds it from the rows in file order;
* a pool that interns keeps the frozensets it was given, because a
  frozenset's iteration order depends on how its source set grew, not
  only on its elements, and cannot be rebuilt from the rows. The intern
  index needs those objects as keys anyway. It is built on the first
  :meth:`~TopologyPool.intern` (building a table, or solving a pattern
  on demand), never when a table is loaded.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

GridNode = Tuple[int, int]
EdgeSet = FrozenSet[Tuple[GridNode, GridNode]]


class TopologyPool:
    """Interning store for grid-edge-set topologies.

    ``rows`` (int8, ``(edges, 4)``) and ``ptr`` (int64, one more entry
    than topologies) give a pool its contents: topology ``i`` is the
    edge rows ``rows[ptr[i]:ptr[i + 1]]``. With neither, the pool starts
    empty.
    """

    def __init__(
        self, rows: Optional[np.ndarray] = None, ptr: Optional[np.ndarray] = None
    ) -> None:
        self._rows = np.empty((0, 4), dtype=np.int8) if rows is None else rows
        self._ptr = np.zeros(1, dtype=np.int64) if ptr is None else ptr
        #: Built on the first intern: edge set -> id, and the sets by id.
        self._index: Optional[Dict[EdgeSet, int]] = None
        self._sets: List[EdgeSet] = []
        self.hits = 0  # how many interns found an existing entry

    def intern(self, edges: EdgeSet) -> int:
        """Return the pool id of ``edges``, inserting it if new."""
        if self._index is None:
            self._sets = [self.get(i) for i in range(len(self))]
            self._index = {}
            for i, known in enumerate(self._sets):
                self._index.setdefault(known, i)
        idx = self._index.get(edges)
        if idx is not None:
            self.hits += 1
            return idx
        idx = len(self._sets)
        self._index[edges] = idx
        self._sets.append(edges)
        new_rows = np.array(
            sorted((a[0], a[1], b[0], b[1]) for a, b in edges), dtype=np.int8
        ).reshape(-1, 4)
        self._rows = np.concatenate((self._rows, new_rows))
        self._ptr = np.append(self._ptr, len(self._rows))
        return idx

    def get(self, idx: int) -> EdgeSet:
        """The edge set stored under pool id ``idx``."""
        if self._index is not None:
            return self._sets[idx]
        return frozenset(
            ((a, b), (c, d)) for a, b, c, d in self.rows(idx).tolist()
        )

    def rows(self, idx: int) -> np.ndarray:
        """Topology ``idx``'s edge rows ``(ax, ay, bx, by)`` (int8)."""
        return self._rows[self._ptr[idx] : self._ptr[idx + 1]]

    def __len__(self) -> int:
        return len(self._ptr) - 1

    @property
    def dedup_ratio(self) -> float:
        """References saved by interning: total references / stored."""
        total = len(self) + self.hits
        return total / len(self) if len(self) else 1.0
