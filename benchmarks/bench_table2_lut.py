"""Table II — lookup-table generation statistics.

Paper (16-core C++): degrees 4–9 fully enumerated, 483,472 index groups,
246 MB, 4.76 h. Pure-Python scaling: degrees 4–5 regenerated here in-
process, degree 6 taken from the *shipped* fully-enumerated table
(579 groups, generated offline in ~2 CPU-minutes — avg #Topo 10.6 vs the
paper's 10.67 at degree 6), degree 7 sampled; #Index extrapolates from
exact orbit counting.

The combined table takes degrees 6 and 7 with ``LookupTable.take_degree``,
which re-interns their topologies into its own pool, and is saved as the
``.npz`` archive ``repro gen-lut`` writes; the Size column is that file's
size. The file is loaded back: its lookups at every degree must equal
the in-memory combined table's, and its degree-6 and degree-7 lookups
the source tables'.

Timed kernel: solving a single degree-5 canonical pattern symbolically.
"""

import random

from repro.eval.reporting import render_table2
from repro.geometry.net import Net
from repro.io.lut_io import load_lut, lut_file_size, save_lut
from repro.lut.default import DATA_FILE, default_table
from repro.lut.generator import count_canonical_patterns, solve_pattern
from repro.lut.table import LookupTable

from conftest import write_artifact

SAMPLED = {7: 8}


def test_table2_lut_generation(benchmark, tmp_path_factory):
    table = LookupTable.build(degrees=(4, 5))
    # Degree 6: shipped full enumeration (counted offline as full).
    shipped = default_table()
    table.take_degree(shipped, 6)
    sources = {6: shipped}
    for degree, limit in SAMPLED.items():
        sampled = LookupTable.build(
            degrees=(degree,), limit_per_degree=limit, stride=500
        )
        table.take_degree(sampled, degree)
        st = table.stats[degree]
        st.num_index = count_canonical_patterns(degree)  # full orbit count
        st.sampled = True
        sources[degree] = sampled

    out_dir = tmp_path_factory.mktemp("lut")
    path = out_dir / "table2_lut.npz"
    save_lut(table, path)
    size_mb = lut_file_size(path) / 1e6
    # The saved table must look up as the in-memory table and its sources
    # did, pattern for pattern.
    loaded = load_lut(path)
    assert loaded.degrees == table.degrees == [4, 5, 6, 7]
    for degree in loaded.degrees:
        patterns = list(table.entries[degree])
        assert _stored_fronts(loaded, patterns, random.Random(degree)) == (
            _stored_fronts(table, patterns, random.Random(degree))
        ), f"degree {degree}: the saved table's lookups differ from the table's"
    for degree, source in sources.items():
        patterns = list(source.entries[degree])
        assert _stored_fronts(loaded, patterns, random.Random(degree)) == (
            _stored_fronts(source, patterns, random.Random(degree))
        ), f"degree {degree}: the saved table's lookups differ from its source's"

    stats = [table.stats[n] for n in sorted(table.stats)]
    rendered = render_table2(stats)
    rendered += (
        f"\nserialized size (4-6 full, 7 sampled; .npz): {size_mb:.2f} MB"
        f"\nshipped table file: {DATA_FILE.name} "
        f"({lut_file_size(DATA_FILE) / 1e6:.2f} MB)"
        f"\ninterned topology pool (this run): {len(table.pool)} distinct "
        f"(dedup ratio {table.pool.dedup_ratio:.2f}x)"
    )
    write_artifact("table2_lut.txt", rendered)

    # Shape assertions mirroring the paper's table:
    # #Index grows steeply with degree...
    assert table.stats[5].num_index > table.stats[4].num_index
    assert table.stats[6].num_index > table.stats[5].num_index
    assert table.stats[7].num_index > table.stats[6].num_index
    # ...and so does the average number of stored topologies.
    assert table.stats[5].avg_topologies > table.stats[4].avg_topologies
    assert table.stats[6].avg_topologies > table.stats[5].avg_topologies
    # Degree-6 average topology count lands near the paper's 10.67.
    assert 7.0 <= table.stats[6].avg_topologies <= 14.0
    # Clustering pays: topologies are shared across index groups.
    assert table.pool.dedup_ratio > 1.2

    benchmark(lambda: solve_pattern((2, 0, 3, 1, 4), 2))



def _stored_fronts(table, patterns, rng):
    """Two lookups per pattern: ``(w, d)`` and the tree's wire set each.

    The wires are compared as a set of point pairs, so a tree that only
    numbers its nodes differently (a built table's topologies iterate in
    another order than a loaded one's) still compares equal.
    """
    fronts = []
    for perm, src in patterns:
        for _ in range(2):
            xs, ys = [0.0], [0.0]
            for _ in perm[1:]:
                xs.append(xs[-1] + rng.uniform(0.1, 10.0))
                ys.append(ys[-1] + rng.uniform(0.1, 10.0))
            pins = [(xs[c], ys[r]) for c, r in enumerate(perm)]
            net = Net.from_points(pins[src], pins[:src] + pins[src + 1 :])
            front = table.lookup(net, on_missing="raise")
            fronts.append([(w, d, _wires(tree)) for w, d, tree in front])
    return fronts


def _wires(tree):
    """The tree's wires as unordered point pairs."""
    pts = tree.points
    return {frozenset((pts[i], pts[p])) for i, p in enumerate(tree.parent) if p >= 0}
