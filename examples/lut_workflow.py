#!/usr/bin/env python3
"""Offline lookup-table workflow: generate once, serialise, route millions.

Run:  python examples/lut_workflow.py

Demonstrates the production deployment the paper describes in Section V-A:

1. generate lookup tables for small degrees (full enumeration),
2. save them to an ``.npz`` archive and inspect the Table-II-style statistics,
3. reload in a fresh router and serve exact frontiers straight from the
   table — with timing that shows the point of doing this.
"""

import random
import tempfile
import time
from pathlib import Path

from repro import LookupTable, PatLabor, random_net
from repro.core.pareto_dw import pareto_dw
from repro.io.lut_io import load_lut, lut_file_size, save_lut


def main() -> None:
    # ---- 1. generate -----------------------------------------------------
    t0 = time.perf_counter()
    table = LookupTable.build(degrees=(4, 5))
    build_s = time.perf_counter() - t0
    print(f"built full tables for degrees 4-5 in {build_s:.1f}s")
    for n, st in sorted(table.stats.items()):
        print(
            f"  degree {n}: #Index = {st.num_index:4d}   "
            f"avg #Topo = {st.avg_topologies:5.2f}   "
            f"distinct topologies = {st.distinct_topologies}"
        )
    print(
        f"  topology pool: {len(table.pool)} stored, "
        f"{table.pool.dedup_ratio:.2f}x sharing from clustering"
    )

    # ---- 2. serialise ------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "patlabor_lut.npz"
        save_lut(table, path)
        print(f"\nserialised to {path.name}: {lut_file_size(path) / 1024:.0f} KiB")

        # ---- 3. reload and route ------------------------------------------
        t0 = time.perf_counter()
        loaded = load_lut(path)
        print(f"reloaded in {time.perf_counter() - t0:.3f}s")

        router = PatLabor(lut=loaded)
        rng = random.Random(42)
        nets = [random_net(rng.choice((4, 5)), rng=rng) for _ in range(200)]

        t0 = time.perf_counter()
        fronts = [router.route(net) for net in nets]
        lut_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        for net in nets[:20]:  # DW is slow; sample for the comparison
            pareto_dw(net)
        dw_s = (time.perf_counter() - t0) * len(nets) / 20

        print(
            f"\nrouted {len(nets)} nets from the table in {lut_s:.2f}s "
            f"({lut_s / len(nets) * 1000:.1f} ms/net)"
        )
        print(f"direct Pareto-DW would need ~{dw_s:.2f}s ({dw_s / lut_s:.1f}x more)")

        # Spot-check exactness against the DP.
        for net in nets[:10]:
            got = [(round(w, 6), round(d, 6)) for w, d, _ in router.route(net)]
            want = [
                (round(w, 6), round(d, 6))
                for w, d, _ in pareto_dw(net, with_trees=False)
            ]
            assert got == want
        print("table answers verified exact on a sample ✔")
        print(f"\ntotal solutions served: {sum(len(f) for f in fronts)}")


if __name__ == "__main__":
    main()
