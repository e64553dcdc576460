"""The routing daemon as the ``serve_stream`` workload runs it.

Starts one :class:`repro.serve.RouteServer` (one pool worker, symmetry
cache, SQLite store, shipped LUT) on a Unix socket and serves until a
``shutdown`` request. On exit it writes a JSON report: the peak resident
set of the daemon and of its pool worker, the daemon's ``stats``, and,
with ``--trace``, the metrics registry of the daemon with its worker's
merged in (``--telemetry`` drains the worker's at shutdown). With
``--trace`` the benchmark's own spans (``layers.benchmark_spans``) are
recorded too, in the daemon and in the worker it forks.

Run from the repository root::

    python3 perfbench/daemon.py --socket .bench_work/d.sock \
        --store .bench_work/cache.sqlite --report .bench_work/d.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.serve import RouteServer, ServeConfig  # noqa: E402

from layers import benchmark_spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    config = ServeConfig(
        socket_path=args.socket,
        workers=1,
        store_path=args.store,
        telemetry=args.trace,
    )
    if args.trace:
        obs.enable()
    with benchmark_spans() if args.trace else nullcontext():
        server = RouteServer(config)
        asyncio.run(server.serve_until_stopped())

    # The pool has been shut down and joined, so the worker's peak RSS is
    # in RUSAGE_CHILDREN (Linux reports ru_maxrss in KiB).
    report: Dict[str, Any] = {
        "daemon_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "worker_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "stats": server.stats(),
    }
    if args.trace:
        report["snapshot"] = obs.get_registry().snapshot()
    tmp = args.report + ".tmp"
    with open(tmp, "w") as fp:
        json.dump(report, fp)
    os.replace(tmp, args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
