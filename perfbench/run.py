"""The repository's end-to-end benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_exact --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --self-test

A run does a fixed amount of work for its seed, sized from ``--seconds``
(at ``--seconds 16`` the timed part takes 13 to 25 s on the 2-core
host the benchmark was tuned on); the same seed then routes the same
nets on every host and every commit. ``--trace 0`` measures the end-to-end metrics with
observability off;
``--trace 1`` runs a fixed-size pass traced, untraced and traced again
and reports the per-layer metrics (``layers.py``, which also records
which end-to-end metric each should move). Both check the outputs they
time, outside the timing (``checks.py``; the workloads' modules say
which reference sees which sample); a wrong front, an exception or a
typed error counts as a failed operation. Human-readable lines come first (sample
counts, percentiles with how many samples lie beyond them, raw timings,
load hygiene); the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``batch_exact`` — degree 4..9 nets in Table III proportions, one
  ``engine.route`` call each on the engine ``route_batch`` builds:
  Pareto-DW, cache writes.
* ``batch_large`` — degree 10..50 nets (Fig. 7(b)), one ``engine.route``
  call each on the same engine: local search.
* ``serve_stream`` — one closed-loop client against the routing daemon:
  route lane (LUT, memory and store hits) and ECO lane (incremental).

End-to-end metrics, on every workload:

* ``setup_s`` — program set-up: a fresh interpreter importing the
  package and building the batch engine and the LUT (batch), or daemon
  spawn until its first ping is answered (serve); median of several.
* ``nets_per_s`` — operations per second of time spent in them (nets
  routed; on ``serve_stream`` route requests plus ECO edits).
* ``route_ms_p50`` — median time to route one net as its caller sees
  it: an ``engine.route(net)`` call, or a daemon round trip.
* ``norm_delay_mean`` — mean over nets of the Fig. 7 curve mean.
* ``solutions_per_net`` — mean front size.
* ``peak_rss_mb`` — peak RSS of the processes running the program.

Times are in reference seconds: measured seconds scaled by how fast a
fixed probe kernel ran during the same window (``common.SpeedProbe``),
so a shared host slowing down does not read as a regression. Raw
figures are printed in the report lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("batch_exact", "batch_large", "serve_stream")


def _program_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def run(workload: str, seed: int, seconds: float, trace: bool):
    import batch
    import serve

    if workload == "serve_stream":
        return serve.run_traced(seed) if trace else serve.run_measured(seed, seconds)
    spec = batch.SPECS[workload]
    return batch.run_traced(spec, seed) if trace else batch.run_measured(spec, seed, seconds)


def emit(workload: str, seed: int, result) -> None:
    """Print the report lines, then the JSON result as the last line."""
    print(f"== {workload} seed={seed}")
    for line in result.lines:
        print(line)
    print(f"error_rate: {result.failed}/{result.attempted}")
    if result.phases:
        print("phases (s): " + ", ".join(f"{k}={v:.1f}" for k, v in result.phases.items()))
    for name, (value, unit) in result.metrics.items():
        n = result.samples.get(name)
        print(f"{name} = {value:.6g} {unit}" + (f"  (n={n})" if n else ""))
    correct = result.correct and result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="PatLabor end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test", action="store_true",
        help="tiny pass of every workload plus a corrupted-front check",
    )
    args = parser.parse_args(argv)
    if not _program_present():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(args.workload, args.seed, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
