"""Exact work-counter gate: traced end-to-end runs against committed counts.

Usage::

    python3 tools/check_counters.py

Runs ``python3 perfbench/run.py --workload W --seed 1 --trace 1`` for each
workload in ``benchmarks/results/counters.json`` and compares every
nonzero ``count``-unit metric of the run with the committed value,
exactly. Work counters (DP subsets, merge candidates, closure
allocations, local-search iterations) depend only on the inputs and the
algorithm, never on the host, so any difference is a change in what the
program does, not noise. Exits 1 listing every difference (a deliberate
change re-baselines by committing the measured values), or if a run
fails its own correctness gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
COUNTERS = ROOT / "benchmarks" / "results" / "counters.json"
SEED = 1


def traced_counters(workload: str) -> Dict[str, int]:
    """Nonzero ``count`` metrics of one traced run of ``workload``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    record = json.loads(out.strip().splitlines()[-1])
    if record["failed"] or not record["correct"]:
        raise SystemExit(f"{workload}: the run failed its correctness gate")
    return {
        name: int(metric["value"])
        for name, metric in record["metrics"].items()
        if metric["unit"] == "count" and metric["value"]
    }


def differences(expected: Dict[str, int], got: Dict[str, int]) -> List[str]:
    """One line per counter whose committed and measured values differ
    (a counter absent on one side reads 0 there)."""
    return [
        f"{name}: committed {expected.get(name, 0)}, measured {got.get(name, 0)}"
        for name in sorted(set(expected) | set(got))
        if expected.get(name, 0) != got.get(name, 0)
    ]


def main() -> int:
    committed = json.loads(COUNTERS.read_text(encoding="utf-8"))["workloads"]
    failed = False
    for workload, expected in committed.items():
        got = traced_counters(workload)
        diff = differences(expected, got)
        if diff:
            failed = True
            print(f"{workload}: {len(diff)} counter(s) differ")
            for line in diff:
                print(f"  {line}")
        else:
            print(f"{workload}: {len(got)} counters match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
