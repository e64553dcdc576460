"""Old-vs-new benchmark of the sorted-front and array Pareto kernels.

Not a paper artefact: this measures the engineering win of
:mod:`repro.core.frontier` over the enumerate-and-sort reference path,
and of the array-native engine (:mod:`repro.core.frontier_array`) over
both. :func:`repro.core.pareto_dw.pareto_dw` picks its engine by degree,
so every net of an ICCAD-15-like degree sweep is solved three times
through the engines' private entry points — the reference
(``_pareto_dw_impl(kernels=False)``), the tuple kernels
(``_pareto_dw_impl(kernels=True)``) and the array engine
(``_pareto_dw_array_impl``) — asserting bit-identical ``(w, d)``
frontiers across all three and comparing

* wall time per degree, and the best-of-``TIMING_PASSES`` tuple/array
  ratio per degree; the lowest degree from which the array engine wins
  at every higher degree is the measured crossover
  (``kernels.crossover_degree``), the number ``pareto_dw``'s dispatch
  constant ``_ARRAY_MIN_DEGREE`` is set from,
* ``merge_candidates`` — merge-product solution tuples materialized
  (reference: ``a * b`` per transition; kernels: at most ``a + b - 1``),
* ``closure_allocations`` — closure-bucket tuples materialized
  (reference: every shifted candidate; kernels: dominance survivors).

Two acceptance bars are asserted on the highest degree, so the benchmark
itself fails when either optimization stops paying for itself:

* >= 3x allocation reduction (tuple kernels vs reference, PR 5),
* >= 5x wall-time speedup (array engine vs tuple kernels) —
  measured best-of-``TIMING_PASSES`` on warmed caches so one scheduler
  hiccup cannot flip the verdict.

Outputs:

* ``results/pareto_kernels.txt`` — the per-degree comparison table,
* ``results/BENCH_pareto_kernels.json`` — raw per-degree numbers,
* ``results/ledger.jsonl`` — one appended ``pareto_kernels`` run record
  (ratios use the ``_rate`` suffix so the perf gate reads them as
  higher-is-better; see ``repro.obs.ledger.metric_direction``).

Run directly (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_pareto_kernels.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro import obs
from repro.core.pareto_dw import (
    _ARRAY_MIN_DEGREE,
    DWStats,
    _pareto_dw_array_impl,
    _pareto_dw_impl,
)
from repro.eval.benchmarks import Iccad15LikeSuite

RESULTS_DIR = Path(__file__).parent / "results"

#: Nets per degree. The highest degree is the headline workload; the
#: quick profile is what the CI perf-gate job runs.
FULL_PER_DEGREE = {4: 12, 5: 12, 6: 10, 7: 8, 8: 6, 9: 6}
#: The quick profile keeps the full degree-9 workload so its headline
#: array-speedup measurement is the same sweep the acceptance bar names.
QUICK_PER_DEGREE = {6: 3, 9: 6}

#: Acceptance bar (PR 5: ">= 3x fewer allocated candidate tuples in the
#: DW merge+closure path on the degree-9 workload").
MIN_HEADLINE_REDUCTION = 3.0

#: Acceptance bar: ">= 5x wall-time speedup of the array engine over
#: the tuple kernels on the degree-9 sweep".
MIN_ARRAY_SPEEDUP = 5.0

#: Timed passes per engine and degree for the tuple/array ratios; the best
#: pass counts, which makes the ratio robust to scheduler noise (the
#: array path's short wall time makes it disproportionately sensitive).
TIMING_PASSES = 5


def _allocated(stats: DWStats) -> int:
    """Candidate solution tuples materialized by merge + closure."""
    return stats.merge_candidates + stats.closure_allocations


def _solve(engine: str, net, stats=None):
    """One engine's frontier of ``net`` (default Lemma flags, no trees)."""
    flags = dict(
        lemma2=True, lemma3=True, lemma4=True, with_trees=False, stats=stats
    )
    if engine == "array":
        return _pareto_dw_array_impl(net, **flags)
    return _pareto_dw_impl(net, kernels=engine == "tuple", **flags)


def _run_path(
    nets, engine: str
) -> Tuple[float, DWStats, List[List[Tuple[float, float]]]]:
    """Solve every net on one engine; returns (seconds, stats, frontiers)."""
    stats = DWStats()
    fronts: List[List[Tuple[float, float]]] = []
    t0 = time.perf_counter()
    for net in nets:
        front = _solve(engine, net, stats)
        fronts.append([(w, d) for w, d, _ in front])
    return time.perf_counter() - t0, stats, fronts


def _best_of(nets, passes: int, engine: str) -> float:
    """Best wall time of ``passes`` repeat solves (caches warmed)."""
    best = float("inf")
    for _ in range(passes):
        t0 = time.perf_counter()
        for net in nets:
            _solve(engine, net)
        best = min(best, time.perf_counter() - t0)
    return best


def crossover_degree(ratios: Dict[int, float]) -> int:
    """Lowest degree from which the array engine wins at every degree.

    ``ratios`` maps degree to tuple/array wall-time ratio (> 1: array
    faster). Returns one past the highest degree when the array engine
    never wins at the top of the sweep.

    >>> crossover_degree({4: 0.4, 5: 1.1, 6: 0.9, 7: 3.0})
    7
    """
    cross = max(ratios) + 1
    for degree in sorted(ratios, reverse=True):
        if ratios[degree] <= 1.0:
            break
        cross = degree
    return cross


def bench(per_degree: Dict[int, int], seed: int = 2015) -> Dict[str, object]:
    """The degree sweep; returns the per-degree and headline numbers."""
    suite = Iccad15LikeSuite(seed=seed)
    rows: List[Dict[str, float]] = []
    for degree in sorted(per_degree):
        nets = suite.small_nets(
            degrees=(degree,), per_degree=per_degree[degree]
        )[degree]
        ref_s, ref_stats, ref_fronts = _run_path(nets, "reference")
        ker_s, ker_stats, ker_fronts = _run_path(nets, "tuple")
        arr_s, arr_stats, arr_fronts = _run_path(nets, "array")
        assert ker_fronts == ref_fronts, (
            f"kernel/reference frontier mismatch at degree {degree}"
        )
        assert arr_fronts == ref_fronts, (
            f"array/reference frontier mismatch at degree {degree}"
        )
        assert ker_stats.closure_extensions == ref_stats.closure_extensions
        assert ker_stats.merge_transitions == ref_stats.merge_transitions
        assert arr_stats.closure_extensions == ref_stats.closure_extensions
        assert arr_stats.merge_transitions == ref_stats.merge_transitions
        # Warm best-of-N per engine: the per-degree ratio the crossover
        # is read from (single passes are too noisy at small degrees).
        tuple_best = _best_of(nets, TIMING_PASSES, "tuple")
        array_best = _best_of(nets, TIMING_PASSES, "array")
        rows.append(
            {
                "degree": degree,
                "nets": len(nets),
                "ref_seconds": ref_s,
                "kernel_seconds": ker_s,
                "array_seconds": arr_s,
                "tuple_best_seconds": tuple_best,
                "array_best_seconds": array_best,
                "array_ratio": tuple_best / array_best,
                "ref_merge_candidates": ref_stats.merge_candidates,
                "kernel_merge_candidates": ker_stats.merge_candidates,
                "ref_closure_allocations": ref_stats.closure_allocations,
                "kernel_closure_allocations": ker_stats.closure_allocations,
                "ref_allocated": _allocated(ref_stats),
                "kernel_allocated": _allocated(ker_stats),
                "array_allocated": _allocated(arr_stats),
            }
        )
    head = rows[-1]  # highest degree = headline workload
    return {
        "rows": rows,
        "headline_degree": head["degree"],
        "alloc_reduction": head["ref_allocated"] / head["kernel_allocated"],
        "merge_reduction": (
            head["ref_merge_candidates"] / head["kernel_merge_candidates"]
        ),
        "closure_reduction": (
            head["ref_closure_allocations"]
            / head["kernel_closure_allocations"]
        ),
        "speedup": head["ref_seconds"] / head["kernel_seconds"],
        "tuple_best_seconds": head["tuple_best_seconds"],
        "array_best_seconds": head["array_best_seconds"],
        "array_speedup": head["array_ratio"],
        "crossover_degree": crossover_degree(
            {r["degree"]: r["array_ratio"] for r in rows}
        ),
        "dispatch_min_degree": _ARRAY_MIN_DEGREE,
    }


def render(result: Dict[str, object]) -> str:
    lines = [
        "Pareto kernels: reference vs tuple kernels vs array engine "
        "(pareto_dw)",
        "",
        f"{'deg':>4} {'nets':>5} {'ref_s':>8} {'kern_s':>8} {'arr_s':>8} "
        f"{'ref_alloc':>12} {'kern_alloc':>12} {'reduction':>10} "
        f"{'speedup':>8} {'tup/arr':>8}",
    ]
    for r in result["rows"]:
        lines.append(
            f"{r['degree']:>4} {r['nets']:>5} {r['ref_seconds']:>8.3f} "
            f"{r['kernel_seconds']:>8.3f} {r['array_seconds']:>8.3f} "
            f"{r['ref_allocated']:>12} "
            f"{r['kernel_allocated']:>12} "
            f"{r['ref_allocated'] / r['kernel_allocated']:>9.2f}x "
            f"{r['ref_seconds'] / r['kernel_seconds']:>7.2f}x "
            f"{r['array_ratio']:>7.2f}x"
        )
    lines += [
        "",
        f"headline (degree {result['headline_degree']}): "
        f"{result['alloc_reduction']:.2f}x fewer candidate tuples "
        f"(merge {result['merge_reduction']:.2f}x, "
        f"closure {result['closure_reduction']:.2f}x), "
        f"{result['speedup']:.2f}x wall-time speedup",
        f"array engine (best of {TIMING_PASSES}): tuple "
        f"{result['tuple_best_seconds']:.3f}s vs array "
        f"{result['array_best_seconds']:.3f}s = "
        f"{result['array_speedup']:.2f}x",
        f"crossover: the array engine wins from degree "
        f"{result['crossover_degree']} up (tup/arr = best-of-"
        f"{TIMING_PASSES} ratio); pareto_dw dispatches degree >= "
        f"{result['dispatch_min_degree']} to it",
        f"acceptance bars: >= {MIN_HEADLINE_REDUCTION:.1f}x allocation "
        f"reduction, >= {MIN_ARRAY_SPEEDUP:.1f}x array speedup "
        f"on the headline degree",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI profile: degrees 6 and 9 only, 3 nets each",
    )
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=RESULTS_DIR,
        help="artifact/ledger directory (default: benchmarks/results)",
    )
    args = parser.parse_args(argv)

    per_degree = QUICK_PER_DEGREE if args.quick else FULL_PER_DEGREE
    result = bench(per_degree)

    report = render(result)
    args.results_dir.mkdir(exist_ok=True)
    txt_path = args.results_dir / "pareto_kernels.txt"
    txt_path.write_text(report + "\n", encoding="utf-8")
    print(report)
    print(f"\n[artifact written to {txt_path}]")

    json_path = args.results_dir / "BENCH_pareto_kernels.json"
    json_path.write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"[raw numbers written to {json_path}]")

    head = result["rows"][-1]
    metrics = {
        # Deterministic for a fixed workload: what the perf gate watches.
        "kernels.alloc_reduction_rate": result["alloc_reduction"],
        "kernels.merge_reduction_rate": result["merge_reduction"],
        "kernels.closure_reduction_rate": result["closure_reduction"],
        "kernels.headline_allocated": float(head["kernel_allocated"]),
        # Timing (noisy on shared runners; informational + threshold-gated).
        "kernels.speedup_rate": result["speedup"],
        "kernels.headline_kernel_seconds": head["kernel_seconds"],
        "kernels.headline_ref_seconds": head["ref_seconds"],
        # Array engine vs the tuple kernels (best-of-N timing; the
        # headline of this PR's degree sweep).
        "kernels.array_speedup_rate": result["array_speedup"],
        "kernels.headline_array_seconds": result["array_best_seconds"],
        "kernels.headline_tuple_best_seconds": result["tuple_best_seconds"],
        "kernels.array_headline_allocated": float(head["array_allocated"]),
        # Where the array engine starts to win (best-of-N per degree).
        "kernels.crossover_degree": float(result["crossover_degree"]),
    }
    for r in result["rows"]:
        metrics[f"kernels.array_ratio_d{r['degree']}_rate"] = r["array_ratio"]
    record = obs.make_record(
        metrics,
        name="pareto_kernels",
        config={
            "quick": args.quick,
            "per_degree": {str(k): v for k, v in sorted(per_degree.items())},
            "headline_degree": result["headline_degree"],
            "seed": 2015,
        },
    )
    ledger_path = obs.append_record(
        record, args.results_dir / "ledger.jsonl"
    )
    print(f"[run {record['run_id']} appended to {ledger_path}]")

    if result["alloc_reduction"] < MIN_HEADLINE_REDUCTION:
        print(
            f"FAIL: allocation reduction {result['alloc_reduction']:.2f}x "
            f"below the {MIN_HEADLINE_REDUCTION:.1f}x bar"
        )
        return 1
    if result["array_speedup"] < MIN_ARRAY_SPEEDUP:
        print(
            f"FAIL: array speedup {result['array_speedup']:.2f}x "
            f"below the {MIN_ARRAY_SPEEDUP:.1f}x bar"
        )
        return 1
    print("OK: allocation reduction and array speedup meet the bars")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
