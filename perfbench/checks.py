"""The benchmark's correctness gate and its quality metric.

Every check runs outside the timed region and returns the number of
failures it found, so every wrong front is counted against the
operations attempted (the JSON line's ``failed``).

Equality rules follow ``docs/numerics.md``:

* a DW front and the enumerate-and-sort reference
  ``pareto_dw(net, kernels=False)`` must be bit-identical (``==``);
* fronts served from the shipped LUT, or from the symmetry cache for a
  translated or mirrored copy, evaluate the same topologies in another
  summation order or frame, so they may differ from the reference in the
  last bits; those compare with a relative tolerance of
  :data:`REL_TOL`, point for point;
* fronts the daemon returns must equal (``==``) the fronts an in-process
  engine of the same spec returns for the same request sequence.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.core.pareto import is_pareto_front
from repro.core.pareto_dw import pareto_dw
from repro.eval.metrics import NetComparison, average_curves
from repro.eval.runner import fig7_normalizers
from repro.exceptions import ReproError
from repro.geometry.net import Net
from repro.routing.validate import check_tree

Objectives = List[Tuple[float, float]]

#: Relative tolerance for fronts that differ from the reference only in
#: evaluation order (LUT rows, cache-mapped copies).
REL_TOL = 1e-12


def objectives(front: Sequence[Sequence[object]]) -> Objectives:
    """The ``(w, d)`` pairs of a front of solutions."""
    return [(float(s[0]), float(s[1])) for s in front]  # type: ignore[arg-type]


def same_front(got: Objectives, ref: Objectives, exact: bool) -> bool:
    """Equal fronts: ``==`` when ``exact``, else point-wise within REL_TOL."""
    if exact:
        return got == ref
    return len(got) == len(ref) and all(
        math.isclose(a, b, rel_tol=REL_TOL)
        for p, q in zip(got, ref)
        for a, b in zip(p, q)
    )


def reference(net: Net) -> Objectives:
    """The repository's reference oracle for an exact-tier net."""
    return objectives(pareto_dw(net, kernels=False))


def check_trees(front: Sequence[Sequence[object]]) -> bool:
    """Valid trees whose recomputed ``(w, d)`` match the reported values,
    on a non-dominated front.

    DW sums a tree's objectives along its DP decomposition, a tree
    recomputes them edge by edge, so the match is within REL_TOL.
    """
    if not front or not is_pareto_front(front):  # type: ignore[arg-type]
        return False
    for w, d, tree in front:  # type: ignore[misc]
        try:
            check_tree(tree)
        except ReproError:
            return False
        if not same_front([tree.objective()], [(w, d)], exact=False):
            return False
    return True


def norm_delay_mean(nets: Sequence[Net], fronts: Dict[str, Objectives]) -> float:
    """Mean over nets of the Fig. 7 curve mean.

    For each net and each budget ``b`` in 1.00, 1.02, ... 1.50: the best
    ``d / d(RSMA)`` among its solutions with ``w / w(RSMT) <= b``
    (:func:`repro.eval.metrics.average_curves`); the curve is averaged
    over budgets, then over nets. Normalisers are computed here, outside
    any timed region.
    """
    norms = fig7_normalizers(nets)
    rows = [
        NetComparison(
            net_name=net.name,
            degree=net.degree,
            frontier=[],
            methods={"patlabor": [(w, d, None) for w, d in fronts[net.name]]},
        )
        for net in nets
    ]
    (curve,) = average_curves(rows, norms.w_refs, norms.d_refs)
    return sum(curve.mean_delay) / len(curve.mean_delay)
