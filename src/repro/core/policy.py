"""Pin-selection policy π for PatLabor's local search, and its trainer.

The policy scores every unselected sink (paper, Section V-B):

    score(p) = a1 * ||r - p||_1            (far from the source)
             + a2 * dist_T(r, p)           (deep in the current tree)
             - a3 * min_sel ||p - p_sel||  (close to already-selected pins)
             - a4 * HPWL(p, selected)      (keeps the selection compact)

and greedily picks the ``k`` highest-scoring sinks. Parameters are
per-degree (``alpha^(n)``), trained by the paper's policy-iteration /
curriculum scheme: roll out random selections, keep the ones that improve
the Pareto set most, and fit nonnegative weights so the score ranks the
pins of good selections highly; each degree warm-starts the next.

Shipped defaults were produced by :func:`train_policy` on κ-smoothed
random nets (see ``examples/policy_training.py`` to regenerate them).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import PolicyError
from ..geometry.net import Net
from ..geometry.point import hpwl, l1
from ..routing.tree import RoutingTree


@dataclass(frozen=True)
class PolicyParams:
    """Nonnegative score weights ``(a1, a2, a3, a4)``."""

    a1: float
    a2: float
    a3: float
    a4: float

    def __post_init__(self) -> None:
        if min(self.a1, self.a2, self.a3, self.a4) < 0:
            raise PolicyError(f"policy weights must be nonnegative: {self}")

    def as_array(self) -> np.ndarray:
        """The weights as a length-4 array ``[a1, a2, a3, a4]``."""
        return np.array([self.a1, self.a2, self.a3, self.a4])


#: Defaults from a policy-iteration run (examples/policy_training.py):
#: source distance and tree depth dominate; the compactness terms matter
#: more as nets grow.
DEFAULT_PARAMS: Dict[int, PolicyParams] = {
    10: PolicyParams(0.62, 1.0, 0.28, 0.10),
    20: PolicyParams(0.55, 1.0, 0.35, 0.14),
    40: PolicyParams(0.50, 1.0, 0.42, 0.18),
    100: PolicyParams(0.45, 1.0, 0.50, 0.22),
}


def pin_features(
    net: Net,
    tree: RoutingTree,
    sink_index: int,
    selected: Sequence[int],
    sink_delays: Sequence[float],
) -> Tuple[float, float, float, float]:
    """The four score features of one candidate sink.

    Features 3 and 4 are zero while nothing is selected yet (paper).
    All features are normalised by the net's bounding-box half-perimeter,
    making the weights scale-free.
    """
    scale = max(net.bbox().half_perimeter, 1e-12)
    p = net.sinks[sink_index]
    f1 = l1(net.source, p) / scale
    f2 = sink_delays[sink_index] / scale
    if selected:
        sel_pts = [net.sinks[i] for i in selected]
        f3 = min(l1(p, q) for q in sel_pts) / scale
        f4 = hpwl([p] + sel_pts) / scale
    else:
        f3 = 0.0
        f4 = 0.0
    return (f1, f2, f3, f4)


class SelectionPolicy:
    """Greedy top-``k`` pin selection under the 4-term score."""

    def __init__(
        self,
        params: Optional[Dict[int, PolicyParams]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.params: Dict[int, PolicyParams] = dict(
            params if params is not None else DEFAULT_PARAMS
        )
        self.rng = rng

    def params_for(self, degree: int) -> PolicyParams:
        """Weights for a net degree (nearest trained degree wins)."""
        if not self.params:
            raise PolicyError("policy has no trained parameters")
        if degree in self.params:
            return self.params[degree]
        nearest = min(self.params, key=lambda n: abs(n - degree))
        return self.params[nearest]

    def select(
        self, net: Net, tree: RoutingTree, k: int
    ) -> List[int]:
        """Indices of the ``k`` sinks to rebuild (greedy argmax score).

        Scores are :func:`pin_features` combined with the weights. The
        features that depend on the selection are kept up to date as pins
        are picked (the nearest selected pin and the selection's bounding
        box) rather than recomputed per candidate; they are the same
        values, since ``min`` and ``max`` are exact.
        """
        alpha = self.params_for(net.degree)
        scale = max(net.bbox().half_perimeter, 1e-12)
        sinks = net.sinks
        base = [
            alpha.a1 * (l1(net.source, p) / scale) + alpha.a2 * (d / scale)
            for p, d in zip(sinks, tree.sink_delays())
        ]
        nearest = [float("inf")] * len(sinks)
        xlo = ylo = float("inf")
        xhi = yhi = -float("inf")
        selected: List[int] = []
        remaining = set(range(len(sinks)))
        while remaining and len(selected) < k:
            scored = []
            for i in remaining:
                if selected:
                    x, y = sinks[i]
                    f3 = nearest[i] / scale
                    f4 = (
                        (max(x, xhi) - min(x, xlo)) + (max(y, yhi) - min(y, ylo))
                    ) / scale
                else:
                    f3 = f4 = 0.0
                scored.append((base[i] - alpha.a3 * f3 - alpha.a4 * f4, i))
            scored.sort(reverse=True)
            if self.rng is not None and len(scored) > 1:
                # Small exploration: occasionally take the runner-up.
                pick = scored[1][1] if self.rng.random() < 0.15 else scored[0][1]
            else:
                pick = scored[0][1]
            selected.append(pick)
            remaining.discard(pick)
            q = sinks[pick]
            for i in remaining:
                nearest[i] = min(nearest[i], l1(sinks[i], q))
            xlo, xhi = min(xlo, q.x), max(xhi, q.x)
            ylo, yhi = min(ylo, q.y), max(yhi, q.y)
        return selected


def random_selection(
    net: Net, k: int, rng: random.Random
) -> List[int]:
    """A uniformly random selection (exploration rollouts in training)."""
    idx = list(range(len(net.sinks)))
    rng.shuffle(idx)
    return idx[:k]


def train_policy(
    degrees: Sequence[int] = (10, 14, 20, 28, 40),
    *,
    nets_per_degree: int = 6,
    rollouts: int = 10,
    lam: int = 8,
    seed: int = 0,
    span: float = 1000.0,
    router=None,
) -> Dict[int, PolicyParams]:
    """Policy iteration with a degree curriculum (paper, Section V-B).

    For each degree: sample nets, roll out random pin selections through
    one PatLabor local-search iteration, score each rollout by the
    hypervolume gained over the seed tree, and fit nonnegative weights by
    least squares so the score separates pins of above-median rollouts
    from unchosen pins. Each degree's fit warm-starts the next
    (curriculum); degenerate fits keep the previous weights.

    ``router`` is injected to avoid a circular import: it must be a
    callable ``(net, selection, lam) -> float`` returning the rollout's
    improvement. The default uses :class:`repro.core.patlabor.PatLabor`.
    """
    from scipy.optimize import nnls

    from ..geometry.net import random_net

    if router is None:
        from .patlabor import rollout_improvement as router

    rng = random.Random(seed)
    current = PolicyParams(1.0, 1.0, 0.5, 0.25)
    learned: Dict[int, PolicyParams] = {}
    for n in degrees:
        rows: List[Tuple[float, float, float, float]] = []
        targets: List[float] = []
        for _ in range(nets_per_degree):
            net = random_net(n, rng=rng, span=span)
            results = []
            for _ in range(rollouts):
                sel = random_selection(net, lam - 1, rng)
                gain, feats = router(net, sel, lam)
                results.append((gain, sel, feats))
            gains = sorted(r[0] for r in results)
            median = gains[len(gains) // 2]
            for gain, sel, feats in results:
                label = 1.0 if gain > median and gain > 0 else 0.0
                for f in feats:
                    # Negate the subtractive features so nnls can fit all
                    # four weights as nonnegative.
                    rows.append((f[0], f[1], -f[2], -f[3]))
                    targets.append(label)
        x = np.asarray(rows)
        y = np.asarray(targets)
        if len(rows) >= 8 and y.std() > 0:
            # Solve min ||X a - y|| with a >= 0 on the sign-adjusted design.
            coef, _ = nnls(np.hstack([x, np.ones((len(x), 1))]), y)
            a = coef[:4]
            if a.max() > 0:
                a = a / a.max()
                current = PolicyParams(*[float(v) for v in a])
        learned[n] = current
    return learned
