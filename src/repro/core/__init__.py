"""The paper's core: Pareto algebra, exact/approximate algorithms, PatLabor."""

from .batch import BatchResult, route_batch
from .cache import CachedRouter, translation_key
from .frontier import merge_sorted_fronts, pareto_filter_sorted
from .pareto import (
    Solution,
    attains_frontier,
    count_on_frontier,
    cross,
    dominates,
    epsilon_indicator,
    hypervolume,
    is_pareto_front,
    merge_fronts,
    objectives,
    pareto_filter,
    shift,
    weakly_dominates,
)
from .pareto_dw import DWStats, pareto_dw, pareto_frontier
from .pareto_ks import pareto_ks
from .patlabor import PatLabor, PatLaborConfig, reassemble
from .policy import (
    DEFAULT_PARAMS,
    PolicyParams,
    SelectionPolicy,
    pin_features,
    train_policy,
)

__all__ = [
    "BatchResult",
    "CachedRouter",
    "DEFAULT_PARAMS",
    "DWStats",
    "PatLabor",
    "PatLaborConfig",
    "PolicyParams",
    "SelectionPolicy",
    "Solution",
    "attains_frontier",
    "count_on_frontier",
    "cross",
    "dominates",
    "epsilon_indicator",
    "hypervolume",
    "is_pareto_front",
    "merge_fronts",
    "merge_sorted_fronts",
    "objectives",
    "pareto_dw",
    "pareto_filter",
    "pareto_filter_sorted",
    "pareto_frontier",
    "pareto_ks",
    "pin_features",
    "reassemble",
    "route_batch",
    "shift",
    "train_policy",
    "translation_key",
    "weakly_dominates",
]
