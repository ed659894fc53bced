"""Statistical models of top-k partial orders.

Six model variants over the space of top-k partial orders: composite
models (c-i, c-ci, c-ld) pairing a length distribution with a
Plackett-Luce ranking, and augmented models (a, a-pd, a-s) that treat
end-of-list as a choosable END token.
"""

from .augmented import (
    AugmentedModel,
    AugmentedNaiveParams,
    PositionDependentParams,
    StratifiedAugmentedParams,
    sample_augmented_dataset,
)
from .composite import CompositeModel, sample_composite_dataset
from .assignment import (
    Market,
    Matching,
    OutcomeRates,
    deferred_acceptance,
    find_blocking_pair,
    make_market,
    outcome_stats,
    uniform_priorities,
)
from .dataio import (
    ParseError,
    SummaryStats,
    dataset_hash,
    load_checkpoint,
    load_covariates,
    parse_preflib,
    save_checkpoint,
    summary_stats,
    write_dataset,
)
from .kernels import backend_name
from .estimation import (
    ALL_VARIANTS,
    FitConfig,
    FitResult,
    NonFiniteLossError,
    fit,
    grid_search,
    kfold_split,
    model_log_prob,
    nll,
    stratify_dataset,
)
from .lengthdist import CategoricalLengthParams, PoissonLengthParams
from .orders import (
    CovariateTensor,
    Dataset,
    OrderView,
    PartialOrder,
    Universe,
    enumerate_partial_orders,
    extension_count,
    validate_order,
)
from .evaluation import (
    DemandShares,
    EvalReport,
    LengthStats,
    TestNLL,
    build_eval_report,
    demand_shares,
    emit_plot_data,
    length_pmf,
    length_stats,
    replicate_sample,
    test_nll,
    tv_distance,
)
from .ranking import PLParams, StratifiedPLParams

__all__ = [
    "ALL_VARIANTS",
    "AugmentedModel",
    "AugmentedNaiveParams",
    "CategoricalLengthParams",
    "CompositeModel",
    "CovariateTensor",
    "Dataset",
    "DemandShares",
    "EvalReport",
    "FitConfig",
    "FitResult",
    "LengthStats",
    "Market",
    "Matching",
    "NonFiniteLossError",
    "OrderView",
    "OutcomeRates",
    "PLParams",
    "ParseError",
    "PartialOrder",
    "PoissonLengthParams",
    "PositionDependentParams",
    "StratifiedAugmentedParams",
    "StratifiedPLParams",
    "SummaryStats",
    "TestNLL",
    "Universe",
    "backend_name",
    "build_eval_report",
    "dataset_hash",
    "deferred_acceptance",
    "demand_shares",
    "emit_plot_data",
    "enumerate_partial_orders",
    "extension_count",
    "find_blocking_pair",
    "fit",
    "grid_search",
    "kfold_split",
    "length_pmf",
    "length_stats",
    "load_checkpoint",
    "load_covariates",
    "make_market",
    "model_log_prob",
    "nll",
    "outcome_stats",
    "parse_preflib",
    "replicate_sample",
    "sample_augmented_dataset",
    "sample_composite_dataset",
    "save_checkpoint",
    "stratify_dataset",
    "summary_stats",
    "test_nll",
    "tv_distance",
    "uniform_priorities",
    "validate_order",
    "write_dataset",
]

__version__ = "0.1.0"
