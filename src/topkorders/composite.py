"""Composite models: a length distribution times a ranking distribution.

Variants:
  c-i   categorical length, Plackett-Luce ranking, no covariates
  c-ci  clipped-Poisson length and PL ranking, both covariate-conditioned
  c-ld  categorical length, length-stratified PL ranking
"""

from dataclasses import dataclass

import numpy as np

from .augmented import DRAW_BLOCK_CELLS
from .lengthdist import CategoricalLengthParams, PoissonLengthParams, sample_lengths
from .kernels import item_utilities, length_strata
from .orders import Dataset, Universe, check_covariates
from .ranking import PLParams, StratifiedPLParams

COMPOSITE_VARIANTS = ("c-i", "c-ci", "c-ld")


@dataclass(frozen=True)
class CompositeModel:
    variant: str
    length_params: CategoricalLengthParams | PoissonLengthParams
    ranking_params: PLParams | StratifiedPLParams
    universe: Universe

    def __post_init__(self):
        pairing = {
            "c-i": (CategoricalLengthParams, PLParams),
            "c-ci": (PoissonLengthParams, PLParams),
            "c-ld": (CategoricalLengthParams, StratifiedPLParams),
        }
        if self.variant not in pairing:
            raise ValueError(f"unknown composite variant {self.variant!r}")
        len_t, rank_t = pairing[self.variant]
        if not isinstance(self.length_params, len_t):
            raise TypeError(f"{self.variant} requires {len_t.__name__}")
        if not isinstance(self.ranking_params, rank_t):
            raise TypeError(f"{self.variant} requires {rank_t.__name__}")
        if self.ranking_params.m != self.universe.m:
            raise ValueError("ranking params m != universe m")
        if self.length_params.m != self.universe.m:
            raise ValueError("length params m != universe m")
        if self.variant == "c-i" and self.ranking_params.beta is not None:
            raise ValueError("c-i takes no covariates")

    def banks(self) -> list:
        """Each Plackett-Luce bank's (items (m,), END (0,), covariate weights
        (d,)): the one bank, or c-ld's bank of each length stratum."""
        banks = getattr(self.ranking_params, "banks", (self.ranking_params,))
        return [(b.delta, np.zeros(0), np.zeros(0) if b.beta is None else b.beta) for b in banks]


def sample_composite_dataset(
    model: CompositeModel, n: int, rng, covariates=None
) -> Dataset:
    """n partial orders: a length each, then that many Plackett-Luce choices.

    Sequential softmax sampling without replacement is realized with the
    Gumbel-max trick: the top-l items of utility-plus-Gumbel noise have
    exactly the Plackett-Luce prefix distribution. c-ld ranks each draw
    with the bank of its length stratum. With covariates, draw i uses the
    utilities (and for c-ci the length distribution) of agent i.

    After the lengths, each stratum walks the lengths in windows of
    DRAW_BLOCK_CELLS // m rows and ranks the stratum's rows of a window as
    one block of Gumbel keys, into ids of the smallest signed integer type
    that holds -(m + 1). Beyond the ids and lengths it returns, a draw holds
    one block's row indices, keys, utilities and covariate rows; a c-ci
    draw takes the agents' mean covariates, the Poisson length features,
    one block of rows at a time.
    The Gumbel keys of consecutive blocks are the stream of one call over
    the stratum, so the draws do not depend on the block size.
    """
    rng = np.random.default_rng(rng)
    m = model.universe.m
    check_covariates(covariates, n, m)
    X = None if covariates is None else covariates.values
    # a Poisson length model raises without covariates; a categorical ignores them
    lengths = sample_lengths(model.length_params, n, rng, X)
    banks = model.banks()
    K = len(banks)
    items = np.empty((n, m), dtype=np.min_scalar_type(-1 - m))
    step = max(DRAW_BLOCK_CELLS // m, 1)
    for b, (delta, _, beta) in enumerate(banks):
        for lo in range(0, n, step):
            rows = np.flatnonzero(length_strata(lengths[lo : lo + step], K) == b)
            rows += lo
            U = item_utilities(None if X is None else X[rows], delta, beta)
            keys = U + rng.gumbel(size=(rows.size, m))
            ranked = np.argsort(-keys, axis=1)
            ranked[np.arange(m) >= lengths[rows, None]] = -1
            items[rows] = ranked
    D = Dataset.__new__(Dataset)  # valid rows by construction, not checked again
    D._set(model.universe, items, lengths, covariates, False, check_rows=False)
    return D
