"""Composite models: a length distribution times a ranking distribution.

Variants:
  c-i   categorical length, Plackett-Luce ranking, no covariates
  c-ci  clipped-Poisson length and PL ranking, both covariate-conditioned
  c-ld  categorical length, length-stratified PL ranking
"""

from dataclasses import dataclass

import numpy as np

from .lengthdist import (
    CategoricalLengthParams,
    PoissonLengthParams,
    categorical_log_prob,
    poisson_clipped_log_prob,
    sample_length,
)
from .orders import Dataset, PartialOrder, Universe, validate_order
from .ranking import (
    PLParams,
    StratifiedPLParams,
    pl_log_marginal,
    pl_utilities,
    stratified_log_prob,
)

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
        if self.length_params.m != self.universe.m and self.variant != "c-ci":
            raise ValueError("length params m != universe m")
        if self.variant == "c-ci" and self.length_params.m != self.universe.m:
            raise ValueError("length params m != universe m")


def ci_log_prob(Q: PartialOrder, model: CompositeModel) -> float:
    validate_order(Q, model.universe)
    return categorical_log_prob(len(Q), model.length_params) + pl_log_marginal(
        Q, model.ranking_params
    )


def cci_log_prob(Q: PartialOrder, model: CompositeModel, x_row: np.ndarray) -> float:
    """x_row is the (m, d) covariate slice for the agent who produced Q."""
    if x_row is None:
        raise ValueError("c-ci requires covariates")
    validate_order(Q, model.universe)
    x_row = np.asarray(x_row, dtype=np.float64)
    x_agent = x_row.mean(axis=0)  # length model sees the agent-level feature vector
    return poisson_clipped_log_prob(
        len(Q), x_agent, model.length_params
    ) + pl_log_marginal(Q, model.ranking_params, x_row)


def cld_log_prob(
    Q: PartialOrder, model: CompositeModel, x_row: np.ndarray | None = None
) -> float:
    validate_order(Q, model.universe)
    return categorical_log_prob(len(Q), model.length_params) + stratified_log_prob(
        Q, model.ranking_params, x_row
    )


def composite_log_prob(
    Q: PartialOrder, model: CompositeModel, x_row: np.ndarray | None = None
) -> float:
    if model.variant == "c-i":
        return ci_log_prob(Q, model)
    if model.variant == "c-ci":
        return cci_log_prob(Q, model, x_row)
    return cld_log_prob(Q, model, x_row)


def sample_composite(
    model: CompositeModel, rng, x_row: np.ndarray | None = None
) -> PartialOrder:
    """Draw one partial order: a length, then that many PL choices.

    Sequential softmax sampling without replacement is realized with the
    Gumbel-max trick: the top-l items of utility-plus-Gumbel noise have
    exactly the Plackett-Luce prefix distribution.
    """
    rng = np.random.default_rng(rng)
    if model.variant == "c-ci":
        if x_row is None:
            raise ValueError("c-ci requires covariates")
        x_agent = np.asarray(x_row, dtype=np.float64).mean(axis=0)
        length = sample_length(model.length_params, x_agent, rng)
        u = pl_utilities(model.ranking_params, x_row)
    else:
        length = sample_length(model.length_params, rng=rng)
        if model.variant == "c-ld":
            bank = model.ranking_params.banks[min(length, model.ranking_params.K) - 1]
            u = pl_utilities(bank)
        else:
            u = pl_utilities(model.ranking_params)
    g = rng.gumbel(size=u.shape[0])
    ranked = np.argsort(-(u + g), kind="stable")[:length]
    return PartialOrder(tuple(int(a) + 1 for a in ranked))


def sample_composite_batch(model: CompositeModel, n: int, rng) -> list[PartialOrder]:
    """Vectorized Algorithm-1 sampling for covariate-free variants."""
    if model.variant == "c-ci":
        raise ValueError("batch sampling requires a covariate-free variant")
    rng = np.random.default_rng(rng)
    from .lengthdist import categorical_log_pmf

    p = np.exp(categorical_log_pmf(model.length_params))
    p = p / p.sum()
    lengths = rng.choice(model.universe.m, size=n, p=p) + 1
    m = model.universe.m
    if model.variant == "c-i":
        u = pl_utilities(model.ranking_params)
        ranked = np.argsort(-(u[None, :] + rng.gumbel(size=(n, m))), axis=1)
    else:
        # stratum bank selected by the drawn length, then Gumbel top-l
        ranked = np.empty((n, m), dtype=np.int64)
        K = model.ranking_params.K
        for b in range(K):
            mask = (np.minimum(lengths, K) - 1) == b
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            u = pl_utilities(model.ranking_params.banks[b])
            ranked[mask] = np.argsort(
                -(u[None, :] + rng.gumbel(size=(cnt, m))), axis=1
            )
    return [
        PartialOrder(tuple(int(a) + 1 for a in ranked[i, : lengths[i]]))
        for i in range(n)
    ]


def sample_composite_dataset(
    model: CompositeModel, n: int, rng, covariates=None
) -> Dataset:
    rng = np.random.default_rng(rng)
    if covariates is None and model.variant != "c-ci":
        orders = sample_composite_batch(model, n, rng)
    else:
        orders = []
        for i in range(n):
            x_row = covariates.values[i] if covariates is not None else None
            orders.append(sample_composite(model, rng, x_row))
    return Dataset(model.universe, tuple(orders), covariates=covariates)
