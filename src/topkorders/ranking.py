"""Plackett-Luce ranking distributions over total orders.

A partial order's probability is the marginal over its completions, which
for Plackett-Luce collapses to the product of the first k sequential
choice probabilities. All arithmetic is in log space.
"""

from dataclasses import dataclass

import numpy as np

from .lengthdist import logsumexp
from .orders import PartialOrder


@dataclass(frozen=True)
class PLParams:
    """Item fixed effects delta (m,), optional covariate weights beta (d,)."""

    delta: np.ndarray
    beta: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=np.float64))
        if self.beta is not None:
            object.__setattr__(self, "beta", np.asarray(self.beta, dtype=np.float64))

    @property
    def m(self) -> int:
        return self.delta.shape[0]


@dataclass(frozen=True)
class StratifiedPLParams:
    """K parameter banks indexed by list-length stratum min(k, K)."""

    banks: tuple

    def __post_init__(self):
        banks = tuple(self.banks)
        if not banks:
            raise ValueError("need at least one bank")
        m = banks[0].m
        if any(b.m != m for b in banks):
            raise ValueError("all banks must share m")
        object.__setattr__(self, "banks", banks)

    @property
    def K(self) -> int:
        return len(self.banks)

    @property
    def m(self) -> int:
        return self.banks[0].m


def pl_utilities(params: PLParams, x_row: np.ndarray | None = None) -> np.ndarray:
    """Per-item utilities: delta, plus beta . x_ij when covariates are used."""
    if params.beta is None:
        if x_row is not None:
            return params.delta + np.zeros(params.m)
        return params.delta
    if x_row is None:
        raise ValueError("params have beta but no covariate row was given")
    x_row = np.asarray(x_row, dtype=np.float64)
    if x_row.shape != (params.m, params.beta.shape[0]):
        raise ValueError(
            f"covariate row shape {x_row.shape} incompatible with "
            f"(m={params.m}, d={params.beta.shape[0]})"
        )
    return params.delta + x_row @ params.beta


def pl_utility(params: PLParams, item: int, x_row: np.ndarray | None = None) -> float:
    """Utility of a single item (1-based id)."""
    if not 1 <= item <= params.m:
        raise ValueError(f"item {item} outside [1, {params.m}]")
    return float(pl_utilities(params, x_row)[item - 1])


def pl_log_marginal(
    Q: PartialOrder, params: PLParams, x_row: np.ndarray | None = None
) -> float:
    """Log marginal probability of partial order Q under Plackett-Luce.

    Equals sum_j [u(q_j) - logsumexp over remaining alternatives], which is
    also the log of the summed probability of all completions of Q.
    """
    u = pl_utilities(params, x_row)
    return _sequential_log_prob(Q.items, u)


def _sequential_log_prob(items, u: np.ndarray) -> float:
    avail = np.ones(u.shape[0], dtype=bool)
    total = 0.0
    for a in items:
        total += u[a - 1] - logsumexp(u[avail])
        avail[a - 1] = False
    return float(total)


def stratified_log_prob(
    Q: PartialOrder, params: StratifiedPLParams, x_row: np.ndarray | None = None
) -> float:
    """Evaluate Q under bank min(k_Q, K)."""
    k = max(len(Q), 1)
    bank = params.banks[min(k, params.K) - 1]
    return pl_log_marginal(Q, bank, x_row)
