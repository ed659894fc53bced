"""Plackett-Luce ranking parameters.

A partial order's probability is the marginal over its completions, which
for Plackett-Luce collapses to the product of the first k sequential
choice probabilities; ``estimation.record_log_probs`` evaluates it.
"""

from dataclasses import dataclass

import numpy as np



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
        if len({(0,) if b.beta is None else b.beta.shape for b in banks}) > 1:
            raise ValueError("all banks must share the covariate dimension d")
        object.__setattr__(self, "banks", banks)

    @property
    def K(self) -> int:
        return len(self.banks)

    @property
    def m(self) -> int:
        return self.banks[0].m
