"""Augmented ranking models over the universe plus an END token.

A partial order arises as a sequence of choices from the shrinking
augmented universe; choosing END terminates the list. END sits at index
m + 1 (1-based) internally. Variants:

  a     one fixed END utility: theta in R^(m+1)
  a-pd  position-dependent END utilities gamma in R^m, fixed item utilities
  a-s   K rank-stratified banks, each in R^(m+1); position j uses bank
        min(j, K)

Item utilities may optionally be covariate-linear (delta_j + beta . x_ij);
the END token never receives covariates. ``AugmentedModel.banks`` gives
each bank's item, END and covariate-weight arrays, a-pd's as one bank
with one END utility per position; the sampler and the flat parameter
layout read them.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import item_utilities
from .orders import Dataset, Universe, check_covariates


@dataclass(frozen=True)
class AugmentedNaiveParams:
    """theta (m+1,): item utilities then the END utility. Optional beta (d,)."""

    theta: np.ndarray
    beta: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=np.float64))
        if self.beta is not None:
            object.__setattr__(self, "beta", np.asarray(self.beta, dtype=np.float64))

    @property
    def m(self) -> int:
        return self.theta.shape[0] - 1


@dataclass(frozen=True)
class PositionDependentParams:
    """Item utilities theta (m,) and per-position END utilities gamma (m,)."""

    theta: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=np.float64))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=np.float64))
        if self.theta.shape != self.gamma.shape:
            raise ValueError("theta and gamma must both have length m")
        if self.beta is not None:
            object.__setattr__(self, "beta", np.asarray(self.beta, dtype=np.float64))

    @property
    def m(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class StratifiedAugmentedParams:
    """banks (K, m+1): one augmented utility vector per choice position."""

    banks: np.ndarray
    betas: np.ndarray | None = None  # (K, d) when covariate-linear

    def __post_init__(self):
        banks = np.asarray(self.banks, dtype=np.float64)
        if banks.ndim != 2:
            raise ValueError("banks must be a (K, m+1) array")
        object.__setattr__(self, "banks", banks)
        if self.betas is not None:
            betas = np.asarray(self.betas, dtype=np.float64)
            if betas.shape[0] != banks.shape[0]:
                raise ValueError("need one beta row per bank")
            object.__setattr__(self, "betas", betas)

    @property
    def K(self) -> int:
        return self.banks.shape[0]

    @property
    def m(self) -> int:
        return self.banks.shape[1] - 1


@dataclass(frozen=True)
class AugmentedModel:
    variant: str
    params: AugmentedNaiveParams | PositionDependentParams | StratifiedAugmentedParams
    universe: Universe

    def __post_init__(self):
        pairing = {
            "a": AugmentedNaiveParams,
            "a-pd": PositionDependentParams,
            "a-s": StratifiedAugmentedParams,
        }
        if self.variant not in pairing:
            raise ValueError(f"unknown augmented variant {self.variant!r}")
        if not isinstance(self.params, pairing[self.variant]):
            raise TypeError(f"{self.variant} requires {pairing[self.variant].__name__}")
        if self.params.m != self.universe.m:
            raise ValueError("params m != universe m")

    def banks(self) -> list:
        """Each choice bank's (items (m,), END, covariate weights (d,)), END
        one utility, or one per position (a-pd); a-s has one per rank stratum."""
        p = self.params
        if self.variant == "a-s":
            betas = [np.zeros(0)] * p.K if p.betas is None else p.betas
            return [(bank[:-1], bank[-1:], beta) for bank, beta in zip(p.banks, betas)]
        beta = np.zeros(0) if p.beta is None else p.beta
        if self.variant == "a":
            return [(p.theta[:-1], p.theta[-1:], beta)]
        return [(p.theta, p.gamma, beta)]


# Cells of each float temporary of a block of draws: rows x (m + 1) options
# of one position here, rows x m Gumbel keys in the composite sampler.
DRAW_BLOCK_CELLS = 1 << 16


def _draw(banks, n: int, rng, X=None, agents=None):
    """n lists drawn under banks of (item utilities (m,), END utilities,
    covariate weights (d,)): (items (n, m) of 0-based ids padded with -1,
    lengths (n,)), both in the smallest signed integer type that holds
    -(m + 1). The choice at position j uses bank min(j, K) and its END
    utility at j, or its last one where it has fewer. With covariates X,
    draw i adds X[agents[i]] . beta to its item utilities, agents the
    identity by default.

    Positions advance in lockstep. The rows still drawing at position j are
    those of length j - 1, so each position walks the lengths in windows of
    DRAW_BLOCK_CELLS // (m + 1) rows and draws the drawing rows of a window
    as one block. A block draws one uniform per row, takes the exp of its
    utilities less their maximum over all m + 1 options (once per position
    without covariates), zeroes the items its rows have listed, and picks
    each row's choice by inverse CDF. The block's weights are option-major,
    (m + 1, rows), in one buffer of DRAW_BLOCK_CELLS floats allocated once
    per draw, so the cumulative sums, one vector add per option, and the
    comparison run along axis 0: the same sequential sums as along each
    row. Beyond the ids and lengths it returns, a draw holds that buffer and
    one block's row indices, temporaries and covariate rows. The uniforms of
    consecutive blocks are the stream of one call, and each row's
    arithmetic is its own, so the draws do not depend on the block size.
    """
    K, m = len(banks), banks[0][0].shape[0]
    items = np.full((n, m), -1, dtype=np.min_scalar_type(-1 - m))
    lengths = np.zeros(n, dtype=items.dtype)
    step = max(DRAW_BLOCK_CELLS // (m + 1), 1)
    buf = np.empty((m + 1) * min(step, n))
    drawing = n
    for pos in range(1, m + 1):
        if not drawing:
            break
        delta, end, beta = banks[min(pos, K) - 1]
        end = end[min(pos, end.size) - 1]
        per_row = X is not None and beta.size > 0
        shared = None if per_row else _exp_utilities(
            item_utilities(None, delta, beta), end, np.empty((m + 1, 1)))
        drawing = 0
        for lo in range(0, n, step):
            rows = np.flatnonzero(lengths[lo : lo + step] == pos - 1)
            rows += lo
            cum = buf[: (m + 1) * rows.size].reshape(m + 1, rows.size)
            if per_row:
                x = X[rows if agents is None else agents[rows]]
                _exp_utilities(item_utilities(x, delta, beta), end, cum)
            else:
                cum[...] = shared
            listed, cols = items.take(rows, axis=0), np.arange(rows.size)
            for j in range(pos - 1):
                cum[listed[:, j], cols] = 0.0
            for j in range(1, m + 1):  # np.cumsum along axis 0 walks one column at a time
                np.add(cum[j - 1], cum[j], out=cum[j])
            u = rng.random(rows.size)
            choice = (cum < u * cum[-1]).sum(axis=0)
            chose = choice < m
            rows = rows[chose]
            items[rows, pos - 1] = choice[chose]
            lengths[rows] = pos
            drawing += rows.size
    return items, lengths


def _exp_utilities(bank, end, out):
    """Into ``out`` (m + 1, R), option-major: the exp of each of the R rows'
    m item utilities (``bank``, (R, m)) and END utility ``end``, less the
    row's maximum of the m + 1."""
    out[:-1] = bank.T
    out[-1] = end
    out -= out.max(axis=0)
    return np.exp(out, out=out)


def sample_augmented_dataset(
    model: AugmentedModel,
    n: int,
    rng,
    covariates=None,
    no_empty: bool = False,
) -> Dataset:
    """n partial orders drawn by sequential choice until END (Algorithm 2).

    With covariates, draw i uses the utilities of agent i, built one block
    of draws at a time (see ``_draw``). ``no_empty`` rejection-resamples
    empty draws, holding their indices while it redraws them; that deviates
    from exact model sampling and exists for parity with ballot datasets,
    where every record has k >= 1.
    """
    rng = np.random.default_rng(rng)
    check_covariates(covariates, n, model.universe.m)
    X = None if covariates is None else covariates.values
    banks = model.banks()
    items, lengths = _draw(banks, n, rng, X)
    empty = np.flatnonzero(lengths == 0) if no_empty else np.zeros(0, np.intp)
    while empty.size:
        items[empty], lengths[empty] = _draw(banks, empty.size, rng, X, empty)
        empty = empty[lengths[empty] == 0]
    D = Dataset.__new__(Dataset)  # valid rows by construction, not checked again
    D._set(model.universe, items, lengths, covariates, not no_empty, check_rows=False)
    return D
