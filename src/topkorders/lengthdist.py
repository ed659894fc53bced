"""Distributions over list length k in [1, m].

Two families: a categorical over the m possible lengths (softmax logits),
and a covariate-conditioned Poisson with rate exp(theta . x), clipped into
[1, m] by absorbing the boundary mass (k <= 1 collapses to 1, k >= m to m)
so the support sums to one.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, pdtrc, xlogy


@dataclass(frozen=True)
class CategoricalLengthParams:
    """Length logits theta (m,); p_k = softmax(theta)_k."""

    logits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "logits", np.asarray(self.logits, dtype=np.float64))

    @property
    def m(self) -> int:
        return self.logits.shape[0]


@dataclass(frozen=True)
class PoissonLengthParams:
    """Rate weights theta (d,) for lambda(x) = exp(theta . x), support [1, m]."""

    weights: np.ndarray
    m: int

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))

    @property
    def d(self) -> int:
        return self.weights.shape[0]


def categorical_log_pmf(params: CategoricalLengthParams) -> np.ndarray:
    return params.logits - logsumexp(params.logits)


def categorical_log_prob(k: int, params: CategoricalLengthParams) -> float:
    if not 1 <= k <= params.m:
        raise ValueError(f"length {k} outside [1, {params.m}]")
    return float(categorical_log_pmf(params)[k - 1])


def poisson_rate(x_agent: np.ndarray, params: PoissonLengthParams):
    """lambda = exp(theta . x) for one agent vector (d,) or for rows (n, d)."""
    lam = np.exp(np.asarray(x_agent, dtype=np.float64) @ params.weights)
    if not np.all(np.isfinite(lam)):
        raise ValueError("non-finite Poisson rate")
    return lam


def poisson_clipped_log_pmf(lam, m: int) -> np.ndarray:
    """Log pmf over k = 1..m of a Poisson(lam) with boundary absorption.

    ``lam`` may be an array of rates; the result then has shape
    ``lam.shape + (m,)``.
    """
    lam = np.asarray(lam, dtype=np.float64)[..., None]
    if m == 1:
        return np.zeros(lam.shape)
    ks = np.arange(1, m + 1)
    logp = ks * np.log(lam) - lam - gammaln(ks + 1)
    # k=1 absorbs the k=0 mass; k=m absorbs the upper tail, computed as a
    # stable complementary sum 1 - CDF(m-1).
    logp[..., 0] = np.logaddexp(-lam[..., 0], logp[..., 0])
    logp[..., -1] = _poisson_logsf(m - 1, lam[..., 0])
    return logp


def _poisson_logsf(k, lam):
    """log P(X > k) for X ~ Poisson(lam)."""
    return np.log(pdtrc(k, lam))


def poisson_clipped_log_prob(
    k: int, x_agent: np.ndarray, params: PoissonLengthParams
) -> float:
    if not 1 <= k <= params.m:
        raise ValueError(f"length {k} outside [1, {params.m}]")
    lam = poisson_rate(x_agent, params)
    return float(poisson_clipped_log_pmf(lam, params.m)[k - 1])


def poisson_clipped_dlogp_dlam(k, lam, m: int):
    """d/dlambda of the clipped log pmf at k; used by the analytic gradients.

    ``k`` and ``lam`` broadcast against each other.
    """
    k = np.asarray(k)
    lam = np.asarray(lam, dtype=np.float64)
    if m == 1:
        return np.zeros(np.broadcast(k, lam).shape)[()]
    # P(1) = e^-lam (1 + lam), so dlog/dlam = -lam / (1 + lam); for the
    # absorbed upper tail, d/dlam P(X >= m) = pmf(m-1; lam).
    upper = np.exp(xlogy(m - 1, lam) - gammaln(m) - lam - _poisson_logsf(m - 1, lam))
    out = np.where(k == 1, -lam / (1.0 + lam), np.where(k < m, k / lam - 1.0, upper))
    return out[()]


def sample_lengths(params, n: int, rng, x_agents=None) -> np.ndarray:
    """n lengths drawn from the exact pmf of the given parameter family.

    A Poisson length model takes draw i's rate from row i of ``x_agents``
    (n, d). The inverse-CDF draw gives, bit for bit, the lengths that
    ``rng.choice(m, size=n, p=p) + 1`` gives for one shared pmf p.
    """
    if isinstance(params, CategoricalLengthParams):
        p = np.exp(categorical_log_pmf(params))[None]
    elif isinstance(params, PoissonLengthParams):
        if x_agents is None:
            raise ValueError("Poisson length model needs an agent covariate vector")
        p = np.exp(poisson_clipped_log_pmf(poisson_rate(x_agents, params), params.m))
    else:
        raise TypeError(f"unknown length params {type(params)!r}")
    p = p / p.sum(axis=1, keepdims=True)
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= rng.random(n)[:, None]).sum(axis=1) + 1


def sample_length(params, x_agent=None, rng=None) -> int:
    """Draw one length from the exact pmf of the given parameter family."""
    x_agents = None if x_agent is None else np.asarray(x_agent, dtype=np.float64)[None]
    return int(sample_lengths(params, 1, np.random.default_rng(rng), x_agents)[0])
