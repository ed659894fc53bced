"""Distributions over list length k in [1, m].

Two families: a categorical over the m possible lengths (softmax logits),
and a covariate-conditioned Poisson with rate exp(theta . x), clipped into
[1, m] by absorbing the boundary mass (k <= 1 collapses to 1, k >= m to m)
so the support sums to one.
"""

from dataclasses import dataclass

import numpy as np

from .augmented import DRAW_BLOCK_CELLS


def logsumexp(a) -> np.float64:
    """log(sum(exp(a))) over all entries, shifted by the largest one.

    An input whose entries are all -inf gives -inf.
    """
    a = np.asarray(a, dtype=np.float64)
    top = a.max()
    shift = top if np.isfinite(top) else 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - shift).sum()) + shift


def _log_factorials(m: int) -> np.ndarray:
    """log(k!) for k = 0..m."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, m + 1)))))


@dataclass(frozen=True)
class CategoricalLengthParams:
    """Length logits theta (m,); p_k = softmax(theta)_k."""

    logits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "logits", np.asarray(self.logits, dtype=np.float64))

    theta = property(lambda self: self.logits)  # the length block of a flat vector

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

    theta = property(lambda self: self.weights)  # the length block of a flat vector

    @property
    def d(self) -> int:
        return self.weights.shape[0]


def categorical_log_pmf(params: CategoricalLengthParams) -> np.ndarray:
    return params.logits - logsumexp(params.logits)


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
    k, lam = np.broadcast_arrays(np.arange(1, m + 1), np.asarray(lam, dtype=np.float64)[..., None])
    return _poisson_clipped_terms(k.ravel(), lam.ravel(), m)[0].reshape(k.shape)


def _poisson_logsf(k: int, lam):
    """log P(X > k) for X ~ Poisson(lam), k >= 0 an integer.

    Below lam = k + 1 the tail is pmf(k+1) times the series of the
    regularized incomplete gamma function (Numerical Recipes, sec. 6.2),
    sum_n prod_{i<=n} lam / (k+1+i) = sum_n b_n y^n, where y = lam / (k+1) < 1
    and b_n = prod_{i<=n} (k+1) / (k+1+i). Its log stays finite where the
    tail underflows. From lam = k + 1 on, 1 - CDF(k) is at least about 1/2,
    so log1p(-CDF(k)) loses nothing to cancellation.
    """
    lam = np.asarray(lam, dtype=np.float64)
    logfact = _log_factorials(k + 1)
    out = np.empty(lam.shape)
    low = lam < k + 1  # False for NaN, which takes the CDF branch
    x = lam[low]
    y = x / (k + 1)
    # b_n < 1e-17 from n = k + 60 on, for every k; the sum stops before the
    # first term below 1e-17 at the largest y, so every dropped term of every
    # series is below 1e-17 of its total.
    b = np.cumprod((k + 1) / np.arange(k + 2, 2 * k + 62))
    n = np.count_nonzero(b * y.max(initial=0.0) ** np.arange(1, k + 61) >= 1e-17)
    total = np.polyval(np.append(b[:n][::-1], 1.0), y)
    out[low] = (k + 1) * np.log(x) - x - logfact[k + 1] + np.log(total)
    x = lam[~low][:, None]
    cdf = np.exp(np.arange(k + 1) * np.log(x) - x - logfact[:-1]).sum(axis=1)
    out[~low] = np.log1p(-cdf)
    return out[()]


def _poisson_clipped_terms(k, lam, m: int):
    """The clipped log pmf at each length k and its d/dlambda, for 1-d
    lengths and rates of one shape. The upper tail is evaluated once, at
    the rows with k = m only, and no (n, m) array is built."""
    if m == 1:
        return np.zeros(k.shape), np.zeros(k.shape)
    logfact = _log_factorials(m)
    logp = k * np.log(lam) - lam - logfact[k]
    dlam = k / lam - 1.0
    # k = 1 absorbs the k = 0 mass: P(1) = e^-lam (1 + lam), so dlog/dlam =
    # -lam / (1 + lam). k = m absorbs the upper tail P(X > m-1), computed in
    # log space so that it stays finite where it underflows; its d/dlam is
    # pmf(m-1; lam).
    low = k == 1
    x = lam[low]
    logp[low] = np.logaddexp(-x, logp[low])
    dlam[low] = -x / (1.0 + x)
    top = k == m
    x = lam[top]
    logp[top] = tail = _poisson_logsf(m - 1, x)
    dlam[top] = np.exp((m - 1) * np.log(x) - logfact[m - 1] - x - tail)
    return logp, dlam


def sample_lengths(params, n: int, rng, x_agents=None) -> np.ndarray:
    """n lengths drawn from the exact pmf of the given parameter family, in
    the smallest signed integer type that holds -(m + 1), the ids' type.

    A Poisson length model takes draw i's rate from row i of ``x_agents``
    (n, d), or from its mean over the items where ``x_agents`` is the
    covariates (n, m, d), taken one block of rows at a time. The
    inverse-CDF draw gives, bit for bit, the lengths that
    ``rng.choice(m, size=n, p=p) + 1`` gives for one shared pmf p. The draws
    are compared with the cdf in blocks of at most DRAW_BLOCK_CELLS cells,
    and a Poisson model builds its pmf and cdf one block of rows at a time,
    so beyond the lengths a draw holds one block's uniforms, pmf and cdf.
    The uniforms of consecutive blocks are the stream of one call.
    """
    if isinstance(params, CategoricalLengthParams):
        m, shared = params.m, _cdf(np.exp(categorical_log_pmf(params))[None])
    elif isinstance(params, PoissonLengthParams):
        if x_agents is None:
            raise ValueError("Poisson length model needs an agent covariate vector")
        m, shared = params.m, None
    else:
        raise TypeError(f"unknown length params {type(params)!r}")
    lengths = np.empty(n, dtype=np.min_scalar_type(-1 - m))
    step = max(DRAW_BLOCK_CELLS // m, 1)
    for lo in range(0, n, step):
        u = rng.random(min(step, n - lo))
        cdf = shared
        if cdf is None:
            x = x_agents[lo : lo + step]
            lam = poisson_rate(x.mean(axis=1) if x.ndim == 3 else x, params)
            cdf = _cdf(np.exp(poisson_clipped_log_pmf(lam, m)))
        lengths[lo : lo + step] = (cdf <= u[:, None]).sum(axis=1) + 1
    return lengths


def _cdf(p):
    """The cdf of each row of pmf values p (rows, m), normalized twice, as
    the pmf and as the cdf, so that its last entry is exactly 1."""
    cdf = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    return cdf
