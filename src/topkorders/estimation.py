"""Regularized maximum-likelihood fitting for all six model variants.

The objective is F = nll + l2 penalty, plus the Laplacian coupling term
for the stratified variants (c-ld, a-s), whose per-stratum losses are each
averaged over their own records or choice events. Gradients are analytic;
optimization is a hand-rolled Adam on a flat parameter vector, initialized
at zero, full-batch by default. A fit of a model without covariates
evaluates the objective on its event table (see ``events``).
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import logsumexp, softmax

from .augmented import (
    AugmentedModel,
    AugmentedNaiveParams,
    PositionDependentParams,
    StratifiedAugmentedParams,
    augmented_log_prob,
)
from .composite import CompositeModel, composite_log_prob
from .kernels import (
    apd_nll_grad,
    augs_nll_grad,
    bank_utilities,
    item_utilities,
    pl_nll_grad,
    unchosen_mask,
)
from .lengthdist import (
    CategoricalLengthParams,
    PoissonLengthParams,
    categorical_log_pmf,
    poisson_clipped_dlogp_dlam,
    poisson_clipped_log_pmf,
)
from .evaluation import test_nll
from .events import event_table
from .orders import CovariateTensor, Dataset, InvalidOrderError, PartialOrder
from .ranking import PLParams, StratifiedPLParams

ALL_VARIANTS = ("c-i", "c-ci", "c-ld", "a", "a-pd", "a-s")


class NonFiniteLossError(RuntimeError):
    pass


@dataclass(frozen=True)
class FitConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon_opt: float = 1e-8
    lambda_l2: float = 1e-5
    lambda_laplacian: float = 0.0
    K: int = 1
    max_epochs: int = 2000
    tol: float = 1e-4
    batch_size: int | str = "full"
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.tol <= 0 or self.max_epochs < 1:
            raise ValueError("positive learning rate, tolerance, epoch count required")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.batch_size != "full" and not (
            isinstance(self.batch_size, (int, np.integer)) and self.batch_size >= 1
        ):
            raise ValueError(
                f"batch_size must be 'full' or a positive int, got {self.batch_size!r}"
            )


@dataclass
class FitResult:
    model: object
    trace: list = field(default_factory=list)  # (epoch, objective, grad_norm)
    converged: bool = False
    epochs_run: int = 0

    @property
    def final_objective(self) -> float:
        return self.trace[-1][1]

    @property
    def final_grad_norm(self) -> float:
        return self.trace[-1][2]


# ---------------------------------------------------------------------------
# Penalties
# ---------------------------------------------------------------------------

def l2_penalty(params: np.ndarray, lambda_l2: float) -> float:
    params = np.asarray(params, dtype=np.float64)
    return float(lambda_l2 * np.sum(params * params))


def laplacian_penalty(banks, lambda_laplacian: float) -> float:
    """lambda_L * sum_{i=2..K} ||theta_i - theta_{i-1}||^2 over a path graph."""
    banks = [np.asarray(b, dtype=np.float64).ravel() for b in banks]
    if len({b.shape[0] for b in banks}) > 1:
        raise ValueError("bank shape mismatch")
    total = 0.0
    for prev, cur in zip(banks, banks[1:]):
        diff = cur - prev
        total += float(diff @ diff)
    return lambda_laplacian * total


def _laplacian_grad(banks_2d: np.ndarray, lambda_laplacian: float) -> np.ndarray:
    grad = np.zeros_like(banks_2d)
    if banks_2d.shape[0] > 1:
        diff = banks_2d[1:] - banks_2d[:-1]
        grad[1:] += 2.0 * lambda_laplacian * diff
        grad[:-1] -= 2.0 * lambda_laplacian * diff
    return grad


# ---------------------------------------------------------------------------
# Dataset stratification
# ---------------------------------------------------------------------------

def stratify_dataset(D: Dataset, K: int, mode: str = "by-length"):
    """Split D into K strata by list length.

    Stratum i (1-based) holds orders of length i, the last stratum holds
    lengths >= K.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if mode != "by-length":
        raise ValueError(f"unknown stratification mode {mode!r}")
    items, lengths = D.to_padded()
    strata = np.minimum(np.maximum(lengths, 1), K) - 1
    return [
        Dataset.from_padded(
            D.universe, items[strata == b], lengths[strata == b], allow_empty=D.allow_empty
        )
        for b in range(K)
    ]


# ---------------------------------------------------------------------------
# Parameter layouts: flat vector <-> model objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamLayout:
    variant: str
    m: int
    d: int  # 0 when covariate-free
    K: int

    @property
    def size(self) -> int:
        m, d, K = self.m, self.d, self.K
        if self.variant == "c-i":
            return 2 * m
        if self.variant == "c-ci":
            return d + m + d
        if self.variant == "c-ld":
            return m + K * (m + d)
        if self.variant == "a":
            return m + 1 + d
        if self.variant == "a-pd":
            return 2 * m + d
        if self.variant == "a-s":
            return K * (m + 1 + d)
        raise ValueError(self.variant)

    def to_model(self, flat: np.ndarray, universe) -> object:
        m, d, K = self.m, self.d, self.K
        v = self.variant
        if v == "c-i":
            return CompositeModel(
                "c-i",
                CategoricalLengthParams(flat[:m]),
                PLParams(flat[m:]),
                universe,
            )
        if v == "c-ci":
            return CompositeModel(
                "c-ci",
                PoissonLengthParams(flat[:d], m),
                PLParams(flat[d : d + m], flat[d + m :]),
                universe,
            )
        if v == "c-ld":
            banks = flat[m:].reshape(K, m + d)
            pl_banks = tuple(
                PLParams(b[:m], b[m:] if d else None) for b in banks
            )
            return CompositeModel(
                "c-ld",
                CategoricalLengthParams(flat[:m]),
                StratifiedPLParams(pl_banks),
                universe,
            )
        if v == "a":
            beta = flat[m + 1 :] if d else None
            return AugmentedModel(
                "a", AugmentedNaiveParams(flat[: m + 1], beta), universe
            )
        if v == "a-pd":
            beta = flat[2 * m :] if d else None
            return AugmentedModel(
                "a-pd",
                PositionDependentParams(flat[:m], flat[m : 2 * m], beta),
                universe,
            )
        if v == "a-s":
            banks = flat.reshape(K, m + 1 + d)
            betas = banks[:, m + 1 :] if d else None
            return AugmentedModel(
                "a-s", StratifiedAugmentedParams(banks[:, : m + 1], betas), universe
            )
        raise ValueError(v)

    def from_model(self, model) -> np.ndarray:
        v = self.variant
        if v == "c-i":
            return np.concatenate(
                [model.length_params.logits, model.ranking_params.delta]
            )
        if v == "c-ci":
            return np.concatenate(
                [
                    model.length_params.weights,
                    model.ranking_params.delta,
                    model.ranking_params.beta,
                ]
            )
        if v == "c-ld":
            parts = [model.length_params.logits]
            for b in model.ranking_params.banks:
                parts.append(b.delta)
                if b.beta is not None:
                    parts.append(b.beta)
            return np.concatenate(parts)
        if v == "a":
            parts = [model.params.theta]
            if model.params.beta is not None:
                parts.append(model.params.beta)
            return np.concatenate(parts)
        if v == "a-pd":
            parts = [model.params.theta, model.params.gamma]
            if model.params.beta is not None:
                parts.append(model.params.beta)
            return np.concatenate(parts)
        if v == "a-s":
            if model.params.betas is not None:
                return np.hstack([model.params.banks, model.params.betas]).ravel()
            return model.params.banks.ravel()
        raise ValueError(v)


# ---------------------------------------------------------------------------
# Per-record log-probabilities and the NLL (public evaluation form)
# ---------------------------------------------------------------------------

def model_log_prob(model, Q: PartialOrder, x_row=None) -> float:
    if isinstance(model, CompositeModel):
        return composite_log_prob(Q, model, x_row)
    return augmented_log_prob(Q, model, x_row)


def record_log_probs(model, D: Dataset, condition_nonempty: bool = False) -> np.ndarray:
    """Log-probability of every record of D under model, through the batch kernels.

    One kernel call covers the dataset (one per length stratum for c-ld).
    ``condition_nonempty`` renormalizes augmented models on k >= 1 by
    subtracting log(1 - P(empty)) from each record.
    """
    m = model.universe.m
    items, lengths = D.to_padded()
    if items.max() >= m:
        raise InvalidOrderError(f"alternative id {items.max() + 1} outside [1, {m}]")
    unchosen = unchosen_mask(items, m)
    X = D.covariates.values if D.covariates is not None else None
    ones = np.ones(D.n)
    if isinstance(model, CompositeModel):
        if lengths.min() == 0:
            raise InvalidOrderError("empty order")
        if model.variant == "c-ci":
            if X is None:
                raise ValueError("c-ci requires covariates")
            lam, lp = _poisson_length(X.mean(axis=1), model.length_params.weights, lengths, m)
            if not np.all(np.isfinite(lam)):
                raise ValueError("non-finite Poisson rate")
        else:
            lp = categorical_log_pmf(model.length_params)[lengths - 1]
        ranking = model.ranking_params
        banks = ranking.banks if model.variant == "c-ld" else (ranking,)
        strata = np.minimum(lengths, len(banks)) - 1
        for b, bank in enumerate(banks):
            rows = np.flatnonzero(strata == b)
            U = item_utilities(None if X is None else X[rows], bank.delta, bank.beta)
            lp[rows] += pl_nll_grad(
                items[rows], lengths[rows], unchosen[rows], ones[rows], U, grad=False
            )[0]
        return lp
    p = model.params
    if model.variant == "a-pd":
        U = item_utilities(X, p.theta, p.beta)
        lp = apd_nll_grad(items, lengths, unchosen, ones, U, p.gamma, grad=False)[0]
        first = np.hstack([U, np.full((U.shape[0], 1), p.gamma[0])])
    else:
        if model.variant == "a":
            banks, betas = p.theta[None], None if p.beta is None else p.beta[None]
        else:
            banks, betas = p.banks, p.betas
        U = bank_utilities(X, banks, betas)
        lp = augs_nll_grad(items, lengths, unchosen, ones, U, grad=False)[0].sum(axis=1)
        first = U[:, 0]
    if condition_nonempty:
        lp = lp - np.log1p(-np.exp(first[:, m] - logsumexp(first, axis=1)))
    return lp


def nll(D: Dataset, model) -> float:
    """Mean negative log-probability over records; -inf log-probs abort."""
    if D.n == 0:
        raise ValueError("empty dataset")
    lp = record_log_probs(model, D)
    bad = np.flatnonzero(~np.isfinite(lp))
    if bad.size:
        i = int(bad[0])
        items, lengths = D.to_padded()
        raise NonFiniteLossError(
            f"record {i} ({(items[i, : lengths[i]] + 1).tolist()}) has non-finite log-probability"
        )
    return -float(lp.sum()) / D.n


def _chain(X, dU):
    """Gradients w.r.t. (delta, beta) of sum(dU * U), U from item_utilities."""
    gdelta = dU.sum(axis=0)
    if X is None:
        return gdelta, np.zeros(gdelta.shape[:-1] + (0,))
    return gdelta, np.einsum("imd,i...m->...d", X, dU)


def _poisson_length(x_agent, rate_w, lengths, m):
    """Rates lambda_i = exp(rate_w . x_i) and the clipped-Poisson log-probabilities."""
    lam = np.exp(x_agent @ rate_w)
    return lam, poisson_clipped_log_pmf(lam, m)[np.arange(lam.shape[0]), lengths - 1]


# ---------------------------------------------------------------------------
# Objective and analytic gradient
# ---------------------------------------------------------------------------

class _FitData:
    """Padded arrays prepared once per fit, rows in order of length.

    Without covariates, duplicate rows are merged and weighted by their
    multiplicity; with covariates every record keeps its own row.
    """

    def __init__(self, D: Dataset):
        self.m = D.universe.m
        items, lengths = D.to_padded()
        if D.covariates is None:
            rows = np.hstack([lengths[:, None], items])
            uniq, counts = np.unique(rows, axis=0, return_counts=True)
            items, lengths, weights, X = uniq[:, 1:], uniq[:, 0], counts.astype(np.float64), None
        else:  # in order of length, as the kernels take them
            order = np.argsort(lengths, kind="stable")
            items, lengths = items[order], lengths[order]
            weights, X = np.ones(D.n), D.covariates.values[order]
        self._set_rows(items, lengths, weights, X, unchosen_mask(items, self.m))

    def _set_rows(self, items, lengths, weights, X, unchosen):
        self.items, self.lengths, self.weights, self.X = items, lengths, weights, X
        self.unchosen = unchosen
        self.events = None  # the fit's EventTable, when it has one
        self.x_agent = None if X is None else X.mean(axis=1)  # the Poisson length features
        self.n = int(weights.sum())
        self.length_counts = np.bincount(lengths, weights=weights, minlength=self.m + 1)[
            : self.m + 1
        ]


def objective_and_grad(
    variant: str, data: _FitData, layout: ParamLayout, flat: np.ndarray, cfg: FitConfig
):
    """Return (F, dF/dflat) for the full dataset.

    The fit's event table serves a covariate-free model, the row kernels
    every other.
    """
    m, d, K = layout.m, layout.d, layout.K
    n, w, X = data.n, data.weights, data.X
    grad = np.zeros_like(flat)

    if data.events is not None:
        F, grad = data.events.nll_grad(flat)
    elif variant in ("c-i", "c-ld"):
        # c-i is c-ld with one bank and no covariates; each bank's ranking
        # term is averaged over the records of its length stratum.
        if variant == "c-i":
            d, X = 0, None
        F, grad[:m] = _categorical_nll_grad(flat[:m], data.length_counts, n)
        banks = flat[m:].reshape(K, m + d)
        gbanks = grad[m:].reshape(K, m + d)
        strata = np.minimum(np.maximum(data.lengths, 1), K) - 1
        for b in range(K):
            rows = slice(None) if K == 1 else np.flatnonzero(strata == b)
            cnt = float(w[rows].sum())
            if cnt == 0:
                continue
            Xb = None if X is None else X[rows]
            U = item_utilities(Xb, banks[b, :m], banks[b, m:])
            logp, dU = pl_nll_grad(
                data.items[rows], data.lengths[rows], data.unchosen[rows], w[rows], U
            )
            F -= w[rows] @ logp / cnt
            gbanks[b, :m], gbanks[b, m:] = _chain(Xb, -dU / cnt)
    elif variant == "c-ci":
        rate_w, delta, beta = flat[:d], flat[d : d + m], flat[d + m :]
        lam, len_lp = _poisson_length(data.x_agent, rate_w, data.lengths, m)
        dlam = poisson_clipped_dlogp_dlam(data.lengths, lam, m)
        logp, dU = pl_nll_grad(
            data.items, data.lengths, data.unchosen, w, item_utilities(X, delta, beta)
        )
        F = -(w @ (len_lp + logp)) / n
        grad[:d] = -((w * dlam * lam) @ data.x_agent) / n
        grad[d : d + m], grad[d + m :] = _chain(X, -dU / n)
    elif variant == "a-pd":
        theta, gamma, beta = flat[:m], flat[m : 2 * m], flat[2 * m :]
        U = item_utilities(X, theta, beta)
        logp, dU, dgamma = apd_nll_grad(data.items, data.lengths, data.unchosen, w, U, gamma)
        F = -(w @ logp) / n
        grad[:m], grad[2 * m :] = _chain(X, -dU / n)
        grad[m : 2 * m] = -dgamma / n
    elif variant in ("a", "a-s"):
        banks = flat.reshape(K, m + 1 + d)
        U = bank_utilities(X, banks[:, : m + 1], banks[:, m + 1 :])
        logp, dU = augs_nll_grad(data.items, data.lengths, data.unchosen, w, U)
        if variant == "a":
            scale = np.full(K, 1.0 / n)
        else:  # each bank's log-likelihood is averaged over the choices it made
            ev = _bank_event_counts(data.lengths, w, m, K)
            scale = np.where(ev > 0, 1.0 / np.maximum(ev, 1.0), 0.0)
        F = -((w @ logp) @ scale)
        dU = -dU * scale[:, None]
        gbanks = grad.reshape(K, m + 1 + d)
        gbanks[:, :m], gbanks[:, m + 1 :] = _chain(X, dU[..., :m])
        gbanks[:, m] = dU[..., m].sum(axis=0)
    else:
        raise ValueError(f"unknown variant {variant!r}")

    F += l2_penalty(flat, cfg.lambda_l2)
    grad += 2.0 * cfg.lambda_l2 * flat

    if variant in ("c-ld", "a-s") and cfg.lambda_laplacian:
        if variant == "c-ld":
            banks = flat[m:].reshape(K, m + d)
            F += laplacian_penalty(banks, cfg.lambda_laplacian)
            grad[m:] += _laplacian_grad(banks, cfg.lambda_laplacian).ravel()
        else:
            banks = flat.reshape(K, m + 1 + d)
            F += laplacian_penalty(banks, cfg.lambda_laplacian)
            grad[:] += _laplacian_grad(banks, cfg.lambda_laplacian).ravel()
    return float(F), grad


def _categorical_nll_grad(logits, length_counts, n):
    p = softmax(logits)
    counts = length_counts[1:]
    f = -(counts @ (np.log(p))) / n
    g = (counts.sum() * p - counts) / n
    return float(f), g


def _bank_event_counts(lengths, weights, m, K):
    """Weighted number of choices made with each bank (k items, plus END if k < m)."""
    per_row = np.maximum((lengths + (lengths < m))[:, None] - np.arange(K), 0)
    per_row[:, :-1] = np.minimum(per_row[:, :-1], 1)
    return weights @ per_row

# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def fit(variant: str, D: Dataset, cfg: FitConfig | None = None) -> FitResult:
    """Minimize F by Adam until |F_t - F_{t-1}| < tol or max_epochs."""
    cfg = cfg or FitConfig()
    if variant not in ALL_VARIANTS:
        raise ValueError(f"unknown model variant {variant!r}")
    needs_cov = variant == "c-ci"
    if needs_cov and D.covariates is None:
        raise ValueError(f"{variant} requires covariates")
    d = D.covariates.d if D.covariates is not None else 0
    K = cfg.K if variant in ("c-ld", "a-s") else 1
    layout = ParamLayout(variant, D.universe.m, d, K)
    data = _FitData(D)
    data.events = event_table(data, layout)

    flat = np.zeros(layout.size)
    mom = np.zeros_like(flat)
    vel = np.zeros_like(flat)
    b1, b2, eps = cfg.beta1, cfg.beta2, cfg.epsilon_opt
    rng = np.random.default_rng(cfg.seed)

    trace = []
    prev_F = None
    converged = False
    epoch = 0
    full_batch = cfg.batch_size == "full" or (
        isinstance(cfg.batch_size, int) and cfg.batch_size >= data.weights.shape[0]
    )
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        if full_batch:
            F, g = objective_and_grad(variant, data, layout, flat, cfg)
            if not np.isfinite(F):
                raise NonFiniteLossError(
                    f"objective diverged at epoch {epoch}; trace={trace}"
                )
            step += 1
            flat = _adam_step(flat, g, mom, vel, step, cfg.learning_rate, b1, b2, eps)
            gnorm = float(np.linalg.norm(g))
        else:
            # mini-batches over the aggregated rows, reshuffled per epoch
            nrows = data.weights.shape[0]
            perm = rng.permutation(nrows)
            for lo in range(0, nrows, int(cfg.batch_size)):
                sub = perm[lo : lo + int(cfg.batch_size)]
                sub_data = _subset_fitdata(data, sub)
                _, g = objective_and_grad(variant, sub_data, layout, flat, cfg)
                step += 1
                flat = _adam_step(
                    flat, g, mom, vel, step, cfg.learning_rate, b1, b2, eps
                )
            F, g = objective_and_grad(variant, data, layout, flat, cfg)
            if not np.isfinite(F):
                raise NonFiniteLossError(
                    f"objective diverged at epoch {epoch}; trace={trace}"
                )
            gnorm = float(np.linalg.norm(g))
        trace.append((epoch, F, gnorm))
        if prev_F is not None and abs(F - prev_F) < cfg.tol:
            converged = True
            break
        prev_F = F

    model = layout.to_model(flat, D.universe)
    return FitResult(model=model, trace=trace, converged=converged, epochs_run=epoch)


def _adam_step(flat, g, mom, vel, t, lr, b1, b2, eps):
    mom *= b1
    mom += (1 - b1) * g
    vel *= b2
    vel += (1 - b2) * g * g
    mhat = mom / (1 - b1**t)
    vhat = vel / (1 - b2**t)
    return flat - lr * mhat / (np.sqrt(vhat) + eps)


def _subset_fitdata(data: _FitData, rows):
    sub = _FitData.__new__(_FitData)
    sub.m = data.m
    sub._set_rows(
        data.items[rows],
        data.lengths[rows],
        data.weights[rows],
        None if data.X is None else data.X[rows],
        data.unchosen[rows],
    )
    return sub


# ---------------------------------------------------------------------------
# Cross-validation and grid search
# ---------------------------------------------------------------------------

def kfold_split(D: Dataset, folds: int = 5, seed: int = 0):
    """Disjoint, exhaustive, seed-deterministic (train, test) partition."""
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if D.n < folds:
        raise ValueError(f"need at least {folds} records, have {D.n}")
    perm = np.random.default_rng(seed).permutation(D.n)
    fold_of = np.empty(D.n, dtype=np.int64)
    for f, chunk in enumerate(np.array_split(perm, folds)):
        fold_of[chunk] = f
    return [
        (_subset_dataset(D, fold_of != f), _subset_dataset(D, fold_of == f))
        for f in range(folds)
    ]


def _subset_dataset(D: Dataset, rows) -> Dataset:
    """The records selected by ``rows`` (a mask), in their original order."""
    items, lengths = D.to_padded()
    cov = None if D.covariates is None else CovariateTensor(D.covariates.values[rows])
    return Dataset.from_padded(D.universe, items[rows], lengths[rows], cov, D.allow_empty)


def grid_search(
    variant: str,
    D: Dataset,
    Ks,
    lambda_laplacians,
    cfg: FitConfig | None = None,
    folds: int = 5,
):
    """5-fold-CV mean validation NLL for each (K, lambda_L); returns argmin + table."""
    cfg = cfg or FitConfig()
    splits = kfold_split(D, folds, cfg.seed)
    table = []
    best = None
    for K in Ks:
        for lapl in lambda_laplacians:
            trial = replace(cfg, K=K, lambda_laplacian=lapl)
            nlls = [test_nll(fit(variant, train, trial).model, test).nll for train, test in splits]
            mean_nll = float(np.mean(nlls))
            table.append((K, lapl, mean_nll))
            if best is None or mean_nll < best[2]:
                best = (K, lapl, mean_nll)
    return best[:2], table
