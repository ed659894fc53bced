"""Regularized maximum-likelihood fitting for all six model variants.

The objective is F = nll + l2 penalty, plus the Laplacian coupling term
for the stratified variants (c-ld, a-s), whose per-stratum losses are each
averaged over their own records or choice events. Gradients are analytic;
optimization is a hand-rolled Adam on a flat parameter vector, initialized
at zero, full-batch by default. A fit of a model without covariates
evaluates the objective on its event table (see ``events``); every other
fit, and held-out scoring, sums the per-row terms of ``_row_terms``.
"""

from dataclasses import dataclass, field, replace

import numpy as np

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
    poisson_rate,
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

def stratify_dataset(D: Dataset, K: int):
    """Split D into K strata by list length.

    Stratum i (1-based) holds orders of length i, the last stratum holds
    lengths >= K.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
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
    """The flat parameter vector of a variant, the named arrays it holds
    (also the arrays of a checkpoint) and the model it encodes. c-i takes
    no covariates, so its d is ignored."""

    variant: str
    m: int
    d: int  # 0 when covariate-free
    K: int

    def __post_init__(self):
        if self.variant not in ALL_VARIANTS:
            raise ValueError(f"unknown model variant {self.variant!r}")
        if self.m < 1 or self.d < 0 or self.K < 1:
            raise ValueError(f"need m >= 1, d >= 0 and K >= 1, got {self.m}, {self.d}, {self.K}")
        if self.variant == "c-ci" and self.d < 1:
            raise ValueError("c-ci requires covariates")

    @classmethod
    def of(cls, model) -> "ParamLayout":
        """A model's layout, with d read from its covariate weights."""
        v = model.variant
        p = model.ranking_params if isinstance(model, CompositeModel) else model.params
        if v == "c-ld":
            beta = p.banks[0].beta
        elif v == "a-s":
            beta = p.betas
        else:
            beta = None if v == "c-i" else p.beta
        K = p.K if v in ("c-ld", "a-s") else 1
        return cls(v, model.universe.m, 0 if beta is None else beta.shape[-1], K)

    @property
    def size(self) -> int:
        m, d, K = self.m, self.d, self.K
        return {
            "c-i": 2 * m,
            "c-ci": d + m + d,
            "c-ld": m + K * (m + d),
            "a": m + 1 + d,
            "a-pd": 2 * m + d,
            "a-s": K * (m + 1 + d),
        }[self.variant]

    def arrays(self, flat: np.ndarray) -> dict:
        """The named arrays as views of flat; covariate weights of size 0
        are left out."""
        m, d, K, v = self.m, self.d, self.K, self.variant
        if v == "c-i":
            out = {"length_logits": flat[:m], "delta": flat[m:]}
        elif v == "c-ci":
            out = {"rate_weights": flat[:d], "delta": flat[d : d + m], "beta": flat[d + m :]}
        elif v == "c-ld":
            banks = flat[m:].reshape(K, m + d)
            out = {"length_logits": flat[:m], "banks": banks[:, :m], "bank_betas": banks[:, m:]}
        elif v == "a":
            out = {"delta": flat[:m], "end": flat[m : m + 1], "beta": flat[m + 1 :]}
        elif v == "a-pd":
            out = {"delta": flat[:m], "gamma": flat[m : 2 * m], "beta": flat[2 * m :]}
        else:
            banks = flat.reshape(K, m + 1 + d)
            out = {"banks": banks[:, : m + 1], "bank_betas": banks[:, m + 1 :]}
        return {name: view for name, view in out.items() if view.size}

    def to_model(self, flat: np.ndarray, universe) -> object:
        """The model built from the views of flat."""
        a, v = self.arrays(flat), self.variant
        beta = a.get("beta")
        if v == "a":
            params = AugmentedNaiveParams(np.append(a["delta"], a["end"]), beta)
        elif v == "a-pd":
            params = PositionDependentParams(a["delta"], a["gamma"], beta)
        elif v == "a-s":
            params = StratifiedAugmentedParams(a["banks"], a.get("bank_betas"))
        if v in ("a", "a-pd", "a-s"):
            return AugmentedModel(v, params, universe)
        if v == "c-ld":
            betas = a.get("bank_betas", [None] * self.K)
            ranking = StratifiedPLParams(tuple(map(PLParams, a["banks"], betas)))
        else:
            ranking = PLParams(a["delta"], beta)
        if v == "c-ci":
            length = PoissonLengthParams(a["rate_weights"], self.m)
        else:
            length = CategoricalLengthParams(a["length_logits"])
        return CompositeModel(v, length, ranking, universe)

    def from_model(self, model) -> np.ndarray:
        """The flat vector of a model of this layout."""
        v = self.variant
        if v == "a-s":
            p = model.params
            return (p.banks if p.betas is None else np.hstack([p.banks, p.betas])).ravel()
        if isinstance(model, CompositeModel):
            ranking = model.ranking_params
            banks = ranking.banks if v == "c-ld" else (ranking,)
            parts = [model.length_params.weights if v == "c-ci" else model.length_params.logits]
            parts += [x for b in banks for x in (b.delta, b.beta)]
        else:
            p = model.params
            parts = [p.theta, p.gamma, p.beta] if v == "a-pd" else [p.theta, p.beta]
        return np.concatenate([x for x in parts if x is not None])


# ---------------------------------------------------------------------------
# Per-record log-probabilities and the NLL (public evaluation form)
# ---------------------------------------------------------------------------

def model_log_prob(model, Q: PartialOrder, x_row=None) -> float:
    if isinstance(model, CompositeModel):
        return composite_log_prob(Q, model, x_row)
    return augmented_log_prob(Q, model, x_row)


def record_log_probs(model, D: Dataset, condition_nonempty: bool = False) -> np.ndarray:
    """Log-probability of every record of D under model: its row terms summed.

    ``condition_nonempty`` renormalizes augmented models on k >= 1 by
    subtracting log(1 - P(empty)) from each record, P(empty) scored on an
    all-empty copy of the rows.
    """
    layout = ParamLayout.of(model)
    items, lengths = D.to_padded()
    if items.max() >= layout.m:
        raise InvalidOrderError(f"alternative id {items.max() + 1} outside [1, {layout.m}]")
    composite = isinstance(model, CompositeModel)
    if composite and lengths.min() == 0:
        raise InvalidOrderError("empty order")
    X = D.covariates.values if D.covariates is not None else None
    data = _FitData.from_rows(layout.m, items, lengths, np.ones(D.n), X)
    if model.variant == "c-ci":
        if X is None:
            raise ValueError("c-ci requires covariates")
        poisson_rate(data.x_agent, model.length_params)  # raises on a non-finite rate
    flat = layout.from_model(model)
    lp = _row_terms(model.variant, data, layout, flat)[0].sum(axis=1)
    if condition_nonempty and not composite:
        no_items = np.full((D.n, 1), -1)
        empty = _FitData.from_rows(layout.m, no_items, np.zeros(D.n, np.int64), data.weights, X)
        lp -= np.log1p(-np.exp(_row_terms(model.variant, empty, layout, flat)[0].sum(axis=1)))
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


# ---------------------------------------------------------------------------
# Row terms, the objective and its analytic gradient
# ---------------------------------------------------------------------------

class _FitData:
    """Padded arrays prepared once per fit, rows in order of length.

    Without covariates, duplicate rows are merged and weighted by their
    multiplicity; with covariates every record keeps its own row.
    """

    def __init__(self, D: Dataset):
        items, lengths = D.to_padded()
        if D.covariates is None:
            rows = np.hstack([lengths[:, None], items])
            uniq, counts = np.unique(rows, axis=0, return_counts=True)
            items, lengths, weights, X = uniq[:, 1:], uniq[:, 0], counts.astype(np.float64), None
        else:  # in order of length, as the kernels take them
            order = np.argsort(lengths, kind="stable")
            items, lengths = items[order], lengths[order]
            weights, X = np.ones(D.n), D.covariates.values[order]
        self._set_rows(D.universe.m, items, lengths, weights, X)

    @classmethod
    def from_rows(cls, m, items, lengths, weights, X):
        """Rows taken as given: not merged, not reordered."""
        data = cls.__new__(cls)
        data._set_rows(m, items, lengths, weights, X)
        return data

    def _set_rows(self, m, items, lengths, weights, X):
        self.m, self.items, self.lengths, self.weights, self.X = m, items, lengths, weights, X
        self.unchosen = unchosen_mask(items, m)
        self.events = None  # the fit's EventTable, when it has one
        self.x_agent = None if X is None else X.mean(axis=1)  # the Poisson length features
        self.n = int(weights.sum())
        self.length_counts = np.bincount(lengths, weights=weights, minlength=m + 1)[: m + 1]


def _row_terms(variant, data: _FitData, layout: ParamLayout, flat: np.ndarray, coef=None):
    """Each row's log-probability terms (rows, T), and, when coef (T,) is
    given, the gradient w.r.t. flat of sum_i w_i terms_i . coef.

    A composite's terms are its length term and one ranking term per bank,
    the bank of the row's length stratum (the others hold 0); an augmented
    model's are the log-probabilities of its choices made with each bank.
    """
    m, d, K = layout.m, layout.d, layout.K
    w, X, grad = data.weights, data.X, coef is not None
    rows = (data.items, data.lengths, data.unchosen, w)
    g = np.zeros_like(flat) if grad else None
    if variant in ("a", "a-s"):
        banks = flat.reshape(K, m + 1 + d)
        U = bank_utilities(X, banks[:, : m + 1], banks[:, m + 1 :])
        terms, dU = augs_nll_grad(*rows, U, grad=grad)
        if grad:
            dU = dU * coef[:, None]
            gbanks = g.reshape(K, m + 1 + d)
            gbanks[:, :m], gbanks[:, m + 1 :] = _chain(X, dU[..., :m])
            gbanks[:, m] = dU[..., m].sum(axis=0)
        return terms, g
    if variant == "a-pd":
        U = item_utilities(X, flat[:m], flat[2 * m :])
        logp, dU, dgamma = apd_nll_grad(*rows, U, flat[m : 2 * m], grad=grad)
        if grad:
            g[:m], g[2 * m :] = _chain(X, dU * coef[0])
            g[m : 2 * m] = dgamma * coef[0]
        return logp[:, None], g
    terms = np.zeros((data.lengths.shape[0], 1 + K))
    if variant == "c-ci":
        lam = np.exp(data.x_agent @ flat[:d])
        terms[:, 0] = poisson_clipped_log_pmf(lam, m)[np.arange(lam.shape[0]), data.lengths - 1]
        if grad:
            dlam = poisson_clipped_dlogp_dlam(data.lengths, lam, m)
            g[:d] = coef[0] * ((w * dlam * lam) @ data.x_agent)
        start = d
    else:  # c-i is c-ld with one bank and no covariates
        if variant == "c-i":
            d, X = 0, None
        logp = categorical_log_pmf(CategoricalLengthParams(flat[:m]))
        terms[:, 0] = np.append(0.0, logp)[data.lengths]  # an empty list has no length term
        if grad:
            counts = data.length_counts[1:]
            g[:m] = coef[0] * (counts - counts.sum() * np.exp(logp))
        start = m
    banks = flat[start:].reshape(K, m + d)
    strata = np.minimum(np.maximum(data.lengths, 1), K) - 1
    for b in range(K):
        sel = slice(None) if K == 1 else np.flatnonzero(strata == b)
        if K > 1 and sel.size == 0:
            continue
        Xb = None if X is None else X[sel]
        U = item_utilities(Xb, banks[b, :m], banks[b, m:])
        terms[sel, 1 + b], dU = pl_nll_grad(*(r[sel] for r in rows), U, grad=grad)
        if grad:
            gbank = g[start:].reshape(K, m + d)[b]
            gbank[:m], gbank[m:] = _chain(Xb, dU * coef[1 + b])
    return terms, g


def objective_and_grad(
    variant: str, data: _FitData, layout: ParamLayout, flat: np.ndarray, cfg: FitConfig
):
    """Return (F, dF/dflat) for the full dataset.

    The fit's event table serves a covariate-free model, the row terms
    every other.
    """
    m, K = layout.m, layout.K
    if data.events is not None:
        F, grad = data.events.nll_grad(flat)
    else:
        # each term is averaged over the records, over the records of its
        # length stratum (c-ld banks) or over the choices made with its bank (a-s)
        w = data.weights
        if variant == "c-ld":
            strata = np.minimum(np.maximum(data.lengths, 1), K) - 1
            norm = np.append(data.n, np.bincount(strata, w, minlength=K))
        elif variant == "a-s":
            norm = _bank_event_counts(data.lengths, w, m, K)
        else:
            norm = np.full(2 if variant.startswith("c") else 1, float(data.n))
        coef = -np.divide(1.0, norm, out=np.zeros(norm.shape), where=norm > 0)
        terms, grad = _row_terms(variant, data, layout, flat, coef)
        F = (w @ terms) @ coef

    F += l2_penalty(flat, cfg.lambda_l2)
    grad += 2.0 * cfg.lambda_l2 * flat

    if variant in ("c-ld", "a-s") and cfg.lambda_laplacian:
        start = m if variant == "c-ld" else 0
        banks = flat[start:].reshape(K, -1)
        F += laplacian_penalty(banks, cfg.lambda_laplacian)
        grad[start:] += _laplacian_grad(banks, cfg.lambda_laplacian).ravel()
    return float(F), grad


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
    X = None if data.X is None else data.X[rows]
    return _FitData.from_rows(data.m, data.items[rows], data.lengths[rows], data.weights[rows], X)


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
