"""Regularized maximum-likelihood fitting for all six model variants.

The objective is F = nll + l2 penalty, plus the Laplacian coupling term
for the stratified variants (c-ld, a-s), whose per-stratum losses are each
averaged over their own records or choice events. Gradients are analytic;
optimization is a hand-rolled Adam on a flat parameter vector, initialized
at zero, full-batch by default. A fit of a model without covariates
evaluates the objective on its event table (see ``events``); every other
fit, held-out scoring and the single-record log-probabilities sum the
per-row terms of ``_row_terms``.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .augmented import (
    AugmentedModel,
    AugmentedNaiveParams,
    PositionDependentParams,
    StratifiedAugmentedParams,
)
from .composite import COMPOSITE_VARIANTS, CompositeModel
from .kernels import Rows, choice_nll_grad, item_utilities, length_strata
from .lengthdist import (
    CategoricalLengthParams,
    PoissonLengthParams,
    _poisson_clipped_terms,
    categorical_log_pmf,
    poisson_rate,
)
from .events import _bank_event_counts, event_table
from .orders import CovariateTensor, Dataset, InvalidOrderError, PartialOrder
from .ranking import PLParams, StratifiedPLParams

ALL_VARIANTS = ("c-i", "c-ci", "c-ld", "a", "a-pd", "a-s")
STRATIFIED_VARIANTS = ("c-ld", "a-s")  # the only variants that read K and lambda_L


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

    def __post_init__(self):  # each message begins with its field's name; NaN fails every rule
        batch = self.batch_size
        for name, ok, rule in (
            ("learning_rate", self.learning_rate > 0, "> 0"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("epsilon_opt", self.epsilon_opt > 0, "> 0"),
            ("lambda_l2", self.lambda_l2 >= 0, ">= 0"),
            ("lambda_laplacian", self.lambda_laplacian >= 0, ">= 0"),
            ("tol", self.tol > 0, "> 0"),
            ("max_epochs", self.max_epochs >= 1, ">= 1"),
            ("K", self.K >= 1, ">= 1"),
            ("batch_size", batch == "full" or isinstance(batch, (int, np.integer)) and batch >= 1,
             "'full' or a positive int"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


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

def _add_laplacian(banks, lambda_laplacian, grad=None) -> float:
    """The Laplacian penalty lambda_L * sum_{i=2..K} ||theta_i - theta_{i-1}||^2
    of the rows of ``banks`` (K, p), a path graph; its gradient is added to
    ``grad``, of the same shape, when given."""
    diff = banks[1:] - banks[:-1]
    penalty = lambda_laplacian * float(np.vdot(diff, diff))
    if grad is not None:
        diff *= 2.0 * lambda_laplacian
        grad[1:] += diff
        grad[:-1] -= diff
    return penalty


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
    strata = length_strata(D.lengths(), K)
    return [D._subset(strata == b) for b in range(K)]


# ---------------------------------------------------------------------------
# Parameter layouts: flat vector <-> model objects
# ---------------------------------------------------------------------------

# Per variant: the sizes of the length block, of the bank count, and of each
# bank's END utilities and covariate weights ("m", "d", "K": the layout's);
# then the array names of the same blocks, items before END (END None: one
# array with the items). K banks are stored as (K, ...) arrays, one as vectors.
_GEOMETRY = {
    "c-i": (("m", 1, 0, 0), ("length_logits", "delta", None, "beta")),
    "c-ci": (("d", 1, 0, "d"), ("rate_weights", "delta", None, "beta")),
    "c-ld": (("m", "K", 0, "d"), ("length_logits", "banks", None, "bank_betas")),
    "a": ((0, 1, 1, "d"), (None, "delta", "end", "beta")),
    "a-pd": ((0, 1, "m", "d"), (None, "delta", "gamma", "beta")),
    "a-s": ((0, "K", 1, "d"), (None, "banks", None, "bank_betas")),
}


@dataclass(frozen=True)
class ParamLayout:
    """The flat parameter vector of a variant, the named arrays it holds
    (also the arrays of a checkpoint) and the model it encodes. The vector
    is a length block, then the utility banks, each of m item utilities, its
    END utilities (one per position for a-pd) and d covariate weights; see
    ``_GEOMETRY``. c-i takes no covariates, so its d is ignored."""

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

    @cached_property
    def blocks(self) -> tuple:
        """(length block size, banks, END utilities per bank, weights per bank)."""
        symbols = {"m": self.m, "d": self.d, "K": self.K}
        return tuple(symbols.get(s, s) for s in _GEOMETRY[self.variant][0])

    @classmethod
    def of(cls, model) -> "ParamLayout":
        """A model's layout, with d read from its covariate weights."""
        banks = model.banks()
        return cls(model.variant, model.universe.m, banks[0][2].size, len(banks))

    @property
    def size(self) -> int:
        length, banks, end, d = self.blocks
        return length + banks * (self.m + end + d)

    def bank_rows(self, flat: np.ndarray) -> np.ndarray:
        """The banks of flat as the rows of a (banks, m + END + d) view."""
        return flat[self.blocks[0] :].reshape(self.blocks[1], -1)

    def arrays(self, flat: np.ndarray) -> dict:
        """The named arrays as views of flat; arrays of size 0 are left out."""
        m, (length, _, end, _) = self.m, self.blocks
        symbols, names = _GEOMETRY[self.variant]
        rows = self.bank_rows(flat)
        if symbols[1] != "K":
            rows = rows[0]
        items = m if names[2] else m + end
        out = dict(zip(names, (flat[:length], rows[..., :items], rows[..., m : m + end],
                               rows[..., m + end :])))
        return {name: view for name, view in out.items() if name and view.size}

    def banks(self, flat: np.ndarray) -> list:
        """Each utility bank's (items (m,), END, covariate weights (d,))
        views of flat, END holding 0, 1 or m (by position) utilities.
        Applied to a gradient vector, the views each bank's gradient is
        added into."""
        m, end = self.m, self.blocks[2]
        return [(row[:m], row[m : m + end], row[m + end :]) for row in self.bank_rows(flat)]

    def to_model(self, flat: np.ndarray, universe) -> object:
        """The model built from the views of flat."""
        v, head, a = self.variant, flat[: self.blocks[0]], self.arrays(flat)
        banks = [(items, end, w if w.size else None) for items, end, w in self.banks(flat)]
        delta, end, beta = banks[0]
        if v == "a":
            return AugmentedModel(v, AugmentedNaiveParams(np.append(delta, end), beta), universe)
        if v == "a-pd":
            return AugmentedModel(v, PositionDependentParams(delta, end, beta), universe)
        if v == "a-s":
            params = StratifiedAugmentedParams(a["banks"], a.get("bank_betas"))
            return AugmentedModel(v, params, universe)
        if v == "c-ld":
            ranking = StratifiedPLParams(tuple(PLParams(items, w) for items, _, w in banks))
        else:
            ranking = PLParams(delta, beta)
        length = PoissonLengthParams(head, self.m) if v == "c-ci" else CategoricalLengthParams(head)
        return CompositeModel(v, length, ranking, universe)

    def from_model(self, model) -> np.ndarray:
        """The flat vector of a model of this layout."""
        head = [model.length_params.theta] if self.blocks[0] else []
        return np.concatenate(head + [x for bank in model.banks() for x in bank])


# ---------------------------------------------------------------------------
# Per-record log-probabilities and the NLL (public evaluation form)
# ---------------------------------------------------------------------------

def model_log_prob(model, Q: PartialOrder, x_row=None) -> float:
    """Log-probability of one order Q, x_row (m, d) its covariates: the one
    row of ``record_log_probs`` over a dataset that holds Q alone."""
    cov = None if x_row is None else CovariateTensor(np.asarray(x_row, dtype=np.float64)[None])
    D = Dataset(model.universe, [Q], cov, allow_empty=isinstance(model, AugmentedModel))
    return float(record_log_probs(model, D)[0])


def composite_log_prob(Q: PartialOrder, model: CompositeModel, x_row=None) -> float:
    """``model_log_prob`` of a composite model."""
    return model_log_prob(model, Q, x_row)


def augmented_log_prob(Q: PartialOrder, model: AugmentedModel, x_row=None) -> float:
    """``model_log_prob`` of an augmented model, the terminal END choice
    included: the empty order is END chosen first."""
    return model_log_prob(model, Q, x_row)


def record_log_probs(model, D: Dataset, condition_nonempty: bool = False) -> np.ndarray:
    """Log-probability of every record of D under model: its row terms summed.

    ``condition_nonempty`` renormalizes augmented models on k >= 1 by
    subtracting log(1 - P(empty)) from each record, P(empty) scored on one
    empty list, or on one per agent when the records have covariates.
    """
    layout = ParamLayout.of(model)
    _check_records(model.variant, layout.m, *D.to_padded())
    data = _FitData(D)
    if model.variant == "c-ci":
        if data.X is None:
            raise ValueError("c-ci requires covariates")
        poisson_rate(data.x_agent, model.length_params)  # raises on a non-finite rate
    flat = layout.from_model(model)
    lp = _row_terms(model.variant, data, layout, flat)[0].sum(axis=1)
    if condition_nonempty and isinstance(model, AugmentedModel):
        n = 1 if data.X is None else D.n
        empty = _FitData.from_rows(layout.m, np.full((n, 1), -1), np.zeros(n, np.int64),
                                   np.ones(n), data.X)
        lp -= np.log1p(-np.exp(_row_terms(model.variant, empty, layout, flat)[0].sum(axis=1)))
    out = np.empty_like(lp)
    out[data.order] = lp
    return out


def _check_records(variant, m, items, lengths) -> None:
    """Raise InvalidOrderError for an id above m, or for an empty list under
    a composite model, whose length distribution gives it probability 0."""
    if items.max(initial=-1) >= m:
        raise InvalidOrderError(f"alternative id {items.max() + 1} outside [1, {m}]")
    if variant in COMPOSITE_VARIANTS and lengths.min(initial=1) == 0:
        raise InvalidOrderError("empty order")


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


@dataclass(frozen=True)
class TestNLL:
    """Mean held-out NLL; -inf log-probs contribute +inf and are counted."""

    nll: float
    n_infinite: int = 0

    def __float__(self) -> float:
        return self.nll


def test_nll(model, D_test: Dataset, condition_nonempty: bool = False) -> TestNLL:
    """Mean negative log-probability over held-out records.

    ``condition_nonempty`` renormalizes augmented models on k >= 1 by
    subtracting log(1 - P(empty)) per record.
    """
    if D_test.n == 0:
        raise ValueError("empty test set")
    lp = record_log_probs(model, D_test, condition_nonempty)
    n_inf = int(np.count_nonzero(~np.isfinite(lp)))
    if n_inf:
        return TestNLL(float("inf"), n_inf)
    return TestNLL(-float(lp.sum()) / D_test.n, 0)


# ---------------------------------------------------------------------------
# Row terms, the objective and its analytic gradient
# ---------------------------------------------------------------------------

class _FitData:
    """Padded arrays prepared once per fit: one row of weight 1 per record,
    with its covariates, sorted by list length as the kernel takes them;
    ``order`` maps the rows back to the records. Duplicate records are not
    merged; the event table merges their choices.
    """

    def __init__(self, D: Dataset):
        items, lengths = D.to_padded()
        self.order = np.argsort(lengths, kind="stable")
        X = None if D.covariates is None else D.covariates.values[self.order]
        self._set_rows(D.universe.m, items[self.order], lengths[self.order], np.ones(D.n), X)

    @classmethod
    def from_rows(cls, m, items, lengths, weights, X):
        """Rows taken as given, each weighted by its multiplicity: not
        merged, not reordered, so their lengths must ascend."""
        data = cls.__new__(cls)
        data._set_rows(m, items, lengths, weights, X)
        return data

    def _set_rows(self, m, items, lengths, weights, X):
        self.m, self.items, self.lengths, self.weights, self.X = m, items, lengths, weights, X
        self.events = None  # the fit's EventTable, when it has one
        self.x_agent = None if X is None else X.mean(axis=1)  # the Poisson length features
        self.length_counts = np.bincount(lengths, weights=weights, minlength=m + 1)[: m + 1]

    @cached_property
    def rows(self) -> Rows:
        """The kernel's rows, built when the row terms first run."""
        return Rows.from_padded(self.items, self.lengths, self.weights, self.m)


def _row_terms(variant, data: _FitData, layout: ParamLayout, flat: np.ndarray, coef=None):
    """Each row's log-probability terms (rows, T), and, when coef (T,) is
    given, the gradient w.r.t. flat of sum_i w_i terms_i . coef.

    A composite's terms are its length term and one ranking term per bank,
    the bank of the row's length stratum (the others hold 0); an augmented
    model's are the log-probabilities of its choices made with each bank.
    Bank b of c-ld makes the choices of the rows of stratum b, bank b of a-s
    those at position b and its last bank every choice from position K-1 on.
    """
    m, K = layout.m, layout.K
    rows, X, w = data.rows, data.X, data.weights
    grad = coef is not None
    g = np.zeros_like(flat) if grad else None
    composite = variant in COMPOSITE_VARIANTS
    terms = np.zeros((rows.n, composite + K))
    if variant == "c-ci":
        d = layout.d
        lam = np.exp(data.x_agent @ flat[:d])
        terms[:, 0], dlam = _poisson_clipped_terms(data.lengths, lam, m)
        if grad:
            g[:d] = coef[0] * ((w * dlam * lam) @ data.x_agent)
    elif composite:
        logp = categorical_log_pmf(CategoricalLengthParams(flat[:m]))
        terms[:, 0] = np.append(0.0, logp)[data.lengths]  # an empty list has no length term
        if grad:
            counts = data.length_counts[1:]
            g[:m] = coef[0] * (counts - counts.sum() * np.exp(logp))
    spans = [0, *np.searchsorted(data.lengths, np.arange(2, K + 1)), rows.n]
    gbanks = layout.banks(g) if grad else None
    for b, (delta, end, beta) in enumerate(layout.banks(flat)):
        span = slice(spans[b], spans[b + 1]) if variant == "c-ld" else slice(None)
        p0, p1 = (b, b + 1 if b < K - 1 else None) if variant == "a-s" else (0, None)
        Xb = None if X is None else X[span]
        u = item_utilities(Xb, delta, beta)
        end = np.full(m, end) if end.size else None  # by position
        col = composite + b
        terms[span, col], du, dend = choice_nll_grad(rows[span], u, end, p0, p1, grad)
        if grad:
            du *= coef[col]
            gdelta, gend, gbeta = gbanks[b]
            gdelta += du.sum(axis=0)
            if gbeta.size:
                gbeta += np.einsum("imd,im->d", Xb, du)
            if gend.size:
                gend += coef[col] * (dend.sum() if gend.size == 1 else dend)
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
        norm = _bank_event_counts(data.lengths, data.weights, m, K, variant)
        coef = -np.divide(1.0, norm, out=np.zeros(norm.shape), where=norm > 0)
        terms, grad = _row_terms(variant, data, layout, flat, coef)
        F = (data.weights @ terms) @ coef

    F += cfg.lambda_l2 * float(flat @ flat)
    grad += 2.0 * cfg.lambda_l2 * flat

    if cfg.lambda_laplacian:  # adjacent banks; a variant with one bank has none
        F += _add_laplacian(
            layout.bank_rows(flat), cfg.lambda_laplacian, layout.bank_rows(grad)
        )
    return float(F), grad


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def fit(variant: str, D: Dataset, cfg: FitConfig | None = None) -> FitResult:
    """Minimize F by Adam until |F_t - F_{t-1}| < tol or max_epochs."""
    cfg = cfg or FitConfig()
    d = D.covariates.d if D.covariates is not None else 0
    K = cfg.K if variant in STRATIFIED_VARIANTS else 1
    layout = ParamLayout(variant, D.universe.m, d, K)  # checks the variant and its covariates
    _check_records(variant, layout.m, *D.to_padded())
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
    full_batch = cfg.batch_size == "full" or cfg.batch_size >= D.n
    step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        if not full_batch:  # mini-batches of records, reshuffled per epoch
            perm = rng.permutation(D.n)
            for lo in range(0, D.n, int(cfg.batch_size)):
                batch = np.sort(perm[lo : lo + int(cfg.batch_size)])  # rows stay in length order
                sub_data = _subset_fitdata(data, batch)
                _, g = objective_and_grad(variant, sub_data, layout, flat, cfg)
                step += 1
                flat = _adam_step(flat, g, mom, vel, step, cfg.learning_rate, b1, b2, eps)
        F, g = objective_and_grad(variant, data, layout, flat, cfg)
        if not math.isfinite(F):
            raise NonFiniteLossError(f"objective diverged at epoch {epoch}; trace={trace}")
        if full_batch:
            step += 1
            flat = _adam_step(flat, g, mom, vel, step, cfg.learning_rate, b1, b2, eps)
        trace.append((epoch, F, math.sqrt(g @ g)))
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
    g2 = g * g
    g2 *= 1 - b2
    vel += g2
    # lr * mhat / (sqrt(vhat) + eps), the bias corrections moved onto scalars
    root = math.sqrt(1 - b2**t)
    den = np.sqrt(vel, out=g2)
    den += eps * root
    step = mom * (lr * root / (1 - b1**t))
    step /= den
    return flat - step


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
    return [(D._subset(fold_of != f), D._subset(fold_of == f)) for f in range(folds)]


def grid_search(
    variant: str,
    D: Dataset,
    Ks,
    lambda_laplacians,
    cfg: FitConfig | None = None,
    folds: int = 5,
    workers: int = 1,
):
    """5-fold-CV mean validation NLL for each (K, lambda_L); returns argmin + table.

    Each (cell, fold) fit is one task of ``_map_tasks``, so up to
    ``workers`` fits run at once; the table does not depend on ``workers``.
    """
    cfg = cfg or FitConfig()
    splits = kfold_split(D, folds, cfg.seed)
    cells = [replace(cfg, K=K, lambda_laplacian=lapl) for K in Ks for lapl in lambda_laplacians]
    tasks = [(c, f) for c in range(len(cells)) for f in range(folds)]
    nlls = _map_tasks(_fold_nll, tasks, workers, (variant, splits, cells))
    table = [
        (trial.K, trial.lambda_laplacian, float(np.mean(nlls[c * folds : (c + 1) * folds])))
        for c, trial in enumerate(cells)
    ]
    best = min(table, key=lambda row: row[2])  # the first cell of the least NLL
    return best[:2], table


def _fold_nll(shared, task) -> float:
    """Validation NLL of grid cell c fitted on the training rows of fold f."""
    variant, splits, cells = shared
    c, f = task
    train, test = splits[f]
    return test_nll(fit(variant, train, cells[c]).model, test).nll


# ---------------------------------------------------------------------------
# Independent tasks over a process pool
# ---------------------------------------------------------------------------

_worker_state = None  # (fn, shared) of a pool worker, set once by _init_worker


def _init_worker(fn, shared):
    global _worker_state
    _worker_state = (fn, shared)


def _run_task(task):
    fn, shared = _worker_state
    return fn(shared, task)


def _map_tasks(fn, tasks, workers: int, shared) -> list:
    """[fn(shared, task) for task in tasks], run over a pool of
    min(workers, len(tasks)) processes when that is 2 or more.

    The pool uses the platform's default start method. Each worker receives
    fn and the read-only ``shared`` once, through the pool initializer, and
    then one task at a time. Results come back in task order, and an error
    is raised from the first task in that order that failed, as in process;
    a worker that dies raises ``BrokenProcessPool`` instead of hanging.
    """
    tasks = list(tasks)
    processes = min(workers, len(tasks))
    if processes < 2:
        return [fn(shared, task) for task in tasks]
    # imported only here, so that importing the package stays cheap
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(processes, initializer=_init_worker, initargs=(fn, shared))
    try:
        return list(pool.map(_run_task, tasks))
    finally:  # after a failure, start no task that is still queued
        pool.shutdown(cancel_futures=True)
