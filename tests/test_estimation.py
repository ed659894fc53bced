import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from topkorders import (
    ALL_VARIANTS,
    AugmentedModel,
    CategoricalLengthParams,
    CompositeModel,
    CovariateTensor,
    Dataset,
    FitConfig,
    FitResult,
    NonFiniteLossError,
    PartialOrder,
    PLParams,
    StratifiedPLParams,
    Universe,
    fit,
    grid_search,
    kfold_split,
    nll,
    parse_preflib,
    sample_augmented_dataset,
    sample_composite_dataset,
    stratify_dataset,
)
from topkorders import estimation, lockstep
from topkorders import orders as orders_module
from topkorders.estimation import (
    ParamLayout,
    _FitData,
    _row_terms,
    model_log_prob,
    objective_and_grad,
    record_log_probs,
)
from topkorders.events import EventTable, TableStack, event_table
from topkorders.lengthdist import poisson_clipped_log_pmf
from topkorders.orders import InvalidOrderError
from util import (
    empirical_pmf,
    enum_pmf,
    l2_penalty,
    laplacian_penalty,
    model_space,
    oracle_log_prob,
    random_model,
    random_orders,
    reference_event_table,
    reference_nll_grad,
    reference_poisson_dlogp_dlam,
    stratify_by_rank,
)


# ---------------------------------------------------------------------------
# Penalties
# ---------------------------------------------------------------------------

def test_l2_penalty_value():
    assert l2_penalty(np.array([1.0, 2.0, -2.0]), 0.5) == pytest.approx(4.5)
    assert l2_penalty(np.array([3.0]), 0.0) == 0.0


def test_laplacian_penalty_examples():
    banks = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 3.0]])
    # ||b2-b1||^2 + ||b3-b2||^2 = 2 + 4
    assert laplacian_penalty(banks, 1.0) == pytest.approx(6.0)
    assert laplacian_penalty(banks[:1], 7.0) == 0.0


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------

def test_stratify_by_length_example():
    u = Universe(3)
    D = Dataset(
        u,
        (
            PartialOrder((1,)),
            PartialOrder((1, 2)),
            PartialOrder((1, 2, 3)),
            PartialOrder((2,)),
        ),
    )
    strata = stratify_dataset(D, 2)
    assert [s.n for s in strata] == [2, 2]
    assert all(len(q) == 1 for q in strata[0].orders)
    assert all(len(q) >= 2 for q in strata[1].orders)


def test_stratify_by_length_exhaustive_partition():
    rng = np.random.default_rng(0)
    m = 5
    D = Dataset(Universe(m), random_orders(m, 60, rng))
    for K in (1, 2, 4):
        strata = stratify_dataset(D, K)
        assert sum(s.n for s in strata) == D.n


def test_stratify_by_rank_counts_terminal_events():
    u = Universe(3)
    D = Dataset(
        u,
        (PartialOrder((1,)), PartialOrder((1, 2)), PartialOrder((1, 2, 3))),
    )
    groups = stratify_by_rank(D, 2)
    # position 1: three item choices; positions >= 2: items (2),(2,3)
    # plus END terminals for the length-1 and length-2 lists = 5 events
    assert len(groups[0]) == 3
    assert len(groups[1]) == 5
    ends = [e for g in groups for e in g if e.chosen == 0]
    assert len(ends) == 2  # the total order contributes no END event
    for e in groups[0]:
        assert e.position == 1
        assert set(e.available) == {1, 2, 3, 0}


def test_stratify_rejects_bad_k():
    D = Dataset(Universe(2), (PartialOrder((1,)),))
    for K in (0, -1):
        with pytest.raises(ValueError):
            stratify_dataset(D, K)


# ---------------------------------------------------------------------------
# Layouts: flat <-> model roundtrip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "variant,d", [("c-i", 0), ("c-ci", 2), ("c-ld", 0), ("a", 0), ("a-pd", 0),
                  ("a-s", 0), ("c-ld", 2), ("a", 2), ("a-pd", 2), ("a-s", 2)]
)
def test_layout_roundtrip(variant, d):
    m, K = 4, 2
    layout = ParamLayout(variant, m, d, K if variant in ("c-ld", "a-s") else 1)
    rng = np.random.default_rng(1)
    flat = rng.normal(size=layout.size)
    model = layout.to_model(flat, Universe(m))
    np.testing.assert_allclose(layout.from_model(model), flat, atol=1e-14)


@pytest.mark.parametrize(
    "variant,d,K",
    [(v, d, K) for v in ALL_VARIANTS for d in (0, 2) for K in (1, 3)
     if (v, d) not in (("c-i", 2), ("c-ci", 0)) and (K == 1 or v in ("c-ld", "a-s"))],
)
def test_layout_geometry(variant, d, K):
    """The layout's bank map is the model's, flat -> model -> flat is exact,
    and the banks are views of exactly the arrays past the length block."""
    m = 4
    layout = ParamLayout(variant, m, d, K)
    flat = np.random.default_rng(2).normal(size=layout.size)
    model = layout.to_model(flat, Universe(m))
    ours, theirs = layout.banks(flat), model.banks()
    assert len(ours) == len(theirs) == layout.blocks[1]
    for bank, model_bank in zip(ours, theirs):
        assert len(bank) == len(model_bank) == 3
        for view, array in zip(bank, model_bank):
            assert view.shape == array.shape and np.array_equal(view, array)
    assert layout.from_model(model).tobytes() == flat.tobytes()
    assert ParamLayout.of(model) == layout

    g = np.zeros(layout.size)
    for bank in layout.banks(g):
        for view in bank:
            view += 1.0
    index = layout.arrays(np.arange(layout.size))
    named = np.sort(np.concatenate([a.ravel() for a in index.values()]))
    np.testing.assert_array_equal(named, np.arange(layout.size))  # the arrays tile flat
    length = index.get("length_logits", index.get("rate_weights", np.zeros(0, int)))
    np.testing.assert_array_equal(np.flatnonzero(g), np.setdiff1d(named, length))
    assert g.max() == 1.0  # each entry is in one bank


# ---------------------------------------------------------------------------
# Objective: value and analytic gradient against oracles
# ---------------------------------------------------------------------------

def _make_dataset(variant, m, n, d, rng):
    orders = random_orders(m, n, rng, min_len=0 if variant.startswith("a") else 1)
    cov = CovariateTensor(rng.normal(size=(n, m, d))) if d else None
    return Dataset(
        Universe(m), orders, covariates=cov,
        allow_empty=variant.startswith("a"),
    )


def _objective_reference(variant, D, layout, flat, cfg):
    """Independent recomputation of the training objective.

    Unstratified variants use the mean record NLL; c-ld averages its ranking
    term within each length stratum and a-s averages choice-event log-probs
    within each rank stratum. L2 and Laplacian penalties are added on top.
    """
    model = layout.to_model(flat, D.universe)
    if variant == "c-ld":
        K, orders = layout.K, D.orders
        logits = model.length_params.logits
        length = [logits[len(q) - 1] - np.logaddexp.reduce(logits) for q in orders]
        F = -sum(length) / D.n
        for b in range(K):
            idx = [i for i, q in enumerate(orders) if min(len(q), K) - 1 == b]
            if not idx:
                continue
            total = 0.0
            for i in idx:
                x_row = D.covariates.values[i] if D.covariates is not None else None
                total -= oracle_log_prob(model, orders[i], x_row) - length[i]
            F += total / len(idx)
    elif variant == "a-s":
        # sum over rank strata of the event-mean negative log-likelihood
        groups = stratify_by_rank(D, layout.K)
        # covariate-aware event probabilities need the source record; rebuild
        # events per record instead when covariates are present
        F = 0.0
        if layout.d:
            per_stratum = _as_event_ll_with_cov(D, model, layout.K)
        else:
            per_stratum = []
            for g in groups:
                tot = 0.0
                for e in g:
                    util = np.array(
                        [
                            model.params.banks[min(e.position, layout.K) - 1][
                                a - 1 if a != 0 else layout.m
                            ]
                            for a in e.available
                        ]
                    )
                    chosen_pos = e.available.index(e.chosen)
                    tot += util[chosen_pos] - np.log(np.exp(util).sum())
                per_stratum.append((tot, len(g)))
        for tot, cnt in per_stratum:
            if cnt:
                F += -tot / cnt
    else:
        total = 0.0
        for i, q in enumerate(D.orders):
            x_row = D.covariates.values[i] if D.covariates is not None else None
            total -= oracle_log_prob(model, q, x_row)
        F = total / D.n
    F += l2_penalty(flat, cfg.lambda_l2)
    if variant == "c-ld":
        banks = np.stack([b.delta for b in model.ranking_params.banks])
        if layout.d:
            banks = np.hstack(
                [banks, np.stack([b.beta for b in model.ranking_params.banks])]
            )
        F += laplacian_penalty(banks, cfg.lambda_laplacian)
    elif variant == "a-s":
        banks = model.params.banks
        if layout.d:
            banks = np.hstack([banks, model.params.betas])
        F += laplacian_penalty(banks, cfg.lambda_laplacian)
    return F


def _as_event_ll_with_cov(D, model, K):
    m = D.universe.m
    totals = [0.0] * K
    counts = [0] * K
    for i, q in enumerate(D.orders):
        x_row = D.covariates.values[i]
        remaining = list(range(1, m + 1))
        seq = list(q.items) + ([0] if len(q) < m else [])
        for pos, a in enumerate(seq, start=1):
            b = min(pos, K) - 1
            avail = remaining + [0]
            util = np.array(
                [
                    model.params.banks[b][m]
                    if c == 0
                    else model.params.banks[b][c - 1]
                    + x_row[c - 1] @ model.params.betas[b]
                    for c in avail
                ]
            )
            j = avail.index(a)
            totals[b] += util[j] - np.log(np.exp(util).sum())
            counts[b] += 1
            if a != 0:
                remaining.remove(a)
    return list(zip(totals, counts))


@pytest.mark.parametrize(
    "variant,d",
    [("c-i", 0), ("c-ci", 2), ("c-ld", 0), ("c-ld", 2),
     ("a", 0), ("a", 2), ("a-pd", 0), ("a-pd", 2), ("a-s", 0), ("a-s", 2)],
)
def test_objective_value_and_gradient(variant, d):
    rng = np.random.default_rng(11)
    m, n = 4, 30
    D = _make_dataset(variant, m, n, d, rng)
    cfg = FitConfig(lambda_l2=1e-3, lambda_laplacian=1e-2, K=2)
    K = cfg.K if variant in ("c-ld", "a-s") else 1
    layout = ParamLayout(variant, m, d, K)
    data = _FitData(D)
    flat = 0.3 * rng.normal(size=layout.size)

    F, g = objective_and_grad(variant, data, layout, flat, cfg)
    # value oracle: naive per-record / per-event recomputation
    assert F == pytest.approx(
        _objective_reference(variant, D, layout, flat, cfg), rel=1e-9
    )

    # gradient oracle: central differences of the objective itself
    h = 1e-6
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        fd[i] = (
            objective_and_grad(variant, data, layout, fp, cfg)[0]
            - objective_and_grad(variant, data, layout, fm, cfg)[0]
        ) / (2 * h)
    np.testing.assert_allclose(g, fd, atol=1e-4, rtol=1e-4)


# ---------------------------------------------------------------------------
# Event table: covariate-free objectives against the row kernels
# ---------------------------------------------------------------------------

TABLE_VARIANTS = [
    ("c-i", 1), ("c-ld", 1), ("c-ld", 3), ("a", 1), ("a-pd", 1), ("a-s", 1), ("a-s", 3)
]


def _repeated_prefixes(variant, m, rng):
    """Lists drawn from every ordering of the last min(m, 6) ids (above 62
    when m = 70), of all but one of them, of two and of one, twice as many
    as there are such lists, so that prefix sets repeat and the table has
    fewer cells than the rows have choices."""
    aug = variant.startswith("a")
    ids = tuple(range(max(1, m - 5), m + 1))
    lists = [*permutations(ids), *permutations(ids, len(ids) - 1), *permutations(ids, 2),
             *permutations(ids, 1), *([()] if aug else [])]
    pick = rng.integers(len(lists), size=2 * len(lists))
    return Dataset(Universe(m), [PartialOrder(lists[i]) for i in pick], allow_empty=aug)


@pytest.mark.parametrize("m", [4, 70])
@pytest.mark.parametrize("spread", [0.3, 40.0, 200.0])
@pytest.mark.parametrize("variant,K", TABLE_VARIANTS)
def test_event_table_matches_row_kernels(variant, K, spread, m):
    """The table's objective equals the row kernels' and the reference, and
    its gradient the kernels' and central differences of its objective, at
    every utility spread."""
    rng = np.random.default_rng(40 + m)
    D = _repeated_prefixes(variant, m, rng)
    layout = ParamLayout(variant, m, 0, K)
    cfg = FitConfig(lambda_l2=1e-3, lambda_laplacian=0.5, K=K)
    data = _FitData(D)
    flat = spread * (rng.uniform(size=layout.size) - 0.5)
    F_rows, g_rows = objective_and_grad(variant, data, layout, flat, cfg)
    data.events = event_table(data, layout)
    assert data.events is not None
    F, g = objective_and_grad(variant, data, layout, flat, cfg)
    assert F == pytest.approx(F_rows, rel=1e-9)
    assert F == pytest.approx(_objective_reference(variant, D, layout, flat, cfg), rel=1e-9)
    np.testing.assert_allclose(g, g_rows, rtol=1e-9, atol=1e-9 * np.abs(g_rows).max())
    h = 1e-5
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        step = np.zeros_like(flat)
        step[i] = h
        fd[i] = (
            objective_and_grad(variant, data, layout, flat + step, cfg)[0]
            - objective_and_grad(variant, data, layout, flat - step, cfg)[0]
        ) / (2 * h)
    np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())


def test_event_table_rule():
    """The table serves a model without covariates whose table has no more
    cells, P * (m+1), than its records have choices; the row kernels serve
    every other fit."""
    rng = np.random.default_rng(50)
    m = 70
    long_lists = Dataset(Universe(m), random_orders(m, 40, rng, min_len=20))
    for variant, K in TABLE_VARIANTS:
        assert event_table(_FitData(long_lists), ParamLayout(variant, m, 0, K)) is None
    # c-i over 3 items: the 6 full orders make 18 choices at all 7 keys (the
    # proper subsets of {1, 2, 3}); a 2-item list adds 2 choices, a 1-item list 1
    perms = [PartialOrder(p) for p in permutations((1, 2, 3))]
    pairs = [PartialOrder(p) for p in permutations((1, 2, 3), 2)]
    at_rule = Dataset(Universe(3), perms + pairs[:5])  # 28 choices, 7 keys * 4 cells
    assert event_table(_FitData(at_rule), ParamLayout("c-i", 3, 0, 1)) is not None
    past_rule = Dataset(Universe(3), perms + pairs[:4] + [PartialOrder((1,))])  # 27 choices
    assert event_table(_FitData(past_rule), ParamLayout("c-i", 3, 0, 1)) is None
    short = _repeated_prefixes("a-s", m, rng)
    assert event_table(_FitData(short), ParamLayout("a-s", m, 0, 3)) is not None
    cov = Dataset(short.universe, short.orders, CovariateTensor(rng.normal(size=(short.n, m, 2))),
                  allow_empty=True)
    assert event_table(_FitData(cov), ParamLayout("a-s", m, 2, 3)) is None
    assert event_table(_FitData(cov), ParamLayout("c-i", m, 2, 1)) is not None


# a-s and c-ld with more banks than the longest list (4 items) has positions
# or lengths, so that some banks have no events
ORACLE_VARIANTS = TABLE_VARIANTS + [("a-s", 6), ("c-ld", 6)]


@pytest.mark.parametrize("m", [4, 70])
@pytest.mark.parametrize("variant,K", ORACLE_VARIANTS)
def test_event_table_build_matches_reference(variant, K, m):
    """The suffix build gives, array for array, the table of the fancy-indexed
    build, for rows in order of length."""
    rng = np.random.default_rng(60 + m)
    D = _repeated_prefixes(variant, m, rng)
    layout = ParamLayout(variant, m, 0, K)
    data = _FitData(D)
    table, (avail, counts, uidx) = event_table(data, layout), reference_event_table(data, layout)
    np.testing.assert_array_equal(table.avail, avail)
    np.testing.assert_array_equal(table.counts, counts)
    np.testing.assert_array_equal(table.uidx, uidx)
    np.testing.assert_array_equal(table.total, counts.sum(axis=1))


@pytest.mark.parametrize("m", [4, 70])
@pytest.mark.parametrize("spread", [0.3, 40.0, 200.0])
@pytest.mark.parametrize("variant,K", ORACLE_VARIANTS)
def test_event_table_nll_grad_matches_oracle(variant, K, spread, m):
    """The transposed evaluation equals the (P, m+1) formula; at m = 70 the
    a-pd table references fewer parameters than its layout holds."""
    rng = np.random.default_rng(70 + m)
    layout = ParamLayout(variant, m, 0, K)
    table = event_table(_FitData(_repeated_prefixes(variant, m, rng)), layout)
    assert table is not None
    flat = spread * (rng.uniform(size=layout.size) - 0.5)
    F, g = table.nll_grad(flat)
    F_ref, g_ref = reference_nll_grad(table, flat)
    assert g.shape == g_ref.shape == flat.shape
    assert F == pytest.approx(F_ref, rel=1e-12)
    np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12 * np.abs(g_ref).max())


@pytest.mark.parametrize("m", [4, 70])
@pytest.mark.parametrize("spread", [800.0, 1500.0])
@pytest.mark.parametrize("variant,K", ORACLE_VARIANTS)
def test_event_table_nll_grad_matches_oracle_past_underflow(variant, K, spread, m):
    """At utility spreads past exp's underflow (708 nats), where the utility
    an unavailable option reads can itself underflow, the evaluation still
    equals the (P, m+1) formula."""
    rng = np.random.default_rng(80 + m)
    layout = ParamLayout(variant, m, 0, K)
    table = event_table(_FitData(_repeated_prefixes(variant, m, rng)), layout)
    assert table is not None
    flat = spread * (rng.uniform(size=layout.size) - 0.5)
    F, g = table.nll_grad(flat)
    F_ref, g_ref = reference_nll_grad(table, flat)
    assert F == pytest.approx(F_ref, rel=1e-12)
    np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12 * np.abs(g_ref).max())


def test_fit_with_oracle_nll_grad_runs_the_same_epochs(monkeypatch):
    """A default c-ld K = 3 fit on 5,000 short lists over 8 items stops at
    the same epoch, at the same objective, when the (P, m+1) formula
    evaluates its table."""
    rng = np.random.default_rng(61)
    m = 8
    pmf = np.array([0.37, 0.25, 0.15, 0.09, 0.05, 0.04, 0.03, 0.02])
    banks = np.linspace(0.8, -0.8, m) + 0.5 * rng.standard_normal((3, m))
    truth = CompositeModel(
        "c-ld", CategoricalLengthParams(np.log(pmf)),
        StratifiedPLParams(tuple(map(PLParams, banks))), Universe(m),
    )
    D = sample_composite_dataset(truth, 5000, rng)
    cfg = FitConfig(K=3, lambda_laplacian=0.01)
    lean = fit("c-ld", D, cfg)
    monkeypatch.setattr(EventTable, "nll_grad", reference_nll_grad)
    oracle = fit("c-ld", D, cfg)
    assert lean.converged and oracle.converged
    assert lean.epochs_run == oracle.epochs_run
    assert lean.final_objective == pytest.approx(oracle.final_objective, rel=1e-12)


def test_adam_step_is_the_bias_corrected_update():
    """Adam with its bias corrections on scalars takes the textbook steps."""
    rng = np.random.default_rng(63)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-3  # an eps that the corrections scale visibly
    flat, mom, vel = rng.normal(size=7), np.zeros(7), np.zeros(7)
    want, m1, m2 = flat.copy(), np.zeros(7), np.zeros(7)
    for t in range(1, 6):
        g = rng.normal(size=7) * 10.0 ** rng.integers(-6, 2, size=7)
        flat = estimation._adam_step(flat, g, mom, vel, t, lr, b1, b2, eps)
        m1 = b1 * m1 + (1 - b1) * g
        m2 = b2 * m2 + (1 - b2) * g * g
        want = want - lr * (m1 / (1 - b1**t)) / (np.sqrt(m2 / (1 - b2**t)) + eps)
        np.testing.assert_allclose(flat, want, rtol=1e-13)


def test_cci_objective_evaluates_the_poisson_tail_once(monkeypatch):
    """One c-ci evaluation calls _poisson_logsf once, and its length terms
    and rate-weight gradient equal those of the full clipped pmf and the
    three-branch derivative."""
    from topkorders import lengthdist

    rng = np.random.default_rng(62)
    m, n, d = 5, 400, 2
    D = _make_dataset("c-ci", m, n, d, rng)
    layout = ParamLayout("c-ci", m, d, 1)
    data = _FitData(D)
    flat = rng.normal(size=layout.size)
    flat[:d] = [1.2, -0.4]  # rates on both sides of m - 1, where the tail switches formula
    calls = []
    logsf = lengthdist._poisson_logsf
    monkeypatch.setattr(lengthdist, "_poisson_logsf", lambda k, lam: calls.append(k) or logsf(k, lam))
    objective_and_grad("c-ci", data, layout, flat, FitConfig())
    assert calls == [m - 1]
    coef = np.array([-1.0 / n, -1.0 / n])
    terms, g = _row_terms("c-ci", data, layout, flat, coef)
    lam = np.exp(data.x_agent @ flat[:d])
    assert lam.min() < m - 1 < lam.max()
    want = poisson_clipped_log_pmf(lam, m)[np.arange(n), data.lengths - 1]
    np.testing.assert_allclose(terms[:, 0], want, rtol=1e-12)
    dlam = reference_poisson_dlogp_dlam(data.lengths, lam, m)
    np.testing.assert_allclose(g[:d], coef[0] * ((dlam * lam) @ data.x_agent), rtol=1e-12)


@pytest.mark.parametrize("variant", ["c-i", "c-ld", "a", "a-pd", "a-s"])
def test_fit_trace_matches_row_kernels(variant, monkeypatch):
    rng = np.random.default_rng(51)
    m = 5
    truth = random_model(variant, m, rng, K=3, scale=1.5)
    sample = sample_composite_dataset if variant[0] == "c" else sample_augmented_dataset
    D = sample(truth, 2000, rng)
    cfg = FitConfig(learning_rate=0.01, max_epochs=200, tol=1e-12, K=3, lambda_laplacian=1e-2)
    K = cfg.K if variant in ("c-ld", "a-s") else 1
    assert event_table(_FitData(D), ParamLayout(variant, m, 0, K)) is not None
    table = fit(variant, D, cfg)
    monkeypatch.setattr(estimation, "event_table", lambda data, layout: None)
    rows = fit(variant, D, cfg)
    assert table.epochs_run == rows.epochs_run == 200
    np.testing.assert_allclose(
        [t[1:] for t in table.trace], [t[1:] for t in rows.trace], rtol=1e-10
    )


def test_final_grad_norm_is_the_last_traced_norm():
    D = Dataset(Universe(4), random_orders(4, 100, np.random.default_rng(52)))
    res = fit("c-i", D, FitConfig(learning_rate=0.05, max_epochs=30, tol=1e-12))
    assert res.final_grad_norm == res.trace[-1][2] > 0
    assert not res.converged


def test_nll_rejects_impossible_record():
    m = 3
    model = random_model("c-i", m, np.random.default_rng(0))
    # force zero mass on length 1
    model.length_params.logits[0] = -np.inf
    D = Dataset(Universe(m), (PartialOrder((1,)),))
    with pytest.raises(NonFiniteLossError):
        nll(D, model)


COV_VARIANTS = [(v, d) for v in ALL_VARIANTS for d in (0, 2) if (v, d) != ("c-ci", 0)]


@pytest.mark.parametrize("variant,d", COV_VARIANTS)
def test_single_record_functions_are_rows_of_record_log_probs(variant, d):
    """model_log_prob gives exactly the row of record_log_probs, and raises
    what it raises for the same record (c-i ignores covariates)."""
    rng = np.random.default_rng(61)
    m, n = 4, 40
    layout = ParamLayout(variant, m, d, 3 if variant in ("c-ld", "a-s") else 1)
    model = layout.to_model(rng.normal(size=layout.size), Universe(m))
    augmented = isinstance(model, AugmentedModel)
    orders = random_orders(m, n, rng, min_len=0 if augmented else 1)
    X = rng.normal(size=(n, m, d)) if d else [None] * n
    cov = CovariateTensor(X) if d else None
    rows = record_log_probs(model, Dataset(Universe(m), orders, cov, allow_empty=augmented))
    for q, x, row in zip(orders, X, rows):
        assert model_log_prob(model, q, x) == row

    def raised(call, *args):
        with pytest.raises(Exception) as info:
            call(*args)
        return info.type

    def as_dataset(q, x, universe):
        cov = None if x is None else CovariateTensor(x[None])
        return record_log_probs(model, Dataset(universe, [q], cov, allow_empty=True))

    x, u = X[0], Universe(m)
    x_wide = None if x is None else np.vstack([x, x[:1]])  # an (m + 1)-item universe's slice
    bad = [  # (order, x_row, the dataset's x and universe, the exception)
        (PartialOrder((m + 1,)), x, x_wide, Universe(m + 1), InvalidOrderError),
        (PartialOrder((1, 1)), x, x, u, InvalidOrderError),
    ]
    if not augmented:
        bad.append((PartialOrder(()), x, x, u, InvalidOrderError))
    if d and variant != "c-i":  # c-ci, or a model with covariate weights, without x_row
        bad.append((PartialOrder((1,)), None, None, u, ValueError))
    for q, x_row, x_batch, universe, expected in bad:
        assert raised(model_log_prob, model, q, x_row) is expected
        assert raised(as_dataset, q, x_batch, universe) is expected


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_fit_rejects_empty_lists_under_composite_models(variant):
    """A composite model gives an empty list probability 0, so fit raises
    what nll raises; augmented models fit the same data."""
    rng = np.random.default_rng(62)
    m, n = 3, 10
    orders = [PartialOrder(())] * 5 + random_orders(m, 5, rng)
    cov = CovariateTensor(rng.normal(size=(n, m, 2))) if variant == "c-ci" else None
    D = Dataset(Universe(m), orders, cov, allow_empty=True)
    cfg = FitConfig(max_epochs=3)
    if variant.startswith("c"):
        with pytest.raises(InvalidOrderError, match="empty order"):
            fit(variant, D, cfg)
        layout = ParamLayout(variant, m, 2, 1)
        model = layout.to_model(np.zeros(layout.size), D.universe)
        with pytest.raises(InvalidOrderError, match="empty order"):
            nll(D, model)
    else:
        assert np.isfinite(fit(variant, D, cfg).final_objective)


def test_fitdata_keeps_each_record():
    """_FitData keeps one unit-weight row per record, in order of length,
    with or without covariates; the event table of those rows equals, array
    for array, that of the same records merged into count-weighted distinct
    rows."""
    rng = np.random.default_rng(53)
    m = 5
    for variant, K in TABLE_VARIANTS:
        D = _repeated_prefixes(variant, m, rng)
        items, lengths = D.to_padded()
        order = np.argsort(lengths, kind="stable")
        data = _FitData(D)
        np.testing.assert_array_equal(data.weights, np.ones(D.n))
        np.testing.assert_array_equal(data.items, items[order])
        np.testing.assert_array_equal(data.lengths, lengths[order])
        uniq, counts = np.unique(np.hstack([lengths[:, None], items]), axis=0, return_counts=True)
        assert uniq.shape[0] < D.n
        merged = _FitData.from_rows(m, uniq[:, 1:], uniq[:, 0], counts.astype(np.float64), None)
        layout = ParamLayout(variant, m, 0, K)
        table, merged_table = event_table(data, layout), event_table(merged, layout)
        for name in ("avail", "counts", "uidx", "total"):
            np.testing.assert_array_equal(getattr(table, name), getattr(merged_table, name))
    cov = CovariateTensor(rng.normal(size=(D.n, m, 2)))
    data = _FitData(Dataset(D.universe, D.orders, cov, allow_empty=True))
    np.testing.assert_array_equal(data.X, cov.values[order])
    np.testing.assert_array_equal(data.lengths, lengths[order])


def test_batch_size_counts_records():
    """120 records over at most 15 distinct lists take mini-batch steps at
    batch_size 32; only a batch of all 120 records is the full batch."""
    D = Dataset(Universe(3), random_orders(3, 120, np.random.default_rng(54)))
    items, lengths = D.to_padded()
    assert np.unique(np.hstack([lengths[:, None], items]), axis=0).shape[0] <= 15
    cfg = FitConfig(learning_rate=0.01, max_epochs=20, tol=1e-12, seed=7)
    full = fit("c-i", D, cfg).trace
    assert fit("c-i", D, replace(cfg, batch_size=120)).trace == full
    assert fit("c-i", D, replace(cfg, batch_size=32)).trace != full


def _tables_built(monkeypatch):
    """Patch event_table to record, per call, the weights of the rows it is
    handed and whether it built a table."""
    calls, build = [], estimation.event_table

    def spy(data, layout):
        table = build(data, layout)
        calls.append((data.weights.tolist(), table is not None))
        return table

    monkeypatch.setattr(estimation, "event_table", spy)
    return calls


def test_fit_reads_each_count_line_once(tmp_path, monkeypatch):
    """The toy file's 3 lines, 5 records, reach event_table as 3 rows
    weighted by their counts, in order of length. They make no table, so
    the row kernel takes the 3 weighted rows; its sums then run over rows,
    not records, and the trace equals that of the records one row each up
    to rounding."""
    p = tmp_path / "toy.soi"
    p.write_text("# NUMBER ALTERNATIVES: 3\n2: 1,2\n2: 3\n1: 2,1,3\n")
    D = parse_preflib(p)
    calls = _tables_built(monkeypatch)
    cfg = FitConfig(learning_rate=0.05, max_epochs=30, tol=1e-12)
    trace = fit("c-i", D, cfg).trace
    assert calls == [([2.0, 2.0, 1.0], False)]
    np.testing.assert_allclose(trace, fit("c-i", Dataset(D.universe, D), cfg).trace,
                               rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("variant,K", [("c-i", 1), ("c-ld", 3), ("a", 1), ("a-pd", 1), ("a-s", 3)])
def test_count_lines_fit_and_score_as_their_records(tmp_path, monkeypatch, variant, K):
    """A parsed file of 400 records on its distinct lists: the full-batch
    fit builds its table from one row per line, and the trace, the
    mini-batch trace, every record's log-probability and test_nll equal,
    float for float, those of the same records one row each."""
    lists = Counter(q.items for q in random_orders(3, 400, np.random.default_rng(61)))
    p = tmp_path / "lines.soi"
    p.write_text("# NUMBER ALTERNATIVES: 3\n"
                 + "".join(f"{c}: {','.join(map(str, q))}\n" for q, c in lists.items()))
    D = parse_preflib(p)
    unit = Dataset(D.universe, D)
    assert D.rows()[0].shape[0] == len(lists) < unit.rows()[0].shape[0] == D.n == 400
    calls = _tables_built(monkeypatch)
    cfg = FitConfig(K=K, learning_rate=0.05, max_epochs=40, tol=1e-12)
    result = fit(variant, D, cfg)
    assert [(len(w), built) for w, built in calls] == [(len(lists), True)]
    assert result.trace == fit(variant, unit, cfg).trace
    mini = replace(cfg, batch_size=64)
    assert fit(variant, D, mini).trace == fit(variant, unit, mini).trace
    cond = variant.startswith("a")
    np.testing.assert_array_equal(record_log_probs(result.model, D, cond),
                                  record_log_probs(result.model, unit, cond))
    assert estimation.test_nll(result.model, D) == estimation.test_nll(result.model, unit)


@pytest.mark.parametrize("variant", ["c-i", "a-s"])
def test_fit_of_no_records_is_an_error(variant):
    with pytest.raises(ValueError, match="empty dataset"):
        fit(variant, Dataset(Universe(3), ()))


# ---------------------------------------------------------------------------
# fit(): convergence, recovery, determinism
# ---------------------------------------------------------------------------

FAST = FitConfig(learning_rate=0.05, tol=1e-7, max_epochs=3000)


def test_fit_defaults_match_documented_hyperparameters():
    cfg = FitConfig()
    assert (cfg.learning_rate, cfg.beta1, cfg.beta2) == (0.001, 0.9, 0.999)
    assert cfg.epsilon_opt == 1e-8
    assert cfg.max_epochs == 2000
    assert cfg.tol == 1e-4
    assert cfg.batch_size == "full"


@pytest.mark.parametrize("variant", ["c-i", "a"])
def test_generate_then_refit_recovers_pmf(variant):
    rng = np.random.default_rng(20)
    m = 3
    truth = random_model(variant, m, rng, scale=0.8)
    if variant == "c-i":
        D = sample_composite_dataset(truth, 4000, np.random.default_rng(21))
    else:
        D = sample_augmented_dataset(truth, 4000, np.random.default_rng(21))
    res = fit(variant, D, FAST)
    space, p_true = enum_pmf(truth)
    _, p_fit = enum_pmf(res.model)
    tv = 0.5 * np.abs(p_true - p_fit).sum()
    assert tv < 0.05
    assert res.converged


def test_fit_objective_decreases():
    rng = np.random.default_rng(22)
    D = Dataset(Universe(4), random_orders(4, 200, rng))
    res = fit("c-i", D, FitConfig(learning_rate=0.05, tol=1e-9, max_epochs=200))
    F = [t[1] for t in res.trace]
    assert F[-1] < F[0]
    assert res.final_objective == F[-1]


def test_fit_seed_determinism_minibatch():
    rng = np.random.default_rng(23)
    D = Dataset(Universe(3), random_orders(3, 120, rng))
    cfg = FitConfig(learning_rate=0.01, max_epochs=40, tol=1e-12, batch_size=32, seed=7)
    a = fit("c-i", D, cfg)
    b = fit("c-i", D, cfg)
    np.testing.assert_array_equal(
        ParamLayout("c-i", 3, 0, 1).from_model(a.model),
        ParamLayout("c-i", 3, 0, 1).from_model(b.model),
    )


def test_large_laplacian_collapses_banks():
    rng = np.random.default_rng(24)
    m = 3
    truth = random_model("a-s", m, rng, K=2, scale=1.0)
    D = sample_augmented_dataset(truth, 1500, np.random.default_rng(25))
    cfg = FitConfig(
        learning_rate=0.05, tol=1e-7, max_epochs=3000, K=2, lambda_laplacian=1e4
    )
    res = fit("a-s", D, cfg)
    banks = res.model.params.banks
    assert np.max(np.abs(banks[0] - banks[1])) < 0.05


def test_fit_requires_covariates_for_cci():
    D = Dataset(Universe(3), (PartialOrder((1,)),))
    with pytest.raises(ValueError):
        fit("c-ci", D)
    with pytest.raises(ValueError):
        fit("bogus", D)


def test_ci_fit_ignores_covariates():
    rng = np.random.default_rng(28)
    m, n = 4, 60
    D = Dataset(Universe(m), random_orders(m, n, rng))
    cov = CovariateTensor(rng.normal(size=(n, m, 2)))
    cfg = FitConfig(learning_rate=0.05, max_epochs=20, tol=1e-12)
    plain = fit("c-i", D, cfg)
    with_cov = fit("c-i", Dataset(D.universe, D.orders, covariates=cov), cfg)
    np.testing.assert_allclose(
        [row[1] for row in with_cov.trace], [row[1] for row in plain.trace], rtol=1e-12
    )


def test_cci_fit_recovers_covariate_sign():
    rng = np.random.default_rng(26)
    m, d, n = 3, 1, 3000
    truth = random_model("c-ci", m, rng, d=d)
    truth.ranking_params.beta[:] = [1.5]
    truth.length_params.weights[:] = [0.3]
    cov = CovariateTensor(rng.normal(size=(n, m, d)))
    D = sample_composite_dataset(truth, n, np.random.default_rng(27), covariates=cov)
    D = Dataset(Universe(m), D.orders, covariates=cov)
    res = fit("c-ci", D, FitConfig(learning_rate=0.05, tol=1e-7, max_epochs=3000))
    assert res.model.ranking_params.beta[0] > 0.5


# ---------------------------------------------------------------------------
# Cross-validation and grid search
# ---------------------------------------------------------------------------

def test_kfold_disjoint_exhaustive_deterministic():
    rng = np.random.default_rng(30)
    D = Dataset(Universe(3), random_orders(3, 23, rng))
    pairs = kfold_split(D, folds=5, seed=3)
    assert len(pairs) == 5
    total_test = sum(te.n for _, te in pairs)
    assert total_test == D.n
    for tr, te in pairs:
        assert tr.n + te.n == D.n
    again = kfold_split(D, folds=5, seed=3)
    for (_, a), (_, b) in zip(pairs, again):
        assert a.orders == b.orders
    other = kfold_split(D, folds=5, seed=4)
    assert any(a.orders != b.orders for (_, a), (_, b) in zip(pairs, other))


def test_subsets_of_a_checked_dataset_skip_the_row_check(monkeypatch):
    """kfold_split and stratify_dataset take rows of a dataset that was
    checked when it was built: they check no row again, and each subset
    holds the parent's records, covariates included, in the parent's order."""
    rng = np.random.default_rng(63)
    m, n = 4, 50
    tags = np.arange(n, dtype=np.float64)[:, None, None] * np.ones((1, m, 1))
    D = Dataset(
        Universe(m), random_orders(m, n, rng, min_len=0), CovariateTensor(tags), allow_empty=True
    )
    calls = []
    monkeypatch.setattr(orders_module, "_validate_rows", lambda *a: calls.append(a))
    pairs = kfold_split(D, folds=5, seed=1)
    strata = stratify_dataset(D, 3)
    assert calls == []
    monkeypatch.undo()
    items, lengths = D.to_padded()

    def rows_of(sub):
        """The parent rows a subset holds, read from the tags, once its
        arrays equal those of a checked dataset built from those rows."""
        rows = sub.covariates.values[:, 0, 0].astype(int)
        assert np.all(np.diff(rows) > 0)
        checked = Dataset.from_padded(
            D.universe, items[rows], lengths[rows], CovariateTensor(tags[rows]), True
        )
        for got, want in zip(sub.to_padded(), checked.to_padded()):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        np.testing.assert_array_equal(sub.covariates.values, checked.covariates.values)
        assert sub.universe is D.universe and sub.allow_empty
        return rows

    everyone = list(range(n))
    for train, test in pairs:
        assert sorted(np.concatenate([rows_of(train), rows_of(test)])) == everyone
    assert sorted(np.concatenate([rows_of(test) for _, test in pairs])) == everyone
    assert sorted(np.concatenate([rows_of(s) for s in strata])) == everyone


def test_kfold_too_few_records():
    D = Dataset(Universe(2), (PartialOrder((1,)),))
    with pytest.raises(ValueError):
        kfold_split(D, folds=5)


def test_one_fold_rejected():
    D = Dataset(Universe(3), random_orders(3, 20, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="at least 2 folds"):
        kfold_split(D, folds=1)
    with pytest.raises(ValueError, match="at least 2 folds"):
        grid_search("c-i", D, [1], [0.0], folds=1)


@pytest.mark.parametrize("batch_size", [-5, 0, 2.5, "half"])
def test_bad_batch_size_rejected(batch_size):
    with pytest.raises(ValueError, match="batch_size"):
        FitConfig(batch_size=batch_size)


def test_grid_search_prefers_stratified_truth():
    # data generated from a strongly position-dependent model: the grid should
    # not pick K = 1 over K = 2 when given both
    rng = np.random.default_rng(31)
    m = 3
    banks = np.array(
        [[2.0, 0.0, -2.0, 0.0], [-2.0, 0.0, 2.0, 0.0]]
    )
    from topkorders import StratifiedAugmentedParams

    truth = AugmentedModel("a-s", StratifiedAugmentedParams(banks), Universe(m))
    D = sample_augmented_dataset(truth, 2500, np.random.default_rng(32))
    cfg = FitConfig(learning_rate=0.05, tol=1e-6, max_epochs=800)
    (K, lapl), table = grid_search("a-s", D, [1, 2], [0.0], cfg, folds=5)
    assert K == 2
    assert len(table) == 2
    nll_by_k = {row[0]: row[2] for row in table}
    assert nll_by_k[2] < nll_by_k[1]


@pytest.mark.parametrize(
    "field,value,rule",
    [("beta1", 1.0, "in [0, 1)"), ("beta1", -0.1, "in [0, 1)"), ("beta2", 1.5, "in [0, 1)"),
     ("beta2", math.nan, "in [0, 1)"), ("epsilon_opt", 0.0, "> 0"),
     ("epsilon_opt", math.nan, "> 0"), ("lambda_l2", -1.0, ">= 0"),
     ("lambda_l2", math.nan, ">= 0"), ("lambda_laplacian", -0.5, ">= 0"),
     ("lambda_laplacian", math.nan, ">= 0")],
)
def test_bad_optimizer_and_penalty_fields_rejected(field, value, rule):
    with pytest.raises(ValueError) as info:
        FitConfig(**{field: value})
    assert str(info.value) == f"{field} must be {rule}, got {value!r}"


def test_edge_values_of_the_checked_fields_accepted():
    FitConfig(beta1=0.0, beta2=0.0, lambda_l2=0.0, lambda_laplacian=0.0, epsilon_opt=1e-300)


# ---------------------------------------------------------------------------
# _map_tasks: independent tasks over a process pool
# ---------------------------------------------------------------------------

def _pid_and_task(shared, task):
    return os.getpid(), shared, task


def _fail_at_odd(shared, task):
    if task % 2:
        raise ValueError(f"task {task} failed")
    return task


@pytest.mark.parametrize("workers,n_tasks", [(1, 4), (2, 1), (2, 0)])
def test_map_tasks_runs_in_process_without_two_tasks_and_workers(workers, n_tasks):
    out = estimation._map_tasks(_pid_and_task, range(n_tasks), workers, "s")
    assert out == [(os.getpid(), "s", t) for t in range(n_tasks)]


def test_map_tasks_pool_keeps_task_order():
    out = estimation._map_tasks(_pid_and_task, range(6), 2, "s")
    assert [(s, t) for _, s, t in out] == [("s", t) for t in range(6)]
    assert os.getpid() not in {pid for pid, _, _ in out}


@pytest.mark.parametrize("workers", [1, 2])
def test_map_tasks_raises_the_first_failed_task_in_order(workers):
    with pytest.raises(ValueError, match="^task 1 failed$"):
        estimation._map_tasks(_fail_at_odd, range(6), workers, None)


def test_map_tasks_raises_when_a_worker_dies():
    """A worker killed mid-task fails the map instead of hanging it; run in a
    subprocess, so that a hang fails the test at its timeout."""
    code = (
        "import os, signal\n"
        "from concurrent.futures.process import BrokenProcessPool\n"
        "from topkorders.estimation import _map_tasks\n"
        "def die_at_2(shared, task):\n"
        "    if task == 2:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return task\n"
        "try:\n"
        "    _map_tasks(die_at_2, range(4), 2, None)\n"
        "except BrokenProcessPool:\n"
        "    print('broken')\n"
    )
    src = os.path.dirname(os.path.dirname(estimation.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout == "broken\n"


@pytest.mark.parametrize("variant", ["c-ld", "a-s"])
def test_grid_search_in_a_pool_matches_in_process(variant):
    D = Dataset(Universe(4), random_orders(4, 90, np.random.default_rng(5)))
    cfg = FitConfig(learning_rate=0.05, max_epochs=25, tol=1e-12)
    runs = [grid_search(variant, D, [1, 2], [0.0, 0.1], cfg, folds=3, workers=w) for w in (1, 2)]
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 4


@pytest.mark.parametrize("variant", ["c-ld", "a-s"])
def test_laplacian_has_no_effect_with_one_stratum(variant):
    """With K = 1 no banks are adjacent, so lambda_L leaves the fit unchanged
    bit for bit: the premise of sharing fits across a grid's K = 1 cells."""
    D = Dataset(Universe(5), random_orders(5, 300, np.random.default_rng(7)))
    cfg = FitConfig(learning_rate=0.05, max_epochs=60, tol=1e-12, K=1)
    plain, coupled = (fit(variant, D, replace(cfg, lambda_laplacian=lapl)) for lapl in (0.0, 0.5))
    assert plain.trace == coupled.trace
    layout = ParamLayout.of(plain.model)
    np.testing.assert_array_equal(layout.from_model(plain.model), layout.from_model(coupled.model))


def test_grid_search_fits_each_distinct_cell_once(monkeypatch):
    """The K = 1 cells share one fit per fold; the table equals, float for
    float, a loop that fits every cell, in process and in a pool."""
    D = Dataset(Universe(4), random_orders(4, 90, np.random.default_rng(8)))
    cfg = FitConfig(learning_rate=0.05, max_epochs=25, tol=1e-12)
    Ks, lapls, folds = [1, 3], [0.0, 0.01], 3
    reference = []
    for K in Ks:
        for lapl in lapls:
            trial = replace(cfg, K=K, lambda_laplacian=lapl)
            fold_nlls = [estimation.test_nll(fit("c-ld", train, trial).model, test).nll
                         for train, test in kfold_split(D, folds, cfg.seed)]
            reference.append((K, lapl, float(np.mean(fold_nlls))))
    calls = []
    run = estimation.run
    monkeypatch.setattr(estimation, "run",
                        lambda fits, **kw: calls.extend(f.cfg for f in fits) or run(fits, **kw))
    best, table = grid_search("c-ld", D, Ks, lapls, cfg, folds=folds, workers=1)
    assert len(calls) == 9  # (1, 0), (3, 0) and (3, 0.01), 3 folds each
    assert table == reference
    assert best == min(reference, key=lambda row: row[2])[:2]
    assert grid_search("c-ld", D, Ks, lapls, cfg, folds=folds, workers=2) == (best, table)


@pytest.mark.parametrize("variant", ["c-i", "c-ld", "a", "a-pd", "a-s"])
def test_lockstep_fits_equal_their_solo_fits(variant):
    """Fits stepped in one lockstep batch (two datasets, several K, lambda_L
    and tol; some stop early, one at max_epochs) equal their solo fits float
    for float: trace, epochs, convergence and parameters."""
    rng = np.random.default_rng(90)
    truth = random_model(variant, 5, rng, K=3, scale=1.0)
    sample = sample_composite_dataset if variant[0] == "c" else sample_augmented_dataset
    D = sample(truth, 600, rng)
    half = kfold_split(D, 2, 0)[0][0]
    base = FitConfig(learning_rate=0.05, tol=1e-4, max_epochs=400)
    if variant in ("c-ld", "a-s"):
        cfgs = [replace(base, K=1), replace(base, K=2),
                replace(base, K=3, lambda_laplacian=0.05), replace(base, K=3, max_epochs=12)]
    else:
        cfgs = [base, replace(base, tol=1e-5), replace(base, max_epochs=12)]
    runs = [(X, cfg) for X in (D, half) for cfg in cfgs]
    jobs = [estimation._Fit.of(variant, X, cfg, {}) for X, cfg in runs]
    assert all(job.table is not None and job.batch is None for job in jobs)
    results = lockstep.run(jobs)
    for (X, cfg), res in zip(runs, results):
        solo = fit(variant, X, cfg)
        assert res.trace == solo.trace
        assert (res.epochs_run, res.converged) == (solo.epochs_run, solo.converged)
        layout = ParamLayout.of(solo.model)
        np.testing.assert_array_equal(layout.from_model(res.model), layout.from_model(solo.model))
    epochs = [res.epochs_run for res in results]
    assert len(set(epochs)) > 3 and max(epochs) < base.max_epochs
    assert any(res.converged for res in results)
    assert (epochs[-1], results[-1].converged) == (12, False)


def _split_table_dataset(seed):
    """400 lists over 8 items whose 2-fold split (seed) gives fold 1 the
    records of 4 short lists repeated, so that fold 0 trains on them with an
    event table, and fold 0 unique full lists, too many keys for a table."""
    m, n = 8, 400
    rng = np.random.default_rng(91)
    perm = np.random.default_rng(seed).permutation(n)  # as kfold_split draws it
    short = [(1, 2), (2, 1), (3,), (1, 3, 2)]
    lists = [None] * n
    for i in perm[n // 2 :]:
        lists[i] = short[int(rng.integers(len(short)))]
    for i in perm[: n // 2]:
        lists[i] = tuple(int(a) + 1 for a in rng.permutation(m))
    return Dataset(Universe(m), [PartialOrder(x) for x in lists])


def test_grid_search_with_a_fold_without_table_matches_fit_loop():
    """A grid whose fold 1 trains without an event table (its fits run alone)
    and fold 0 with one (its fits run in lockstep) equals, float for float, a
    loop of fit calls, in process and in a pool."""
    cfg = FitConfig(learning_rate=0.05, max_epochs=60)
    D = _split_table_dataset(cfg.seed)
    splits = kfold_split(D, 2, cfg.seed)
    tables = [event_table(_FitData(train), ParamLayout("c-ld", 8, 0, 2)) for train, _ in splits]
    assert tables[0] is not None and tables[1] is None
    Ks, lapls = [1, 2], [0.0, 0.05]
    reference = []
    for K in Ks:
        for lapl in lapls:
            trial = replace(cfg, K=K, lambda_laplacian=lapl)
            fold_nlls = [estimation.test_nll(fit("c-ld", train, trial).model, test).nll
                         for train, test in splits]
            reference.append((K, lapl, float(np.mean(fold_nlls))))
    for workers in (1, 2):
        best, table = grid_search("c-ld", D, Ks, lapls, cfg, folds=2, workers=workers)
        assert table == reference


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_grid_search_raises_the_first_diverging_fit_in_task_order(workers):
    """The K = 3 cell with lambda_L 1e307 diverges on both folds; the grid
    raises the error, trace included, of the first of them in task order,
    as a loop of fit calls would, in process and in a pool."""
    D = Dataset(Universe(5), random_orders(5, 200, np.random.default_rng(92)))
    cfg = FitConfig(learning_rate=1.0, max_epochs=10)
    diverging = replace(cfg, K=3, lambda_laplacian=1e307)
    errors = []
    for train, _ in kfold_split(D, 2, cfg.seed):
        with pytest.raises(NonFiniteLossError) as info:
            fit("c-ld", train, diverging)
        errors.append(str(info.value))
    assert errors[0] != errors[1]
    with pytest.raises(NonFiniteLossError) as info:
        grid_search("c-ld", D, [1, 3], [0.0, 1e307], cfg, folds=2, workers=workers)
    assert str(info.value) == errors[0]


def test_grid_search_steps_its_fits_in_lockstep(monkeypatch):
    """At workers=1 the grid evaluates its stacked tables once per epoch of
    its longest fit, not once per epoch of every fit."""
    D = Dataset(Universe(4), random_orders(4, 300, np.random.default_rng(93)))
    cfg = FitConfig(learning_rate=0.05, max_epochs=300)
    Ks, lapls = [1, 3], [0.0, 0.01]
    epochs = [fit("c-ld", train, replace(cfg, K=K, lambda_laplacian=lapl)).epochs_run
              for K, lapl in [(1, 0.0), (3, 0.0), (3, 0.01)]
              for train, _ in kfold_split(D, 3, cfg.seed)]
    calls = []
    evaluate = TableStack.evaluate
    monkeypatch.setattr(TableStack, "evaluate",
                        lambda self, ext: calls.append(1) or evaluate(self, ext))
    grid_search("c-ld", D, Ks, lapls, cfg, folds=3, workers=1)
    assert len(calls) == max(epochs) < sum(epochs)
