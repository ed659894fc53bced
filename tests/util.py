"""Shared helpers: random model factories and enumeration oracles."""

import math
from dataclasses import dataclass

import numpy as np

from topkorders import (
    AugmentedModel,
    AugmentedNaiveParams,
    CategoricalLengthParams,
    CompositeModel,
    CovariateTensor,
    Dataset,
    PLParams,
    PartialOrder,
    PoissonLengthParams,
    PositionDependentParams,
    StratifiedAugmentedParams,
    StratifiedPLParams,
    Universe,
    enumerate_partial_orders,
)
from topkorders.estimation import record_log_probs
from topkorders.events import _bank_event_counts
from topkorders.kernels import length_strata


def l2_penalty(params, lambda_l2):
    """lambda_2 ||params||^2; the objective oracle's L2 term."""
    params = np.asarray(params, dtype=np.float64)
    return float(lambda_l2 * np.sum(params * params))


def laplacian_penalty(banks, lambda_laplacian):
    """lambda_L * sum_{i=2..K} ||theta_i - theta_{i-1}||^2 over the path graph
    of the banks, one pair of adjacent banks at a time; the objective
    oracle's Laplacian term."""
    banks = [np.asarray(b, dtype=np.float64).ravel() for b in banks]
    total = 0.0
    for prev, bank in zip(banks, banks[1:]):
        total += float(np.sum((bank - prev) ** 2))
    return lambda_laplacian * total


def oracle_log_prob(model, Q, x_row=None):
    """log P(Q) from the model definitions, one log-softmax per choice; the
    independent check of the likelihood engine, so it uses none of its code.

    A composite model adds its length term, log p(k), and ranks Q with one
    utility vector: its PL bank, for c-ld the bank of stratum min(k, K). An
    augmented model chooses from the items plus END (option m), at position
    j with END utility gamma_j (a-pd) or from bank min(j, K) (a-s), and ends
    with END unless k = m. ``x_row`` (m, d) adds x_row @ beta to the items.
    """
    m, k, v = model.universe.m, len(Q), model.variant
    choices, total, utilities = [a - 1 for a in Q.items], 0.0, []

    def add(base, beta):
        u = np.array(base, dtype=np.float64)
        if beta is not None and beta.size:
            u[:m] += np.asarray(x_row, dtype=np.float64) @ beta
        utilities.append(u)

    if v.startswith("c"):
        if v == "c-ci":  # Poisson(lam), k <= 1 folded onto 1 and k >= m onto m
            lam = math.exp(np.mean(x_row, axis=0) @ model.length_params.weights)
            i = np.arange(m + 50 + int(10 * lam))
            logpois = i * math.log(lam) - lam - np.array([math.lgamma(j + 1.0) for j in i])
            total = np.logaddexp.reduce(logpois[np.clip(i, 1, m) == k])
        else:
            logits = model.length_params.logits
            total = logits[k - 1] - np.logaddexp.reduce(logits)
        rank = model.ranking_params
        bank = rank.banks[min(k, rank.K) - 1] if v == "c-ld" else rank
        for _ in choices:
            add(bank.delta, bank.beta)
        options = list(range(m))
    else:
        p, options = model.params, list(range(m + 1))
        choices += [m] * (k < m)
        for j in range(1, len(choices) + 1):
            if v == "a":
                add(p.theta, p.beta)
            elif v == "a-pd":
                add(np.append(p.theta, p.gamma[j - 1]), p.beta)
            else:
                b = min(j, p.K) - 1
                add(p.banks[b], None if p.betas is None else p.betas[b])
    for a, u in zip(choices, utilities):
        u = u[options]
        total += u[options.index(a)] - np.logaddexp.reduce(u)
        options.remove(a)
    return float(total)


def engine_log_probs(model, orders, X=None):
    """The engine's log-probability of each order, in one record_log_probs
    call; X is an (m, d) covariate slice shared by every order, or one per
    order (n, m, d)."""
    cov = None
    if X is not None:
        X = np.asarray(X, dtype=np.float64)
        cov = CovariateTensor(np.broadcast_to(X, (len(orders),) + X.shape[-2:]))
    D = Dataset(model.universe, orders, cov, allow_empty=isinstance(model, AugmentedModel))
    return record_log_probs(model, D)


def random_model(variant, m, rng, K=2, d=0, scale=1.0):
    """A model of the given variant with Normal(0, scale) parameters."""
    u = Universe(m)
    if variant == "c-i":
        return CompositeModel(
            "c-i",
            CategoricalLengthParams(rng.normal(scale=scale, size=m)),
            PLParams(rng.normal(scale=scale, size=m)),
            u,
        )
    if variant == "c-ci":
        assert d > 0
        return CompositeModel(
            "c-ci",
            PoissonLengthParams(rng.normal(scale=scale, size=d), m),
            PLParams(rng.normal(scale=scale, size=m), rng.normal(scale=scale, size=d)),
            u,
        )
    if variant == "c-ld":
        banks = tuple(PLParams(rng.normal(scale=scale, size=m)) for _ in range(K))
        return CompositeModel(
            "c-ld",
            CategoricalLengthParams(rng.normal(scale=scale, size=m)),
            StratifiedPLParams(banks),
            u,
        )
    if variant == "a":
        return AugmentedModel(
            "a", AugmentedNaiveParams(rng.normal(scale=scale, size=m + 1)), u
        )
    if variant == "a-pd":
        return AugmentedModel(
            "a-pd",
            PositionDependentParams(
                rng.normal(scale=scale, size=m), rng.normal(scale=scale, size=m)
            ),
            u,
        )
    if variant == "a-s":
        return AugmentedModel(
            "a-s",
            StratifiedAugmentedParams(rng.normal(scale=scale, size=(K, m + 1))),
            u,
        )
    raise ValueError(variant)


def pl_model(delta, beta=None):
    """A one-bank c-ld model with uniform length logits: its log-probability
    of Q is log PL(Q) - log m, whatever the length of Q."""
    m = len(delta)
    ranking = StratifiedPLParams((PLParams(delta, beta),))
    return CompositeModel("c-ld", CategoricalLengthParams(np.zeros(m)), ranking, Universe(m))


def model_space(model, x_row=None):
    """The model's full outcome space: Omega(A), plus the empty list for
    augmented models."""
    include_empty = isinstance(model, AugmentedModel)
    return enumerate_partial_orders(model.universe.m, include_empty=include_empty)


def enum_pmf(model, x_row=None):
    """Exact probabilities over the enumerated outcome space."""
    space = model_space(model)
    return space, np.exp(engine_log_probs(model, space, x_row))


def empirical_pmf(orders, space):
    from collections import Counter

    counts = Counter(q.items for q in orders)
    n = len(orders)
    return np.array([counts[q.items] / n for q in space])


def random_orders(m, n, rng, min_len=1):
    out = []
    for _ in range(n):
        k = int(rng.integers(min_len, m + 1))
        out.append(PartialOrder(tuple(int(a) + 1 for a in rng.permutation(m)[:k])))
    return out


END = 0  # the END token's id in by-rank choice events


@dataclass(frozen=True)
class ChoiceEvent:
    """A single sequential choice: the chosen id (END = 0) and the choice set."""

    chosen: int
    available: tuple
    position: int


def stratify_by_rank(D, K):
    """K banks of choice events: bank i holds every position-i choice,
    terminal END choices included, the last bank every choice at positions
    >= K; the a-s objective's oracle."""
    m = D.universe.m
    groups = [[] for _ in range(K)]
    for q in D.orders:
        remaining = list(range(1, m + 1))
        for pos, a in enumerate(q.items, start=1):
            groups[min(pos, K) - 1].append(ChoiceEvent(a, tuple(remaining) + (END,), pos))
            remaining.remove(a)
        if len(q) < m:
            pos = len(q) + 1
            groups[min(pos, K) - 1].append(ChoiceEvent(END, tuple(remaining) + (END,), pos))
    return groups


def scan_deferred_acceptance(market):
    """Student-proposing deferred acceptance that scans each full program's
    held students for the worst one; the oracle of the heap version."""
    n, m = market.n, market.m
    orders = market.preferences.orders
    next_choice = [0] * n
    held = [[] for _ in range(m)]  # students held, any order
    assignment = [0] * n
    free = list(range(n))
    pr = market.priority_rank
    while free:
        s = free.pop()
        prefs = orders[s].items
        while next_choice[s] < len(prefs):
            p = prefs[next_choice[s]] - 1
            next_choice[s] += 1
            cap = market.capacities[p]
            if cap == 0:
                continue
            if len(held[p]) < cap:
                held[p].append(s)
                assignment[s] = p + 1
                break
            worst = max(held[p], key=lambda t: pr[p, t])
            if pr[p, s] < pr[p, worst]:
                held[p].remove(worst)
                assignment[worst] = 0
                free.append(worst)
                held[p].append(s)
                assignment[s] = p + 1
                break
    return tuple(assignment)


def scan_blocking_pair(market, assignment):
    """The first (student, program) blocking pair of an assignment tuple, in
    (student, list position) order, or None, by an exhaustive scan; the
    oracle of find_blocking_pair."""
    pr = market.priority_rank
    orders = market.preferences.orders
    held = [[] for _ in range(market.m)]
    for s, p in enumerate(assignment):
        if p != 0:
            held[p - 1].append(s)
    for s in range(market.n):
        prefs = orders[s].items
        assigned = assignment[s]
        assigned_pos = prefs.index(assigned) if assigned in prefs else len(prefs)
        for pos in range(assigned_pos):
            p = prefs[pos] - 1
            if market.capacities[p] == 0:
                continue
            if len(held[p]) < market.capacities[p]:
                return (s, p + 1)
            worst = max(held[p], key=lambda t: pr[p, t])
            if pr[p, s] < pr[p, worst]:
                return (s, p + 1)
    return None


def reference_event_table(data, layout):
    """The (avail, counts, uidx) arrays of events.event_table, or None, by
    its build before the per-byte prefix-set update: one fancy-indexed
    read-modify-write per position, over rows in any order; the oracle of
    the suffix build."""
    v, m, K = layout.variant, layout.m, layout.K
    if data.X is not None and v != "c-i":
        return None
    items, lengths, w = data.items, data.lengths, data.weights
    R, aug = lengths.shape[0], v in ("a", "a-pd", "a-s")
    # one event per listed item, then END after k < m items (augmented)
    steps = lengths + (aug & (lengths < m))
    limit = int(w @ steps) // (m + 1)
    stratum = length_strata(lengths, K)
    ids = np.hstack([items, np.full((R, 1), -1, items.dtype)])
    listed = np.zeros((R, (m + 7) // 8), dtype=np.uint8)  # each row's listed items, in bits
    P, tables, sets, banks = 0, [], [], []
    for j in range(int(steps.max(initial=0))):
        row = np.flatnonzero(steps > j)
        bits = listed[row]  # the prefix set of each event at j
        if v == "c-ld":
            bank = stratum[row]
        else:
            bank = np.full(row.size, j if v == "a-pd" else min(j, K - 1))
        # group the events at j by key; prefix sets at other positions differ in size
        order = np.lexsort([*bits.T, bank])
        first = np.ones(row.size, dtype=bool)  # the first event of each key
        first[1:] = (np.diff(bank[order]) != 0) | np.any(np.diff(bits[order], axis=0) != 0, axis=1)
        key = np.empty_like(order)
        key[order] = np.cumsum(first) - 1
        keys = int(first.sum())
        P += keys
        if P > limit:
            return None
        chosen = ids[row, j].astype(np.intp)
        cells = key * (m + 1) + np.where(chosen < 0, m, chosen)
        tables.append(np.bincount(cells, w[row], minlength=keys * (m + 1)).reshape(keys, m + 1))
        sets.append(bits[order[first]])
        banks.append(bank[order[first]])
        on = chosen >= 0
        listed[row[on], chosen[on] // 8] |= (128 >> chosen[on] % 8).astype(np.uint8)
    if P == 0:  # no choices at all
        return None
    bank_of, index = np.concatenate(banks), _reference_utility_index(layout)
    avail = np.ones((P, m + 1), dtype=bool)
    avail[:, :m] = np.unpackbits(np.concatenate(sets), axis=1, count=m) == 0
    avail[:, m] = aug
    # each bank's counts over the normalizer of its term: a composite's
    # term 0 is its length, and a-pd's position banks share its one term
    composite = v in ("c-i", "c-ld")
    norm = _bank_event_counts(lengths, w, m, K, v)
    counts = np.concatenate(tables) / norm[composite + bank_of * (v != "a-pd")][:, None]
    uidx = index[bank_of]
    if composite:
        avail = np.vstack([avail, np.arange(m + 1) < m])
        counts = np.vstack([counts, np.append(data.length_counts[1:], 0.0) / norm[0]])
        uidx = np.vstack([uidx, np.append(np.arange(m), layout.size)])
    return avail, counts, uidx


def _reference_utility_index(layout):
    """(banks, m+1): the flat index of each item's and END's utility per
    bank, written out per variant; a-pd has one bank per position, whose
    END is gamma_j."""
    m, K, none = layout.m, layout.K, layout.size
    if layout.variant in ("c-i", "c-ld"):
        return np.hstack([m + m * np.arange(K)[:, None] + np.arange(m), np.full((K, 1), none)])
    if layout.variant == "a-pd":
        return np.hstack([np.tile(np.arange(m), (m, 1)), m + np.arange(m)[:, None]])
    return (m + 1) * np.arange(K)[:, None] + np.arange(m + 1)


def reference_nll_grad(table, flat):
    """The (F, g) of EventTable.nll_grad by its (P, m+1) formula: masked max
    and exp over each key's row, the counts term summed cell by cell; the
    oracle of the transposed evaluation."""
    U = np.append(flat, 0.0)[table.uidx]
    top = np.max(U, axis=1, where=table.avail, initial=-np.inf)
    e = np.exp(U - top[:, None], where=table.avail, out=np.zeros_like(U))
    mass = e.sum(axis=1)
    F = table.total @ (top + np.log(mass)) - np.sum(table.counts * U)
    dU = (table.total / mass)[:, None] * e - table.counts
    g = np.bincount(table.uidx.ravel(), dU.ravel(), minlength=flat.size + 1)
    return float(F), g[:-1]


def reference_poisson_dlogp_dlam(k, lam, m):
    """d/dlambda of the clipped Poisson log pmf at k by its three-branch
    formula over every rate, the tail evaluated for all of them."""
    from topkorders.lengthdist import _log_factorials, _poisson_logsf

    upper = np.exp(
        (m - 1) * np.log(lam) - _log_factorials(m - 1)[-1] - lam - _poisson_logsf(m - 1, lam)
    )
    return np.where(k == 1, -lam / (1.0 + lam), np.where(k < m, k / lam - 1.0, upper))
