"""Shared helpers: random model factories and enumeration oracles."""

from dataclasses import dataclass

import numpy as np

from topkorders import (
    AugmentedModel,
    AugmentedNaiveParams,
    CategoricalLengthParams,
    CompositeModel,
    PLParams,
    PartialOrder,
    PoissonLengthParams,
    PositionDependentParams,
    StratifiedAugmentedParams,
    StratifiedPLParams,
    Universe,
    enumerate_partial_orders,
    model_log_prob,
)


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


def model_space(model, x_row=None):
    """The model's full outcome space: Omega(A), plus the empty list for
    augmented models."""
    include_empty = isinstance(model, AugmentedModel)
    return enumerate_partial_orders(model.universe.m, include_empty=include_empty)


def enum_pmf(model, x_row=None):
    """Exact probabilities over the enumerated outcome space."""
    space = model_space(model)
    p = np.array([np.exp(model_log_prob(model, q, x_row)) for q in space])
    return space, p


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
