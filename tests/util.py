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
