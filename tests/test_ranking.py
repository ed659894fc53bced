"""Plackett-Luce marginals, scored by the likelihood engine through a
one-bank composite model with uniform length logits (``util.pl_model``)."""

import math
from itertools import permutations

import numpy as np
import pytest

from topkorders import (
    CategoricalLengthParams,
    CompositeModel,
    PLParams,
    PartialOrder,
    StratifiedPLParams,
    Universe,
    enumerate_partial_orders,
)
from topkorders.kernels import item_utilities
from util import engine_log_probs, pl_model


def pl_log_probs(orders, delta, beta=None, X=None):
    """log PL(Q) of each order under item utilities delta (+ x . beta)."""
    return engine_log_probs(pl_model(delta, beta), orders, X) + math.log(len(delta))


def completions(Q, m):
    """Every total order that starts with Q."""
    rest = [a for a in range(1, m + 1) if a not in Q.items]
    return [PartialOrder(Q.items + tail) for tail in permutations(rest)]


def test_pl_utility_fixed_effects():
    assert item_utilities(None, np.array([0.5, 0.0, 0.0]), None)[0, 0] == 0.5


def test_pl_utility_zero_beta_matches_fixed():
    rng = np.random.default_rng(0)
    delta = rng.normal(size=3)
    x = rng.normal(size=(3, 2))
    with_beta = item_utilities(x[None], delta, np.zeros(2))
    np.testing.assert_allclose(with_beta, item_utilities(None, delta, None), atol=1e-15)
    orders = enumerate_partial_orders(3)
    np.testing.assert_allclose(
        pl_log_probs(orders, delta, np.zeros(2), x), pl_log_probs(orders, delta), atol=1e-12
    )


def test_pl_utility_dot_product():
    x = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert item_utilities(x[None], np.zeros(2), np.array([1.0, 2.0]))[0, 0] == pytest.approx(3.0)
    # utilities (3, 0): P(1 first) = e^3 / (e^3 + 1)
    lp = pl_log_probs([PartialOrder((1,))], np.zeros(2), np.array([1.0, 2.0]), x)[0]
    assert lp == pytest.approx(3.0 - math.log(math.exp(3.0) + 1.0))


def test_pl_log_marginal_uniform():
    assert pl_log_probs([PartialOrder((1, 2))], np.zeros(3))[0] == pytest.approx(math.log(1 / 6))


def test_pl_log_marginal_direct():
    delta = np.array([math.log(2), 0.0, 0.0])
    assert pl_log_probs([PartialOrder((1,))], delta)[0] == pytest.approx(math.log(0.5))


def test_pl_marginal_equals_sum_over_completions():
    rng = np.random.default_rng(3)
    m = 4
    delta = rng.normal(size=m)
    Q = PartialOrder((3, 1))
    total = np.exp(pl_log_probs(completions(Q, m), delta)).sum()
    assert math.exp(pl_log_probs([Q], delta)[0]) == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_pl_marginal_consistency_all_q(m):
    rng = np.random.default_rng(m)
    delta = rng.normal(size=m)
    space = enumerate_partial_orders(m)
    total = np.exp(pl_log_probs([q for Q in space for q in completions(Q, m)], delta))
    sizes = [math.factorial(m - len(Q)) for Q in space]
    sums = np.add.reduceat(total, np.cumsum([0] + sizes[:-1]))
    assert np.abs(np.exp(pl_log_probs(space, delta)) - sums).max() < 1e-10


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_pl_total_order_normalization(m):
    rng = np.random.default_rng(10 + m)
    delta = rng.normal(size=m)
    total = np.exp(pl_log_probs(completions(PartialOrder(()), m), delta)).sum()
    assert abs(total - 1.0) < 1e-9


def test_shift_invariance():
    rng = np.random.default_rng(4)
    delta = rng.normal(size=4)
    space = enumerate_partial_orders(4)
    a = pl_log_probs(space, delta)
    b = pl_log_probs(space, delta + 17.3)
    assert np.abs(a - b).max() < 1e-10


def cld(banks, m):
    """A c-ld model with uniform length logits and the given PL banks."""
    return CompositeModel(
        "c-ld", CategoricalLengthParams(np.zeros(m)), StratifiedPLParams(banks), Universe(m)
    )


def test_stratified_single_bank_is_identity():
    rng = np.random.default_rng(5)
    delta = rng.normal(size=3)
    space = enumerate_partial_orders(3)
    np.testing.assert_allclose(
        engine_log_probs(cld((PLParams(delta),), 3), space) + math.log(3),
        pl_log_probs(space, delta),
        atol=1e-12,
    )


def test_stratified_long_lists_use_last_bank():
    rng = np.random.default_rng(6)
    m = 5
    banks = tuple(PLParams(rng.normal(size=m)) for _ in range(2))
    Q = PartialOrder((1, 2, 3, 4, 5))
    assert engine_log_probs(cld(banks, m), [Q])[0] + math.log(m) == pytest.approx(
        pl_log_probs([Q], banks[1].delta)[0]
    )


def test_stratified_equal_banks_match_unstratified():
    rng = np.random.default_rng(7)
    bank = PLParams(rng.normal(size=3))
    space = enumerate_partial_orders(3)
    np.testing.assert_allclose(
        engine_log_probs(cld((bank, bank, bank), 3), space) + math.log(3),
        pl_log_probs(space, bank.delta),
        atol=1e-12,
    )
