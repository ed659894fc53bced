import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from topkorders import (
    AugmentedModel,
    AugmentedNaiveParams,
    CovariateTensor,
    PartialOrder,
    PositionDependentParams,
    StratifiedAugmentedParams,
    Universe,
    enumerate_partial_orders,
    model_log_prob,
    sample_augmented_dataset,
    write_dataset,
)
from topkorders import augmented
from util import empirical_pmf, engine_log_probs, enum_pmf, pl_model, random_model


def naive(theta, m=3):
    return AugmentedModel("a", AugmentedNaiveParams(np.asarray(theta)), Universe(m))


def test_naive_uniform_single_item():
    model = naive(np.zeros(4))
    assert model_log_prob(model, PartialOrder((1,))) == pytest.approx(
        math.log(1 / 12)
    )


def test_naive_empty_list():
    model = naive(np.zeros(4))
    assert model_log_prob(model, PartialOrder(())) == pytest.approx(math.log(1 / 4))


def test_naive_end_suppressed_approaches_pl():
    rng = np.random.default_rng(0)
    delta = rng.normal(size=3)
    model = naive(np.concatenate([delta, [-50.0]]))
    Q = PartialOrder((2, 3, 1))
    assert model_log_prob(model, Q) == pytest.approx(
        model_log_prob(pl_model(delta), Q) + math.log(3), abs=1e-9
    )


def test_apd_constant_gamma_reduces_to_naive():
    rng = np.random.default_rng(1)
    m = 4
    theta = rng.normal(size=m)
    c = 0.37
    apd = AugmentedModel(
        "a-pd", PositionDependentParams(theta, np.full(m, c)), Universe(m)
    )
    a = naive(np.concatenate([theta, [c]]), m)
    space = enumerate_partial_orders(m, include_empty=True)
    np.testing.assert_allclose(
        engine_log_probs(apd, space), engine_log_probs(a, space), rtol=0, atol=1e-12
    )


def test_apd_uniform_example():
    m = 3
    apd = AugmentedModel(
        "a-pd", PositionDependentParams(np.zeros(m), np.zeros(m)), Universe(m)
    )
    assert model_log_prob(apd, PartialOrder((1,))) == pytest.approx(
        math.log(1 / 12)
    )


def test_as_single_bank_equals_naive():
    rng = np.random.default_rng(2)
    m = 4
    bank = rng.normal(size=m + 1)
    strat = AugmentedModel(
        "a-s", StratifiedAugmentedParams(bank[None, :]), Universe(m)
    )
    a = naive(bank, m)
    space = enumerate_partial_orders(m, include_empty=True)
    np.testing.assert_allclose(
        engine_log_probs(strat, space), engine_log_probs(a, space), rtol=0, atol=1e-12
    )


def test_as_equal_banks_equal_naive():
    rng = np.random.default_rng(3)
    m = 3
    bank = rng.normal(size=m + 1)
    strat = AugmentedModel(
        "a-s", StratifiedAugmentedParams(np.tile(bank, (3, 1))), Universe(m)
    )
    a = naive(bank, m)
    space = enumerate_partial_orders(m, include_empty=True)
    np.testing.assert_allclose(
        engine_log_probs(strat, space), engine_log_probs(a, space), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("variant", ["a", "a-pd", "a-s"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_normalization_including_empty(variant, m):
    rng = np.random.default_rng(17)
    for _ in range(5):
        model = random_model(variant, m, rng)
        _, p = enum_pmf(model)
        assert abs(p.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("variant", ["a", "a-pd", "a-s"])
def test_shift_invariance(variant):
    rng = np.random.default_rng(4)
    m = 4
    c = 11.5
    model = random_model(variant, m, rng)
    if variant == "a":
        shifted = naive(model.params.theta + c, m)
    elif variant == "a-pd":
        shifted = AugmentedModel(
            "a-pd",
            PositionDependentParams(model.params.theta + c, model.params.gamma + c),
            Universe(m),
        )
    else:
        shifted = AugmentedModel(
            "a-s", StratifiedAugmentedParams(model.params.banks + c), Universe(m)
        )
    space = enumerate_partial_orders(m, include_empty=True)
    np.testing.assert_allclose(
        engine_log_probs(model, space), engine_log_probs(shifted, space), rtol=0, atol=1e-10
    )


def test_end_dominant_yields_empty_lists():
    model = naive(np.array([0.0, 0.0, 0.0, 50.0]))
    D = sample_augmented_dataset(model, 100, np.random.default_rng(0))
    assert all(len(q) == 0 for q in D.orders)


def test_apd_end_unreachable_at_position_one():
    m = 3
    apd = AugmentedModel(
        "a-pd",
        PositionDependentParams(np.zeros(m), np.array([-50.0, 0.0, 0.0])),
        Universe(m),
    )
    orders = list(sample_augmented_dataset(apd, 2000, np.random.default_rng(1)).orders)
    assert all(len(q) >= 1 for q in orders)


@pytest.mark.parametrize("variant", ["a", "a-pd", "a-s"])
def test_sampler_matches_enumeration(variant):
    rng = np.random.default_rng(5)
    model = random_model(variant, 3, rng)
    space, p = enum_pmf(model)
    orders = list(sample_augmented_dataset(model, 50000, np.random.default_rng(6)).orders)
    emp = empirical_pmf(orders, space)
    assert 0.5 * np.abs(emp - p).sum() < 0.02


def test_no_empty_resampling():
    rng = np.random.default_rng(7)
    model = random_model("a", 3, rng)
    D = sample_augmented_dataset(model, 2000, np.random.default_rng(8), no_empty=True)
    assert all(len(q) >= 1 for q in D.orders)
    # conditional distribution matches enumeration restricted to k >= 1
    space, p = enum_pmf(model)
    keep = [i for i, q in enumerate(space) if len(q) >= 1]
    p_cond = p[keep] / p[keep].sum()
    emp = empirical_pmf(D.orders, [space[i] for i in keep])
    assert 0.5 * np.abs(emp - p_cond).sum() < 0.05


def test_empty_list_log_prob_matches_formula():
    # the empty list is END chosen first, from all m items and END at gamma_1
    rng = np.random.default_rng(9)
    model = random_model("a-pd", 3, rng)
    u = np.append(model.params.theta, model.params.gamma[0])
    assert model_log_prob(model, PartialOrder(())) == pytest.approx(
        u[-1] - np.logaddexp.reduce(u)
    )


def test_total_order_has_no_terminal_factor():
    # when k = m the END factor is a forced choice contributing log 1 = 0
    rng = np.random.default_rng(10)
    m = 3
    theta = rng.normal(size=m)
    hi = naive(np.concatenate([theta, [99.0]]), m)
    lo = naive(np.concatenate([theta, [-99.0]]), m)
    q = PartialOrder((3, 1, 2))
    # END utility affects denominators of the item choices but never adds a
    # terminal factor; with END suppressed both should match plain PL
    assert model_log_prob(lo, q) == pytest.approx(
        model_log_prob(pl_model(theta), q) + math.log(m), abs=1e-9
    )
    assert np.isfinite(model_log_prob(hi, q))


def _fixed_as_model():
    banks = np.vstack([np.linspace(0.8, -0.8, 9), np.linspace(0.4, -0.4, 9), np.zeros(9)])
    return AugmentedModel("a-s", StratifiedAugmentedParams(banks), Universe(8))


@pytest.mark.parametrize("block_cells", [None, 9 * 997])
def test_replicate_bytes_pinned(tmp_path, monkeypatch, block_cells):
    """The replicate file of a fixed a-s model, n = 50,000, seed 7, empty
    draws included, as the sampler with full-height temporaries wrote it: the
    draws read the same uniforms, and the blocks of rows change no choice."""
    if block_cells:
        monkeypatch.setattr(augmented, "DRAW_BLOCK_CELLS", block_cells)
    D = sample_augmented_dataset(_fixed_as_model(), 50_000, np.random.default_rng(7))
    p = tmp_path / "rep.txt"
    write_dataset(D, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "26e295ef3e49ebcc52a9b6e1fa8164e7857d07275ab4e20205b7d57c64c14bc2"
    )


def test_sampler_memory_is_bounded_by_its_blocks():
    """200,000 a-s draws over m = 8 items keep the int8 ids (1.6 MB) and
    the int8 lengths, and find each position's drawing rows, those of
    length j - 1, one window of lengths at a time: about 3.4 MB traced.
    Float temporaries of the full height,
    200,000 x 9 x 8 bytes = 14.4 MB each, three of them live at once, would
    pass 40 MB; the blocks of DRAW_BLOCK_CELLS = 2^16 cells hold 0.5 MB
    each."""
    tracemalloc.start()
    try:
        sample_augmented_dataset(_fixed_as_model(), 200_000, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize("block_cells", [None, 9 * 997])
def test_covariate_replicate_bytes_pinned(tmp_path, monkeypatch, block_cells):
    """Per-agent utilities (one bank row per draw): the replicate file of a
    fixed covariate a-s model, n = 20,000, seed 7, empty draws redrawn, as
    the sampler with an available-option mask and one uniform call per
    position wrote it."""
    if block_cells:
        monkeypatch.setattr(augmented, "DRAW_BLOCK_CELLS", block_cells)
    banks = _fixed_as_model().params.banks
    betas = np.array([[0.9, -0.6], [0.5, 0.2], [-0.3, 0.4]])
    model = AugmentedModel("a-s", StratifiedAugmentedParams(banks, betas), Universe(8))
    cov = CovariateTensor(np.random.default_rng(11).standard_normal((20_000, 8, 2)))
    D = sample_augmented_dataset(model, 20_000, np.random.default_rng(7), cov, no_empty=True)
    p = tmp_path / "rep.txt"
    write_dataset(D, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "205674e9a55dc76d99c1a8d1b3193b7d8324936ee31d73ddc27f68ea669fdf46"
    )


def test_covariate_sampler_memory_is_bounded_by_its_blocks():
    """200,000 covariate a-s draws (m = 8, d = 2), empty draws redrawn, keep
    the int8 ids and lengths (1.8 MB) and build each block's utilities from
    its agents' covariate rows: about 4.4 MB traced. Every bank's (n, m)
    utilities, 12.8 MB each, built before the draw held 48.9 MB."""
    banks = _fixed_as_model().params.banks
    betas = np.array([[0.9, -0.6], [0.5, 0.2], [-0.3, 0.4]])
    model = AugmentedModel("a-s", StratifiedAugmentedParams(banks, betas), Universe(8))
    cov = CovariateTensor(np.random.default_rng(11).standard_normal((200_000, 8, 2)))
    tracemalloc.start()
    try:
        sample_augmented_dataset(model, 200_000, np.random.default_rng(7), cov, no_empty=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
