import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from topkorders import (
    CategoricalLengthParams,
    CompositeModel,
    CovariateTensor,
    PLParams,
    PartialOrder,
    PoissonLengthParams,
    StratifiedPLParams,
    Universe,
    model_log_prob,
    sample_composite_dataset,
    write_dataset,
)
from topkorders import composite, lengthdist
from topkorders.lengthdist import poisson_clipped_log_pmf
from util import empirical_pmf, engine_log_probs, enum_pmf, random_model


def uniform_ci(m=3):
    return CompositeModel(
        "c-i",
        CategoricalLengthParams(np.zeros(m)),
        PLParams(np.zeros(m)),
        Universe(m),
    )


def test_ci_uniform_example():
    assert model_log_prob(uniform_ci(), PartialOrder((1, 2))) == pytest.approx(
        math.log(1 / 18)
    )


def test_ci_uniform_normalizes():
    space, p = enum_pmf(uniform_ci())
    assert len(space) == 15
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_ci_degenerate_length_gives_minus_inf():
    m = 3
    model = CompositeModel(
        "c-i",
        CategoricalLengthParams(np.array([-np.inf, -np.inf, 0.0])),
        PLParams(np.zeros(m)),
        Universe(m),
    )
    assert model_log_prob(model, PartialOrder((1,))) == -np.inf
    total_orders = [q for q in enum_pmf(uniform_ci())[0] if len(q) == m]
    assert np.exp(engine_log_probs(model, total_orders)).sum() == pytest.approx(1.0)


def test_cci_zero_params_product():
    m = 3
    model = CompositeModel(
        "c-ci",
        PoissonLengthParams(np.zeros(2), m),
        PLParams(np.zeros(m), np.zeros(2)),
        Universe(m),
    )
    x_row = np.zeros((m, 2))
    expected = poisson_clipped_log_pmf(1.0, m)[0] + math.log(1 / 3)
    assert model_log_prob(model, PartialOrder((1,)), x_row) == pytest.approx(expected)


def test_cci_zero_covariates_reduce_to_plain():
    rng = np.random.default_rng(0)
    m = 3
    delta = rng.normal(size=m)
    model = CompositeModel(
        "c-ci",
        PoissonLengthParams(rng.normal(size=2), m),
        PLParams(delta, rng.normal(size=2)),
        Universe(m),
    )
    x_row = np.zeros((m, 2))
    plain = CompositeModel(
        "c-ci",
        PoissonLengthParams(np.zeros(2), m),
        PLParams(delta, np.zeros(2)),
        Universe(m),
    )
    # with x = 0 the rate is exp(0)=1 regardless of weights, and beta drops out
    assert model_log_prob(model, PartialOrder((2, 1)), x_row) == pytest.approx(
        model_log_prob(plain, PartialOrder((2, 1)), x_row)
    )


def test_cci_normalizes_with_random_covariates():
    rng = np.random.default_rng(1)
    m = 3
    model = CompositeModel(
        "c-ci",
        PoissonLengthParams(rng.normal(size=2), m),
        PLParams(rng.normal(size=m), rng.normal(size=2)),
        Universe(m),
    )
    x_row = rng.normal(size=(m, 2))
    space, _ = enum_pmf(uniform_ci())
    total = np.exp(engine_log_probs(model, space, x_row)).sum()
    assert total == pytest.approx(1.0, abs=1e-9)


def test_cld_single_stratum_equals_ci():
    rng = np.random.default_rng(2)
    m = 3
    logits = rng.normal(size=m)
    delta = rng.normal(size=m)
    cld = CompositeModel(
        "c-ld",
        CategoricalLengthParams(logits),
        StratifiedPLParams((PLParams(delta),)),
        Universe(m),
    )
    ci = CompositeModel(
        "c-i", CategoricalLengthParams(logits), PLParams(delta), Universe(m)
    )
    space, _ = enum_pmf(uniform_ci())
    np.testing.assert_allclose(
        engine_log_probs(cld, space), engine_log_probs(ci, space), rtol=0, atol=1e-12
    )


def test_cld_stratum_isolation():
    rng = np.random.default_rng(3)
    m = 3
    logits = rng.normal(size=m)
    base = rng.normal(size=m)
    cld = CompositeModel(
        "c-ld",
        CategoricalLengthParams(logits),
        StratifiedPLParams((PLParams(base), PLParams(rng.normal(size=m)))),
        Universe(m),
    )
    ci = CompositeModel(
        "c-i", CategoricalLengthParams(logits), PLParams(base), Universe(m)
    )
    singles = [q for q in enum_pmf(uniform_ci())[0] if len(q) == 1]
    np.testing.assert_allclose(engine_log_probs(cld, singles), engine_log_probs(ci, singles))


@pytest.mark.parametrize("variant,m", [("c-i", 4), ("c-ld", 4)])
def test_normalization_random_params(variant, m):
    rng = np.random.default_rng(42)
    for _ in range(5):
        model = random_model(variant, m, rng)
        _, p = enum_pmf(model)
        assert abs(p.sum() - 1.0) < 1e-9


def test_sample_degenerate_length_gives_total_orders():
    m = 3
    model = CompositeModel(
        "c-i",
        CategoricalLengthParams(np.array([-1e3, -1e3, 0.0])),
        PLParams(np.zeros(m)),
        Universe(m),
    )
    D = sample_composite_dataset(model, 200, np.random.default_rng(0))
    assert all(len(q) == m for q in D.orders)


@pytest.mark.parametrize("variant", ["c-i", "c-ld"])
def test_sampler_matches_enumeration(variant):
    rng = np.random.default_rng(5)
    model = random_model(variant, 3, rng)
    space, p = enum_pmf(model)
    D = sample_composite_dataset(model, 50000, np.random.default_rng(6))
    emp = empirical_pmf(D.orders, space)
    assert 0.5 * np.abs(emp - p).sum() < 0.02


def test_cld_length_marginal_is_categorical():
    rng = np.random.default_rng(7)
    model = random_model("c-ld", 3, rng)
    space, p = enum_pmf(model)
    length_marginal = np.zeros(3)
    for q, pr in zip(space, p):
        length_marginal[len(q) - 1] += pr
    from topkorders.lengthdist import categorical_log_pmf

    np.testing.assert_allclose(
        length_marginal, np.exp(categorical_log_pmf(model.length_params)), atol=1e-12
    )


def test_variant_pairing_enforced():
    m = 3
    with pytest.raises(TypeError):
        CompositeModel(
            "c-i",
            PoissonLengthParams(np.zeros(1), m),
            PLParams(np.zeros(m)),
            Universe(m),
        )
    with pytest.raises(ValueError):
        CompositeModel(
            "c-x",
            CategoricalLengthParams(np.zeros(m)),
            PLParams(np.zeros(m)),
            Universe(m),
        )


def test_ci_rejects_covariate_weights():
    m = 3
    with pytest.raises(ValueError, match="c-i takes no covariates"):
        CompositeModel(
            "c-i",
            CategoricalLengthParams(np.zeros(m)),
            PLParams(np.zeros(m), np.zeros(2)),
            Universe(m),
        )


def test_stratified_banks_share_the_covariate_dimension():
    with pytest.raises(ValueError, match="covariate dimension"):
        StratifiedPLParams((PLParams(np.zeros(3)), PLParams(np.zeros(3), np.zeros(2))))


def test_cci_sampling_uses_covariates():
    rng = np.random.default_rng(8)
    m, d, n = 3, 2, 40
    model = random_model("c-ci", m, rng, d=d)
    cov = CovariateTensor(rng.normal(size=(n, m, d)))
    D = sample_composite_dataset(model, n, np.random.default_rng(9), covariates=cov)
    assert D.n == n
    assert all(1 <= len(q) <= m for q in D.orders)


def _fixed_cld_model():
    banks = StratifiedPLParams(tuple(PLParams(np.linspace(s, -s, 8)) for s in (0.8, 0.4, 0.0)))
    return CompositeModel(
        "c-ld", CategoricalLengthParams(np.linspace(0.5, -0.9, 8)), banks, Universe(8)
    )


@pytest.mark.parametrize("block_cells", [None, 8 * 997])
def test_cld_replicate_bytes_pinned(tmp_path, monkeypatch, block_cells):
    """The replicate file of a fixed c-ld K=3 model, n = 50,000, seed 7, as
    the sampler that ranked each stratum in one argsort wrote it: the Gumbel
    keys of consecutive row blocks are the stream of one call."""
    if block_cells:
        monkeypatch.setattr(composite, "DRAW_BLOCK_CELLS", block_cells)
    D = sample_composite_dataset(_fixed_cld_model(), 50_000, np.random.default_rng(7))
    assert D.to_padded()[0].dtype == np.int8
    p = tmp_path / "rep.txt"
    write_dataset(D, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "2b7e66eb72bc46eace5bb555f3f4276cb0d52442512e960ba7917d9750121b6e"
    )


def _fixed_cci_model():
    return CompositeModel(
        "c-ci",
        PoissonLengthParams(np.array([1.2, -0.8]), 8),
        PLParams(np.linspace(0.8, -0.8, 8), np.array([0.9, -0.6])),
        Universe(8),
    )


@pytest.mark.parametrize("block_cells", [None, 8 * 997])
def test_cci_covariate_replicate_bytes_pinned(tmp_path, monkeypatch, block_cells):
    """Per-agent Poisson lengths and utilities: the replicate file of a fixed
    c-ci model, n = 20,000, seed 7, as the sampler that built every agent's
    pmf, cdf and utilities at once wrote it."""
    if block_cells:
        monkeypatch.setattr(composite, "DRAW_BLOCK_CELLS", block_cells)
        monkeypatch.setattr(lengthdist, "DRAW_BLOCK_CELLS", block_cells)
    cov = CovariateTensor(np.random.default_rng(11).standard_normal((20_000, 8, 2)))
    D = sample_composite_dataset(_fixed_cci_model(), 20_000, np.random.default_rng(7), cov)
    p = tmp_path / "rep.txt"
    write_dataset(D, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "4f6877bcb3300db27b290653de6e7b83490946ef02ebd400012a213ab633e85f"
    )


def test_cci_sampler_memory_is_bounded_by_its_blocks():
    """200,000 c-ci draws (m = 8, d = 2) keep the int8 ids and lengths
    (1.8 MB), and build the agents' mean covariates, the Poisson pmf and
    cdf and the utilities one block of rows at a time: about 5.4 MB traced.
    With every agent's mean covariates (3.2 MB) at once it was 6.0 MB, and
    with the (n, m) pmf, cdf and utilities of all agents at once 67.3 MB."""
    cov = CovariateTensor(np.random.default_rng(11).standard_normal((200_000, 8, 2)))
    tracemalloc.start()
    try:
        sample_composite_dataset(_fixed_cci_model(), 200_000, np.random.default_rng(7), cov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert peak < 5.7 * 2**20
