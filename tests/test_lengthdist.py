import math
import tracemalloc

import numpy as np
import pytest

from topkorders import (
    CategoricalLengthParams,
    PartialOrder,
    PoissonLengthParams,
    model_log_prob,
)
from topkorders import lengthdist
from topkorders.lengthdist import (
    _log_factorials,
    _poisson_clipped_terms,
    _poisson_logsf,
    categorical_log_pmf,
    logsumexp,
    poisson_clipped_log_pmf,
    poisson_rate,
    sample_lengths,
)
from util import pl_model


@pytest.fixture(scope="module")
def sp():
    """scipy.special, the test-only oracle for the numpy special functions."""
    return pytest.importorskip("scipy.special")


def assert_matches(got, want, tol=1e-12):
    """Relative error where |want| >= 1, absolute error below that; the
    non-finite entries must be equal."""
    got, want = np.broadcast_arrays(np.asarray(got, float), np.asarray(want, float))
    fin = np.isfinite(want)
    np.testing.assert_array_equal(got[~fin], want[~fin])
    err = np.abs(got[fin] - want[fin]) / np.maximum(np.abs(want[fin]), 1.0)
    assert err.max(initial=0.0) <= tol


def dlogp_dlam(k, lam, m):
    """d/dlambda of the clipped log pmf at length k, at each rate of lam."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    return _poisson_clipped_terms(np.full(lam.shape, k), lam, m)[1]


def oracle_rates(k):
    """Rates from 1e-8 to 1e3, the integers, and rates at and either side of
    k + 1, where _poisson_logsf switches from the series to the CDF."""
    edge = [np.nextafter(k + 1.0, 0), k + 1.0, np.nextafter(k + 1.0, np.inf)]
    near = (k + 1.0) * np.array([1 - 1e-9, 1 + 1e-9])
    return np.concatenate([np.geomspace(1e-8, 1e3), np.arange(1.0, 101.0), edge, near])


def test_categorical_uniform():
    p = CategoricalLengthParams(np.zeros(3))
    assert categorical_log_pmf(p)[1] == pytest.approx(math.log(1 / 3))


def test_categorical_peaked():
    p = CategoricalLengthParams(np.array([10.0, 0.0, 0.0]))
    # ln(e^10 / (e^10 + 2)) = -ln(1 + 2 e^-10)
    assert categorical_log_pmf(p)[0] == pytest.approx(-math.log1p(2 * math.exp(-10)))
    assert categorical_log_pmf(p)[0] == pytest.approx(-9.08e-5, rel=1e-2)


def test_categorical_shift_invariance():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=5)
    a = categorical_log_pmf(CategoricalLengthParams(logits))
    b = categorical_log_pmf(CategoricalLengthParams(logits + 3.7))
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_categorical_out_of_range():
    # a composite model gives lengths outside [1, m] no probability
    model = pl_model(np.zeros(3))
    with pytest.raises(ValueError):
        model_log_prob(model, PartialOrder((1, 2, 3, 1)))
    with pytest.raises(ValueError):
        model_log_prob(model, PartialOrder(()))


def test_poisson_clipped_boundary_values():
    p = PoissonLengthParams(np.zeros(2), 10)
    logp = poisson_clipped_log_pmf(poisson_rate(np.zeros(2), p), p.m)  # lambda = 1
    assert logp[0] == pytest.approx(math.log(2 / math.e))
    assert logp[1] == pytest.approx(math.log(0.5 / math.e))


def test_poisson_clipped_single_support():
    p = PoissonLengthParams(np.array([2.0]), 1)
    assert poisson_clipped_log_pmf(poisson_rate(np.array([1.3]), p), p.m)[0] == pytest.approx(0.0)


@pytest.mark.parametrize("m", list(range(1, 21)))
def test_normalization_both_families(m):
    rng = np.random.default_rng(m)
    logp = categorical_log_pmf(CategoricalLengthParams(rng.normal(size=m)))
    assert abs(np.exp(logp).sum() - 1.0) < 1e-10
    lam = math.exp(rng.normal())
    logp = poisson_clipped_log_pmf(lam, m)
    assert abs(np.exp(logp).sum() - 1.0) < 1e-10


def test_poisson_dlogp_matches_finite_difference():
    h = 1e-6
    for m in (1, 5, 10):
        for k in range(1, m + 1):
            for lam in (0.3, 1.0, 4.0):
                a = poisson_clipped_log_pmf(lam + h, m)[k - 1]
                b = poisson_clipped_log_pmf(lam - h, m)[k - 1]
                fd = (a - b) / (2 * h)
                assert dlogp_dlam(k, lam, m)[0] == pytest.approx(fd, abs=1e-5)


def test_sample_length_degenerate():
    p = CategoricalLengthParams(np.array([-1e6, 1e6, -1e6]))
    rng = np.random.default_rng(0)
    assert np.all(sample_lengths(p, 50, rng) == 2)


@pytest.mark.parametrize("block_cells", [None, 8 * 997])
def test_sample_lengths_match_one_shared_choice_call(monkeypatch, block_cells):
    """Blocks of rows draw, bit for bit, what rng.choice draws for one shared
    pmf, and a Poisson model what one comparison of all rows with their cdf
    draws, in the ids' type; a block size that divides nothing changes no
    draw."""
    if block_cells:
        monkeypatch.setattr(lengthdist, "DRAW_BLOCK_CELLS", block_cells)
    p = CategoricalLengthParams(np.linspace(0.5, -0.9, 8))
    draws = sample_lengths(p, 50_000, np.random.default_rng(7))
    pmf = np.exp(categorical_log_pmf(p))
    want = np.random.default_rng(7).choice(8, size=50_000, p=pmf / pmf.sum()) + 1
    assert draws.dtype == np.int8 and np.array_equal(draws, want)
    x = np.random.default_rng(8).normal(1.5, 1.0, size=(5_000, 1))
    params = PoissonLengthParams(np.ones(1), 200)
    pmf = np.exp(poisson_clipped_log_pmf(poisson_rate(x, params), 200))
    cdf = np.cumsum(pmf / pmf.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    want = (cdf <= np.random.default_rng(9).random(5_000)[:, None]).sum(axis=1) + 1
    draws = sample_lengths(params, 5_000, np.random.default_rng(9), x)
    assert draws.dtype == np.int16 and np.array_equal(draws, want)


def test_sample_lengths_memory_is_bounded_by_its_blocks():
    """2,000,000 categorical lengths are 1.9 MB of int8; the uniforms and the
    cdf comparison of one block add 0.25 MB. All uniforms at once, and their
    (n, m) comparison with the cdf, would hold 31 MB."""
    p = CategoricalLengthParams(np.linspace(0.5, -0.9, 8))
    tracemalloc.start()
    try:
        sample_lengths(p, 2_000_000, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_sample_length_categorical_tv():
    m = 3
    p = CategoricalLengthParams(np.zeros(m))
    rng = np.random.default_rng(1)
    draws = sample_lengths(p, 20000, rng)
    emp = np.bincount(draws, minlength=m + 1)[1:] / draws.size
    assert 0.5 * np.abs(emp - 1 / 3).sum() < 0.02


def test_sample_length_poisson_tv():
    m = 10
    p = PoissonLengthParams(np.zeros(1), m)
    exact = np.exp(poisson_clipped_log_pmf(1.0, m))
    rng = np.random.default_rng(2)
    draws = sample_lengths(p, 20000, rng, np.zeros((20000, 1)))
    emp = np.bincount(draws, minlength=m + 1)[1:] / draws.size
    assert 0.5 * np.abs(emp - exact).sum() < 0.02


def test_logsumexp_matches_scipy(sp):
    rng = np.random.default_rng(3)
    cases = [np.array([-np.inf]), np.full(4, -np.inf), np.array([np.inf, 1.0]), np.array([2.5])]
    for size in (2, 9, 100):
        for scale in (1.0, 100.0, 1e4):
            a = rng.normal(scale=scale, size=size)
            cases.append(a)
            cases.append(np.where(rng.random(size) < 0.5, -np.inf, a))
    for a in cases:
        assert_matches(logsumexp(a), sp.logsumexp(a))
    assert logsumexp(np.full(3, -np.inf)) == -np.inf


def test_log_factorials_match_gammaln(sp):
    assert_matches(_log_factorials(60), sp.gammaln(np.arange(61) + 1.0))


def test_poisson_logsf_matches_scipy(sp):
    for m in range(2, 61):
        lam = oracle_rates(m - 1)
        with np.errstate(divide="ignore"):
            want = np.log(sp.pdtrc(m - 1, lam))
        fin = np.isfinite(want)
        assert fin[lam >= 1e-3].all()
        assert_matches(_poisson_logsf(m - 1, lam)[fin], want[fin])


def test_poisson_clipped_terms_match_scipy_formulas(sp):
    """The log pmf and the top length's derivative against the scipy.special
    formulas they replace, wherever the scipy tail is finite."""
    for m in range(2, 61):
        lam = oracle_rates(m - 1)
        ks = np.arange(1, m + 1)
        with np.errstate(divide="ignore"):
            logsf = np.log(sp.pdtrc(m - 1, lam))
        want = ks * np.log(lam[:, None]) - lam[:, None] - sp.gammaln(ks + 1)
        want[:, 0] = np.logaddexp(-lam, want[:, 0])
        want[:, -1] = logsf
        fin = np.isfinite(logsf)
        assert_matches(poisson_clipped_log_pmf(lam, m)[fin], want[fin])
        upper = np.exp(sp.xlogy(m - 1, lam) - sp.gammaln(m) - lam - logsf)
        assert_matches(dlogp_dlam(m, lam, m)[fin], upper[fin])


@pytest.mark.parametrize("m", [2, 8, 30, 60])
def test_poisson_top_length_finite_at_small_rates(m):
    """P(X >= m) underflows at small rates; its log and derivative do not."""
    lam = np.geomspace(1e-15, 0.5, 12)
    logp = poisson_clipped_log_pmf(lam, m)[:, -1]
    js = np.arange(m, m + 80)
    log_pmf = js * np.log(lam[:, None]) - lam[:, None] - [math.lgamma(j + 1) for j in js]
    assert np.isfinite(logp).all()
    assert_matches(logp, np.logaddexp.reduce(log_pmf, axis=1))
    h = 1e-5 * lam
    up, down = (poisson_clipped_log_pmf(lam + s, m)[:, -1] for s in (h, -h))
    fd = (up - down) / (2 * h)
    d = dlogp_dlam(m, lam, m)
    assert np.isfinite(d).all()
    np.testing.assert_allclose(d, fd, rtol=1e-6)
