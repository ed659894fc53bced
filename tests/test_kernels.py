"""The choice kernel against the per-record oracle, ``util.oracle_log_prob``."""

import ast
import importlib
import math
import types
from fractions import Fraction

import numpy as np
import pytest

import util
from topkorders import (
    ALL_VARIANTS,
    AugmentedModel,
    CategoricalLengthParams,
    CompositeModel,
    Dataset,
    PartialOrder,
    PLParams,
    PositionDependentParams,
    StratifiedAugmentedParams,
    Universe,
)
from topkorders import test_nll as held_out_nll
from topkorders.estimation import ParamLayout, _bank_event_counts
from topkorders.kernels import Rows, choice_nll_grad, exact_dot
from util import engine_log_probs, model_space, oracle_log_prob, pl_model, random_orders


def oracle_pl(q, delta):
    """log PL(q) by the oracle: a pl_model's log-probability plus log m."""
    return oracle_log_prob(pl_model(delta), q) + math.log(len(delta))


def sorted_rows(m, orders, weights):
    """The orders sorted by length, as the kernel takes them, their weights
    in that order, and their Rows."""
    order = np.argsort([len(q) for q in orders], kind="stable")
    orders, weights = [orders[i] for i in order], weights[order]
    items, lengths = Dataset(Universe(m), orders, allow_empty=True).to_padded()
    return orders, weights, Rows.from_padded(items, lengths, weights, m)


def pl_nll_grad(rows, theta, grad=True):
    """PL log-marginals (n,) under theta (R, m), and the gradient."""
    logp, g, _ = choice_nll_grad(rows, theta, None, grad=grad)
    return logp, g


def augs_nll_grad(rows, items, ends, grad=True):
    """a-s log-probabilities (n,) under item utilities (R, K, m) and END
    utilities (K,), one kernel pass per bank: bank b makes the choices at
    position b, the last bank every choice from K-1 on. Returns the
    gradients w.r.t. both."""
    R, K, m = items.shape
    logp, g_items, g_ends = np.zeros(rows.n), np.zeros(items.shape), np.zeros(K)
    for b in range(K):
        p1 = b + 1 if b < K - 1 else None
        lp, gu, ge = choice_nll_grad(rows, items[:, b], np.full(m, ends[b]), b, p1, grad)
        logp += lp
        if grad:
            g_items[:, b], g_ends[b] = gu, ge.sum()
    return logp, g_items, g_ends


def apd_nll_grad(rows, theta, gamma, grad=True):
    """a-pd log-probabilities (n,) under item utilities theta (R, m) and END
    utilities gamma (m,), with the gradients w.r.t. both."""
    return choice_nll_grad(rows, theta, gamma, grad=grad)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    m, n = 5, 80
    weights = rng.integers(1, 4, size=n).astype(np.float64)
    return (m, *sorted_rows(m, random_orders(m, n, rng), weights))


def _fd(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy().ravel()
        xm = x.copy().ravel()
        xp[i] += h
        xm[i] -= h
        g.ravel()[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * h)
    return g


@pytest.mark.parametrize("impl", [pl_nll_grad], ids=["pl_nll_grad"])
def test_pl_kernel(batch, impl):
    m, orders, weights, rows = batch
    rng = np.random.default_rng(1)
    theta = rng.normal(size=m)
    logp, grad = impl(rows, theta[None])
    ll, grad = weights @ logp, grad[0]
    ref = sum(w * oracle_pl(q, theta) for q, w in zip(orders, weights))
    assert ll == pytest.approx(ref, abs=1e-10)

    def f(t):
        return sum(w * oracle_pl(q, t) for q, w in zip(orders, weights))

    np.testing.assert_allclose(grad, _fd(f, theta), atol=1e-6)


@pytest.mark.parametrize("impl", [augs_nll_grad], ids=["augs_nll_grad"])
@pytest.mark.parametrize("K", [1, 3])
def test_augs_kernel(batch, impl, K):
    m, orders, weights, rows = batch
    rng = np.random.default_rng(2)
    banks = rng.normal(size=(K, m + 1))
    u = Universe(m)

    def model(b):
        return AugmentedModel("a-s", StratifiedAugmentedParams(b), u)

    logp, g_items, g_ends = impl(rows, banks[None, :, :m], banks[:, m])
    ref = sum(w * oracle_log_prob(model(banks), q) for q, w in zip(orders, weights))
    assert weights @ logp == pytest.approx(ref, abs=1e-9)
    grad = np.column_stack([g_items[0], g_ends])
    # event counts: k item choices plus a terminal END unless k = m
    total_events = sum(
        w * (len(q) + (1 if len(q) < m else 0)) for q, w in zip(orders, weights)
    )
    assert _bank_event_counts(rows.lengths, weights, m, K).sum() == pytest.approx(total_events)

    def f(b):
        return sum(w * oracle_log_prob(model(b), q) for q, w in zip(orders, weights))

    np.testing.assert_allclose(grad, _fd(f, banks), atol=1e-5)


@pytest.mark.parametrize("impl", [apd_nll_grad], ids=["apd_nll_grad"])
def test_apd_kernel(batch, impl):
    m, orders, weights, rows = batch
    rng = np.random.default_rng(3)
    theta = rng.normal(size=m)
    gamma = rng.normal(size=m)
    u = Universe(m)

    def model(t, g):
        return AugmentedModel("a-pd", PositionDependentParams(t, g), u)

    logp, gt, gg = impl(rows, theta[None], gamma)
    ll, gt = weights @ logp, gt[0]
    ref = sum(w * oracle_log_prob(model(theta, gamma), q) for q, w in zip(orders, weights))
    assert ll == pytest.approx(ref, abs=1e-9)
    np.testing.assert_allclose(
        gt,
        _fd(lambda t: sum(
            w * oracle_log_prob(model(t, gamma), q) for q, w in zip(orders, weights)
        ), theta),
        atol=1e-5,
    )
    np.testing.assert_allclose(
        gg,
        _fd(lambda g: sum(
            w * oracle_log_prob(model(theta, g), q) for q, w in zip(orders, weights)
        ), gamma),
        atol=1e-5,
    )


def test_empty_orders_supported():
    m = 3
    orders, _, rows = sorted_rows(m, [PartialOrder(()), PartialOrder((1,))], np.ones(2))
    rng = np.random.default_rng(4)
    banks = rng.normal(size=(2, m + 1))
    logp, _, _ = augs_nll_grad(rows, banks[None, :, :m], banks[:, m])
    model = AugmentedModel("a-s", StratifiedAugmentedParams(banks), Universe(m))
    assert logp.sum() == pytest.approx(sum(oracle_log_prob(model, q) for q in orders))


@pytest.mark.parametrize("top", [2, 2**20, 2**40])
def test_exact_dot_rounds_the_exact_sum_once(top):
    """counts . x is the exact sum of the products, rounded once, for counts
    up to 2^40 and values of every sign and magnitude; a split of the same
    records into more rows gives the same float."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=500) * 10.0 ** rng.integers(-8, 8, 500)
    counts = rng.integers(1, top, 500)
    exact = sum(Fraction(int(c)) * Fraction(float(v)) for c, v in zip(counts, x))
    assert exact_dot(counts, x) == float(exact)
    halves = counts // 2
    assert exact_dot(np.concatenate([halves, counts - halves]), np.tile(x, 2)) == float(exact)


def test_rows_unchosen_matches_each_rows_listed_items():
    """Rows.unchosen is 1.0 exactly where an item is not on the row's list,
    over empty rows, rows of length m and every length between."""
    rng = np.random.default_rng(5)
    m = 5
    lengths = np.sort(np.concatenate([[0, 0, m, m], rng.integers(0, m + 1, 30)]))
    items = np.full((lengths.size, m), -1)
    for i, k in enumerate(lengths):
        items[i, :k] = rng.permutation(m)[:k]
    rows = Rows.from_padded(items, lengths, np.ones(lengths.size), m)
    expected = [[0.0 if a in set(items[i, :k]) else 1.0 for a in range(m)]
                for i, k in enumerate(lengths)]
    np.testing.assert_array_equal(rows.unchosen, expected)


def test_per_row_utilities(batch):
    """R = n: row i's log-probability uses item utilities i, and their
    gradient is returned per row; END utilities are shared."""
    m, orders, weights, rows = batch
    n = 12
    orders, weights, rows = orders[-n:], weights[-n:], rows[-n:]
    rng = np.random.default_rng(6)
    u = Universe(m)
    theta = rng.normal(size=(n, m))
    gamma = rng.normal(size=m)
    items, ends = rng.normal(size=(n, 3, m)), rng.normal(size=3)

    def pl(t):
        return [oracle_pl(q, t[i]) for i, q in enumerate(orders)]

    def apd(t):
        return [
            oracle_log_prob(AugmentedModel("a-pd", PositionDependentParams(t[i], gamma), u), q)
            for i, q in enumerate(orders)
        ]

    def augs(x):
        return [
            oracle_log_prob(
                AugmentedModel("a-s", StratifiedAugmentedParams(np.column_stack([x[i], ends])), u),
                q,
            )
            for i, q in enumerate(orders)
        ]

    for ref, x, (logp, g) in (
        (pl, theta, pl_nll_grad(rows, theta)),
        (apd, theta, apd_nll_grad(rows, theta, gamma)[:2]),
        (augs, items, augs_nll_grad(rows, items, ends)[:2]),
    ):
        np.testing.assert_allclose(logp, ref(x), atol=1e-10)
        np.testing.assert_allclose(g, _fd(lambda y: weights @ np.array(ref(y)), x), atol=1e-5)


@pytest.mark.parametrize("spread", [40.0, 200.0])
def test_large_utility_spreads_stay_exact(spread):
    """The remaining mass is summed, not subtracted from the total, so the
    kernel and test_nll keep full precision at any utility spread."""
    rng = np.random.default_rng(7)
    m, n, K = 6, 50, 3
    u = Universe(m)
    orders = random_orders(m, n, rng, min_len=0)
    D = Dataset(u, orders, allow_empty=True)
    ranked, _, rows = sorted_rows(m, orders, np.ones(n))

    def spread_out(shape):
        return spread * (rng.permutation(np.linspace(0.0, 1.0, int(np.prod(shape)))) - 0.5).reshape(shape)

    theta, gamma, banks = spread_out(m), spread_out(m), spread_out((K, m + 1))
    models = {
        "a-pd": AugmentedModel("a-pd", PositionDependentParams(theta, gamma), u),
        "a-s": AugmentedModel("a-s", StratifiedAugmentedParams(banks), u),
    }
    kernel_lp = {
        "a-pd": apd_nll_grad(rows, theta[None], gamma)[0],
        "a-s": augs_nll_grad(rows, banks[None, :, :m], banks[:, m])[0],
    }
    for v, model in models.items():
        ref = np.array([oracle_log_prob(model, q) for q in ranked])
        np.testing.assert_allclose(kernel_lp[v], ref, rtol=0, atol=1e-9)
        assert held_out_nll(model, D).nll == pytest.approx(-ref.mean(), rel=0, abs=1e-9)

    nonempty = [q for q in orders if len(q)]
    ranked, _, rows = sorted_rows(m, nonempty, np.ones(len(nonempty)))
    ref = np.array([oracle_pl(q, theta) for q in ranked])
    lp, _ = pl_nll_grad(rows, theta[None])
    np.testing.assert_allclose(lp, ref, rtol=0, atol=1e-9)
    model = CompositeModel("c-i", CategoricalLengthParams(np.zeros(m)), PLParams(theta), u)
    assert held_out_nll(model, Dataset(u, nonempty)).nll == pytest.approx(
        np.log(m) - ref.mean(), rel=0, abs=1e-9
    )


@pytest.mark.parametrize("per_row", [False, True], ids=["R=1", "R=n"])
@pytest.mark.parametrize("spread", [0.3, 40.0, 200.0])
@pytest.mark.parametrize("kernel,K", [("pl", 1), ("augs", 1), ("augs", 3), ("apd", 1)])
def test_kernel_gradients_exact_at_large_spreads(kernel, K, spread, per_row):
    """Each variant's gradient against central differences of its own
    log-probabilities, which stay exact at any spread, with utilities drawn
    uniformly over ``spread``; R = n perturbs one row's item utilities at a
    time, and END utilities are shared by the rows."""
    rng = np.random.default_rng(8)
    m, n = 8, 40
    aug = kernel != "pl"
    weights = rng.integers(1, 4, size=n).astype(np.float64)
    _, weights, rows = sorted_rows(m, random_orders(m, n, rng, min_len=0 if aug else 1), weights)
    R = n if per_row else 1

    def uniform(*shape):
        return spread * (rng.uniform(size=shape) - 0.5)

    if kernel == "pl":
        params = [uniform(R, m)]

        def run(p, grad=True):
            return pl_nll_grad(rows, *p, grad=grad)
    elif kernel == "augs":
        params = [uniform(R, K, m), uniform(K)]

        def run(p, grad=True):
            return augs_nll_grad(rows, *p, grad=grad)
    else:
        params = [uniform(R, m), uniform(m)]

        def run(p, grad=True):
            return apd_nll_grad(rows, *p, grad=grad)

    grads = run(params)[1:]
    h = 1e-5
    for x, g in zip(params, grads):
        fd = np.zeros(x.size)
        for i in range(x.size):
            saved = x.flat[i]
            x.flat[i] = saved + h
            up = run(params, grad=False)[0]
            x.flat[i] = saved - h
            down = run(params, grad=False)[0]
            x.flat[i] = saved
            fd[i] = weights @ (up - down) / (2 * h)
        np.testing.assert_allclose(g.ravel(), fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())


ENGINE = ("topkorders.kernels", "topkorders.events", "topkorders.estimation")


def _home(path):
    """The module that defines what a dotted path names: the re-export
    ``topkorders.model_log_prob`` is at home in ``topkorders.estimation``."""
    parts = path.split(".")
    module = importlib.import_module(parts[0])
    for i in range(1, len(parts)):
        obj = getattr(module, parts[i], None)
        if obj is None:
            obj = importlib.import_module(".".join(parts[: i + 1]))
        if not isinstance(obj, types.ModuleType):
            return getattr(obj, "__module__", None) or module.__name__
        module = obj
    return module.__name__


def engine_uses(source, func):
    """What function ``func`` of ``source`` takes from the likelihood engine:
    the names and attribute paths it uses, imported at module level or inside
    it, that are at home in kernels, events or estimation, and the other
    functions of its module, through which it could reach the engine."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".")[0]
                bound[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom):
            bound.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    local = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)} - {func}
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == func)
    used = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.ImportFrom):
            used |= {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            used |= {a.name for a in node.names}
        elif isinstance(node, ast.Name) and node.id in local:
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                parts.insert(0, node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in bound:
                used.add(".".join([bound[node.value.id]] + parts))
        elif isinstance(node, ast.Name) and node.id in bound:
            used.add(bound[node.id])
    return sorted(
        path for path in used
        if path in local or path.startswith("topkorders") and _home(path).startswith(ENGINE)
    )


def test_oracle_uses_nothing_of_the_engine():
    with open(util.__file__, encoding="utf-8") as fh:
        assert engine_uses(fh.read(), "oracle_log_prob") == []


def test_engine_use_detector_flags_each_form():
    source = (
        "import numpy as np\n"
        "import topkorders\n"
        "import topkorders.kernels as K\n"
        "from topkorders import PLParams, estimation, model_log_prob\n"
        "from topkorders.events import event_table\n"
        "def helper():\n"
        "    pass\n"
        "def oracle(model):\n"
        "    from topkorders.estimation import _row_terms\n"
        "    K.length_strata, estimation._FitData, model_log_prob, event_table\n"
        "    helper(), topkorders.estimation.record_log_probs\n"
        "    np.zeros(1), PLParams, topkorders.lengthdist.logsumexp, model.params, len\n"
    )
    assert engine_uses(source, "oracle") == [
        "helper",
        "topkorders.estimation",
        "topkorders.estimation._FitData",
        "topkorders.estimation._row_terms",
        "topkorders.estimation.record_log_probs",
        "topkorders.events.event_table",
        "topkorders.kernels",
        "topkorders.kernels.length_strata",
        "topkorders.model_log_prob",
    ]


@pytest.mark.parametrize("spread", [1.0, 40.0, 200.0])
@pytest.mark.parametrize(
    "variant,d",
    [(v, d) for v in ALL_VARIANTS for d in (0, 2) if (v, d) not in (("c-i", 2), ("c-ci", 0))],
)
def test_engine_matches_oracle_on_enumerated_spaces(variant, d, spread):
    """record_log_probs against the oracle over every list of m <= 5 items
    (the empty list included for augmented models), with one random covariate
    slice per list where the variant takes covariates, and parameters drawn
    uniformly over ``spread``."""
    rng = np.random.default_rng(9)
    for m in range(1, 6):
        layout = ParamLayout(variant, m, d, 3 if variant in ("c-ld", "a-s") else 1)
        flat = spread * (rng.uniform(size=layout.size) - 0.5)
        if variant == "c-ci":
            flat[:d] = rng.normal(scale=0.5, size=d)  # Poisson rates of order 1
        model = layout.to_model(flat, Universe(m))
        space = model_space(model)
        X = rng.normal(size=(len(space), m, d)) if d else [None] * len(space)
        got = engine_log_probs(model, space, X if d else None)
        want = [oracle_log_prob(model, q, x) for q, x in zip(space, X)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_record_log_probs_come_back_in_record_order(variant):
    """Records out of length order each get their own log-probability back,
    with covariates where the variant takes them; the c-ld model has more
    strata than the longest list has items, so that some are empty."""
    rng = np.random.default_rng(10)
    m, n = 5, 60
    d = 0 if variant == "c-i" else 2
    K = {"c-ld": m + 2, "a-s": 3}.get(variant, 1)
    layout = ParamLayout(variant, m, d, K)
    flat = rng.uniform(-1.0, 1.0, size=layout.size)
    model = layout.to_model(flat, Universe(m))
    orders = random_orders(m, n, rng, min_len=0 if variant.startswith("a") else 1)
    lengths = np.array([len(q) for q in orders])
    assert np.any(lengths[1:] < lengths[:-1])
    X = rng.normal(size=(n, m, d)) if d else None
    got = engine_log_probs(model, orders, X)
    want = [oracle_log_prob(model, q, None if X is None else X[i]) for i, q in enumerate(orders)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
