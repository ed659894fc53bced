import math
import re

import numpy as np
import pytest

from topkorders import (
    ALL_VARIANTS,
    AugmentedModel,
    CovariateTensor,
    Dataset,
    NonFiniteLossError,
    PartialOrder,
    StratifiedAugmentedParams,
    Universe,
    build_eval_report,
    demand_shares,
    emit_plot_data,
    length_pmf,
    length_stats,
    nll,
    parse_preflib,
    replicate_sample,
    tv_distance,
)
from topkorders import test_nll as held_out_nll
from topkorders.estimation import ParamLayout, record_log_probs
from util import empirical_pmf, enum_pmf, oracle_log_prob, random_model, random_orders


def toy_dataset():
    u = Universe(3)
    return Dataset(
        u,
        (
            PartialOrder((1,)),
            PartialOrder((1, 2)),
            PartialOrder((2, 1, 3)),
            PartialOrder((3,)),
        ),
    )


def test_test_nll_uniform_model():
    # uniform c-i: P(Q) = (1/3) / (number of length-k prefixes)
    model = random_model("c-i", 3, np.random.default_rng(0), scale=0.0)
    D = toy_dataset()
    # lengths 1,2,3 have 3, 6, 6 orders each
    expected = -(
        math.log(1 / 9) + math.log(1 / 18) + math.log(1 / 18) + math.log(1 / 9)
    ) / 4
    assert held_out_nll(model, D).nll == pytest.approx(expected)
    assert float(held_out_nll(model, D)) == pytest.approx(expected)


def test_test_nll_counts_infinite_records():
    model = random_model("c-i", 3, np.random.default_rng(1))
    model.length_params.logits[0] = -np.inf
    D = toy_dataset()
    r = held_out_nll(model, D)
    assert r.nll == float("inf")
    assert r.n_infinite == 2  # the two length-1 records


def test_test_nll_condition_nonempty():
    model = random_model("a", 3, np.random.default_rng(2))
    D = toy_dataset()
    raw = held_out_nll(model, D).nll
    cond = held_out_nll(model, D, condition_nonempty=True).nll
    shift = math.log1p(-math.exp(oracle_log_prob(model, PartialOrder(()))))
    assert cond == pytest.approx(raw + shift)
    assert cond < raw  # conditioning can only raise each record's probability


def _model_and_data(variant, d, rng, m=4, n=60, K=3):
    layout = ParamLayout(variant, m, d, K if variant in ("c-ld", "a-s") else 1)
    model = layout.to_model(rng.normal(size=layout.size), Universe(m))
    augmented = variant.startswith("a")
    orders = random_orders(m, n, rng, min_len=0 if augmented else 1)
    cov = CovariateTensor(rng.normal(size=(n, m, d))) if d else None
    return model, Dataset(Universe(m), orders, covariates=cov, allow_empty=augmented)


def _per_record_log_probs(model, D, condition_nonempty=False):
    out = []
    for i, q in enumerate(D.orders):
        x_row = D.covariates.values[i] if D.covariates is not None else None
        lp = oracle_log_prob(model, q, x_row)
        if condition_nonempty and isinstance(model, AugmentedModel):
            lp -= math.log1p(-math.exp(oracle_log_prob(model, PartialOrder(()), x_row)))
        out.append(lp)
    return np.array(out)


@pytest.mark.parametrize("condition_nonempty", [False, True])
@pytest.mark.parametrize(
    "variant,d", [(v, d) for v in ALL_VARIANTS for d in (0, 2) if (v, d) != ("c-ci", 0)]
)
def test_test_nll_and_nll_match_per_record_sum(variant, d, condition_nonempty, tmp_path):
    """test_nll is the mean over records, on records stored one row each and,
    without covariates, on a parsed file whose lines carry counts and repeat;
    nll is test_nll's score, float for float."""
    rng = np.random.default_rng(40)
    model, D = _model_and_data(variant, d, rng)
    inputs = [D]
    if not d:
        counts = rng.integers(1, 4, D.n)
        lines = [f"{c}: {','.join(map(str, q.items))}\n"
                 for q, c in zip(D.orders, counts) if len(q)]
        path = tmp_path / "counted.soi"
        path.write_text(f"# NUMBER ALTERNATIVES: {D.m}\n" + "".join(ln * 2 for ln in lines))
        parsed = parse_preflib(path)
        assert parsed.rows()[2].size == 2 * len(lines) and parsed.rows()[2].max() > 1
        inputs.append(parsed)
    for D in inputs:
        ref = -_per_record_log_probs(model, D, condition_nonempty).sum() / D.n
        assert held_out_nll(model, D, condition_nonempty).nll == pytest.approx(ref, abs=1e-9)
        if not condition_nonempty:
            assert nll(D, model) == held_out_nll(model, D).nll


@pytest.mark.parametrize("condition_nonempty", [False, True])
@pytest.mark.parametrize(
    "variant,d", [(v, d) for v in ALL_VARIANTS for d in (0, 2) if (v, d) != ("c-ci", 0)]
)
def test_test_nll_weights_each_row_by_its_count(variant, d, condition_nonempty):
    """test_nll scores each stored row once, times its count: within 1e-12
    of the mean of record_log_probs over the records, and equal, float for
    float, to the score of the same records stored one row each."""
    rng = np.random.default_rng(42)
    model, D = _model_and_data(variant, d, rng)
    if not d:  # a dataset with covariates holds one row per record
        items, lengths = D.to_padded()
        D = Dataset.from_padded(D.universe, items, lengths, allow_empty=D.allow_empty,
                                counts=rng.integers(0, 1_000, D.n))
    unit = Dataset.from_padded(D.universe, *D.to_padded(), D.covariates, D.allow_empty)
    ref = -record_log_probs(model, D, condition_nonempty).sum() / D.n
    score = held_out_nll(model, D, condition_nonempty)
    assert score.n_infinite == 0
    assert score.nll == pytest.approx(ref, rel=1e-12, abs=0)
    assert held_out_nll(model, unit, condition_nonempty) == score


def test_test_nll_counts_the_records_of_infinite_rows():
    model = random_model("c-i", 3, np.random.default_rng(1))
    model.length_params.logits[0] = -np.inf
    items, lengths = toy_dataset().to_padded()
    D = Dataset.from_padded(Universe(3), items, lengths, counts=np.array([5, 2, 1, 7]))
    r = held_out_nll(model, D)
    assert (r.nll, r.n_infinite) == (float("inf"), 12)  # the records of length 1


@pytest.mark.parametrize("variant", ["c-i", "a", "a-pd"])
def test_infinite_records_counted_and_first_one_named(variant):
    rng = np.random.default_rng(41)
    model, D = _model_and_data(variant, 0, rng)
    # longest first, so the first row is a full list, possible under each model
    # below; stored with counts, so record i is not row i
    items, lengths = D.to_padded()
    rows = np.argsort(-lengths, kind="stable")
    D = Dataset.from_padded(D.universe, items[rows], lengths[rows], allow_empty=D.allow_empty,
                            counts=rng.integers(2, 4, D.n))
    if variant == "c-i":
        model.length_params.logits[1] = -np.inf  # no list of length 2
    elif variant == "a":
        model.params.theta[-1] = -np.inf  # END is never chosen
    else:
        model.params.gamma[2] = -np.inf  # no list of length 2
    lp = _per_record_log_probs(model, D)
    bad = np.flatnonzero(~np.isfinite(lp))
    assert 0 < bad.size < D.n
    r = held_out_nll(model, D)
    assert (r.nll, r.n_infinite) == (float("inf"), bad.size)
    i = int(bad[0])
    assert i >= D.rows()[2][0]  # past the first stored row
    msg = re.escape(f"record {i} ({list(D.orders[i].items)}) has non-finite")
    with pytest.raises(NonFiniteLossError, match=msg):
        nll(D, model)


def test_replicate_sample_seeding():
    model = random_model("a", 3, np.random.default_rng(3))
    reps = replicate_sample(model, 50, 3, seed=9)
    again = replicate_sample(model, 50, 3, seed=9)
    assert len(reps) == 3
    for a, b in zip(reps, again):
        assert a.orders == b.orders
    # distinct replicates differ with overwhelming probability
    assert reps[0].orders != reps[1].orders
    other = replicate_sample(model, 50, 1, seed=10)
    assert other[0].orders != reps[0].orders


def test_length_stats_values():
    u = Universe(3)
    r1 = Dataset(u, (PartialOrder((1,)), PartialOrder((1, 2, 3))))  # lengths 1,3
    r2 = Dataset(u, (PartialOrder((2, 1)), PartialOrder((3, 1))))  # lengths 2,2
    ls = length_stats([r1, r2], toy_dataset())
    assert ls.per_replicate_mean == (2.0, 2.0)
    assert ls.mean_of_means == 2.0
    assert ls.std_of_means == 0.0
    assert ls.per_replicate_std == (1.0, 0.0)
    assert ls.true_mean == pytest.approx(7 / 4)


def test_demand_shares_toy():
    dm = demand_shares(toy_dataset())
    # first positions: 1,1,2,3 over 4 records
    assert dm.first_position == (0.5, 0.25, 0.25)
    # listed entries: 1 x4? -> items: (1),(1,2),(2,1,3),(3) = 1,1,2,2,1,3,3
    assert dm.overall == pytest.approx((3 / 7, 2 / 7, 2 / 7))
    assert dm.empty_share == 0.0


def test_demand_shares_pools_replicates_and_counts_empties():
    u = Universe(2)
    a = Dataset(u, (PartialOrder(()), PartialOrder((1,))), allow_empty=True)
    b = Dataset(u, (PartialOrder((2, 1)),), allow_empty=True)
    dm = demand_shares([a, b])
    assert dm.empty_share == pytest.approx(1 / 3)
    assert dm.first_position == pytest.approx((1 / 3, 1 / 3))
    assert dm.overall == pytest.approx((2 / 3, 1 / 3))


def test_tv_distance():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        tv_distance([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        tv_distance([0.7, 0.7], [0.5, 0.5])


def test_length_pmf():
    pmf = length_pmf(toy_dataset(), 3)
    assert pmf == pytest.approx([0.5, 0.25, 0.25])


def test_build_eval_report_and_emit(tmp_path):
    model = random_model("c-i", 3, np.random.default_rng(4))
    D = toy_dataset()
    rep = build_eval_report("c-i", model, D, n_per_replicate=100, n_replicates=5, seed=1)
    assert rep.model_tag == "c-i"
    assert rep.lengths is not None
    assert rep.tv_length is not None and 0 <= rep.tv_length <= 1
    bare = build_eval_report("c-i", model, D)
    assert bare.lengths is None

    paths = emit_plot_data([rep, bare], tmp_path)
    assert len(paths) == 3
    nll_lines = (tmp_path / "nll_by_model.tsv").read_text().strip().split("\n")
    assert nll_lines[0] == "model\ttest_nll\tn_infinite"
    assert len(nll_lines) == 3
    # bare report contributes no length-stat row
    ls_lines = (tmp_path / "length_stats_by_model.tsv").read_text().strip().split("\n")
    assert len(ls_lines) == 2
    demand = (tmp_path / "demand_by_alternative.tsv").read_text()
    assert "\ttrue\t" in demand and "\tsynthetic\t" in demand


def test_eval_report_reduces_each_replicate_as_the_list_functions_do():
    """build_eval_report keeps one replicate at a time; its statistics are
    those of the list functions over every replicate, float for float, on a
    held-out set stored as count-weighted lines."""
    model = random_model("a-s", 4, np.random.default_rng(12), K=2)
    lists = [PartialOrder(q) for q in [(1, 2), (3,), (4, 1, 2), (2,), (1, 3, 4, 2)]]
    base = Dataset(Universe(4), lists)
    items, lengths = base.to_padded()
    D = Dataset.from_padded(base.universe, items, lengths, counts=np.array([3, 1, 4, 0, 2]))
    rep = build_eval_report("a-s", model, D, n_per_replicate=300, n_replicates=3, seed=5)
    reps = replicate_sample(model, 300, 3, 5)
    assert rep.lengths == length_stats(reps, D)
    assert rep.demand_true == demand_shares(D)
    assert rep.demand_synthetic == demand_shares(reps)
    assert rep.tv_length == tv_distance(length_pmf(D, 4), length_pmf(reps, 4))
    per_record = Dataset(D.universe, list(D.orders))
    assert length_stats(reps, per_record) == rep.lengths
    assert demand_shares(per_record) == rep.demand_true
    assert np.array_equal(length_pmf(per_record, 4), length_pmf(D, 4))


def test_emit_plot_data_group_map(tmp_path):
    model = random_model("c-i", 3, np.random.default_rng(5))
    D = toy_dataset()
    rep = build_eval_report("c-i", model, D, n_per_replicate=50, n_replicates=2, seed=2)
    emit_plot_data([rep], tmp_path, group_map={1: "g1", 2: "g1", 3: "g2"})
    rows = (tmp_path / "demand_by_alternative.tsv").read_text().strip().split("\n")[1:]
    groups = {r.split("\t")[2] for r in rows}
    assert groups == {"g1", "g2"}
    # grouped shares still sum to 1 within each (model, source)
    true_first = sum(
        float(r.split("\t")[3]) for r in rows if r.split("\t")[1] == "true"
    )
    assert true_first == pytest.approx(1.0)


def test_emit_floats_roundtrip_exactly(tmp_path):
    model = random_model("c-i", 3, np.random.default_rng(6))
    D = toy_dataset()
    rep = build_eval_report("c-i", model, D)
    emit_plot_data([rep], tmp_path)
    line = (tmp_path / "nll_by_model.tsv").read_text().strip().split("\n")[1]
    assert float(line.split("\t")[1]) == rep.test.nll


def test_report_errors():
    model = random_model("c-i", 3, np.random.default_rng(7))
    with pytest.raises(ValueError):
        held_out_nll(model, Dataset(Universe(3), ()))
    with pytest.raises(ValueError):
        length_stats([], toy_dataset())
    with pytest.raises(ValueError):
        emit_plot_data([], "/tmp/unused")


@pytest.mark.parametrize("variant,no_empty", [("c-ci", False), ("a-s", False), ("a-s", True)])
def test_covariate_sampling_matches_each_agents_pmf(variant, no_empty):
    rng = np.random.default_rng(40)
    m, d, per_agent = 3, 2, 50_000
    if variant == "c-ci":
        model = random_model("c-ci", m, rng, d=d)
    else:
        params = StratifiedAugmentedParams(rng.normal(size=(2, m + 1)), rng.normal(size=(2, d)))
        model = AugmentedModel("a-s", params, Universe(m))
    agents = rng.normal(scale=1.5, size=(2, m, d))
    pmfs = []
    for x_row in agents:
        space, p = enum_pmf(model, x_row)
        if no_empty:  # rejection resampling conditions on k >= 1
            keep = [i for i, q in enumerate(space) if len(q)]
            space, p = [space[i] for i in keep], p[keep] / p[keep].sum()
        pmfs.append((space, p))
    assert 0.5 * np.abs(pmfs[0][1] - pmfs[1][1]).sum() > 0.1  # the agents differ
    cov = CovariateTensor(np.repeat(agents, per_agent, axis=0))
    (D,) = replicate_sample(model, 2 * per_agent, 1, 41, cov, no_empty=no_empty)
    orders = D.orders
    for a, (space, p) in enumerate(pmfs):
        emp = empirical_pmf(orders[a * per_agent : (a + 1) * per_agent], space)
        assert 0.5 * np.abs(emp - p).sum() < 0.02
