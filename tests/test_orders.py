import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from topkorders import (
    ALL_VARIANTS,
    AugmentedModel,
    CovariateTensor,
    Dataset,
    FitConfig,
    OrderView,
    PartialOrder,
    StratifiedAugmentedParams,
    Universe,
    dataset_hash,
    demand_shares,
    enumerate_partial_orders,
    extension_count,
    length_pmf,
    length_stats,
    summary_stats,
    validate_order,
    write_dataset,
)
from topkorders import test_nll as held_out_nll
from topkorders import augmented, composite, lengthdist
from topkorders import orders as orders_module
from topkorders.estimation import ParamLayout, _FitData, objective_and_grad, record_log_probs
from topkorders.evaluation import draw_replicate
from topkorders.events import event_table
from topkorders.orders import InvalidOrderError, num_partial_orders


def test_extension_count_examples():
    assert extension_count(1, 3) == 2
    assert extension_count(5, 5) == 1
    assert extension_count(2, 5) == 6


def test_extension_count_domain_error():
    with pytest.raises(ValueError):
        extension_count(4, 3)


@pytest.mark.parametrize("m,total", [(1, 1), (3, 15), (4, 64)])
def test_enumeration_counts(m, total):
    space = enumerate_partial_orders(m)
    assert len(space) == total
    assert len(set(q.items for q in space)) == total


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_enumeration_matches_formula(m):
    expected = sum(
        math.factorial(m) // math.factorial(m - i) for i in range(1, m + 1)
    )
    assert len(enumerate_partial_orders(m)) == expected
    assert num_partial_orders(m) == expected


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_partial_orders(7)
    assert len(enumerate_partial_orders(7, cap=7)) == num_partial_orders(7)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_extension_count_agrees_with_filtering(m):
    rng = np.random.default_rng(m)
    totals = [q for q in enumerate_partial_orders(m) if len(q) == m]
    for k in range(1, m + 1):
        prefix = tuple(int(a) + 1 for a in rng.permutation(m)[:k])
        matches = [r for r in totals if r.items[:k] == prefix]
        assert len(matches) == extension_count(k, m)


def test_validate_order():
    u = Universe(3)
    validate_order(PartialOrder((1, 2)), u)
    with pytest.raises(InvalidOrderError):
        validate_order(PartialOrder((1, 1)), u)
    with pytest.raises(InvalidOrderError):
        validate_order(PartialOrder((4,)), u)
    with pytest.raises(InvalidOrderError):
        validate_order(PartialOrder(()), u)
    validate_order(PartialOrder(()), u, allow_empty=True)


@given(st.integers(min_value=1, max_value=5), st.data())
def test_any_permutation_prefix_is_valid(m, data):
    u = Universe(m)
    perm = data.draw(st.permutations(list(range(1, m + 1))))
    k = data.draw(st.integers(min_value=1, max_value=m))
    validate_order(PartialOrder(tuple(perm[:k])), u)


def test_universe_invariants():
    with pytest.raises(ValueError):
        Universe(0)
    with pytest.raises(ValueError):
        Universe(2, labels=("a",))
    assert Universe(2, labels=("a", "b")).label(2) == "b"


def test_dataset_validation_and_padding():
    u = Universe(3)
    D = Dataset(u, (PartialOrder((1,)), PartialOrder((3, 2))))
    items, lengths = D.to_padded()
    assert lengths.tolist() == [1, 2]
    assert items.tolist() == [[0, -1], [2, 1]]
    with pytest.raises(InvalidOrderError):
        Dataset(u, (PartialOrder(()),))


@pytest.mark.parametrize("bad", [(), (1, 1), (4,), (0,), (1, 2, 3, 1)])
def test_dataset_names_first_bad_record_as_validate_order_does(bad):
    u = Universe(3)
    with pytest.raises(InvalidOrderError) as want:
        validate_order(PartialOrder(bad), u)
    orders = (PartialOrder((1, 2)), PartialOrder(bad), PartialOrder((5,)))
    with pytest.raises(InvalidOrderError, match=re.escape(str(want.value))):
        Dataset(u, orders)


def test_from_padded_round_trip():
    u = Universe(3)
    D = Dataset(u, (PartialOrder((1,)), PartialOrder((3, 2))))
    items, lengths = D.to_padded()
    assert not items.flags.writeable and not lengths.flags.writeable
    wide = Dataset.from_padded(u, np.hstack([items, [[-1], [-1]]]), lengths)
    assert wide.orders == D.orders
    assert wide.to_padded()[0].shape == (2, 2)
    with pytest.raises(ValueError, match="padding"):
        Dataset.from_padded(u, np.array([[0, 1]]), np.array([1]))


def test_from_padded_counts():
    """Rows stand for their counts of records; count-0 rows are checked,
    then dropped; all-ones counts are stored as none."""
    u = Universe(3)
    items, lengths = np.array([[0, 2, -1], [1, 0, 2], [2, -1, -1]]), np.array([2, 0, 1])
    items[1] = -1
    with pytest.raises(InvalidOrderError, match="empty order"):
        Dataset.from_padded(u, items, lengths, counts=np.array([2, 0, 3]))
    items, lengths = np.array([[0, 2, -1], [1, 0, 2], [2, -1, -1]]), np.array([2, 3, 1])
    D = Dataset.from_padded(u, items, lengths, counts=np.array([2, 0, 3]))
    assert D.n == 5 and D.rows()[0].shape == (2, 2) and D.rows()[2].tolist() == [2, 3]
    assert [q.items for q in D.orders] == [(1, 3)] * 2 + [(3,)] * 3
    assert D.per_record(np.array([0.5, 1.5])).tolist() == [0.5, 0.5, 1.5, 1.5, 1.5]
    assert not D.lengths().flags.writeable and not D.rows()[2].flags.writeable
    unit = Dataset.from_padded(u, items, lengths, counts=np.array([1, 0, 1]))
    assert unit._counts is None and unit.n == 2
    for bad in (np.array([1, -1, 1]), np.array([1.0, 1.0, 1.0]), np.array([1, 1])):
        with pytest.raises(ValueError, match="counts"):
            Dataset.from_padded(u, items, lengths, counts=bad)
    cov = CovariateTensor(np.zeros((2, 3, 1)))
    with pytest.raises(ValueError, match="one row per record"):
        Dataset.from_padded(u, items[:2], lengths[:2], cov, counts=np.array([1, 2]))


def test_order_view_is_a_lazy_sequence():
    u = Universe(4)
    orders = tuple(PartialOrder(q) for q in ((1, 2), (4,), (3, 1, 2, 4), (2,)))
    D = Dataset(u, orders)
    view = D.orders
    assert isinstance(view, OrderView) and len(view) == 4
    assert view[0] == orders[0] and view[-1] == orders[-1] and view[2] == orders[2]
    with pytest.raises(IndexError):
        view[4]
    assert list(view) == list(orders) and tuple(view) == orders
    assert list(reversed(view)) == list(reversed(orders))
    assert PartialOrder((4,)) in view and PartialOrder((4, 1)) not in view
    part = view[1:3]
    assert isinstance(part, OrderView) and part == orders[1:3] and len(view[::2]) == 2
    assert view[::-1] == orders[::-1]
    assert view == orders and orders == view and view == list(orders)
    assert view != orders[:3] and view != orders[::-1] and view != "abcd" and view != 4
    # views of the same orders stored at different widths are equal
    assert Dataset(u, orders[1:2] + orders[3:]).orders == view[1::2]
    assert view[:2] != view[2:]
    with pytest.raises(TypeError):
        hash(view)


def test_dataset_from_view_keeps_the_orders():
    u = Universe(3)
    D = Dataset(u, (PartialOrder((1, 3)), PartialOrder((2,))))
    for source in (D.orders, D, D.orders[::-1]):
        E = Dataset(u, source)
        assert E.orders == tuple(source.orders if source is D else source)
    with pytest.raises(InvalidOrderError):
        Dataset(Universe(2), D.orders)


def test_dataset_of_a_checked_dataset_skips_the_row_check(monkeypatch):
    """A Dataset over the same universe object, checked under an allow_empty
    no looser than the new one, is not checked again; another universe, or
    allow_empty going from True to False, still runs the check, which still
    rejects an empty row. Covariates are always checked."""
    u = Universe(3)
    D = Dataset(u, (PartialOrder((1, 3)), PartialOrder((2,))))
    E = Dataset(u, (PartialOrder(()), PartialOrder((2, 1))), allow_empty=True)
    calls = []
    check = orders_module._validate_rows
    monkeypatch.setattr(orders_module, "_validate_rows", lambda *a: calls.append(1) or check(*a))
    cov = CovariateTensor(np.zeros((2, 3, 1)))
    assert Dataset(u, D, covariates=cov).orders == D.orders
    assert Dataset(u, D, allow_empty=True).orders == D.orders
    assert Dataset(u, E, allow_empty=True).orders == E.orders
    assert calls == []
    with pytest.raises(ValueError, match="covariate rows"):
        Dataset(u, D, covariates=CovariateTensor(np.zeros((3, 3, 1))))
    assert calls == []
    Dataset(Universe(3), D)
    assert len(calls) == 1
    with pytest.raises(InvalidOrderError, match="empty order"):
        Dataset(u, E)
    assert len(calls) == 2


@pytest.mark.parametrize("m,ids", [(3, np.int8), (127, np.int8), (128, np.int16)])
def test_lengths_are_stored_in_the_ids_type(m, ids):
    """Lengths of any integer type, or a list, are stored in the ids' type,
    after the row check has read them in their own: lengths of m + 1 and of
    256, which an int8 would wrap to 0, are both rejected."""
    u = Universe(m)
    items = np.full((3, m), -1)
    items[:, 0] = 0
    items[1] = np.arange(m)
    for lengths in ([1, m, 1], np.array([1, m, 1], np.uint8), np.array([1, m, 1], np.int64)):
        D = Dataset.from_padded(u, items, lengths)
        assert D.rows()[1].dtype == D.lengths().dtype == D.to_padded()[1].dtype == ids
        assert D.lengths().tolist() == [1, m, 1]
    assert Dataset(u, ()).rows()[1].dtype == ids
    for k in (m + 1, 256):
        wide = np.hstack([items, np.full((3, k - m), -1)])
        wide[1, :k] = np.arange(k) % m
        with pytest.raises(InvalidOrderError, match="exceeds universe size"):
            Dataset.from_padded(u, wide, np.array([1, k, 1]))


def _int64_lengths(D):
    """D with its stored lengths widened to int64, as the reference."""
    R = Dataset.__new__(Dataset)
    R.__dict__.update(D.__dict__)
    R._lengths = orders_module._read_only(D._lengths.astype(np.int64))
    return R


def _prefix_rows(m, rng):
    """Prefixes of three random orders of the m items, of lengths 1, 2,
    m // 2, m - 2, m - 1 and m, each row standing for 50 to 149 records, so
    that prefix sets repeat and the event table is built."""
    lengths = np.tile([1, 2, m // 2, m - 2, m - 1, m], 3)
    orders = np.repeat([rng.permutation(m) for _ in range(3)], 6, axis=0)
    items = np.where(np.arange(m) < lengths[:, None], orders, -1)
    return Dataset.from_padded(Universe(m), items, lengths, counts=rng.integers(50, 150, 18))


@pytest.mark.parametrize("m", [127, 128])
def test_small_lengths_match_int64_lengths(m, tmp_path):
    """At m = 127 the lengths are int8, and m + 1 does not fit; at m = 128
    they are int16. The event table, the objective and gradient by table and
    by row kernels, the records' log-probabilities, the held-out NLL, the
    summary, the ballot text and the data hash equal those of the same rows
    with int64 lengths."""
    rng = np.random.default_rng(m)
    D = _prefix_rows(m, rng)
    R = _int64_lengths(D)
    assert D.rows()[1].dtype != np.int64 and D.rows()[1].max() == m
    assert summary_stats(D) == summary_stats(R)
    assert dataset_hash(D) == dataset_hash(R)
    write_dataset(D, tmp_path / "small.txt")
    write_dataset(R, tmp_path / "wide.txt")
    assert (tmp_path / "small.txt").read_bytes() == (tmp_path / "wide.txt").read_bytes()
    for variant, K in (("a", 1), ("a-s", 3), ("c-ld", 3)):
        layout = ParamLayout(variant, m, 0, K)
        cfg = FitConfig(K=K, lambda_l2=1e-3)
        flat = rng.uniform(-1.0, 1.0, layout.size)
        small, wide = _FitData(D), _FitData(R)
        F, g = objective_and_grad(variant, small, layout, flat, cfg)
        F_wide, g_wide = objective_and_grad(variant, wide, layout, flat, cfg)
        assert F == F_wide and np.array_equal(g, g_wide)
        small.events, wide.events = event_table(small, layout), event_table(wide, layout)
        assert small.events is not None
        for a, b in zip(vars(small.events).values(), vars(wide.events).values()):
            assert np.array_equal(a, b)
        F, g = objective_and_grad(variant, small, layout, flat, cfg)
        F_wide, g_wide = objective_and_grad(variant, wide, layout, flat, cfg)
        assert F == F_wide and np.array_equal(g, g_wide)
        model = layout.to_model(flat, D.universe)
        assert np.array_equal(record_log_probs(model, D), record_log_probs(model, R))
        assert held_out_nll(model, D) == held_out_nll(model, R)


@pytest.mark.parametrize("m", [127, 128])
def test_small_length_replicate_matches_int64_lengths(m, tmp_path):
    """A 1,000-draw a-s replicate whose END utility is low, so that most lists
    run to m items, gives the replicate statistics, the summary, the ballot
    text and the log-probabilities of the same draws with int64 lengths."""
    banks = np.zeros((3, m + 1))
    banks[:, :m] = np.linspace(1.0, -1.0, m)
    banks[:, m] = [-2.0, -6.0, -9.0]
    model = AugmentedModel("a-s", StratifiedAugmentedParams(banks), Universe(m))
    D = draw_replicate(model, 1_000, 7, 0, no_empty=True)
    R = _int64_lengths(D)
    assert D.lengths().max() == m and D.lengths().min() >= 1
    assert length_stats([D], D) == length_stats([R], R)
    assert demand_shares(D) == demand_shares(R)
    assert np.array_equal(length_pmf(D, m), length_pmf(R, m))
    assert summary_stats(D) == summary_stats(R)
    write_dataset(D, tmp_path / "small.txt")
    write_dataset(R, tmp_path / "wide.txt")
    assert (tmp_path / "small.txt").read_bytes() == (tmp_path / "wide.txt").read_bytes()
    assert np.array_equal(record_log_probs(model, D), record_log_probs(model, R))
    assert held_out_nll(model, D, True) == held_out_nll(model, R, True)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(variant=st.sampled_from(ALL_VARIANTS), m=st.integers(1, 9), n=st.integers(0, 300),
       d=st.sampled_from([0, 2]), no_empty=st.booleans(), block_cells=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
def test_sampler_rows_pass_the_row_check(monkeypatch, variant, m, n, d, no_empty,
                                         block_cells, seed):
    """Both samplers build their datasets without the row check, whose rows
    are valid by construction: every row they draw, at any block size, with
    or without covariates and ``no_empty``, passes it, and no column runs
    past the longest list."""
    for module in (augmented, composite, lengthdist):
        monkeypatch.setattr(module, "DRAW_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(seed)
    d = 2 if variant == "c-ci" else d
    layout = ParamLayout(variant, m, d, 3 if variant in ("c-ld", "a-s") else 1)
    # unit-scale utilities: ``no_empty`` redraws empty lists, which takes long
    # when an END utility far above the items' makes nearly every draw empty
    model = layout.to_model(rng.normal(size=layout.size), Universe(m))
    cov = CovariateTensor(rng.normal(size=(n, m, d))) if d else None
    D = draw_replicate(model, n, seed, 0, cov, no_empty)
    items, lengths, _ = D.rows()
    assert D.n == n
    assert D.allow_empty == (variant.startswith("a") and not no_empty)
    assert items.shape[1] == max(int(lengths.max(initial=0)), 1)
    orders_module._validate_rows(items, lengths, D.universe, D.allow_empty)
