import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from topkorders import (
    CovariateTensor,
    Dataset,
    OrderView,
    PartialOrder,
    Universe,
    enumerate_partial_orders,
    extension_count,
    validate_order,
)
from topkorders import orders as orders_module
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
