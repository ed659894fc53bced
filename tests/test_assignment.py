import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkorders import (
    Dataset,
    Market,
    Matching,
    PartialOrder,
    Universe,
    deferred_acceptance,
    find_blocking_pair,
    make_market,
    outcome_stats,
    uniform_priorities,
)
from util import scan_blocking_pair, scan_deferred_acceptance


def P(*items):
    return PartialOrder(tuple(items))


def identity_priorities(m, n):
    # student s has rank s everywhere: student 0 beats everyone
    return np.tile(np.arange(n), (m, 1))


def test_textbook_example():
    # two seats wanted at program 1, capacity 1; student 0 has priority
    market = Market(
        preferences=(P(1, 2), P(1, 2)),
        capacities=(1, 1),
        priority_rank=identity_priorities(2, 2),
    )
    match = deferred_acceptance(market)
    assert match.assignment == (1, 2)
    assert find_blocking_pair(market, match) is None


def test_displacement_chain():
    # student 2 (best priority everywhere is student 0) arrives last but
    # outranks nobody; rejection chains must still terminate correctly
    market = Market(
        preferences=(P(1), P(1), P(1, 2)),
        capacities=(1, 1),
        priority_rank=np.array([[2, 1, 0], [2, 1, 0]]),
    )
    match = deferred_acceptance(market)
    # student 2 has top priority at program 1; student 1 beats student 0
    assert match.assignment == (0, 1, 1)[0:3] or match.assignment[2] == 1
    assert match.assignment[2] == 1
    assert match.assignment[1] == 0  # displaced, list exhausted
    assert find_blocking_pair(market, match) is None


def test_unlisted_programs_never_assigned():
    market = make_market((P(2), P(2)), (5, 0), seed=0)
    match = deferred_acceptance(market)
    assert match.assignment == (0, 0)  # program 2 has zero capacity


def test_truncated_lists_leave_students_unassigned():
    market = Market(
        preferences=(P(1), P(1)),
        capacities=(1, 5),
        priority_rank=identity_priorities(2, 2),
    )
    match = deferred_acceptance(market)
    assert match.assignment == (1, 0)


def test_uniform_priorities_are_permutations():
    rank = uniform_priorities(7, 3, seed=1)
    assert rank.shape == (3, 7)
    for p in range(3):
        assert sorted(rank[p]) == list(range(7))
    np.testing.assert_array_equal(rank, uniform_priorities(7, 3, seed=1))
    assert (rank != uniform_priorities(7, 3, seed=2)).any()


def test_uniform_priorities_are_int32_and_match_as_int64():
    """int32 ranks: a Market keeps them so, and matches the students as with
    the same ranks in int64."""
    assert uniform_priorities(7, 2, seed=0).dtype == np.int32
    rank = uniform_priorities(40_000, 3, seed=5)
    assert rank.dtype == np.int32
    prefs = [PartialOrder(tuple(q)) for q in
             np.argsort(np.random.default_rng(5).random((40_000, 3)), axis=1)[:, :2] + 1]
    small = make_market(prefs, (9_000, 9_000, 9_000), priority_rank=rank)
    assert small.priority_rank.dtype == np.int32
    wide = make_market(prefs, (9_000, 9_000, 9_000), priority_rank=rank.astype(np.int64))
    assert deferred_acceptance(small) == deferred_acceptance(wide)


def test_market_validation():
    with pytest.raises(ValueError):
        Market((P(1),), (1,), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Market((P(1),), (-1,), np.zeros((1, 1)))


def test_outcome_stats():
    match_assignment = (1, 3, 0, 2)
    prefs = (P(1, 2), P(1, 2, 3), P(1), P(3, 2))
    from topkorders import Matching

    rates = outcome_stats(Matching(match_assignment), prefs)
    assert rates.top1 == pytest.approx(1 / 4)
    assert rates.top3 == pytest.approx(3 / 4)
    assert rates.any_listed == pytest.approx(3 / 4)


def test_longer_lists_weakly_improve_assignment_rate():
    # classic comparative static: truncating every list to length 1 cannot
    # increase the fraction assigned
    rng = np.random.default_rng(3)
    n, m = 60, 6
    full, short = [], []
    for _ in range(n):
        perm = tuple(int(a) + 1 for a in rng.permutation(m)[:4])
        full.append(P(*perm))
        short.append(P(perm[0]))
    caps = (2,) * m
    pr = uniform_priorities(n, m, seed=4)
    rate_full = outcome_stats(
        deferred_acceptance(Market(tuple(full), caps, pr)), tuple(full)
    ).any_listed
    rate_short = outcome_stats(
        deferred_acceptance(Market(tuple(short), caps, pr)), tuple(short)
    ).any_listed
    assert rate_full >= rate_short


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 7), m=st.integers(1, 4))
def test_da_always_stable_and_feasible(data, n, m):
    prefs = []
    for _ in range(n):
        k = data.draw(st.integers(0, m))
        perm = data.draw(st.permutations(range(1, m + 1)))
        prefs.append(PartialOrder(tuple(perm[:k])))
    caps = tuple(data.draw(st.integers(0, 3)) for _ in range(m))
    seed = data.draw(st.integers(0, 10))
    market = make_market(tuple(prefs), caps, seed=seed)
    match = deferred_acceptance(market)
    # feasibility: capacities respected, assignments come from the lists
    load = [0] * m
    for s, p in enumerate(match.assignment):
        if p:
            load[p - 1] += 1
            assert p in prefs[s].items
    for p in range(m):
        assert load[p] <= caps[p]
    # stability: no blocking pair under the brute-force oracle
    assert find_blocking_pair(market, match) is None


@pytest.mark.parametrize(
    "prefs,match",
    [((P(1), P(3)), "outside"), ((P(0),), "outside"), ((P(2, 2),), "duplicate")],
    ids=["id-above-m", "id-zero", "repeated-id"],
)
def test_market_rejects_bad_ids(prefs, match):
    with pytest.raises(ValueError, match=match):
        make_market(prefs, (1, 1))


def test_make_market_takes_a_one_shot_iterable():
    prefs = (P(1, 2), P(2), P())
    from_gen = make_market((q for q in prefs), (1, 1), seed=3)
    from_tuple = make_market(prefs, (1, 1), seed=3)
    assert from_gen.preferences.orders == prefs
    assert np.array_equal(from_gen.priority_rank, from_tuple.priority_rank)
    assert deferred_acceptance(from_gen) == deferred_acceptance(from_tuple)


def test_market_rejects_dataset_over_other_universe():
    D = Dataset(Universe(3), (P(1, 2), P(3)))
    with pytest.raises(ValueError, match="3 programs, but 2 capacities"):
        Market(D, (1, 1), identity_priorities(2, 2))


def test_market_rejects_tied_priorities():
    with pytest.raises(ValueError, match="row 1 has tied ranks"):
        Market((P(1), P(2), P(1)), (1, 1), np.array([[0, 1, 2], [0, 1, 1]]))


def test_market_keeps_a_dataset_and_converts_orders():
    D = Dataset(Universe(2), (P(1, 2), P(2)))
    pr = identity_priorities(2, 2)
    assert Market(D, (1, 1), pr).preferences is D
    for prefs in (D.orders, list(D.orders)):
        market = Market(prefs, (1, 1), pr)
        assert market.preferences.orders == D.orders
        assert deferred_acceptance(market).assignment == (1, 2)


def test_blocking_pair_found():
    market = Market((P(1, 2), P(1, 2), P(2)), (1, 2), identity_priorities(2, 3))
    # student 0 (top priority) sits at program 2 while student 1 holds program 1
    assert find_blocking_pair(market, Matching((2, 1, 2))) == (0, 1)
    # student 2 is unassigned while program 2 has a free seat
    assert find_blocking_pair(market, Matching((1, 2, 0))) == (2, 2)
    assert find_blocking_pair(market, deferred_acceptance(market)) is None


def test_outcome_stats_takes_a_dataset():
    orders = (P(1, 2), P(1, 2, 3), P(1), P(3, 2), P(2, 3, 1, 4))
    D = Dataset(Universe(4), orders)
    match = Matching((1, 3, 0, 2, 4))
    rates = outcome_stats(match, orders)
    assert (rates.top1, rates.top3, rates.any_listed) == (1 / 5, 3 / 5, 4 / 5)
    assert outcome_stats(match, D) == rates
    assert outcome_stats(match, D.orders) == rates


def _random_market(rng, n, m, caps_kind):
    prefs = [P(*(int(a) + 1 for a in rng.permutation(m)[:k])) for k in rng.integers(0, m + 1, n)]
    caps = {
        "zero": np.zeros(m, dtype=int),
        "tight": rng.integers(0, 3, m),
        "mixed": rng.integers(0, n + 2, m),
        "ample": np.full(m, n),
    }[caps_kind]
    return make_market(prefs, caps, seed=int(rng.integers(1000)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), m=st.integers(1, 20),
       caps_kind=st.sampled_from(["zero", "tight", "mixed", "ample"]))
def test_heap_da_matches_scan_oracle(seed, n, m, caps_kind):
    market = _random_market(np.random.default_rng(seed), n, m, caps_kind)
    assert deferred_acceptance(market).assignment == scan_deferred_acceptance(market)


def test_blocking_pair_matches_scan_oracle_on_perturbed_matchings():
    rng = np.random.default_rng(9)
    found = 0
    for trial in range(300):
        n, m = int(rng.integers(1, 121)), int(rng.integers(1, 13))
        market = _random_market(rng, n, m, ("zero", "tight", "mixed", "ample")[trial % 4])
        assignment = np.array(deferred_acceptance(market).assignment)
        moved = rng.random(n) < rng.choice([0.02, 0.2, 1.0])
        assignment[moved] = rng.integers(0, m + 1, int(moved.sum()))
        want = scan_blocking_pair(market, tuple(int(a) for a in assignment))
        got = find_blocking_pair(market, Matching(tuple(int(a) for a in assignment)))
        assert got == want
        assert got is None or all(type(v) is int for v in got)
        found += want is not None
    assert 100 < found < 300  # both outcomes occur


@pytest.mark.parametrize(
    "listed,caps",
    [(4, [3, 2, 4, 1, 30]), (5, [20, 15, 10, 10, 5]), (5, [0] * 5), (0, [3] * 5)],
    ids=["unlisted-program", "more-seats", "no-seats", "empty-lists"],
)
def test_rounds_match_scan_oracle_on_edge_markets(listed, caps):
    """40 students with random lists of 0 to ``listed`` items over programs
    1..listed of 5."""
    rng = np.random.default_rng(sum(caps))
    prefs = [P(*(int(a) + 1 for a in rng.permutation(listed)[:k]))
             for k in rng.integers(0, listed + 1, 40)]
    market = make_market(prefs, caps, seed=8)
    match = deferred_acceptance(market)
    assert match.assignment == scan_deferred_acceptance(market)
    assert all(type(a) is int for a in match.assignment)
    seated = {p + 1 for p in range(5) if caps[p]}
    assert set(match.assignment) <= {0} | (seated & set(range(1, listed + 1)))


def _large_market(n, m, seed):
    """n students with random lists of 1 to m programs, seats for 70% of them."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, m + 1, n)
    items = np.where(np.arange(m) < lengths[:, None], np.argsort(rng.random((n, m)), axis=1), -1)
    caps = rng.multinomial(int(0.7 * n), np.full(m, 1 / m))
    return make_market(Dataset.from_padded(Universe(m), items, lengths), caps, seed=seed + 1)


def test_rounds_are_stable_and_feasible_at_scale():
    market = _large_market(20_000, 12, seed=3)
    match = deferred_acceptance(market)
    assert find_blocking_pair(market, match) is None
    a = np.array(match.assignment)
    load = np.bincount(a, minlength=market.m + 1)[1:]
    assert (load <= np.array(market.capacities)).all()


def test_deferred_acceptance_memory_is_bounded():
    """200,000 students over m = 8 programs, market built beforehand: the
    rounds hold a few arrays of one entry per student (held program, next
    choice, candidates and their sort order) and the matching, about 10 MB
    traced. Python lists of the (m, n) priority ranks, the padded rows and a
    heap of tuples per program pass 100 MB."""
    market = _large_market(200_000, 8, seed=4)
    tracemalloc.start()
    try:
        deferred_acceptance(market)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def test_market_tie_check_memory_is_bounded():
    """200,000 students over m = 8 programs, priorities and preferences built
    beforehand: the tie check sorts one program's ranks at a time, 1.6 MB,
    not a copy of all 12.8 MB of them."""
    n, m = 200_000, 8
    rng = np.random.default_rng(5)
    lengths = rng.integers(1, m + 1, n)
    items = np.where(np.arange(m) < lengths[:, None], np.argsort(rng.random((n, m)), axis=1), -1)
    prefs = Dataset.from_padded(Universe(m), items, lengths)
    priorities = uniform_priorities(n, m, seed=6)
    tracemalloc.start()
    try:
        Market(prefs, (n // m,) * m, priorities)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
