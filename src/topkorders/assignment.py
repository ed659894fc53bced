"""Student-proposing deferred acceptance with capacities and priorities.

A generic assignment harness: students submit (possibly truncated) ranked
lists over programs, each program has a capacity and a strict priority
order over students. The output is the student-optimal stable matching
with respect to the submitted lists (Gale & Shapley 1962, in the school-choice
form of Abdulkadiroglu & Sonmez 2003). Priorities must be strict: the stable
matching is then unique, so the order in which proposals are processed
cannot change it. ``deferred_acceptance`` therefore processes the
proposals in rounds, all free students at once, with numpy arrays.
"""

from dataclasses import dataclass

import numpy as np

from .orders import Dataset, Universe, padded_orders

UNASSIGNED = 0


@dataclass(frozen=True)
class Market:
    """preferences: the students' lists over programs (1-based ids), given as
    a Dataset over m programs, an OrderView or a sequence of PartialOrders, and
    stored as a Dataset; capacities: (m,) nonnegative ints; priority_rank[p][s]:
    rank of student s at program p (lower is better), no two equal in a row,
    kept in its signed integer type and stored as int64 otherwise."""

    preferences: Dataset
    capacities: tuple
    priority_rank: np.ndarray

    def __post_init__(self):
        caps = tuple(int(c) for c in self.capacities)
        m = len(caps)
        prefs = _as_dataset(self.preferences, m)
        pr = np.asarray(self.priority_rank)
        if pr.dtype.kind != "i":
            pr = pr.astype(np.int64)
        object.__setattr__(self, "preferences", prefs)
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "priority_rank", pr)
        if pr.shape != (m, prefs.n):
            raise ValueError(f"priority_rank shape {pr.shape}, expected ({m}, {prefs.n})")
        if any(c < 0 for c in caps):
            raise ValueError("capacities must be nonnegative")
        for p, row in enumerate(pr):  # one program at a time: no sorted copy of all ranks
            srt = np.sort(row)
            if (srt[1:] == srt[:-1]).any():
                raise ValueError(f"priority_rank row {p} has tied ranks")

    @property
    def n(self) -> int:
        return self.preferences.n

    @property
    def m(self) -> int:
        return len(self.capacities)


def _as_dataset(preferences, m: int) -> Dataset:
    """The students' lists as a Dataset over m programs, converted in one pass."""
    if isinstance(preferences, Dataset):
        if preferences.m != m:
            raise ValueError(f"preferences over {preferences.m} programs, but {m} capacities")
        return preferences
    return Dataset.from_padded(Universe(m), *padded_orders(preferences), allow_empty=True)


def uniform_priorities(n: int, m: int, seed: int) -> np.ndarray:
    """One independent uniform priority permutation per program, as int32
    ranks below 2^31 students: half of int64, and numpy argsorts int32 keys
    faster than int64, and than int8 or int16 (6x at 10,000 students)."""
    rng = np.random.default_rng(seed)
    rank = np.empty((m, n), dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    for p in range(m):
        order = rng.permutation(n)
        rank[p, order] = np.arange(n)
    return rank


def make_market(preferences, capacities, seed: int = 0, priority_rank=None) -> Market:
    preferences = _as_dataset(preferences, len(capacities))
    if priority_rank is None:
        priority_rank = uniform_priorities(preferences.n, len(capacities), seed)
    return Market(preferences, capacities, priority_rank)


@dataclass(frozen=True)
class Matching:
    """assignment[s]: program id (1-based) or UNASSIGNED (0)."""

    assignment: tuple

    def assigned(self, s: int) -> int:
        return self.assignment[s]


def deferred_acceptance(market: Market) -> Matching:
    """The student-optimal stable matching, found in rounds.

    In each round every free student with a choice left proposes to the
    next program on their list. Each program that got proposals keeps the
    ``capacity`` best, by priority rank, of the students it holds and its
    new proposers: these are sorted by rank, then stably by program, and
    each program admits the first ``capacity`` of its run. A proposal to a
    program of no seats is thus rejected in the round it is made. The
    rejected students are free in the next round; a student whose list is
    exhausted stays unassigned.
    """
    items, lengths = market.preferences.to_padded()
    caps = np.asarray(market.capacities, dtype=np.int64)
    rank = market.priority_rank
    # each student's 0-based program, -1 while free; touched[-1] stays False
    held = np.full(market.n, -1, dtype=items.dtype)
    touched = np.zeros(market.m + 1, dtype=bool)
    next_choice = np.zeros(market.n, dtype=lengths.dtype)
    free = np.flatnonzero(lengths > 0)
    while free.size:
        proposed = items[free, next_choice[free]]
        next_choice[free] += 1
        touched[:] = False
        touched[proposed] = True
        kept = np.flatnonzero(touched[held])
        s = np.concatenate((kept, free))
        p = np.concatenate((held[kept], proposed))
        order = np.argsort(rank[p, s])
        order = order[np.argsort(p[order], kind="stable")]
        s, p = s[order], p[order]
        seat = np.arange(s.size) - np.searchsorted(p, p)
        admit = seat < caps[p]
        held[s[admit]] = p[admit]
        out = s[~admit]
        held[out] = -1
        free = out[next_choice[out] < lengths[out]]
    return Matching(tuple((held + 1).tolist()))  # -1 + 1 is UNASSIGNED


def _assignment_array(assignment, n: int) -> np.ndarray:
    a = np.asarray(assignment, dtype=np.int64).reshape(-1)
    if a.shape[0] != n:
        raise ValueError(f"matching of {a.shape[0]} students, expected {n}")
    return a


def _match_positions(items, lengths, a):
    """(listed, pos): whether each student's match is on their list, and its
    position there (the list length where it is not)."""
    listed_cell = np.arange(items.shape[1]) < lengths[:, None]
    hit = (items == (a - 1)[:, None]) & listed_cell & (a != UNASSIGNED)[:, None]
    listed = hit.any(axis=1)
    return listed, np.where(listed, hit.argmax(axis=1), lengths)


def find_blocking_pair(market: Market, matching: Matching):
    """The first (student, program) blocking pair in (student, list position)
    order, or None.

    A pair blocks when the student lists the program above their match and the
    program, having seats, has a free one or holds a student of worse priority.
    """
    items, lengths = market.preferences.to_padded()
    n, m, pr = market.n, market.m, market.priority_rank
    a = _assignment_array(matching.assignment, n)
    if a.size and (a.min() < UNASSIGNED or a.max() > m):
        raise ValueError(f"matching holds a program id outside [0, {m}]")
    caps = np.asarray(market.capacities, dtype=np.int64)
    held = np.flatnonzero(a != UNASSIGNED)
    prog = a[held] - 1
    load = np.bincount(prog, minlength=m)
    worst = np.full(m, np.iinfo(np.int64).min)
    np.maximum.at(worst, prog, pr[prog, held])
    _, pos = _match_positions(items, lengths, a)
    above = np.arange(items.shape[1]) < pos[:, None]
    p = np.where(above, items, 0)
    better = pr[p, np.arange(n)[:, None]] < worst[p]
    block = above & (caps[p] > 0) & ((load[p] < caps[p]) | better)
    if not block.any():
        return None
    s, j = divmod(int(block.argmax()), items.shape[1])
    return (s, int(items[s, j]) + 1)


@dataclass(frozen=True)
class OutcomeRates:
    top1: float
    top3: float
    any_listed: float


def outcome_stats(matching: Matching, preferences) -> OutcomeRates:
    """Fractions assigned to top-1, any of top-3, and any listed program.

    preferences: a Dataset, an OrderView or a sequence of PartialOrders."""
    items, lengths = padded_orders(preferences)
    n = lengths.shape[0]
    a = _assignment_array(matching.assignment, n)
    listed, pos = _match_positions(items, lengths, a)
    top1 = int((listed & (pos == 0)).sum())
    top3 = int((listed & (pos < 3)).sum())
    return OutcomeRates(top1 / n, top3 / n, int(listed.sum()) / n)
