"""Domain types for top-k partial orders and combinatorial utilities.

Alternative ids are 1-based contiguous integers. A partial order is a
strict ordering of k distinct alternatives out of a universe of m; a total
order is the special case k = m.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, permutations
from math import factorial

import numpy as np

DEFAULT_ENUMERATION_CAP = 6


class InvalidOrderError(ValueError):
    """A partial order violates the universe constraints."""

    row = None  # the failing record's index, when an array of records was checked


@dataclass(frozen=True)
class Universe:
    """A collection of m alternatives, optionally labeled for reporting."""

    m: int
    labels: tuple | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"universe size must be >= 1, got {self.m}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.m:
                raise ValueError(
                    f"expected {self.m} labels, got {len(self.labels)}"
                )

    def label(self, item: int) -> str:
        if self.labels is not None:
            return self.labels[item - 1]
        return str(item)


@dataclass(frozen=True)
class PartialOrder:
    """A strict top-k ordering of distinct alternative ids (1-based).

    The empty order is constructible because the augmented sampling process
    can terminate before any item is chosen; dataset ingestion rejects it.
    """

    items: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(int(a) for a in self.items))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


class OrderView(Sequence):
    """A read-only sequence of PartialOrders over padded id arrays.

    Holds a Dataset's per-record arrays (``Dataset.to_padded``) and builds a
    PartialOrder only when a record is read. Slices are views too. A view
    equals any sequence that holds the same orders in the same order.
    """

    __slots__ = ("_items", "_lengths")

    def __init__(self, items: np.ndarray, lengths: np.ndarray):
        self._items, self._lengths = items, lengths

    def __len__(self) -> int:
        return self._lengths.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return OrderView(self._items[i], self._lengths[i])
        k = self._lengths[i]
        return PartialOrder((self._items[i, :k] + 1).tolist())

    def __iter__(self):
        ids = (self._items + 1).tolist()
        return (PartialOrder(row[:k]) for row, k in zip(ids, self._lengths.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"OrderView({len(self)} orders)"


def validate_order(order: PartialOrder, universe: Universe, allow_empty: bool = False) -> None:
    """Raise InvalidOrderError unless ids are distinct, in range, and k in [1, m]."""
    items = order.items
    if not items and not allow_empty:
        raise InvalidOrderError("empty order")
    if len(items) > universe.m:
        raise InvalidOrderError(
            f"order of length {len(items)} exceeds universe size {universe.m}"
        )
    seen = set()
    for a in items:
        if not 1 <= a <= universe.m:
            raise InvalidOrderError(f"alternative id {a} outside [1, {universe.m}]")
        if a in seen:
            raise InvalidOrderError(f"duplicate alternative id {a}")
        seen.add(a)


@dataclass(frozen=True)
class CovariateTensor:
    """Dense agent-by-item feature tensor of shape (n, m, d)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise ValueError(f"expected a 3-d tensor, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("covariates contain non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[2]


class Dataset:
    """A multiset of top-k partial orders over a shared universe.

    Records are stored as arrays only, as rows with a count each: 0-based
    item ids padded with -1, shape (rows, kmax), in the smallest signed
    integer type that holds -(m + 1) (so ids + 1 cannot overflow), list
    lengths (rows,) in that type too, and how many records each row stands
    for. Sums and cumulative sums of the lengths widen to int64 by default;
    other arithmetic on them keeps the small type, which holds m but not
    always m + 1 (int8 at m = 127).
    ``rows`` returns the three. A parsed ballot file keeps one row per line;
    every other dataset, covariates included, has one row per record. ``n``
    counts records; ``to_padded``, ``lengths`` and ``orders`` give them one
    each, in order, each row repeated by its count.
    """

    def __init__(self, universe: Universe, orders=(), covariates=None, allow_empty=False):
        """``orders``: a Dataset, an OrderView or a sequence of PartialOrders,
        stored one row per record. The records of a Dataset over the same
        universe object, checked under an ``allow_empty`` no looser than this
        one, are not checked again."""
        items, lengths = padded_orders(orders)
        checked = (
            isinstance(orders, Dataset)
            and orders.universe is universe
            and (allow_empty or not orders.allow_empty)
        )
        self._set(universe, items, lengths, covariates, allow_empty, check_rows=not checked)

    @classmethod
    def from_padded(cls, universe, items, lengths, covariates=None, allow_empty=False,
                    counts=None):
        """A dataset from arrays shaped as ``to_padded`` returns them: 0-based
        ids with -1 in every cell past a record's length. ``counts`` (rows,)
        gives the number of records each row stands for (default one each);
        rows of count 0 are validated, then dropped. Columns past the
        longest kept list are dropped after validation."""
        D = cls.__new__(cls)
        D._set(universe, items, lengths, covariates, allow_empty, counts=counts)
        return D

    def _set(self, universe, items, lengths, covariates, allow_empty, check_rows=True,
             counts=None):
        lengths = np.asarray(lengths)
        if lengths.dtype.kind not in "iu":  # e.g. an empty list, read as floats
            lengths = lengths.astype(np.int64)
        items = np.asarray(items)
        width = max(int(lengths.max()) if lengths.size else 0, 1)
        if items.ndim != 2 or items.shape[0] != lengths.shape[0] or items.shape[1] < width:
            raise ValueError(f"items of shape {items.shape} do not hold lengths up to {width}")
        if check_rows:
            _validate_rows(items, lengths, universe, allow_empty)
        if counts is not None:
            items, lengths, counts = _weighted_rows(items, lengths, counts)
            width = max(int(lengths.max()) if lengths.size else 0, 1)
            if counts is not None and covariates is not None:
                raise ValueError("a dataset with covariates has one row per record")
        ids = np.min_scalar_type(-1 - universe.m)
        items = items[:, :width].astype(ids, copy=False)
        lengths = lengths.astype(ids, copy=False)
        check_covariates(covariates, lengths.shape[0], universe.m)
        items.flags.writeable = lengths.flags.writeable = False
        self.universe, self.covariates, self.allow_empty = universe, covariates, allow_empty
        self._items, self._lengths, self._counts = items, lengths, counts

    def _subset(self, rows) -> "Dataset":
        """The records selected by ``rows`` (a mask or indices over the
        records) with their covariates, in the order given, one row each;
        their rows are not checked again."""
        cov = self.covariates
        cov = None if cov is None else CovariateTensor(cov.values[rows])
        items, lengths = self.to_padded()
        D = Dataset.__new__(Dataset)
        D._set(self.universe, items[rows], lengths[rows], cov, self.allow_empty, False)
        return D

    @property
    def orders(self) -> OrderView:
        return OrderView(*self.to_padded())

    @property
    def n(self) -> int:
        if self._counts is None:
            return self._lengths.shape[0]
        return int(self._counts.sum())

    @property
    def m(self) -> int:
        return self.universe.m

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the stored (items, lengths, counts), read-only: each row
        once, with the number of records it stands for."""
        counts = self._counts
        if counts is None:  # one record per row, held in no memory
            counts = np.broadcast_to(np.int64(1), self._lengths.shape)
        return self._items, self._lengths, counts

    def lengths(self) -> np.ndarray:
        """Each record's list length, read-only."""
        return _read_only(self.per_record(self._lengths))

    def to_padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (items, lengths): 0-based ids padded with -1, shape (n, kmax),
        one row per record, in order.

        Both arrays are read-only; see the class docstring for their integer
        types. They are the stored arrays when every row is one record, and
        are otherwise built on each call.
        """
        return _read_only(self.per_record(self._items)), _read_only(self.per_record(self._lengths))

    def per_record(self, a: np.ndarray) -> np.ndarray:
        """``a``, one entry per stored row, with each entry repeated by its
        row's count: one per record, in order. ``a`` itself when every row
        is one record."""
        return a if self._counts is None else np.repeat(a, self._counts, axis=0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _weighted_rows(items, lengths, counts):
    """The rows of nonzero count, with their counts as a read-only int64
    array, or None when each is 1."""
    counts = np.asarray(counts)
    if counts.shape != lengths.shape or counts.dtype.kind not in "iu" or counts.min(initial=0) < 0:
        raise ValueError("counts must be one non-negative integer per row")
    keep = counts > 0
    if not keep.all():
        items, lengths, counts = items[keep], lengths[keep], counts[keep]
    if np.all(counts == 1):
        return items, lengths, None
    return items, lengths, _read_only(counts.astype(np.int64))


def padded_orders(orders) -> tuple[np.ndarray, np.ndarray]:
    """(items, lengths) as ``Dataset.to_padded`` gives them, of a Dataset, an
    OrderView or a sequence of PartialOrders. A Dataset hands over its
    per-record arrays and a view the arrays it holds; only a sequence of
    objects is padded, and nothing is validated."""
    if isinstance(orders, Dataset):
        return orders.to_padded()
    if isinstance(orders, OrderView):
        return orders._items, orders._lengths
    return pad_rows([q.items for q in orders])


def pad_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """(items, lengths) of a list of 1-based id sequences: 0-based ids padded
    with -1 to shape (n, max(kmax, 1))."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    width = max(int(lengths.max()) if lengths.size else 0, 1)
    items = np.full((lengths.shape[0], width), -1, dtype=np.int64)
    ids = np.fromiter(chain.from_iterable(rows), np.int64)
    items[np.arange(width) < lengths[:, None]] = ids - 1
    return items, lengths


# Cells, rows x (m + 1), of the largest temporary of checking one block of rows.
CHECK_BLOCK_CELLS = 1 << 18


def _validate_rows(items, lengths, universe, allow_empty):
    """Raise validate_order's error for the first invalid record, its index as ``row``.

    Walks the rows in blocks of at most CHECK_BLOCK_CELLS cells of an
    (rows, m + 1) mask of the ids seen, and each block one list position at
    a time, so that no temporary is as large as ``items``.
    """
    m, (n, width) = universe.m, items.shape
    step = max(CHECK_BLOCK_CELLS // (m + 1), 1)
    for lo in range(0, n, step):
        block, k = items[lo : lo + step], lengths[lo : lo + step]
        bad = (k > m) | ((k == 0) & (not allow_empty))
        # column m of the ids seen takes every cell that is no id in range
        seen = np.zeros((k.size, m + 1), dtype=bool)
        rows = np.arange(k.size)
        for j in range(width):
            listed, ids = k > j, block[:, j]
            if np.any(ids[~listed] != -1):
                raise ValueError("padding cells must hold -1")
            inside = listed & (ids >= 0) & (ids < m)
            col = np.where(inside, ids, m)
            bad |= (listed & ~inside) | (seen[rows, col] & inside)
            seen[rows, col] = True
        if bad.any():
            i = lo + int(np.argmax(bad))
            ids = [a + 1 for a in items[i, : lengths[i]].tolist()]
            try:
                validate_order(PartialOrder(ids), universe, allow_empty)
            except InvalidOrderError as exc:
                exc.row = i
                raise


def check_covariates(covariates, n: int, m: int) -> None:
    """Raise unless the covariate tensor has one (m, d) slice per record."""
    if covariates is None:
        return
    if covariates.n != n:
        raise ValueError(f"covariate rows ({covariates.n}) != number of orders ({n})")
    if covariates.values.shape[1] != m:
        raise ValueError("covariate item dimension != universe size")


def extension_count(k: int, m: int) -> int:
    """Number of completions of a length-k partial order: (m - k)!."""
    if k < 0 or m < 0 or k > m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    return factorial(m - k)


def num_partial_orders(m: int, include_empty: bool = False) -> int:
    total = sum(factorial(m) // factorial(m - i) for i in range(1, m + 1))
    return total + 1 if include_empty else total


def enumerate_partial_orders(
    m: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
    include_empty: bool = False,
) -> list[PartialOrder]:
    """All top-k partial orders of a size-m universe, for every k in [1, m].

    Refuses m above ``cap``: the space has sum_i m!/(m-i)! elements, which
    blows up combinatorially.
    """
    if m > cap:
        raise ValueError(f"m={m} exceeds enumeration cap {cap}")
    out = [PartialOrder(())] if include_empty else []
    for k in range(1, m + 1):
        for items in permutations(range(1, m + 1), k):
            out.append(PartialOrder(items))
    return out
