"""Covariate-free choices merged into one table keyed by (bank, prefix set).

Without covariates a Plackett-Luce or augmented choice depends only on its
bank and on the set of items listed before it, so a fit's records collapse
onto one count table, the sufficient statistics of Hunter (2004), "MM
algorithms for generalized Bradley-Terry models", which merges duplicate
records by itself. One evaluation of the objective is then a few dense
operations on that table, however many records it summarizes. The bank of
a choice is the length stratum min(k, K) for c-ld, the rank stratum
min(j, K) for a-s, the position j for a-pd (its END utility), and the one
bank of c-i and a.
"""

import numpy as np

from .kernels import length_strata


class EventTable:
    """P keys of a fit. Row p of the (P, m+1) arrays, over the m items and
    then END, holds the options available at key p, the weighted count of
    each option chosen there divided by the normalizer of the key's bank,
    and the flat index of each option's utility (``size``, the parameter
    count, where it has none, for a utility of 0). For c-i and c-ld one more
    row holds the list-length counts, a choice among the m length logits.

    An evaluation works on transposed copies, so that its reductions run
    over m+1 contiguous rows of length P, and adds -inf at the unavailable
    options, whose exp is then exactly 0. The counts enter only through
    their sums per parameter.
    """

    def __init__(self, avail, counts, uidx, size):
        self.avail, self.counts, self.uidx = avail, counts, uidx
        self.total = counts.sum(axis=1)
        self._index = np.ascontiguousarray(uidx.T)
        self._mask = np.where(avail.T, 0.0, -np.inf)
        self._stat = np.bincount(uidx.ravel(), counts.ravel(), minlength=size + 1)
        self._ext = np.zeros(size + 1)  # the parameters, then the utility 0

    def nll_grad(self, flat):
        """The scaled negative log-likelihood of every choice and its gradient."""
        ext = self._ext
        ext[:-1] = flat
        e = ext.take(self._index)
        e += self._mask
        top = e.max(axis=0)
        e -= top
        np.exp(e, out=e)
        mass = e.sum(axis=0)  # a sum of positive terms, the largest 1
        F = self.total @ (top + np.log(mass)) - ext @ self._stat
        e *= self.total / mass
        g = np.bincount(self._index.ravel(), e.ravel(), minlength=ext.size)
        g -= self._stat
        return float(F), g[:-1]


def event_table(data, layout):
    """The event table of a fit's records (a ``_FitData``), or None where
    the row kernels serve it: a model with covariates, or a table of more
    cells, P * (m+1), than the records have choice events. An evaluation
    touches each table cell a few times, and the row kernels each event, so
    the rule compares their work analytically. The build stops at the first
    list position whose keys pass that bound.

    The build walks the rows in order of length, so that the rows making a
    choice at a position, and those listing an item there, are suffixes."""
    v, m, K = layout.variant, layout.m, layout.K
    if data.X is not None and v != "c-i":
        return None
    items, lengths, w = data.items, data.lengths, data.weights
    if np.any(lengths[1:] < lengths[:-1]):  # _FitData keeps its rows in this order
        order = np.argsort(lengths, kind="stable")
        items, lengths, w = items[order], lengths[order], w[order]
    R, aug = lengths.shape[0], v in ("a", "a-pd", "a-s")
    # one event per listed item, then END after k < m items (augmented)
    steps = lengths + (aug & (lengths < m))
    limit = int(w @ steps) // (m + 1)
    stratum = length_strata(lengths, K)
    ids = np.hstack([items, np.full((R, 1), -1, items.dtype)])
    listed = np.zeros(((m + 7) // 8, R), dtype=np.uint8)  # each row's listed items, byte by byte
    P, tables, sets, banks = 0, [], [], []
    for j in range(int(steps.max(initial=0))):
        row = slice(np.searchsorted(steps, j, side="right"), None)  # the rows choosing at j
        bits = listed[:, row]  # the prefix set of each event at j
        if v == "c-ld":
            bank = stratum[row]
        else:
            bank = np.full(bits.shape[1], j if v == "a-pd" else min(j, K - 1))
        # group the events at j by key; prefix sets at other positions differ in size
        order = np.lexsort([*bits, bank])
        first = np.ones(order.size, dtype=bool)  # the first event of each key
        first[1:] = (np.diff(bank[order]) != 0) | np.any(np.diff(bits[:, order]) != 0, axis=0)
        key = np.empty_like(order)
        key[order] = np.cumsum(first) - 1
        keys = int(first.sum())
        P += keys
        if P > limit:
            return None
        chosen = ids[row, j].astype(np.intp)
        cells = key * (m + 1) + np.where(chosen < 0, m, chosen)
        tables.append(np.bincount(cells, w[row], minlength=keys * (m + 1)).reshape(keys, m + 1))
        sets.append(bits[:, order[first]].T)
        banks.append(bank[order[first]])
        # add each listed item to its row's set; those rows are a suffix of row
        lists = np.searchsorted(lengths, j, side="right")
        on = chosen[lists - row.start :]
        bit = (128 >> on % 8).astype(np.uint8)
        for byte, col in enumerate(listed[:, lists:]):
            col |= np.where(on // 8 == byte, bit, 0)
    if P == 0:  # no choices at all
        return None
    bank_of, index = np.concatenate(banks), _utility_index(layout)
    avail = np.ones((P, m + 1), dtype=bool)
    avail[:, :m] = np.unpackbits(np.concatenate(sets), axis=1, count=m) == 0
    avail[:, m] = aug
    # each bank's counts over the normalizer of its term: a composite's
    # term 0 is its length, and a-pd's position banks share its one term
    composite = v in ("c-i", "c-ld")
    norm = _bank_event_counts(lengths, w, m, K, v)
    counts = np.concatenate(tables) / norm[composite + bank_of * (v != "a-pd")][:, None]
    uidx = index[bank_of]
    if composite:
        avail = np.vstack([avail, np.arange(m + 1) < m])
        counts = np.vstack([counts, np.append(data.length_counts[1:], 0.0) / norm[0]])
        uidx = np.vstack([uidx, np.append(np.arange(m), layout.size)])
    return EventTable(avail, counts, uidx, layout.size)


def _bank_event_counts(lengths, weights, m, K, variant="a-s"):
    """The normalizer of each term of a variant's objective, in the order of
    its row terms. A composite averages its length term over the records
    and its K ranking terms over the records of each length stratum; a-s
    averages each bank's term over the choices made with it (k items, plus
    END if k < m); a and a-pd average their one term over the records."""
    if variant == "a-s":
        per_row = np.maximum((lengths + (lengths < m))[:, None] - np.arange(K), 0)
        per_row[:, :-1] = np.minimum(per_row[:, :-1], 1)
        return weights @ per_row
    n = weights.sum()
    if variant in ("a", "a-pd"):
        return np.full(1, n)
    return np.append(n, np.bincount(length_strata(lengths, K), weights, minlength=K))


def _utility_index(layout) -> np.ndarray:
    """(banks, m+1): the flat index of each item's and END's utility per bank."""
    m, K, none = layout.m, layout.K, layout.size
    if layout.variant in ("c-i", "c-ld"):
        return np.hstack([m + m * np.arange(K)[:, None] + np.arange(m), np.full((K, 1), none)])
    if layout.variant == "a-pd":  # one bank per position: shared items, END gamma_j
        return np.hstack([np.tile(np.arange(m), (m, 1)), m + np.arange(m)[:, None]])
    return (m + 1) * np.arange(K)[:, None] + np.arange(m + 1)
