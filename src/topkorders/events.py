"""Covariate-free choices merged into one table keyed by (bank, prefix set).

Without covariates a Plackett-Luce or augmented choice depends only on its
bank and on the set of items listed before it, so a fit's records collapse
onto one count table, the sufficient statistics of Hunter (2004), "MM
algorithms for generalized Bradley-Terry models", which merges duplicate
records by itself. One evaluation of the objective is then a few dense
operations on that table, however many records it summarizes. The bank of
a choice is the length stratum min(k, K) for c-ld, the rank stratum
min(j, K) for a-s, and the one bank of every other variant. A key's
utility indices come from the layout's bank map, ``ParamLayout.banks``;
a bank with one END utility per position has its END read at the key's
position.

An evaluation reads each option's utility from the parameters extended by
two slots: 0, for an option without a parameter (a composite's END), then
-inf, which every unavailable option reads, so that its exp is exactly 0
and no mask is added. Keys sharing a utility-index row contribute to the same parameters,
so the gradient first sums each run of such keys column by column and
scatters only those run sums onto the parameters: a few rows per bank and
position, however many keys the table holds.
"""

import numpy as np

from .composite import COMPOSITE_VARIANTS
from .kernels import length_strata


class EventTable:
    """P keys of a fit. Row p of the (P, m+1) arrays, over the m items and
    then END, holds the options available at key p, the weighted count of
    each option chosen there divided by the normalizer of the key's bank,
    and the flat index of each option's utility (``size``, the parameter
    count, where it has none, for a utility of 0). For c-i and c-ld one more
    row holds the list-length counts, a choice among the m length logits.

    An evaluation works on a transposed index, so that its reductions run
    over contiguous rows of length P, one per option available at some key
    (a composite's END is at none), in which an unavailable option has the
    index ``size + 1`` of the -inf slot. Keys come in runs of equal
    utility-index rows, the keys of one bank at one position; the gradient
    sums each run's keys with ``np.add.reduceat`` and scatters those sums,
    a few per bank and position, not the P * (m+1) cells. The counts enter
    only through their sums per parameter. The public arrays keep the
    build's key order.
    """

    def __init__(self, avail, counts, uidx, size):
        self.avail, self.counts, self.uidx = avail, counts, uidx
        self.total = counts.sum(axis=1)
        self._stat = np.bincount(uidx.ravel(), counts.ravel(), minlength=size + 1)
        cols = avail.any(axis=0)  # a composite's END is available at no key
        self._index = np.ascontiguousarray(np.where(avail, uidx, size + 1)[:, cols].T)
        self._runs = np.flatnonzero(np.r_[True, np.any(uidx[1:] != uidx[:-1], axis=1)])
        self._run_index = uidx[self._runs][:, cols].T.ravel()
        self._ext = np.zeros(size + 2)  # the parameters, the utility 0, then -inf
        self._ext[-1] = -np.inf

    def nll_grad(self, flat):
        """The scaled negative log-likelihood of every choice and its gradient."""
        ext = self._ext
        ext[:-2] = flat
        e = ext.take(self._index)
        top = e.max(axis=0)
        e -= top
        np.exp(e, out=e)
        mass = e.sum(axis=0)  # a sum of positive terms, the largest 1
        F = self.total @ (top + np.log(mass)) - ext[:-1] @ self._stat
        e *= self.total / mass
        sums = np.add.reduceat(e, self._runs, axis=1)
        g = np.bincount(self._run_index, sums.ravel(), minlength=ext.size - 1)
        g -= self._stat
        return float(F), g[:-1]


def event_table(data, layout):
    """The event table of a fit's records (a ``_FitData``), or None where
    the row kernel serves it: a model with covariate weights, or a table of more
    cells, P * (m+1), than the records have choice events. An evaluation
    touches each table cell a few times, and the row kernel each event, so
    the rule compares their work analytically. The build stops at the first
    list position whose keys pass that bound.

    The build walks the rows in the order of length that ``_FitData``
    keeps, so that the rows making a choice at a position, and those
    listing an item there, are suffixes."""
    v, m, size = layout.variant, layout.m, layout.size
    index = layout.banks(np.arange(size))  # each bank's utility indices
    if index[0][2].size:  # covariate weights
        return None
    K, aug = len(index), index[0][1].size > 0
    # each bank's item indices, then its END indices by position; a
    # composite's END has index size, a utility of 0
    at = np.array([np.append(items, end if aug else size) for items, end, _ in index])
    items, lengths, w = data.items, data.lengths, data.weights
    R = lengths.shape[0]
    # one event per listed item, then END after k < m items (augmented)
    steps = lengths + (aug & (lengths < m))
    limit = int(w @ steps) // (m + 1)
    stratum = length_strata(lengths, K)
    ids = np.hstack([items, np.full((R, 1), -1, items.dtype)])
    listed = np.zeros(((m + 7) // 8, R), dtype=np.uint8)  # each row's listed items, byte by byte
    P, tables, sets, banks, uidx = 0, [], [], [], []
    for j in range(int(steps.max(initial=0))):
        row = slice(np.searchsorted(steps, j, side="right"), None)  # the rows choosing at j
        bits = listed[:, row]  # the prefix set of each event at j
        if v == "c-ld":
            bank = stratum[row]
        else:
            bank = np.full(bits.shape[1], min(j, K - 1))
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
        cols = [*range(m), min(m + j, at.shape[1] - 1)]  # the items, then END at j
        uidx.append(at[banks[-1]][:, cols])
        # add each listed item to its row's set; those rows are a suffix of row
        lists = np.searchsorted(lengths, j, side="right")
        on = chosen[lists - row.start :]
        bit = (128 >> on % 8).astype(np.uint8)
        for byte, col in enumerate(listed[:, lists:]):
            col |= np.where(on // 8 == byte, bit, 0)
    if P == 0:  # no choices at all
        return None
    avail = np.ones((P, m + 1), dtype=bool)
    avail[:, :m] = np.unpackbits(np.concatenate(sets), axis=1, count=m) == 0
    avail[:, m] = aug
    # each bank's counts over the normalizer of its term; a composite's
    # term 0 is its length
    norm = _bank_event_counts(lengths, w, m, K, v)
    counts = np.concatenate(tables) / norm[(not aug) + np.concatenate(banks)][:, None]
    uidx = np.concatenate(uidx)
    if not aug:
        avail = np.vstack([avail, np.arange(m + 1) < m])
        counts = np.vstack([counts, np.append(data.length_counts[1:], 0.0) / norm[0]])
        uidx = np.vstack([uidx, np.append(np.arange(m), size)])
    return EventTable(avail, counts, uidx, size)


def _bank_event_counts(lengths, weights, m, K, variant="a-s"):
    """The normalizer of each term of a variant's objective, in the order of
    its row terms. A composite averages its length term over the records
    and its K ranking terms over the records of each length stratum; a-s
    averages each bank's term over the choices made with it (k items, plus
    END if k < m); the other augmented variants average their one term over
    the records."""
    if variant == "a-s":
        per_row = np.maximum((lengths + (lengths < m))[:, None] - np.arange(K), 0)
        per_row[:, :-1] = np.minimum(per_row[:, :-1], 1)
        return weights @ per_row
    n = weights.sum()
    if variant in COMPOSITE_VARIANTS:
        return np.append(n, np.bincount(length_strata(lengths, K), weights, minlength=K))
    return np.full(1, n)
