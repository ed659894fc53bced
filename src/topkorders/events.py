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
a utility 0, for an option without a parameter (a composite's END). An
unavailable option reads the utility of an option available at the same
key, which leaves the key's maximum unchanged and keeps every exp finite,
and a 0/1 mask then zeroes its exp: numpy's exp leaves its fast vector path
for each -inf cell and each result that underflows. Keys sharing a
utility-index row contribute to the same parameters, so the gradient first
sums each run of such keys column by column and scatters only those run
sums onto the parameters: a few rows per bank and position, however many
keys the table holds. The tables of several fits evaluate as one
``TableStack``, each fit's parameters a segment of one vector, so that a
grid of fits pays one pass of numpy calls per epoch.
"""

from functools import cached_property

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
    ``nll_grad`` evaluates the table alone, as a ``TableStack`` of one.
    """

    def __init__(self, avail, counts, uidx, size):
        self.avail, self.counts, self.uidx, self.size = avail, counts, uidx, size
        self.total = counts.sum(axis=1)

    @cached_property
    def _alone(self):
        return TableStack([self])

    def nll_grad(self, flat):
        """The scaled negative log-likelihood of every choice and its gradient."""
        ext = np.append(flat, 0.0)
        lse, g = self._alone.evaluate(ext)
        return self._alone.nll(0, lse, ext), g[:-1]


class TableStack:
    """The event tables of several fits, evaluated in one pass. Fit i's
    parameters, then its utility 0, are ``segments[i]`` of one extended
    vector, and its keys a contiguous range of the stacked keys.

    The evaluation works on a transposed index, so that its reductions run
    over contiguous rows, one per option available at some key (a
    composite's END is at none), in which an unavailable option reads an
    available option's utility and its mask is 0. Keys come in runs of equal
    utility-index rows, the keys of one bank at one position; the gradient
    sums each run's keys with ``np.add.reduceat`` and scatters those sums,
    a few per bank and position, not the P * (m+1) cells. The counts enter
    only through their sums per parameter. Every float of a fit equals that
    of its table evaluated alone: each key and each parameter reads only
    its own fit's cells, in the same order.
    """

    def __init__(self, tables):
        ends = np.cumsum([t.size + 1 for t in tables])
        firsts = np.cumsum([0] + [t.total.size for t in tables])
        self.segments = [slice(end - t.size - 1, end) for t, end in zip(tables, ends)]
        index, mask, runs, run_index, stat = [], [], [], [], []
        for t, seg, first in zip(tables, self.segments, firsts):
            avail, uidx = t.avail, t.uidx + seg.start
            cols = avail.any(axis=0)  # a composite's END is available at no key
            some = uidx[np.arange(len(uidx)), avail.argmax(axis=1)]  # available at each key
            index.append(np.where(avail, uidx, some[:, None])[:, cols].T)
            mask.append(avail[:, cols].T)
            starts = np.flatnonzero(np.r_[True, np.any(uidx[1:] != uidx[:-1], axis=1)])
            runs.append(starts + first)
            run_index.append(uidx[starts][:, cols].T)
            stat.append(np.bincount(t.uidx.ravel(), t.counts.ravel(), minlength=t.size + 1))
        self._index = np.ascontiguousarray(np.hstack(index))
        self._mask = np.ascontiguousarray(np.hstack(mask), dtype=np.float64)
        self._runs = np.concatenate(runs)
        self._run_index = np.hstack(run_index).ravel()
        self._stat = np.concatenate(stat)
        self._total = np.concatenate([t.total for t in tables])
        keys = [slice(a, b) for a, b in zip(firsts[:-1], firsts[1:])]
        self._fits = [(k, self._total[k], seg, self._stat[seg])
                      for k, seg in zip(keys, self.segments)]

    def evaluate(self, ext):
        """Each key's log normalizer and the gradient over ext, the stacked
        parameters, of the scaled negative log-likelihoods of all fits."""
        e = ext.take(self._index)
        top = e.max(axis=0)
        e -= top
        np.exp(e, out=e)
        e *= self._mask
        mass = e.sum(axis=0)  # a sum of nonnegative terms, the largest 1
        lse = top + np.log(mass)
        e *= self._total / mass
        sums = np.add.reduceat(e, self._runs, axis=1)
        g = np.bincount(self._run_index, sums.ravel(), minlength=ext.size)
        g -= self._stat
        return lse, g

    def nll(self, i, lse, ext) -> float:
        """Fit i's scaled negative log-likelihood, from ``evaluate``'s lse."""
        keys, total, seg, stat = self._fits[i]
        return float(total.dot(lse[keys]) - ext[seg].dot(stat))  # dot: the BLAS call of @


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
