"""The batch log-likelihood and gradient kernel for all six model variants.

Every model is a sequence of softmax choices from a shrinking set, with END
as one more option for the augmented models; the variants differ only in
which utility bank makes each choice. One kernel, ``choice_nll_grad``,
makes the choices of one bank: over a span of rows (a c-ld length stratum)
and a range of positions (an a-s rank bank), with item utilities and, for
the augmented models, an END utility per position (one shared value for a
and a-s, gamma_j for a-pd).

Rows arrive as a ``Rows``, sorted by list length once, by the caller:
``ids`` holds 0-based item ids position by position, ``unchosen`` (n, m) is
1.0 where an item is not on the row's list, and ``weights`` (n,) are
multiplicities, 1 for a row that is one record.
Utilities are per row: their leading axis R is 1, shared by every row
(covariate-free models), or n, where row i carries delta + x_i . beta.

The kernel walks the choice positions from last to first, so position j
touches only the rows that make a choice there, a suffix of the sorted
rows, and the work grows with the number of choices, not with n times the
longest list. The mass left at each choice is a sum of positive terms:
the row's unchosen items (and END) plus a suffix sum over the list items
not chosen yet. Subtracting the chosen prefix from the total mass instead
loses all precision once the utility spread passes about 36. The gradient
likewise charges each item only at the choices where it is still
available, so no term is taken back.
"""

import math

import numpy as np


def backend_name() -> str:
    """The kernel implementation in use, recorded by benchmark runs."""
    return "numpy"


def item_utilities(X, delta, beta):
    """Item utilities (1, ..., m) shared by all rows, or (n, ..., m) with
    x_i . beta added to row i when the model is covariate-linear."""
    if beta is None or beta.size == 0:
        return delta[None]
    if X is None:
        raise ValueError("model has covariate weights but no covariates were given")
    return delta + np.einsum("imd,...d->i...m", X, beta)


def exact_dot(counts, x) -> float:
    """counts . x with one rounding, as math.fsum rounds a sum: the same
    float for any split of the same terms into (count, value) pairs. The
    counts are integers below 2^53; each product is split exactly into a
    float and its rounding error (Dekker 1971)."""
    a, b = np.asarray(counts, np.float64), np.asarray(x, np.float64)
    (ah, al), (bh, bl) = _halves(a), _halves(b)
    p = a * b
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return math.fsum(np.append(p, err[err != 0]))


def _halves(a):
    """a as hi + lo exactly, each with at most 26 significant bits (Veltkamp)."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def length_strata(lengths, K):
    """The 0-based length stratum of each list, min(max(k, 1), K) - 1: an
    empty list falls in the first, every list of K or more items in the last."""
    return np.minimum(np.maximum(lengths, 1), K) - 1


class Rows:
    """Rows in order of list length, their ids stored position by position,
    and a contiguous slice of them, ``rows[a:b]``, again a Rows.

    ``lo[j]`` is the first row of length >= j, so position j lists an item
    in rows lo[j+1]..n-1 and ends the list (END) in rows lo[j]..lo[j+1]-1.
    ``ids`` holds each position's item ids, with a row of -1 past the
    longest list, of k items.
    """

    def __init__(self, ids, lengths, unchosen, weights):
        self.ids, self.lengths, self.unchosen, self.weights = ids, lengths, unchosen, weights
        self.n = lengths.shape[0]
        self.k = int(lengths[-1]) if self.n else 0
        self.lo = np.searchsorted(lengths, np.arange(self.k + 2))

    @classmethod
    def from_padded(cls, items, lengths, weights, m):
        """The Rows of padded arrays whose lengths ascend; the rows listing
        an item at position j, whose mask entry for it is cleared, are the
        suffix from lo[j+1]."""
        ids = np.full((items.shape[1] + 1, items.shape[0]), -1, dtype=np.int64)
        ids[:-1] = items.T
        rows = cls(ids, lengths, np.ones((items.shape[0], m)), weights)
        flat = rows.unchosen.reshape(-1)
        for j in range(rows.k):
            a = rows.lo[j + 1]
            flat[np.arange(a * m, rows.n * m, m) + ids[j, a:]] = 0.0
        return rows

    def __getitem__(self, span):
        return Rows(self.ids[:, span], self.lengths[span], self.unchosen[span], self.weights[span])


def _at(v, ids, a):
    """v[i, ids[i - a]] for rows i = a..n-1; v is (R, m), row 0 when R = 1."""
    if v.shape[0] == 1:
        return v[0][ids]
    return v[np.arange(a, a + ids.shape[0]), ids]


def _col(v, j, a, b):
    """Column j of v (R, J) for rows a..b-1: a scalar when R = 1."""
    return v[0, j] if v.shape[0] == 1 else v[a:b, j]


def _pad(x, size):
    """x right-aligned in zeros of length ``size`` (rows n-size..n-1)."""
    out = np.zeros(size)
    out[size - x.shape[0]:] = x
    return out


def _free(unchosen, e):
    """Per-row mass of the items not on the row's list; e is (R, m). Each
    row is summed on its own, so that a record's log-probability does not
    depend on the rows scored with it, as a matrix-vector product's would."""
    if e.shape[0] == 1:
        return np.einsum("ia,a->i", unchosen, e[0])
    return np.einsum("ia,ia->i", unchosen, e)


def choice_nll_grad(rows, u, end=None, p0=0, p1=None, grad=True):
    """The rows' choices at positions p0 <= j < p1 (p1 None: every position),
    all made with item utilities u (R, m) and, where END is an option, END
    utility end[j] at position j; end (m,) by position, or None for
    Plackett-Luce. Items listed from p1 on count in the remaining mass;
    items listed before p0 are gone at p0..p1-1.

    Returns the rows' log-probability terms (n,) and, unless grad is false,
    the gradients of sum_i w_i log p_i w.r.t. u, in its shape, and w.r.t.
    end, summed over the rows (END takes no covariates). An item is charged
    w e_a / (remaining mass) at each choice where it is still available: an
    unchosen item at every choice of the pass, a listed item at the choices
    up to its own position. No charge is taken back, so the gradient stays
    exact at any spread.
    """
    n, lo, w = rows.n, rows.lo, rows.weights
    R, m = u.shape
    shift = u.max(axis=1) if end is None else np.maximum(u.max(axis=1), end.max())
    t = u - shift[:, None]
    e = np.exp(t)
    J = rows.k if end is None else min(rows.k + 1, m)
    p1 = J if p1 is None else min(p1, J)
    if end is not None:
        end_t = end[None, :J] - shift[:, None]
        end_e = np.exp(end_t)
    free = _free(rows.unchosen, e)
    logp = np.zeros(n)
    acc = np.zeros(0)  # mass of the items listed at positions >= j
    listed, inv = [], {}  # each position's listed items; weight over remaining mass
    g_end = None if end is None else np.zeros(m)
    for j in range(J - 1, p0 - 1, -1):
        a = lo[j + 1]
        ids = rows.ids[j, a:]
        E = _at(e, ids, a)
        acc = E + _pad(acc, n - a)
        listed.append((j, a, ids, E))
        if j >= p1:
            continue
        b = a if end is None else lo[j]  # rows choosing an item or END at j
        rem = _pad(acc, n - b) + free[b:]
        if end is not None:
            rem += _col(end_e, j, b, n)
        log_rem = np.log(rem)
        logp[a:] += _at(t, ids, a) - log_rem[a - b :]
        if end is not None:
            logp[b:a] += _col(end_t, j, b, a) - log_rem[: a - b]
        if not grad:
            continue
        inv[j] = w[b:] / rem
        if end is not None:
            g_end[j] = w[b:a].sum() - (_col(end_e, j, b, n) * inv[j]).sum()
    if not grad:
        return logp, None, None
    head = np.zeros(n)  # per row, inv summed over the pass's choices up to j
    at, vals = [np.zeros(0, np.int64)], [np.zeros(0)]  # the listed items' gradient terms
    for j, a, ids, E in reversed(listed):
        if j < p1:
            head[n - inv[j].shape[0] :] += inv[j]
        at.append(ids if R == 1 else ids + m * np.arange(a, n))
        vals.append((w[a:] if j < p1 else 0.0) - E * head[a:])
    g = -e * (head @ rows.unchosen if R == 1 else rows.unchosen * head[:, None])
    g += np.bincount(np.concatenate(at), np.concatenate(vals), minlength=R * m).reshape(R, m)
    return logp, g, g_end
