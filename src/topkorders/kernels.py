"""Batch log-likelihood and gradient kernels for all six model variants.

Every model is a sequence of softmax choices from a shrinking set. The
Plackett-Luce kernel serves the composite rankings; the two augmented
kernels add END as the (m+1)-th option, with one utility vector per rank
bank (``augs_nll_grad``; naive A is K = 1) or one END utility per position
(``apd_nll_grad``).

Inputs are padded ballot arrays: ``items`` (n, kmax) of 0-based ids with -1
padding, ``lengths`` (n,), ``unchosen`` (n, m), 1.0 where an item is not on
the row's list (see :func:`unchosen_mask`), and ``weights`` (n,)
multiplicities, 1 for a row that is one record. Utilities are per row:
their leading axis R is 1, shared by every row (covariate-free models), or
n, where row i carries delta + x_i . beta.

Each kernel returns the per-row log-probabilities and, unless ``grad`` is
false, the gradient of sum_i w_i log p_i with respect to the utilities, in
the utilities' shape; with R = 1 it is summed over rows.

The kernels walk the choice positions from last to first over rows sorted
by list length (sorting a copy when the caller's rows are not), so position
j touches only the rows that make a choice there and the work grows with
the number of choices, not with n times the longest list. The mass left at
each choice is a sum of positive terms: the row's unchosen items (and END)
plus a suffix sum over the list items not chosen yet. Subtracting the
chosen prefix from the total mass instead loses all precision once the
utility spread passes about 36. The gradient likewise charges each item
only at the choices where it is still available, so no term is taken back.
"""

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


def bank_utilities(X, banks, betas):
    """Augmented utilities (R, K, m+1) from banks (K, m+1); END takes no covariates."""
    items = item_utilities(X, banks[:, :-1], betas)
    end = np.broadcast_to(banks[:, -1:], items.shape[:2] + (1,))
    return np.concatenate([items, end], axis=2)


def length_strata(lengths, K):
    """The 0-based length stratum of each list, min(max(k, 1), K) - 1: an
    empty list falls in the first, every list of K or more items in the last."""
    return np.minimum(np.maximum(lengths, 1), K) - 1


def unchosen_mask(items: np.ndarray, m: int) -> np.ndarray:
    """(n, m) float mask: 1.0 where item a is not on row i's list."""
    n = items.shape[0]
    mask = np.ones((n, m + 1))
    mask[np.arange(n)[:, None], np.where(items >= 0, items, m)] = 0.0
    return np.ascontiguousarray(mask[:, :m])


class _Rows:
    """The rows sorted by length, with their ids stored position by position.

    ``lo[j]`` is the first row of length >= j, so position j lists an item
    in rows lo[j+1]..n-1 and ends the list (END) in rows lo[j]..lo[j+1]-1.
    """

    def __init__(self, items, lengths, unchosen, weights, J):
        self.order = None
        if np.any(lengths[1:] < lengths[:-1]):
            self.order = np.argsort(lengths, kind="stable")
            items, lengths = items[self.order], lengths[self.order]
            unchosen, weights = unchosen[self.order], weights[self.order]
        self.n, self.J = lengths.shape[0], J
        self.ids = np.full((J, self.n), -1, dtype=np.int64)
        self.ids[: items.shape[1]] = items.T
        self.lo = np.searchsorted(lengths, np.arange(J + 1))
        self.unchosen, self.weights = unchosen, weights

    def sort(self, u):
        """Per-row utilities (R = n) in the sorted row order."""
        return u if self.order is None or u.shape[0] == 1 else u[self.order]

    def unsort(self, x):
        """A per-row result back in the caller's row order."""
        if self.order is None or x is None or x.shape[0] != self.n:
            return x
        out = np.empty_like(x)
        out[self.order] = x
        return out


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


def _pass(rows, e, t, p0, p1, end_e=None, end_t=None, grad=True):
    """The choices at positions p0 <= j < p1, all made with one utility set.

    e and t are the (R, m) exp-shifted and shifted item utilities; end_e and
    end_t the (R, J) END utilities by position, or None where END is no
    option (Plackett-Luce). Items listed from p1 on count in the remaining
    mass; items listed before p0 are gone at p0..p1-1.

    Returns the rows' log-probability terms (n,) and, unless grad is false,
    the gradients w.r.t. the item utilities (R, m) and the END utilities
    (R, J) of sum_i w_i log p_i. An item is charged w e_a / (remaining mass)
    at each choice where it is still available: an unchosen item at every
    choice of the pass, a listed item at the choices up to its own position.
    No charge is taken back, so the gradient stays exact at any spread.
    """
    n, lo, w = rows.n, rows.lo, rows.weights
    R, m = e.shape
    free = _free(rows.unchosen, e)
    logp = np.zeros(n)
    acc = np.zeros(0)  # mass of the items listed at positions >= j
    listed, inv = [], {}  # each position's listed items; weight over remaining mass
    g_end = np.zeros((R, rows.J)) if grad and end_e is not None else None
    for j in range(rows.J - 1, p0 - 1, -1):
        a = lo[j + 1]
        ids = rows.ids[j, a:]
        E = _at(e, ids, a)
        acc = E + _pad(acc, n - a)
        listed.append((j, a, ids, E))
        if j >= p1:
            continue
        b = a if end_e is None else lo[j]  # rows choosing an item or END at j
        rem = _pad(acc, n - b) + free[b:]
        if end_e is not None:
            rem += _col(end_e, j, b, n)
        log_rem = np.log(rem)
        logp[a:] += _at(t, ids, a) - log_rem[a - b :]
        if end_e is not None:
            logp[b:a] += _col(end_t, j, b, a) - log_rem[: a - b]
        if not grad:
            continue
        inv[j] = w[b:] / rem
        if end_e is not None:
            if R == 1:
                g_end[0, j] = w[b:a].sum() - end_e[0, j] * inv[j].sum()
            else:
                g_end[b:, j] = -end_e[b:, j] * inv[j]
                g_end[b:a, j] += w[b:a]
    if not grad:
        return logp, None, None
    head = np.zeros(n)  # per row, inv summed over the pass's choices up to j
    at, vals = [], []  # the listed items' gradient terms
    for j, a, ids, E in reversed(listed):
        if j < p1:
            head[n - inv[j].shape[0] :] += inv[j]
        at.append(ids if R == 1 else ids + m * np.arange(a, n))
        vals.append((w[a:] if j < p1 else 0.0) - E * head[a:])
    g = -e * (head @ rows.unchosen if R == 1 else rows.unchosen * head[:, None])
    g += np.bincount(np.concatenate(at), np.concatenate(vals), minlength=R * m).reshape(R, m)
    return logp, g, g_end


# ---------------------------------------------------------------------------
# Plackett-Luce over the plain universe (composite ranking component)
# ---------------------------------------------------------------------------

def pl_nll_grad(items, lengths, unchosen, weights, theta, grad=True):
    """PL log-marginals (n,) of the rows under theta (R, m), and the gradient."""
    rows = _Rows(items, lengths, unchosen, weights, items.shape[1])
    theta = rows.sort(theta)
    t = theta - theta.max(axis=1, keepdims=True)
    logp, g, _ = _pass(rows, np.exp(t), t, 0, rows.J, grad=grad)
    return rows.unsort(logp), rows.unsort(g)


# ---------------------------------------------------------------------------
# Stratified augmented model (naive A is the K=1 case)
# ---------------------------------------------------------------------------

def augs_nll_grad(items, lengths, unchosen, weights, banks, grad=True):
    """Augmented log-probabilities (n, K) under banks (R, K, m+1), and the gradient.

    Choice position j (1-based, the terminal END choice at k+1 included)
    uses bank min(j, K); rows with k = m have no terminal choice. Column b
    of the log-probabilities holds the choices made with bank b, so the
    gradient of bank b is that of the weighted column-b sum alone.
    """
    R, K, mp1 = banks.shape
    m = mp1 - 1
    rows = _Rows(items, lengths, unchosen, weights, min(items.shape[1] + 1, m))
    banks = rows.sort(banks)
    t = banks - banks.max(axis=2, keepdims=True)
    e = np.exp(t)
    logp = np.zeros((rows.n, K))
    g = np.zeros((R, K, mp1)) if grad else None
    for b in range(min(K, rows.J)):
        p1 = b + 1 if b < K - 1 else rows.J
        end_e, end_t = (np.broadcast_to(v[:, b, m:], (R, rows.J)) for v in (e, t))
        logp[:, b], g_items, g_end = _pass(
            rows, e[:, b, :m], t[:, b, :m], b, p1, end_e, end_t, grad
        )
        if grad:
            g[:, b, :m] = g_items
            g[:, b, m] = g_end.sum(axis=1)
    return rows.unsort(logp), rows.unsort(g)


# ---------------------------------------------------------------------------
# Position-dependent augmented model (A-PD)
# ---------------------------------------------------------------------------

def apd_nll_grad(items, lengths, unchosen, weights, theta, gamma, grad=True):
    """A-PD log-probabilities (n,) under item utilities theta (R, m) and END
    utilities gamma (m,), with gradients w.r.t. theta and gamma."""
    R, m = theta.shape
    rows = _Rows(items, lengths, unchosen, weights, min(items.shape[1] + 1, m))
    theta = rows.sort(theta)
    shift = np.maximum(theta.max(axis=1), gamma.max())[:, None]
    t = theta - shift
    tg = gamma[: rows.J] - shift
    logp, g_theta, g_end = _pass(rows, np.exp(t), t, 0, rows.J, np.exp(tg), tg, grad)
    if not grad:
        return rows.unsort(logp), None, None
    g_gamma = np.zeros(m)
    g_gamma[: rows.J] = g_end.sum(axis=0)
    return rows.unsort(logp), rows.unsort(g_theta), g_gamma
