"""Adam on flat parameter vectors: one fit, or many stepped in lockstep.

The fits of a cross-validation grid are small and many, and an epoch of one
of them is mostly numpy call overhead. ``run`` steps a batch of fits
through one Adam loop, one epoch at a time, each fit to its own stopping
point: their event tables evaluate as one ``events.TableStack``, and one
Adam step and one penalty gradient cover every fit, each fit's parameters
a segment of one vector. The terms of each fit's objective are then
summed over views of its own segment by the calls a fit alone makes, and
every other operation works element by element, so each fit's floats
equal those of the fit run alone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .events import TableStack


class NonFiniteLossError(RuntimeError):
    pass


@dataclass
class FitResult:
    model: object
    trace: list = field(default_factory=list)  # (epoch, objective, grad_norm)
    converged: bool = False
    epochs_run: int = 0

    @property
    def final_objective(self) -> float:
        return self.trace[-1][1]

    @property
    def final_grad_norm(self) -> float:
        return self.trace[-1][2]


class Penalties:
    """The L2 and Laplacian penalties of the fits (layout, cfg) whose
    parameters are the segments ``params`` of one vector of ``size``. A
    fit's Laplacian penalty is lambda_L * sum_{b=1..K-1} ||theta_b -
    theta_{b-1}||^2 over its banks, a path graph; one bank has no adjacent
    banks, a penalty of 0. ``gradient`` adds every fit's penalty gradients
    in a few calls over the whole vector, each element in the order a fit
    alone adds them, and ``penalize`` sums a fit's penalties over its own
    segment.
    """

    def __init__(self, fits, params, size):
        self.l2 = [cfg.lambda_l2 for _, cfg in fits]
        self.lams = [cfg.lambda_laplacian if layout.K > 1 else 0.0 for layout, cfg in fits]
        self.twice_l2 = np.zeros(size)
        hi, lo, self.diffs = [], [], []
        for (layout, cfg), p, lam in zip(fits, params, self.lams):
            self.twice_l2[p] = 2.0 * cfg.lambda_l2
            rows = layout.bank_rows(np.arange(p.start, p.stop)) if lam else np.empty((0, 0), int)
            n = sum(map(len, hi))
            hi.append(rows[1:].ravel())
            lo.append(rows[:-1].ravel())
            self.diffs.append(slice(n, n + hi[-1].size))
        self.hi, self.lo = np.concatenate(hi), np.concatenate(lo)
        self.twice_lam = np.repeat(2.0 * np.array(self.lams), list(map(len, hi)))

    def gradient(self, flat, grad):
        """Add every fit's penalty gradient to grad; returns the differences
        of adjacent banks that ``penalize`` reads."""
        grad += self.twice_l2 * flat
        if not self.hi.size:
            return None
        diff = flat[self.hi] - flat[self.lo]
        step = diff * self.twice_lam
        grad[self.hi] += step
        grad[self.lo] -= step
        return diff

    def penalize(self, i, F, theta, diff) -> float:
        """Fit i's objective: F plus its penalties, theta its parameters and
        diff from ``gradient``."""
        F += self.l2[i] * float(theta.dot(theta))  # dot: the BLAS call of @, called faster
        if self.lams[i]:
            d = diff[self.diffs[i]]
            F += self.lams[i] * float(d.dot(d))
        return float(F)


def _adam_step(flat, g, mom, vel, t, lr, b1, b2, eps):
    mom *= b1
    mom += (1 - b1) * g
    vel *= b2
    g2 = g * g
    g2 *= 1 - b2
    vel += g2
    # lr * mhat / (sqrt(vhat) + eps), the bias corrections moved onto scalars
    root = math.sqrt(1 - b2**t)
    den = np.sqrt(vel, out=g2)
    den += eps * root
    step = mom * (lr * root / (1 - b1**t))
    step /= den
    return flat - step


def run(fits, traces: bool = True) -> list:
    """Minimize each fit's F by Adam until |F_t - F_{t-1}| < its tol or its
    max_epochs; returns each fit's FitResult, or the NonFiniteLossError it
    stopped on. Without ``traces`` a result keeps its last trace entry only,
    and an error an empty trace.

    A fit has a layout, an acting config, an event table (or None), a
    universe, a mini-batch size (None for a full batch), the row count and
    ``nll_grad(flat, rows=None)``, its scaled NLL and gradient over all its
    rows or over a mini-batch of them. One fit evaluates on ``nll_grad``
    and may take mini-batch steps. More fits must be full-batch fits with
    event tables that share the Adam settings of the first. A fit that
    meets its tol takes that epoch's step; then its segment is frozen.
    """
    cfg = fits[0].cfg
    stack = TableStack([f.table for f in fits]) if len(fits) > 1 else None
    starts = [seg.start for seg in stack.segments] if stack else [0]
    params = [slice(a, a + f.layout.size) for a, f in zip(starts, fits)]
    flat = np.zeros(params[-1].stop + (stack is not None))  # a stack ends in a utility 0
    mom = np.zeros_like(flat)
    vel = np.zeros_like(flat)
    live = np.zeros(flat.size, dtype=bool)  # the parameters Adam moves
    for p in params:
        live[p] = True
    penalties = Penalties([(f.layout, f.cfg) for f in fits], params, flat.size)
    adam = (cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon_opt)
    batch = fits[0].batch
    rng = None if batch is None else np.random.default_rng(cfg.seed)  # only batches are drawn

    def advance(g):
        nonlocal step
        step += 1
        np.copyto(flat, _adam_step(flat, g, mom, vel, step, *adam), where=live)

    step = 0
    running = list(range(len(fits)))
    thetas = [flat[p] for p in params]  # views, as Adam updates flat in place
    trace, prev = [[] for _ in fits], [None] * len(fits)
    results = [None] * len(fits)
    for epoch in range(1, max(f.cfg.max_epochs for f in fits) + 1):
        if batch is not None:  # one fit: mini-batches of records, reshuffled per epoch
            perm = rng.permutation(fits[0].n)
            for lo in range(0, fits[0].n, batch):
                rows = np.sort(perm[lo : lo + batch])  # rows stay in length order
                g = fits[0].nll_grad(flat, rows)[1]
                penalties.gradient(flat, g)
                advance(g)
        if stack is None:
            nll, g = fits[0].nll_grad(flat)
        else:
            lse, g = stack.evaluate(flat)
        diff = penalties.gradient(flat, g)
        done = []
        for i in list(running):
            f, p = fits[i], params[i]
            F = nll if stack is None else stack.nll(i, lse, flat)
            F = penalties.penalize(i, F, thetas[i], diff)
            if not math.isfinite(F):
                results[i] = NonFiniteLossError(
                    f"objective diverged at epoch {epoch}; trace={trace[i]}"
                )
                running.remove(i)
                live[p] = False
                for a in (flat, mom, vel, g):  # finite values, which steps leave alone
                    a[p] = 0.0
                continue
            converged = prev[i] is not None and abs(F - prev[i]) < f.cfg.tol
            prev[i] = F
            stop = converged or epoch == f.cfg.max_epochs
            if traces or stop:
                trace[i].append((epoch, F, math.sqrt(g[p].dot(g[p]))))
            if stop:
                done.append((i, converged))
        if batch is None and running:
            advance(g)
        for i, converged in done:  # frozen after this epoch's step
            f, p = fits[i], params[i]
            running.remove(i)
            live[p] = False
            model = f.layout.to_model(thetas[i].copy(), f.universe)
            results[i] = FitResult(model, trace[i], converged, epoch)
        if not running:
            break
    return results
