"""Seeded input generator for the benchmark workloads.

Every input file is a pure function of the workload seed. The ground-truth
models are fixed (``TRUTH_SEED``), so files written under different seeds are
independent draws from one population, as a held-out file is in practice.

The generator uses numpy only, never the package under test, so a change to
the package cannot change the inputs or the set-up time measured here.

Ballot files are written count-compressed (``count: a,b,c``) with the most
frequent lines first, the way preflib publishes real election files.
"""

import os

import numpy as np

M = 8
TRUTH_SEED = 20240622

RCV5_N = 253_866  # ballots in the paper's largest ranked-choice file
RCV5_MEAN_LENGTH = 2.5
RCV5_MEAN_TOLERANCE = 0.1
HELDOUT_N = 10_000
CV_N = 5_000
CV_HELDOUT_N = 2_000
CAPACITY_SHARE = 0.7  # seats for 70% of the students in the assignment market
COV_N = 1_000
COV_D = 2

# Length pmf over k = 1..8 of the covariate-free truth; its mean is 2.54.
RCV_LENGTH_PMF = np.array([0.37, 0.25, 0.15, 0.09, 0.05, 0.04, 0.03, 0.02])
RCV_K = 3  # preference banks by list-length stratum min(k, 3), as in c-ld

# Independent streams: (seed, stream) seeds one file's draws.
STREAM_RCV5, STREAM_HELDOUT, STREAM_CV, STREAM_COV, STREAM_COV_HELDOUT = range(5)


def _rcv_truth():
    rng = np.random.default_rng(TRUTH_SEED)
    base = np.linspace(0.8, -0.8, M)
    banks = base[None, :] + 0.5 * rng.standard_normal((RCV_K, M))
    return banks


def _cov_truth():
    rng = np.random.default_rng((TRUTH_SEED, 1))
    delta = np.linspace(0.8, -0.8, M) + 0.3 * rng.standard_normal(M)
    beta = np.array([0.9, -0.6])
    rate_weights = np.array([1.5, 1.0])
    return delta, beta, rate_weights


def _gumbel_top(u, lengths, rng):
    """Plackett-Luce prefixes by the Gumbel-max trick; rows padded with 0."""
    n = lengths.shape[0]
    ranked = np.argsort(-(u + rng.gumbel(size=(n, M))), axis=1) + 1
    ranked[np.arange(M)[None, :] >= lengths[:, None]] = 0
    return ranked


def sample_rcv(n, rng):
    """n ballots from the covariate-free truth; (n, M) item ids, 0-padded."""
    banks = _rcv_truth()
    lengths = rng.choice(M, size=n, p=RCV_LENGTH_PMF) + 1
    bank = np.minimum(lengths, RCV_K) - 1
    return _gumbel_top(banks[bank], lengths, rng)


def sample_cov(n, rng):
    """n agents from the c-ci truth: ((n, M) ballots, (n, M, d) features).

    Lengths are a Poisson with rate exp(w . mean_j x_j) clipped into [1, M];
    utilities are delta + x . beta.
    """
    delta, beta, rate_weights = _cov_truth()
    x = rng.standard_normal((n, M, COV_D))
    rate = np.exp(x.mean(axis=1) @ rate_weights)
    lengths = np.clip(rng.poisson(rate), 1, M)
    return _gumbel_top(delta[None, :] + x @ beta, lengths, rng), x


def ballot_lines(ballots):
    """Count-compressed lines, most frequent first, then by ballot."""
    # each row as one base-(M+1) integer: unique over scalars, not rows
    keys = ballots @ (M + 1) ** np.arange(M - 1, -1, -1)
    uniq, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.lexsort((uniq, -counts))
    lines = []
    for i in order:
        row = ballots[first[i]]
        lines.append(f"{counts[i]}: " + ",".join(map(str, row[row > 0])))
    return lines


# LOG_TOPK[k] = log(M! / (M - k)!), the log count of top-k lists over M items
LOG_TOPK = np.concatenate([[0.0], np.cumsum(np.log(np.arange(M, 0, -1)))])


def shape_record(ballots, distinct_lines):
    """n, m, distinct lines, mean length and the null model's NLL of a file.

    The null model draws a list length from the file's own length pmf and
    then a top-k list uniformly. Its NLL in nats per ballot is the scale the
    quality metrics are reported on, so that seed-to-seed differences in the
    lengths drawn cancel out of them.
    """
    lengths = (ballots > 0).sum(axis=1)
    pmf = np.bincount(lengths, minlength=M + 1) / lengths.size
    return {
        "n": int(ballots.shape[0]),
        "m": M,
        "distinct_lines": distinct_lines,
        "mean_length": float(lengths.mean()),
        "null_nll": float(np.mean(LOG_TOPK[lengths] - np.log(pmf[lengths]))),
    }


def write_ballots(path, ballots, name):
    """Write a preflib 2021 ballot file; returns its shape record."""
    lines = ballot_lines(ballots)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# FILE NAME: {name}\n")
        fh.write("# DATA TYPE: soi\n")
        fh.write(f"# NUMBER ALTERNATIVES: {M}\n")
        fh.write(f"# NUMBER VOTERS: {ballots.shape[0]}\n")
        fh.write(f"# NUMBER UNIQUE ORDERS: {len(lines)}\n")
        for j in range(1, M + 1):
            fh.write(f"# ALTERNATIVE NAME {j}: Candidate {j}\n")
        fh.write("\n".join(lines) + "\n")
    return shape_record(ballots, len(lines))


def _write_unit_ballots(path, ballots, name):
    """Agent-ordered ballots, one per line, so row i matches agent i + 1."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# FILE NAME: {name}\n")
        fh.write(f"# NUMBER ALTERNATIVES: {M}\n")
        fh.write(f"# NUMBER VOTERS: {ballots.shape[0]}\n")
        for row in ballots:
            fh.write("1: " + ",".join(map(str, row[row > 0])) + "\n")
    return shape_record(ballots, int(np.unique(ballots, axis=0).shape[0]))


def write_covariates(path, x):
    """The agent_id,item_id,f1,... table; agent a + 1 is ballot row a."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("agent_id,item_id," + ",".join(f"f{c + 1}" for c in range(x.shape[2])) + "\n")
        for a in range(x.shape[0]):
            for j in range(M):
                feats = ",".join(repr(float(v)) for v in x[a, j])
                fh.write(f"{a + 1},{j + 1},{feats}\n")


def write_capacities(path, n_students):
    seats = int(round(CAPACITY_SHARE * n_students))
    caps = [seats // M + (1 if j < seats % M else 0) for j in range(M)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("program_id,capacity\n")
        for j, c in enumerate(caps, start=1):
            fh.write(f"{j},{c}\n")
    return sum(caps)


def _check_rcv5_shape(rec):
    if rec["n"] != RCV5_N or rec["m"] != M:
        raise RuntimeError(f"rcv5 file has shape {rec}, expected n={RCV5_N}, m={M}")
    if abs(rec["mean_length"] - RCV5_MEAN_LENGTH) > RCV5_MEAN_TOLERANCE:
        raise RuntimeError(f"rcv5 mean length {rec['mean_length']} outside 2.5 +- 0.1")


def generate(workload, seed, out_dir):
    """Write the workload's input files under out_dir.

    Returns ({role: path}, {role: shape record}).
    """
    os.makedirs(out_dir, exist_ok=True)
    paths, files = {}, {}

    def rng(stream):
        return np.random.default_rng((seed, stream))

    def rcv_file(role, n, stream):
        paths[role] = os.path.join(out_dir, f"{role}.soi")
        files[role] = write_ballots(paths[role], sample_rcv(n, rng(stream)), role)

    def cov_files(role, stream):
        arr, x = sample_cov(COV_N, rng(stream))
        paths[role] = os.path.join(out_dir, f"{role}.soi")
        files[role] = _write_unit_ballots(paths[role], arr, role)
        paths[role + "_x"] = os.path.join(out_dir, f"{role}_x.csv")
        write_covariates(paths[role + "_x"], x)
        files[role + "_x"] = {"agents": COV_N, "m": M, "d": COV_D}

    def capacities(n_students):
        paths["capacities"] = os.path.join(out_dir, "capacities.csv")
        seats = write_capacities(paths["capacities"], n_students)
        files["capacities"] = {"programs": M, "seats": seats}

    if workload == "rcv5":
        rcv_file("rcv5", RCV5_N, STREAM_RCV5)
        _check_rcv5_shape(files["rcv5"])
        rcv_file("heldout", HELDOUT_N, STREAM_HELDOUT)
        rcv_file("cv_small", CV_HELDOUT_N, STREAM_CV)
        capacities(HELDOUT_N)
    elif workload == "covariates":
        cov_files("cov", STREAM_COV)
        cov_files("cov_heldout", STREAM_COV_HELDOUT)
        capacities(COV_N)
    elif workload == "cv":
        rcv_file("cv", CV_N, STREAM_CV)
        rcv_file("cv_heldout", CV_HELDOUT_N, STREAM_HELDOUT)
        capacities(CV_HELDOUT_N)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return paths, files


# ---------------------------------------------------------------------------
# Command plans
# ---------------------------------------------------------------------------
# One plan per workload, run in order by one closed-loop client. The CLI run
# turns each step into a command line and the traced run replays it through
# the library, so both run the same steps. Keys name input-file roles from
# generate() and checkpoints written by earlier steps.
#
# Each plan runs the issue's commands for its workload, as users run them.
# Every end-to-end quality metric must be measured on every workload, so a
# plan adds the one command a metric needs where its own commands lack it,
# at small size: a `cv` on rcv5 and covariates, a `fit` and `eval` on cv.
#
# `sample` of an augmented model runs with --no-empty: without it the CLI
# writes each empty draw as a `1: ` line that parse_preflib rejects, so no
# replicate would pass its re-parse check (see the strict xfail test in
# test_perfbench.py, which turns into a failure once that is fixed).

ADAM_20 = {"max_epochs": 20, "tol": 1e-12}  # fixed epoch budget, no early stop

PLANS = {
    # Large n, heavy duplication: parse, dedup, covariate-free objective,
    # per-record test_nll, batch sampling and deferred acceptance.
    "rcv5": [
        {"cmd": "stats", "data": "rcv5"},
        {"cmd": "fit", "data": "rcv5", "model": "a-s", "K": 3, "ckpt": "as"},
        {"cmd": "eval", "ckpt": "as", "data": "heldout", "reps": 2},
        {"cmd": "sample", "ckpt": "as", "n": RCV5_N, "reps": 1, "no_empty": True},
        {"cmd": "assign", "prefs": "heldout", "synthetic_from": "as", "reps": 1},
        # for cv_nll: one default fit per fold of a 2,000-ballot file
        {"cmd": "cv", "data": "cv_small", "model": "c-i", "folds": 2, "Ks": [1], "lapls": [0.0]},
    ],
    # Per-agent covariates at small n: the per-record Python paths.
    "covariates": [
        {"cmd": "fit", "data": "cov", "cov": "cov_x", "model": "c-ci", "ckpt": "cci", **ADAM_20},
        {"cmd": "fit", "data": "cov", "cov": "cov_x", "model": "a-s", "K": 3, "ckpt": "as", **ADAM_20},
        {"cmd": "eval", "ckpt": "cci", "data": "cov_heldout", "cov": "cov_heldout_x"},
        {"cmd": "sample", "ckpt": "as", "cov": "cov_x", "n": COV_N, "reps": 2, "no_empty": True},
        # for cv_nll: covariate folds with three epochs each
        {"cmd": "cv", "data": "cov", "cov": "cov_x", "model": "c-ci", "folds": 2,
         "Ks": [1], "lapls": [0.0], "max_epochs": 3, "tol": 1e-12},
    ],
    # Many small fits: per-fit set-up, fold subsetting, held-out NLL.
    "cv": [
        # for fit_objective and test_nll
        {"cmd": "fit", "data": "cv", "model": "c-ld", "K": 3, "ckpt": "cld"},
        {"cmd": "eval", "ckpt": "cld", "data": "cv_heldout"},
        {"cmd": "cv", "data": "cv", "model": "c-ld", "folds": 3, "Ks": [1, 3],
         "lapls": [0.0, 1e-2], "workers": 2},
    ],
}

# Steps the traced run replays after the plan, outside the CLI session, to
# time the layers the workload's own commands do not reach (sampling and
# writing a replicate, the eval report, deferred acceptance).
PROBES = {
    "rcv5": [],
    "covariates": [
        {"cmd": "eval", "ckpt": "cci", "data": "cov_heldout", "cov": "cov_heldout_x", "reps": 1},
        {"cmd": "assign", "prefs": "cov_heldout"},
    ],
    "cv": [
        {"cmd": "eval", "ckpt": "cld", "data": "cv_heldout", "reps": 1},
        {"cmd": "sample", "ckpt": "cld", "n": CV_N, "reps": 1},
        {"cmd": "assign", "prefs": "cv_heldout"},
    ],
}

# The ballot file whose parse, dedup and sizes the per-layer metrics report.
MAIN_DATA = {"rcv5": "rcv5", "covariates": "cov", "cv": "cv"}
