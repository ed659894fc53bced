"""Acceptance suite: one test per release criterion, pinned tolerances.

Criteria 1, 7, and 8 need the five public ranked-choice-voting (RCV) ballot
files. They are not redistributable here and this environment has no
general network access, so those tests skip unless the files have been
fetched into data/rcv/ (see scripts/fetch_rcv_data.py). Everything else
runs self-contained.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topkorders
from topkorders import (
    AugmentedModel,
    AugmentedNaiveParams,
    CategoricalLengthParams,
    CompositeModel,
    CovariateTensor,
    Dataset,
    FitConfig,
    PLParams,
    PartialOrder,
    PositionDependentParams,
    StratifiedAugmentedParams,
    StratifiedPLParams,
    Universe,
    deferred_acceptance,
    find_blocking_pair,
    fit,
    kfold_split,
    make_market,
    model_log_prob,
    outcome_stats,
    parse_preflib,
    sample_augmented_dataset,
    sample_composite_dataset,
    summary_stats,
)
from topkorders import test_nll as held_out_nll
from topkorders.estimation import ParamLayout, _FitData, objective_and_grad
from util import empirical_pmf, enum_pmf, random_model, random_orders

REPO = Path(__file__).resolve().parent.parent
RCV_DIR = REPO / "data" / "rcv"

# (tag, n, m, mean length) for the five public RCV ballot files
RCV_TABLE = [
    ("rcv1", 33394, 3, 2.04),
    ("rcv2", 193492, 4, 2.32),
    ("rcv3", 23698, 4, 2.06),
    ("rcv4", 178924, 7, 2.58),
    ("rcv5", 253866, 8, 2.52),
]

RCV_SKIP = (
    "requires the five public RCV ballot files in data/rcv/ "
    "(rcv1.soi .. rcv5.soi); this environment has no network access — "
    "run scripts/fetch_rcv_data.py on a connected machine"
)


def _rcv_path(tag):
    return RCV_DIR / f"{tag}.soi"


def _require_rcv():
    missing = [t for t, *_ in RCV_TABLE if not _rcv_path(t).exists()]
    if missing:
        pytest.skip(f"{RCV_SKIP}; missing: {', '.join(missing)}")


# ---------------------------------------------------------------------------
# 1. Table reproduction on the five public RCV files
# ---------------------------------------------------------------------------

def test_criterion_01_rcv_summary_statistics():
    _require_rcv()
    for tag, n, m, mean_len in RCV_TABLE:
        s = summary_stats(parse_preflib(_rcv_path(tag)))
        assert (s.n, s.m) == (n, m), f"{tag}: got ({s.n}, {s.m}), want ({n}, {m})"
        assert abs(s.mean_length - mean_len) <= 0.01, (
            f"{tag}: mean length {s.mean_length:.4f}, want {mean_len} +/- 0.01"
        )


# ---------------------------------------------------------------------------
# 2. Normalization: total probability 1 within 1e-9 for every variant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["c-i", "c-ci", "c-ld", "a", "a-pd", "a-s"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_criterion_02_normalization(variant, m):
    rng = np.random.default_rng(1000 + m)
    for _ in range(20):
        if variant == "c-ci":
            model = random_model(variant, m, rng, d=2)
            x_row = rng.normal(size=(m, 2))
            _, p = enum_pmf(model, x_row)
        else:
            model = random_model(variant, m, rng)
            _, p = enum_pmf(model)
        assert abs(p.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# 3. Gradient oracle: analytic vs central differences (h = 1e-5)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "variant,d,K",
    [("c-i", 0, 1), ("c-ci", 3, 1), ("c-ld", 0, 3), ("c-ld", 3, 3),
     ("a", 0, 1), ("a", 3, 1), ("a-pd", 0, 1), ("a-pd", 3, 1),
     ("a-s", 0, 3), ("a-s", 3, 3)],
)
def test_criterion_03_gradient_oracle(variant, d, K):
    rng = np.random.default_rng(2000)
    m, n = 6, 40
    orders = random_orders(m, n, rng, min_len=0 if variant.startswith("a") else 1)
    cov = CovariateTensor(rng.normal(size=(n, m, d))) if d else None
    D = Dataset(Universe(m), orders, covariates=cov,
                allow_empty=variant.startswith("a"))
    cfg = FitConfig(lambda_l2=1e-5, lambda_laplacian=1e-3, K=K)
    layout = ParamLayout(variant, m, d, K)
    data = _FitData(D)
    flat = 0.4 * rng.normal(size=layout.size)
    _, g = objective_and_grad(variant, data, layout, flat, cfg)
    h = 1e-5
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += h
        fm[i] -= h
        fd[i] = (
            objective_and_grad(variant, data, layout, fp, cfg)[0]
            - objective_and_grad(variant, data, layout, fm, cfg)[0]
        ) / (2 * h)
    rel = np.abs(g - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-4, f"max relative gradient error {rel.max():.2e}"


# ---------------------------------------------------------------------------
# 4. Sampler exactness at 10^6 draws: TV < 0.005
# ---------------------------------------------------------------------------

def test_criterion_04_sampler_exactness_composite():
    rng = np.random.default_rng(3001)
    model = random_model("c-i", 3, rng)
    space, p = enum_pmf(model)
    D = list(sample_composite_dataset(model, 10**6, np.random.default_rng(3002)).orders)
    tv = 0.5 * np.abs(empirical_pmf(D, space) - p).sum()
    assert tv < 0.005, f"composite sampler TV {tv:.4f}"


def test_criterion_04_sampler_exactness_augmented():
    rng = np.random.default_rng(3003)
    model = random_model("a-pd", 3, rng)
    space, p = enum_pmf(model)
    orders = list(sample_augmented_dataset(model, 10**6, np.random.default_rng(3004)).orders)
    tv = 0.5 * np.abs(empirical_pmf(orders, space) - p).sum()
    assert tv < 0.005, f"augmented sampler TV {tv:.4f}"


# ---------------------------------------------------------------------------
# 5. Reduction identities within 1e-12 on the full enumerated space
# ---------------------------------------------------------------------------

def test_criterion_05_reduction_identities():
    rng = np.random.default_rng(4000)
    for m in (2, 3, 4):
        u = Universe(m)
        logits = rng.normal(size=m)
        delta = rng.normal(size=m)
        cld = CompositeModel(
            "c-ld", CategoricalLengthParams(logits),
            StratifiedPLParams((PLParams(delta),)), u,
        )
        ci = CompositeModel(
            "c-i", CategoricalLengthParams(logits), PLParams(delta), u
        )
        bank = rng.normal(size=m + 1)
        a_s = AugmentedModel("a-s", StratifiedAugmentedParams(bank[None, :]), u)
        a = AugmentedModel("a", AugmentedNaiveParams(bank), u)
        c = float(rng.normal())
        theta = rng.normal(size=m)
        apd = AugmentedModel(
            "a-pd", PositionDependentParams(theta, np.full(m, c)), u
        )
        a2 = AugmentedModel(
            "a", AugmentedNaiveParams(np.concatenate([theta, [c]])), u
        )
        from topkorders import enumerate_partial_orders

        for q in enumerate_partial_orders(m, include_empty=True):
            if len(q) >= 1:
                assert abs(model_log_prob(cld, q) - model_log_prob(ci, q)) < 1e-12
            assert abs(model_log_prob(a_s, q) - model_log_prob(a, q)) < 1e-12
            assert abs(model_log_prob(apd, q) - model_log_prob(a2, q)) < 1e-12


# ---------------------------------------------------------------------------
# 6. Generate-then-refit: TV 0.02 (c-i) / 0.03 (a), m=3, n=10^5
# ---------------------------------------------------------------------------

REFIT_CFG = FitConfig(learning_rate=0.05, tol=1e-7, max_epochs=2000)


def test_criterion_06_generate_then_refit_composite():
    rng = np.random.default_rng(5000)
    truth = random_model("c-i", 3, rng, scale=0.8)
    orders = list(sample_composite_dataset(truth, 10**5, np.random.default_rng(5001)).orders)
    D = Dataset(Universe(3), tuple(orders))
    res = fit("c-i", D, REFIT_CFG)
    _, p_true = enum_pmf(truth)
    _, p_fit = enum_pmf(res.model)
    tv = 0.5 * np.abs(p_true - p_fit).sum()
    assert tv < 0.02, f"refit TV {tv:.4f}"


def test_criterion_06_generate_then_refit_augmented():
    rng = np.random.default_rng(5002)
    truth = random_model("a", 3, rng, scale=0.8)
    orders = list(sample_augmented_dataset(truth, 10**5, np.random.default_rng(5003)).orders)
    D = Dataset(Universe(3), tuple(orders), allow_empty=True)
    res = fit("a", D, REFIT_CFG)
    _, p_true = enum_pmf(truth)
    _, p_fit = enum_pmf(res.model)
    tv = 0.5 * np.abs(p_true - p_fit).sum()
    assert tv < 0.03, f"refit TV {tv:.4f}"


# ---------------------------------------------------------------------------
# 7. Directional held-out comparison on the RCV files: A-S beats A
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tag", [t for t, *_ in RCV_TABLE])
def test_criterion_07_as_beats_a_on_rcv(tag):
    _require_rcv()
    D = parse_preflib(_rcv_path(tag))
    cfg_a = FitConfig()
    cfg_as = FitConfig(K=min(10, D.universe.m))
    means = {}
    for variant, cfg in (("a", cfg_a), ("a-s", cfg_as)):
        nlls = []
        for train, test in kfold_split(D, folds=5, seed=0):
            res = fit(variant, train, cfg)
            nlls.append(held_out_nll(res.model, test).nll)
        means[variant] = float(np.mean(nlls))
    assert means["a-s"] < means["a"], (
        f"{tag}: mean test NLL a-s {means['a-s']:.5f} !< a {means['a']:.5f}"
    )


# ---------------------------------------------------------------------------
# 8. Composite replicates match the true mean length within 0.05
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tag", [t for t, *_ in RCV_TABLE])
def test_criterion_08_replicate_mean_length(tag):
    _require_rcv()
    from topkorders import replicate_sample

    D = parse_preflib(_rcv_path(tag))
    res = fit("c-i", D, FitConfig())
    reps = replicate_sample(res.model, D.n, 100, seed=0)
    pooled = np.concatenate([r.lengths() for r in reps])
    true_mean = float(D.lengths().mean())
    assert abs(pooled.mean() - true_mean) < 0.05, (
        f"{tag}: pooled mean {pooled.mean():.4f} vs true {true_mean:.4f}"
    )


# ---------------------------------------------------------------------------
# 9. Deferred acceptance: stability + feasibility + monotone outcome rates
# ---------------------------------------------------------------------------

def test_criterion_09_assignment_properties():
    rng = np.random.default_rng(6000)
    for trial in range(100):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 21))
        prefs = []
        for _ in range(n):
            k = int(rng.integers(0, m + 1))
            prefs.append(
                PartialOrder(tuple(int(a) + 1 for a in rng.permutation(m)[:k]))
            )
        caps = tuple(int(c) for c in rng.integers(0, 6, size=m))
        market = make_market(tuple(prefs), caps, seed=trial)
        match = deferred_acceptance(market)
        load = [0] * m
        for s, p in enumerate(match.assignment):
            if p:
                load[p - 1] += 1
                assert p in prefs[s].items
        assert all(load[p] <= caps[p] for p in range(m))
        assert find_blocking_pair(market, match) is None
        rates = outcome_stats(match, prefs)
        assert rates.top1 <= rates.top3 <= rates.any_listed


# ---------------------------------------------------------------------------
# 10. CLI determinism: byte-identical outputs at --workers 1
# ---------------------------------------------------------------------------

def _cli(args, cwd):
    # A relative PYTHONPATH (such as `src`) does not resolve from cwd, so put
    # the directory of the package this process imported first: the
    # subprocess then runs the code under test.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(topkorders.__file__).resolve().parents[1]),
         *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, "-m", "topkorders.cli", "--workers", "1", *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


def test_criterion_10_cli_determinism(tmp_path):
    from topkorders import write_dataset

    rng = np.random.default_rng(7000)
    D = Dataset(Universe(4), tuple(random_orders(4, 120, rng)))
    data = tmp_path / "ballots.soi"
    write_dataset(D, data)
    caps = tmp_path / "caps.csv"
    caps.write_text("program_id,capacity\n" +
                    "".join(f"{p},5\n" for p in range(1, 5)))

    fit_flags = ["--model", "c-i", "--lr", "0.05",
                 "--max-epochs", "60", "--tol", "1e-7", "--seed", "1"]
    ck = tmp_path / "run1" / "model.json"

    def run_all(root):
        root.mkdir()
        outs = []
        for name, args in [
            ("stats", ["stats", "--data", data, "--out", root / "stats.txt"]),
            ("fit", ["fit", "--data", data, *fit_flags,
                     "--out", root / "model.json", "--trace", root / "trace.tsv"]),
            ("eval", ["eval", "--model-ckpt", root / "model.json", "--data", data,
                      "--reps", "2", "--seed", "2", "--out", root / "eval"]),
            ("sample", ["sample", "--model-ckpt", root / "model.json", "--n", "30",
                        "--reps", "2", "--seed", "3", "--out", root / "samples"]),
            ("cv", ["cv", "--data", data, "--model", "c-ld",
                    "--grid", "K=1,2;lapl=0", "--folds", "3", "--lr", "0.05",
                    "--max-epochs", "40", "--tol", "1e-6",
                    "--out", root / "cv.tsv"]),
            ("assign", ["assign", "--preferences", data, "--capacities", caps,
                        "--seed", "4", "--synthetic-from", root / "model.json",
                        "--reps", "2", "--out", root / "assign.tsv"]),
        ]:
            r = _cli(args, tmp_path)
            assert r.returncode == 0, f"{name} failed: {r.stderr}"
            outs.append(r.stdout.replace(str(root), "<run>"))
        return outs

    out1 = run_all(tmp_path / "run1")
    out2 = run_all(tmp_path / "run2")
    assert out1 == out2  # stdout identical command by command

    files1 = sorted(
        p.relative_to(tmp_path / "run1")
        for p in (tmp_path / "run1").rglob("*") if p.is_file()
    )
    files2 = sorted(
        p.relative_to(tmp_path / "run2")
        for p in (tmp_path / "run2").rglob("*") if p.is_file()
    )
    assert files1 == files2
    for rel in files1:
        b1 = (tmp_path / "run1" / rel).read_bytes()
        b2 = (tmp_path / "run2" / rel).read_bytes()
        assert b1 == b2, f"{rel} differs between identical runs"
