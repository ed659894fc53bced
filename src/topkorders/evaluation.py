"""Held-out evaluation, synthetic replication, and plot-data emission."""

import os
from dataclasses import dataclass

import numpy as np

from .augmented import sample_augmented_dataset
from .composite import CompositeModel, sample_composite_dataset
from .estimation import TestNLL, test_nll
from .orders import Dataset


def replicate_sample(
    model, n: int, N: int, seed: int, covariates=None, no_empty: bool = False
) -> list[Dataset]:
    """N synthetic datasets of n orders; replicate r is seeded by (seed, r).

    Covariate-conditioned models reuse the training covariates, so each
    replicate simulates the same n agents.
    """
    reps = []
    for r in range(N):
        rng = np.random.default_rng((seed, r))
        if isinstance(model, CompositeModel):
            reps.append(sample_composite_dataset(model, n, rng, covariates))
        else:
            reps.append(
                sample_augmented_dataset(model, n, rng, covariates, no_empty=no_empty)
            )
    return reps


@dataclass(frozen=True)
class LengthStats:
    per_replicate_mean: tuple
    per_replicate_std: tuple
    mean_of_means: float
    std_of_means: float
    mean_of_stds: float
    true_mean: float
    true_std: float


def length_stats(replicates: list[Dataset], D_true: Dataset) -> LengthStats:
    if not replicates:
        raise ValueError("no replicates")
    means = [float(r.lengths().mean()) for r in replicates]
    stds = [float(r.lengths().std()) for r in replicates]
    true_lengths = D_true.lengths()
    return LengthStats(
        per_replicate_mean=tuple(means),
        per_replicate_std=tuple(stds),
        mean_of_means=float(np.mean(means)),
        std_of_means=float(np.std(means)),
        mean_of_stds=float(np.mean(stds)),
        true_mean=float(true_lengths.mean()),
        true_std=float(true_lengths.std()),
    )


@dataclass(frozen=True)
class DemandShares:
    first_position: tuple  # share of records ranking each alternative first
    overall: tuple  # share of all listed entries
    empty_share: float  # share of empty records (augmented sampling only)


def demand_shares(data) -> DemandShares:
    """Per-alternative first-position and overall demand shares.

    ``data`` is a Dataset or a list of replicate Datasets (pooled).
    """
    datasets = data if isinstance(data, (list, tuple)) else [data]
    if not datasets or all(d.n == 0 for d in datasets):
        raise ValueError("no data")
    m = datasets[0].universe.m
    first = np.zeros(m)
    overall = np.zeros(m)
    for d in datasets:
        items, lengths = d.to_padded()
        first += np.bincount(items[lengths > 0, 0], minlength=m)
        overall += np.bincount(items[items >= 0], minlength=m)
    n_records = sum(d.n for d in datasets)
    n_empty = sum(int(np.count_nonzero(d.lengths() == 0)) for d in datasets)
    total_listed = overall.sum()
    return DemandShares(
        first_position=tuple(float(v) for v in first / n_records),
        overall=tuple(
            float(v) for v in (overall / total_listed if total_listed else overall)
        ),
        empty_share=n_empty / n_records,
    )


def tv_distance(p, q) -> float:
    """Total variation: half the L1 distance between two pmfs on one support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"support mismatch: {p.shape} vs {q.shape}")
    for v, name in ((p, "p"), (q, "q")):
        if abs(v.sum() - 1.0) > 1e-6:
            raise ValueError(f"{name} sums to {v.sum()}, not 1")
    return float(0.5 * np.abs(p - q).sum())


def length_pmf(datasets, m: int) -> np.ndarray:
    """Empirical pmf over lengths 1..m, pooled over datasets (empties dropped)."""
    datasets = datasets if isinstance(datasets, (list, tuple)) else [datasets]
    counts = sum(np.bincount(d.lengths(), minlength=m + 1)[1:] for d in datasets)
    return counts / counts.sum()


@dataclass(frozen=True)
class EvalReport:
    model_tag: str
    test: TestNLL
    lengths: LengthStats | None
    demand_true: DemandShares | None
    demand_synthetic: DemandShares | None
    tv_length: float | None


def build_eval_report(
    model_tag: str,
    model,
    D_test: Dataset,
    n_per_replicate: int = 0,
    n_replicates: int = 0,
    seed: int = 0,
    covariates=None,
    condition_nonempty: bool = False,
) -> EvalReport:
    t = test_nll(model, D_test, condition_nonempty=condition_nonempty)
    if n_replicates > 0 and n_per_replicate > 0:
        reps = replicate_sample(model, n_per_replicate, n_replicates, seed, covariates)
        ls = length_stats(reps, D_test)
        dm_true = demand_shares(D_test)
        dm_syn = demand_shares(reps)
        m = D_test.universe.m
        tv = tv_distance(length_pmf(D_test, m), length_pmf(reps, m))
        return EvalReport(model_tag, t, ls, dm_true, dm_syn, tv)
    return EvalReport(model_tag, t, None, None, None, None)


def emit_plot_data(reports: list[EvalReport], out_dir, group_map: dict | None = None):
    """Write delimited plot-data files: NLL, length stats, and demand rows.

    ``group_map`` optionally maps alternative id -> group label, aggregating
    demand over groups.
    """
    if not reports:
        raise ValueError("no reports")
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    p = os.path.join(out_dir, "nll_by_model.tsv")
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("model\ttest_nll\tn_infinite\n")
        for r in reports:
            fh.write(f"{r.model_tag}\t{r.test.nll!r}\t{r.test.n_infinite}\n")
    paths.append(p)

    p = os.path.join(out_dir, "length_stats_by_model.tsv")
    with open(p, "w", encoding="utf-8") as fh:
        fh.write(
            "model\tmean_of_means\tstd_of_means\tmean_of_stds"
            "\ttrue_mean\ttrue_std\ttv_length\n"
        )
        for r in reports:
            if r.lengths is None:
                continue
            ls = r.lengths
            fh.write(
                f"{r.model_tag}\t{ls.mean_of_means!r}\t{ls.std_of_means!r}"
                f"\t{ls.mean_of_stds!r}\t{ls.true_mean!r}\t{ls.true_std!r}"
                f"\t{r.tv_length!r}\n"
            )
    paths.append(p)

    p = os.path.join(out_dir, "demand_by_alternative.tsv")
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("model\tsource\talternative\tfirst_position_share\toverall_share\n")
        for r in reports:
            for source, dm in (("true", r.demand_true), ("synthetic", r.demand_synthetic)):
                if dm is None:
                    continue
                first, overall = _maybe_group(dm, group_map)
                for key in sorted(first):
                    fh.write(
                        f"{r.model_tag}\t{source}\t{key}"
                        f"\t{first[key]!r}\t{overall[key]!r}\n"
                    )
    paths.append(p)
    return paths


def _maybe_group(dm: DemandShares, group_map):
    m = len(dm.first_position)
    if group_map is None:
        first = {str(i + 1): dm.first_position[i] for i in range(m)}
        overall = {str(i + 1): dm.overall[i] for i in range(m)}
        return first, overall
    first: dict = {}
    overall: dict = {}
    for i in range(m):
        g = str(group_map.get(i + 1, i + 1))
        first[g] = first.get(g, 0.0) + dm.first_position[i]
        overall[g] = overall.get(g, 0.0) + dm.overall[i]
    return first, overall
