"""Command-line front end: fit / eval / sample / cv / stats / assign.

Exit codes: 0 success, 2 input error, 3 numeric failure. Every subcommand
is deterministic given its full flag set (seeds included), at any
--workers: `cv` cuts its distinct (cell, fold) fits into min(--workers,
fits) contiguous batches, steps the fits of each batch together in one
Adam loop, runs the batches over a pool of that many processes on the
platform's default start method (in process for one) and reduces the
results in task order, so cv.tsv is byte-identical to the one written at
--workers 1; a worker that dies ends the command with BrokenProcessPool
(exit 1) instead of a hang. Every other command runs in process and takes
--workers 1 only. Run as a program (`python -m topkorders.cli` or the
`topkorders` script), every command blocks OpenSSL's _hashlib, which the
drawing ones would load only through numpy.random, and hashes with the
interpreter's own digests; `main` called from a library leaves it alone.
"""

import argparse
import dataclasses
import importlib.util
import json
import math
import os
import sys

import numpy as np

from . import assignment as asg
from . import dataio, evaluation
from .augmented import AugmentedModel
from .estimation import (
    ALL_VARIANTS,
    STRATIFIED_VARIANTS,
    FitConfig,
    NonFiniteLossError,
    fit,
    grid_search,
)
from .dataio import ParseError
from .orders import Dataset

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


# each FitConfig field's flag and type; the flag's default is the field's
FIT_FLAGS = {
    "K": ("--K", int),
    "lambda_laplacian": ("--lambda-laplacian", float),
    "lambda_l2": ("--lambda-l2", float),
    "learning_rate": ("--lr", float),
    "beta1": ("--beta1", float),
    "beta2": ("--beta2", float),
    "epsilon_opt": ("--eps-opt", float),
    "max_epochs": ("--max-epochs", int),
    "tol": ("--tol", float),
    "batch_size": ("--batch-size", lambda text: int(text) if text.isdecimal() else text),
    "seed": ("--seed", int),
}


def _add_fit_flags(p):
    p.add_argument("--model", required=True, choices=ALL_VARIANTS)
    p.add_argument("--covariates", help="agent_id,item_id,f1,... covariate table")
    for field in dataclasses.fields(FitConfig):
        flag, kind = FIT_FLAGS[field.name]
        p.add_argument(flag, dest=field.name, type=kind, default=field.default)


def _check_counts(args, **minimums):
    """Raise unless each named count flag, where given, is at least its minimum."""
    for name, low in minimums.items():
        value = getattr(args, name)
        if value is not None and value < low:
            raise ValueError(f"--{name} must be >= {low}, got {value}")


def _check_fit_flags(args):
    """Raise for a fit flag the chosen variant would ignore."""
    if args.model == "c-i" and args.covariates:
        raise ValueError("--model c-i takes no --covariates")
    if args.model not in STRATIFIED_VARIANTS and (args.K != 1 or args.lambda_laplacian != 0):
        raise ValueError(
            f"--K and --lambda-laplacian apply only to c-ld and a-s, not to {args.model}"
        )
    if args.K == 1 and args.lambda_laplacian != 0:  # one stratum has no neighbours to couple
        raise ValueError("--lambda-laplacian applies only with --K above 1")


def _fit_config(args) -> FitConfig:
    cfg = {name: getattr(args, name) for name in FIT_FLAGS}
    try:
        return FitConfig(**cfg)
    except ValueError as exc:  # its message begins with a field name: name the flag
        name, _, rule = str(exc).partition(" ")
        raise ValueError(f"{FIT_FLAGS[name][0]} {rule}") from None


def _load_data(args) -> Dataset:
    D = dataio.parse_preflib(args.data)
    if getattr(args, "covariates", None):
        cov, _, missing = dataio.load_covariates(args.covariates, D.universe)
        if cov.n != D.n:
            raise ParseError(f"{cov.n} agents, but {D.n} ballots in {args.data}", args.covariates)
        if missing:
            print(f"covariates: {missing} missing (agent, item) pairs zero-filled")
        D = Dataset(D.universe, D, covariates=cov)
    return D


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="topkorders",
        description="Fit, evaluate, and sample top-k partial order models.",
    )
    ap.add_argument("--workers", type=int, default=1,
                    help="processes for cv's (K, lambda_L, fold) fits; other commands take"
                         " only 1; outputs do not depend on it")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset summary statistics")
    p.add_argument("--data", required=True, help="preflib ballot file")
    p.add_argument("--out", help="also write the block to this file")

    p = sub.add_parser("fit", help="fit a model and write a checkpoint")
    p.add_argument("--data", required=True)
    _add_fit_flags(p)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--trace", help="fit-trace file (epoch, objective, grad-norm)")

    p = sub.add_parser("eval", help="held-out NLL and synthetic-replicate report")
    p.add_argument("--model-ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--covariates")
    p.add_argument("--reps", type=int, default=0, help="synthetic replicates N")
    p.add_argument("--n", type=int, help="orders per replicate (default: |data|)")
    p.add_argument("--seed", type=int, help="replicate seed (default: 0)")
    p.add_argument("--condition-nonempty", action="store_true",
                   help="condition augmented likelihood on k >= 1")
    p.add_argument("--group-map", help="item_id,group_label file for demand bucketing")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("sample", help="write synthetic replicate datasets")
    p.add_argument("--model-ckpt", required=True)
    p.add_argument("--covariates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-empty", action="store_true",
                   help="rejection-resample empty augmented draws")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("cv", help="k-fold CV grid search over (K, lambda_L)")
    p.add_argument("--data", required=True)
    _add_fit_flags(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--grid", required=True, help='e.g. "K=1,5,10;lapl=0,1e-3"')
    p.add_argument("--out", help="write the CV table to this file")

    p = sub.add_parser("assign", help="deferred-acceptance assignment harness")
    p.add_argument("--preferences", required=True, help="preflib ballot file")
    p.add_argument("--capacities", required=True, help="program_id,capacity file")
    p.add_argument("--seed", type=int, default=0, help="priority tie-break seed")
    p.add_argument("--synthetic-from", help="checkpoint to sample synthetic preferences")
    p.add_argument("--reps", type=int, help="synthetic replicates (default: 1)")
    p.add_argument("--out", help="write the outcome table to this file")
    return ap


def _parse_grid(spec: str):
    """(Ks, lambda_Ls) of a "K=...;lapl=..." spec; each K an int >= 1, each
    lambda_L a finite float >= 0."""
    parts = dict(
        kv.split("=", 1) for kv in (s.strip() for s in spec.split(";")) if kv
    )
    if "K" not in parts or "lapl" not in parts:
        raise ValueError(f'--grid {spec!r} is malformed; expected "K=...;lapl=..."')
    Ks = _grid_values(parts["K"], "K", int, lambda K: K >= 1, "an int >= 1")
    lapls = _grid_values(
        parts["lapl"], "lapl", float, lambda v: math.isfinite(v) and v >= 0, "a finite float >= 0"
    )
    return Ks, lapls


def _grid_values(text, name, kind, ok, rule):
    values = []
    for item in text.split(","):
        try:
            value = kind(item)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise ValueError(f"--grid {name} must be {rule}, got {item.strip()!r}")
        values.append(value)
    return values


def _side_file(path, header, m):
    """(line number, id, value text) of each 'id,value' line of a side file,
    the id checked to lie in [1, m] and to be new; blank, comment and header
    lines skipped."""
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#") or ln.startswith(header):
                continue
            fields = ln.split(",", 1)
            if len(fields) != 2:
                raise ParseError(f"expected '{header},...'", path, lineno)
            try:
                key = int(fields[0])
            except ValueError:
                raise ParseError(f"malformed id {fields[0].strip()!r}", path, lineno) from None
            if not 1 <= key <= m:
                raise ParseError(f"id {key} outside [1, {m}]", path, lineno)
            if key in seen:
                raise ParseError(f"duplicate id {key}", path, lineno)
            seen.add(key)
            yield lineno, key, fields[1].strip()


def _read_capacities(path, m):
    """Seats of programs 1..m from 'program_id,capacity' lines; 0 if unlisted."""
    caps = [0] * m
    for lineno, pid, text in _side_file(path, "program_id", m):
        try:
            cap = int(text)
        except ValueError:
            raise ParseError(f"malformed capacity {text!r}", path, lineno) from None
        if cap < 0:
            raise ParseError(f"negative capacity {cap}", path, lineno)
        caps[pid - 1] = cap
    return caps


def _read_group_map(path, m):
    """Group labels of items 1..m from 'item_id,group' lines."""
    return {item: group for _, item, group in _side_file(path, "item_id", m)}


def cmd_stats(args) -> int:
    D = dataio.parse_preflib(args.data)
    block = dataio.summary_stats(D).format()
    print(block)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(block + "\n")
    return EXIT_OK


def cmd_fit(args) -> int:
    if args.model == "c-ci" and not args.covariates:
        raise ValueError("--model c-ci requires --covariates")
    _check_fit_flags(args)
    D = _load_data(args)
    cfg = _fit_config(args)
    data_hash = dataio.dataset_hash(D)  # before the fit, so that their peaks do not add up
    result = fit(args.model, D, cfg)
    dataio.save_checkpoint(
        result.model, args.out, fit_config=dataclasses.asdict(cfg), data_hash=data_hash,
        seed=cfg.seed,
    )
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("epoch\tobjective\tgrad_norm\n")
            for epoch, obj, gnorm in result.trace:
                fh.write(f"{epoch}\t{obj!r}\t{gnorm!r}\n")
    stop = "|dF| < tol" if result.converged else "max-epochs"
    print(
        f"fit {args.model}: stopped by {stop} after {result.epochs_run} epochs,"
        f" objective {result.final_objective:.6f}, gradient norm {result.final_grad_norm:.3g}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_counts(args, reps=0, n=0)
    if not args.reps:
        for name in ("n", "seed", "group_map"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name.replace('_', '-')} applies only with --reps above 0")
    model, _ = dataio.load_checkpoint(args.model_ckpt)
    if args.condition_nonempty and not isinstance(model, AugmentedModel):
        raise ValueError(
            f"--condition-nonempty applies only to augmented models, not {model.variant}"
        )
    D = _load_data(args)
    n_per = args.n or D.n
    group_map = _read_group_map(args.group_map, model.universe.m) if args.group_map else None
    report = evaluation.build_eval_report(
        model_tag=model.variant,
        model=model,
        D_test=D,
        n_per_replicate=n_per if args.reps else 0,
        n_replicates=args.reps,
        seed=args.seed or 0,
        covariates=D.covariates,
        condition_nonempty=args.condition_nonempty,
    )
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "eval_report.json"), "w", encoding="utf-8") as fh:
        json.dump(_report_doc(report), fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.reps:
        evaluation.emit_plot_data([report], args.out, group_map)
    print(f"test NLL ({model.variant}): {report.test.nll:.6f}")
    return EXIT_OK


def _report_doc(r: evaluation.EvalReport) -> dict:
    doc = {
        "model": r.model_tag,
        "test_nll": r.test.nll,
        "n_infinite": r.test.n_infinite,
    }
    if r.lengths is not None:
        doc["length_stats"] = {
            "mean_of_means": r.lengths.mean_of_means,
            "std_of_means": r.lengths.std_of_means,
            "mean_of_stds": r.lengths.mean_of_stds,
            "true_mean": r.lengths.true_mean,
            "true_std": r.lengths.true_std,
        }
        doc["tv_length"] = r.tv_length
        doc["demand"] = {
            "true_first_position": list(r.demand_true.first_position),
            "true_overall": list(r.demand_true.overall),
            "synthetic_first_position": list(r.demand_synthetic.first_position),
            "synthetic_overall": list(r.demand_synthetic.overall),
            "synthetic_empty_share": r.demand_synthetic.empty_share,
        }
    return doc


def cmd_sample(args) -> int:
    _check_counts(args, reps=0, n=1)
    model, _ = dataio.load_checkpoint(args.model_ckpt)
    if args.no_empty and not isinstance(model, AugmentedModel):
        raise ValueError(f"--no-empty applies only to augmented models, not {model.variant}")
    covariates = None
    if args.covariates:
        covariates, _, _ = dataio.load_covariates(args.covariates, model.universe)
        if covariates.n != args.n:
            raise ParseError(f"{covariates.n} agents, but --n {args.n}", args.covariates)
    os.makedirs(args.out, exist_ok=True)
    for r in range(args.reps):  # each replicate is written before the next is drawn
        rep = evaluation.draw_replicate(model, args.n, args.seed, r, covariates, args.no_empty)
        dataio.write_dataset(rep, os.path.join(args.out, f"replicate_{r:03d}.txt"))
    print(f"wrote {args.reps} replicates of {args.n} orders to {args.out}")
    return EXIT_OK


def cmd_cv(args) -> int:
    if args.K != 1 or args.lambda_laplacian != 0:
        raise ValueError("cv takes K and lambda_L from --grid, not --K or --lambda-laplacian")
    _check_fit_flags(args)
    _check_counts(args, folds=2)
    Ks, lapls = _parse_grid(args.grid)
    if args.model not in STRATIFIED_VARIANTS and (any(K != 1 for K in Ks) or any(lapls)):
        raise ValueError(
            f"--grid K other than 1 or lapl other than 0 has no effect on {args.model}"
        )
    D = _load_data(args)
    if args.folds > D.n:
        raise ValueError(f"--folds must be at most the {D.n} records, got {args.folds}")
    cfg = _fit_config(args)
    (best_K, best_lapl), table = grid_search(
        args.model, D, Ks, lapls, cfg, folds=args.folds, workers=args.workers
    )
    lines = ["K\tlambda_laplacian\tmean_val_nll"]
    for K, lapl, mean_nll in table:
        lines.append(f"{K}\t{lapl!r}\t{mean_nll!r}")
    lines.append(f"best\tK={best_K}\tlambda_laplacian={best_lapl!r}")
    block = "\n".join(lines)
    print(block)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(block + "\n")
    return EXIT_OK


def cmd_assign(args) -> int:
    _check_counts(args, reps=0)
    if args.reps is not None and not args.synthetic_from:
        raise ValueError("--reps applies only with --synthetic-from")
    D = dataio.parse_preflib(args.preferences)
    capacities = _read_capacities(args.capacities, D.universe.m)
    priorities = asg.uniform_priorities(D.n, D.universe.m, args.seed)

    def run(prefs):
        market = asg.Market(prefs, capacities, priorities)
        return asg.outcome_stats(asg.deferred_acceptance(market), prefs)

    rows = [("true", run(D))]
    if args.synthetic_from:
        model, _ = dataio.load_checkpoint(args.synthetic_from)
        for r in range(1 if args.reps is None else args.reps):  # one replicate held at a time
            rep = evaluation.draw_replicate(model, D.n, args.seed, r, no_empty=True)
            rows.append((f"synthetic_{r:03d}", run(rep)))
    lines = ["source\ttop1\ttop3\tany_listed"]
    for tag, rates in rows:
        lines.append(f"{tag}\t{rates.top1!r}\t{rates.top3!r}\t{rates.any_listed!r}")
    if len(rows) > 1:
        arr = np.array([[r.top1, r.top3, r.any_listed] for _, r in rows[1:]])
        mean = [float(v) for v in arr.mean(axis=0)]
        std = [float(v) for v in arr.std(axis=0)]
        lines.append(f"synthetic_mean\t{mean[0]!r}\t{mean[1]!r}\t{mean[2]!r}")
        lines.append(f"synthetic_std\t{std[0]!r}\t{std[1]!r}\t{std[2]!r}")
    block = "\n".join(lines)
    print(block)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(block + "\n")
    return EXIT_OK


COMMANDS = {
    "stats": cmd_stats,
    "fit": cmd_fit,
    "eval": cmd_eval,
    "sample": cmd_sample,
    "cv": cmd_cv,
    "assign": cmd_assign,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args, workers=1)
        if args.workers > 1 and args.command != "cv":  # cv's fits are the only parallel tasks
            raise ValueError("--workers above 1 applies only to cv")
        return COMMANDS[args.command](args)
    except NonFiniteLossError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


# hashlib's built-in digest modules, which it loads when _hashlib is missing
BUILTIN_DIGESTS = ("_md5", "_sha1", "_sha3", "_blake2") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
)


def program_main(argv=None) -> int:
    """``main`` as a program of its own: first blocks OpenSSL's _hashlib for
    the rest of the process, where the interpreter has every built-in digest.
    numpy.random's ``secrets`` would load it (3.4 MB of peak RSS) into every
    drawing command; the built-in digests give the same bytes, and hmac the
    same constant-time compare. ``setdefault`` keeps an OpenSSL module that
    is already loaded."""
    if all(importlib.util.find_spec(name) for name in BUILTIN_DIGESTS):
        sys.modules.setdefault("_hashlib", None)
    return main(argv)


if __name__ == "__main__":
    sys.exit(program_main())
