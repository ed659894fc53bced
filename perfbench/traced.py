"""Traced in-process run: the plan replayed through the public library API.

Each plan step is replayed as the CLI runs it, one public call at a time,
with a span around every call and one around the whole command. Spans are
kept in memory and written when the run ends. Probes then time the layers
the replay does not reach on this workload, on the same data.
"""

import dataclasses
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext

import numpy as np

import workloads
from cli_run import CheckFailed, check_sample

MIN_COVERAGE = 0.9  # share of each command's wall time its spans must cover
PLAIN_VARIANTS = ("c-i", "c-ld", "a", "a-pd", "a-s")
COV_VARIANTS = ("c-ci", "c-ld", "a", "a-pd", "a-s")
PLAIN_EPOCHS = 101  # epoch probes: wall at E epochs minus wall at 1 epoch
COV_EPOCHS = 3  # a covariate epoch of 1,000 agents costs about 0.4 s
IMPORT_REPS = 3


class Tracer:
    """In-memory spans: name, start, end, parent, workload, run, attributes."""

    def __init__(self, workload, run):
        self.workload = workload
        self.run = run
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "run": self.run,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def finish(self):
        """Add durations and self times: a span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            s["dur"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child[s["parent"]] += s["dur"]
        for s, c in zip(self.spans, child):
            s["self"] = s["dur"] - c
            s["coverage"] = c / s["dur"] if s["dur"] > 0 else 1.0
        return self.spans


# ---------------------------------------------------------------------------
# Replay: one function per CLI command, in the order the CLI makes its calls.
# ---------------------------------------------------------------------------

class Replay:
    def __init__(self, tk, tr, paths, files, work):
        self.tk, self.tr, self.paths, self.files, self.work = tk, tr, paths, files, work
        os.makedirs(work, exist_ok=True)
        self.walls = {}  # step index -> seconds in the command, checks excluded
        self.summary = None
        self.fits = []
        self.test_nll = None
        self.true_market = None
        self.rates = []
        self.cv_result = None

    def ckpt(self, name):
        return os.path.join(self.work, f"{name}.ckpt.json")

    def load(self, step):
        tk, tr = self.tk, self.tr
        with tr.span("dataio.parse_preflib", role=step["data"]) as sp:
            D = tk.parse_preflib(self.paths[step["data"]])
            sp["records"] = D.n
        if "cov" in step:
            cov, _, _ = tr.call(
                "dataio.load_covariates", tk.load_covariates, self.paths[step["cov"]], D.universe
            )
            D = tr.call("orders.Dataset", tk.Dataset, D.universe, D.orders, covariates=cov)
        return D

    def config(self, step):
        return self.tk.FitConfig(**{k: step[k] for k in ("K", "max_epochs", "tol") if k in step})

    def stats(self, step):
        D = self.load(step)
        with self.tr.span("dataio.summary_stats"):
            self.summary = self.tk.summary_stats(D)
            self.summary.format()

    def fit(self, step):
        tk, tr = self.tk, self.tr
        D = self.load(step)
        cfg = self.config(step)
        res = tr.call("estimation.fit", tk.fit, step["model"], D, cfg)
        digest = tr.call("dataio.dataset_hash", tk.dataset_hash, D)
        path = self.ckpt(step["ckpt"])
        tr.call(
            "dataio.save_checkpoint", tk.save_checkpoint, res.model, path,
            fit_config=dataclasses.asdict(cfg), data_hash=digest, seed=cfg.seed,
        )
        with tr.span("io.write_trace"), open(path + ".trace", "w", encoding="utf-8") as fh:
            fh.write("epoch\tobjective\tgrad_norm\n")
            for epoch, obj, gnorm in res.trace:
                fh.write(f"{epoch}\t{obj!r}\t{gnorm!r}\n")
        self.fits.append(res)

    def eval(self, step):
        tk, tr = self.tk, self.tr
        model, _ = tr.call("dataio.load_checkpoint", tk.load_checkpoint, self.ckpt(step["ckpt"]))
        D = self.load(step)
        with tr.span("evaluation.test_nll", records=D.n):
            test = tk.test_nll(model, D)
        reps = step.get("reps", 0)
        out = os.path.join(self.work, "eval")
        report = tk.EvalReport(model.variant, test, None, None, None, None)
        if reps:
            syn = self.replicate(model, D.n, reps, D.covariates)
            with tr.span("evaluation.report"):
                m = D.universe.m
                report = tk.EvalReport(
                    model.variant, test, tk.length_stats(syn, D), tk.demand_shares(D),
                    tk.demand_shares(syn), tk.tv_distance(tk.length_pmf(D, m), tk.length_pmf(syn, m)),
                )
            tr.call("evaluation.emit_plot_data", tk.emit_plot_data, [report], out)
        with tr.span("io.write_report"):
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, "eval_report.json"), "w", encoding="utf-8") as fh:
                json.dump({"model": model.variant, "test_nll": test.nll,
                           "n_infinite": test.n_infinite}, fh)
        self.test_nll = test

    def replicate(self, model, n, reps, covariates=None, no_empty=False):
        with self.tr.span(
            "evaluation.replicate_sample", draws=n * reps, cov=covariates is not None
        ):
            return self.tk.replicate_sample(model, n, reps, 0, covariates, no_empty=no_empty)

    def sample(self, step):
        tk, tr = self.tk, self.tr
        model, _ = tr.call("dataio.load_checkpoint", tk.load_checkpoint, self.ckpt(step["ckpt"]))
        cov = None
        if "cov" in step:
            cov, _, _ = tr.call(
                "dataio.load_covariates", tk.load_covariates, self.paths[step["cov"]], model.universe
            )
        reps = self.replicate(model, step["n"], step["reps"], cov, step.get("no_empty", False))
        out = os.path.join(self.work, "sample")
        os.makedirs(out, exist_ok=True)
        for r, rep in enumerate(reps):
            path = os.path.join(out, f"replicate_{r:03d}.txt")
            tr.call("dataio.write_dataset", tk.write_dataset, rep, path)

    def assign(self, step):
        tk, tr = self.tk, self.tr
        D = self.load({"data": step["prefs"]})
        with tr.span("io.read_capacities"):
            caps = read_capacities(self.paths["capacities"], D.universe.m)
        pri = tr.call("assignment.uniform_priorities", tk.uniform_priorities, D.n, D.universe.m, 0)

        def run(prefs, market_kind):
            with tr.span("assignment.Market", market=market_kind):
                market = tk.Market(tuple(prefs), tuple(caps), pri)
            with tr.span("assignment.deferred_acceptance", market=market_kind):
                matching = tk.deferred_acceptance(market)
            with tr.span("assignment.outcome_stats", market=market_kind):
                rates = tk.outcome_stats(matching, prefs)
            return market, matching, rates

        market, matching, rates = run(D.orders, "true")
        self.true_market = (market, matching)
        self.rates = [rates]
        if "synthetic_from" in step:
            model, _ = tr.call(
                "dataio.load_checkpoint", tk.load_checkpoint, self.ckpt(step["synthetic_from"])
            )
            for rep in self.replicate(model, D.n, step["reps"], no_empty=True):
                self.rates.append(run(rep.orders, "synthetic")[2])

    def cv(self, step):
        D = self.load(step)
        self.cv_result = self.tr.call(
            "estimation.grid_search", self.tk.grid_search, step["model"], D, step["Ks"],
            step["lapls"], self.config(step), folds=step["folds"],
        )

    def run(self, plan):
        """Replay and check every step; returns {step index: error} of failed steps."""
        errors = {}
        for i, step in enumerate(plan):
            try:
                t0 = time.perf_counter()
                with self.tr.span("cmd." + step["cmd"], step=i):
                    getattr(self, step["cmd"])(step)
                self.walls[i] = time.perf_counter() - t0
                self.verify(step)
            except CheckFailed as exc:
                errors[i] = str(exc)
            except (OSError, ValueError, RuntimeError) as exc:
                errors[i] = f"{type(exc).__name__}: {exc}"
        return errors

    def probe(self, steps):
        """Replay steps outside any command span, unchecked, for their layer spans."""
        for step in steps:
            with self.tr.span("probe." + step["cmd"]):
                getattr(self, step["cmd"])(step)

    def verify(self, step):
        """The CLI run's output checks, applied to the library results."""
        cmd = step["cmd"]
        if cmd == "stats":
            rec = self.files[step["data"]]
            if (self.summary.n, self.summary.m) != (rec["n"], rec["m"]) or abs(
                self.summary.mean_length - rec["mean_length"]
            ) > 1e-9:
                raise CheckFailed(f"summary {self.summary} does not match {rec}")
        elif cmd == "fit":
            obj = [row[1] for row in self.fits[-1].trace]
            if not all(math.isfinite(v) for v in obj) or not obj[-1] < obj[0]:
                raise CheckFailed(f"fit objective not finite and falling: {obj[0]} -> {obj[-1]}")
        elif cmd == "eval":
            if self.test_nll.n_infinite or not math.isfinite(self.test_nll.nll):
                raise CheckFailed(f"library test_nll {self.test_nll}")
        elif cmd == "sample":
            check_sample(self.tk, step, self.files, self.work, "")
        elif cmd == "assign":
            for r in self.rates:
                if not 0.0 <= r.top1 <= r.top3 <= r.any_listed <= 1.0:
                    raise CheckFailed(f"assign rates out of order: {r}")
            pair = self.tk.find_blocking_pair(*self.true_market)
            if pair is not None:
                raise CheckFailed(f"the true-market matching has a blocking pair {pair}")
        elif cmd == "cv":
            (best_K, best_lapl), table = self.cv_result
            if not all(math.isfinite(row[2]) for row in table):
                raise CheckFailed("cv table has a non-finite row")
            if min(table, key=lambda row: row[2])[:2] != (best_K, best_lapl):
                raise CheckFailed("cv best is not the argmin of its table")


def read_capacities(path, m):
    caps = {}
    with open(path, encoding="utf-8") as fh:
        for ln in fh.read().splitlines()[1:]:
            pid, cap = ln.split(",")
            caps[int(pid)] = int(cap)
    return [caps.get(p, 0) for p in range(1, m + 1)]


def coverage_errors(spans):
    """{step index: error} for commands whose spans cover too little."""
    return {
        s["step"]: f"{s['name']}: spans cover {s['coverage']:.1%} of its wall time"
        for s in spans
        if s["name"].startswith("cmd.") and s["coverage"] < MIN_COVERAGE
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def span_cost_s(reps=20_000):
    """Seconds one span adds to the call it wraps.

    Tracing overhead is this cost times the number of spans. Timing the
    replay again untraced measures machine noise instead: the replay has a
    few dozen spans per command, and the same command's wall time varies by
    tens of percent from one run to the next on a shared machine.
    """
    tr = Tracer("overhead", "overhead")
    t0 = time.perf_counter()
    for _ in range(reps):
        with tr.span("x"):
            pass
    traced_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(reps):
        with nullcontext():
            pass
    return max(traced_s - (time.perf_counter() - t0), 0.0) / reps


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _median_dur(spans, name, **match):
    durs = [s["dur"] for s in spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())]
    return statistics.median(durs) if durs else None


def import_seconds(env):
    """Median wall time of ``import topkorders.cli`` in a fresh interpreter."""
    walls = []
    for _ in range(IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import topkorders.cli"], env=env, check=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def epoch_probes(tk, D, variants, epochs, suffix):
    """epoch_ms of each variant from the wall times of fits of 1 and E epochs.

    Returns (metrics, set-up seconds of the a-s fit, {variant: fitted model}).
    """
    out, models = {}, {}
    for v in variants:
        walls = {}
        for e in (1, epochs):
            cfg = tk.FitConfig(K=3, max_epochs=e, tol=1e-12)
            walls[e], res = _timed(tk.fit, v, D, cfg)
        epoch = (walls[epochs] - walls[1]) / (epochs - 1)
        out[f"estimation.epoch_ms.{v}{suffix}"] = 1e3 * epoch
        if v == "a-s":
            setup_s = walls[1] - epoch
        models[v] = res.model
    return out, setup_s, models


def layer_metrics(tk, workload, seed, plan, paths, work, spans, rp, env):
    """Every per-layer metric of this workload: from the spans where the
    replay made the call, from a probe on the same data otherwise."""
    met = {"cli.import_s": import_seconds(env)}

    main = workloads.MAIN_DATA[workload]
    met["dataio.parse_s"] = _median_dur(spans, "dataio.parse_preflib", role=main)
    D = tk.parse_preflib(paths[main])
    items, lengths = D.to_padded()
    met["dataio.records"] = D.n
    met["dataio.unique_rows"] = int(np.unique(np.hstack([lengths[:, None], items]), axis=0).shape[0])
    met["orders.dataset_s"], _ = _timed(tk.Dataset, D.universe, D.orders)
    met["orders.to_padded_s"], _ = _timed(D.to_padded)
    met["dataio.dataset_hash_s"] = _median_dur(spans, "dataio.dataset_hash")
    met["dataio.write_dataset_s"] = _median_dur(spans, "dataio.write_dataset")

    epochs, met["estimation.fit_setup_s"], models = epoch_probes(
        tk, D, PLAIN_VARIANTS, PLAIN_EPOCHS, "")
    met.update(epochs)
    first = rp.fits[0]
    met["estimation.epochs"] = first.epochs_run
    met["estimation.final_grad_norm"] = first.trace[-1][2]

    cv_step = next(s for s in plan if s["cmd"] == "cv")
    D_cv = tk.parse_preflib(paths[cv_step["data"]])
    met["estimation.kfold_split_s"], _ = _timed(tk.kfold_split, D_cv, cv_step["folds"], 0)

    eval_span = next(s for s in spans if s["name"] == "evaluation.test_nll")
    met["evaluation.test_nll_us_per_record"] = 1e6 * eval_span["dur"] / eval_span["records"]
    met["evaluation.report_s"] = _median_dur(spans, "evaluation.report")
    met["assignment.deferred_acceptance_s"] = _median_dur(
        spans, "assignment.deferred_acceptance", market="true")
    met["assignment.outcome_stats_s"] = _median_dur(spans, "assignment.outcome_stats", market="true")

    # Covariate layers: the covariates workload's own files, else a probe
    # table of the same size drawn from this seed.
    if workload == "covariates":
        cov_paths = paths
    else:
        cov_paths, _ = workloads.generate("covariates", seed, os.path.join(work, "probe"))
    load_s, (cov, _, _) = _timed(tk.load_covariates, cov_paths["cov_x"], D.universe)
    met["dataio.load_covariates_s"] = _median_dur(spans, "dataio.load_covariates") or load_s
    D_cov = tk.Dataset(D.universe, tk.parse_preflib(cov_paths["cov"]).orders, covariates=cov)
    cov_epochs, _, cov_models = epoch_probes(tk, D_cov, COV_VARIANTS, COV_EPOCHS, ".cov")
    met.update(cov_epochs)

    for key, cov_flag, model, covariates in (
        ("evaluation.replicate_sample_us_per_draw", False, models["a-s"], None),
        ("evaluation.replicate_sample_us_per_draw.cov", True, cov_models["a-s"], cov),
    ):
        sampled = [s for s in spans if s["name"] == "evaluation.replicate_sample" and s["cov"] == cov_flag]
        if sampled:
            big = max(sampled, key=lambda s: s["draws"])
            met[key] = 1e6 * big["dur"] / big["draws"]
        else:
            n = covariates.n if covariates is not None else D.n
            wall, _ = _timed(tk.replicate_sample, model, n, 1, 0, covariates)
            met[key] = 1e6 * wall / n
    return met
