"""Untraced end-to-end run: each plan step as a ``topkorders`` CLI process.

One closed-loop client runs one command at a time, the way a user runs
them, and waits for each to exit before it starts the next. Each command's
output is checked with the library; a command fails when it exits non-zero
or its output fails the check.
"""

import json
import math
import os
import subprocess
import sys
import time

from workloads import M


class CheckFailed(Exception):
    pass


def argv_for(step, paths, work):
    """The CLI argument list (after ``python -m topkorders.cli``) of a step."""
    cmd = step["cmd"]

    def ckpt(name):
        return os.path.join(work, f"{name}.ckpt.json")

    head = []
    if "workers" in step:  # never more workers than CPUs
        head = ["--workers", str(min(step["workers"], len(os.sched_getaffinity(0))))]
    args = [cmd]
    if cmd == "stats":
        args += ["--data", paths[step["data"]]]
    elif cmd in ("fit", "cv"):
        args += ["--data", paths[step["data"]], "--model", step["model"]]
        if "cov" in step:
            args += ["--covariates", paths[step["cov"]]]
        if "K" in step:
            args += ["--K", str(step["K"])]
        if "max_epochs" in step:
            args += ["--max-epochs", str(step["max_epochs"]), "--tol", repr(step["tol"])]
        if cmd == "fit":
            args += ["--out", ckpt(step["ckpt"]), "--trace", ckpt(step["ckpt"]) + ".trace"]
        else:
            grid = "K=" + ",".join(map(str, step["Ks"]))
            grid += ";lapl=" + ",".join(map(repr, step["lapls"]))
            args += ["--folds", str(step["folds"]), "--grid", grid]
            args += ["--out", os.path.join(work, "cv.tsv")]
    elif cmd == "eval":
        args += ["--model-ckpt", ckpt(step["ckpt"]), "--data", paths[step["data"]]]
        if "cov" in step:
            args += ["--covariates", paths[step["cov"]]]
        args += ["--reps", str(step.get("reps", 0)), "--out", os.path.join(work, "eval")]
    elif cmd == "sample":
        args += ["--model-ckpt", ckpt(step["ckpt"])]
        if "cov" in step:
            args += ["--covariates", paths[step["cov"]]]
        args += ["--n", str(step["n"]), "--reps", str(step["reps"])]
        if step.get("no_empty"):
            args.append("--no-empty")
        args += ["--out", os.path.join(work, "sample")]
    elif cmd == "assign":
        args += ["--preferences", paths[step["prefs"]], "--capacities", paths["capacities"]]
        if "synthetic_from" in step:
            args += ["--synthetic-from", ckpt(step["synthetic_from"])]
            args += ["--reps", str(step["reps"])]
        args += ["--out", os.path.join(work, "assign.tsv")]
    else:
        raise ValueError(f"unknown command {cmd!r}")
    return head + args


# `python -m topkorders.cli <argv>`, which also writes the process's peak
# RSS in kB (VmHWM) to the file named by its first argument as it exits.
# The child's rusage would not do: Linux carries the benchmark process's
# own peak RSS over into the ru_maxrss of a child through fork and exec.
CLI_MAIN = """\
import atexit, runpy, sys
def peak_rss(path=sys.argv.pop(1)):
    with open("/proc/self/status") as fh:
        kb = next(ln.split()[1] for ln in fh if ln.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(kb)
atexit.register(peak_rss)
runpy.run_module("topkorders.cli", run_name="__main__", alter_sys=True)
"""


def run_cli(argv, env, log_path):
    """Run one CLI process; returns (exit code, wall s, peak RSS MB)."""
    rss_path = log_path + ".rss"
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_MAIN, rss_path] + argv,
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        try:
            code = proc.wait()
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    try:
        with open(rss_path, encoding="utf-8") as fh:
            rss_mb = int(fh.read()) / 1024.0
    except FileNotFoundError:  # killed by a signal: the step fails on its exit code
        rss_mb = 0.0
    return code, wall, rss_mb


# ---------------------------------------------------------------------------
# Output checks. Each returns the step's quality value, or None.
# ---------------------------------------------------------------------------

def _finite(x, what):
    if not math.isfinite(x):
        raise CheckFailed(f"{what} is not finite: {x!r}")
    return x


def check_stats(tk, step, files, work, log_text):
    fields = dict(
        ln.split(":", 1) for ln in log_text.splitlines() if ln and not ln.startswith(" ")
    )
    rec = files[step["data"]]
    if int(fields["n"]) != rec["n"] or int(fields["m"]) != rec["m"]:
        raise CheckFailed(f"stats n/m {fields['n']}/{fields['m']} != {rec['n']}/{rec['m']}")
    if abs(float(fields["mean_length"]) - rec["mean_length"]) > 1e-6:
        raise CheckFailed(f"stats mean_length {fields['mean_length']} != {rec['mean_length']}")


def check_fit(tk, step, files, work, log_text):
    path = os.path.join(work, f"{step['ckpt']}.ckpt.json")
    model, _ = tk.load_checkpoint(path)
    if model.variant != step["model"]:
        raise CheckFailed(f"checkpoint holds {model.variant}, not {step['model']}")
    with open(path + ".trace", encoding="utf-8") as fh:
        rows = [ln.split("\t") for ln in fh.read().splitlines()[1:]]
    objective = [float(r[1]) for r in rows]
    if not objective or not all(math.isfinite(v) for v in objective):
        raise CheckFailed("fit trace is empty or not finite")
    if not objective[-1] < objective[0]:
        raise CheckFailed(f"fit objective rose: {objective[0]} -> {objective[-1]}")
    return objective[-1], objective[0]


def check_eval(tk, step, files, work, log_text):
    with open(os.path.join(work, "eval", "eval_report.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["n_infinite"] != 0:
        raise CheckFailed(f"{doc['n_infinite']} held-out records have zero probability")
    return _finite(doc["test_nll"], "test_nll"), files[step["data"]]["null_nll"]


def check_sample(tk, step, files, work, log_text):
    out = os.path.join(work, "sample")
    names = sorted(os.listdir(out))
    if len(names) != step["reps"]:
        raise CheckFailed(f"{len(names)} replicate files, expected {step['reps']}")
    for name in names:
        D = tk.parse_preflib(os.path.join(out, name))
        if D.n != step["n"] or D.universe.m != M:
            raise CheckFailed(f"{name}: {D.n} records over {D.universe.m} items")


def check_assign(tk, step, files, work, log_text):
    with open(os.path.join(work, "assign.tsv"), encoding="utf-8") as fh:
        rows = [ln.split("\t") for ln in fh.read().splitlines()[1:]]
    sources = [r[0] for r in rows]
    expected = 1 + step.get("reps", 0) if "synthetic_from" in step else 1
    if sources[:expected] != ["true"] + [f"synthetic_{r:03d}" for r in range(expected - 1)]:
        raise CheckFailed(f"assign rows {sources}")
    for r in rows[:expected]:
        top1, top3, anyl = (float(v) for v in r[1:4])
        if not 0.0 <= top1 <= top3 <= anyl <= 1.0:
            raise CheckFailed(f"assign rates out of order: {r}")


def check_cv(tk, step, files, work, log_text):
    with open(os.path.join(work, "cv.tsv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    table = [ln.split("\t") for ln in lines[1:-1]]
    grid = {(K, lapl) for K in step["Ks"] for lapl in step["lapls"]}
    got = {(int(r[0]), float(r[1])) for r in table}
    if len(table) != len(grid) or got != grid:
        raise CheckFailed(f"cv table covers {sorted(got)}, expected {sorted(grid)}")
    nll = [_finite(float(r[2]), "cv mean_val_nll") for r in table]
    best = table[nll.index(min(nll))]
    want = f"best\tK={best[0]}\tlambda_laplacian={best[1]}"
    if lines[-1] != want:
        raise CheckFailed(f"cv best row {lines[-1]!r} is not the argmin {want!r}")
    return min(nll), files[step["data"]]["null_nll"]


CHECKS = {
    "stats": check_stats,
    "fit": check_fit,
    "eval": check_eval,
    "sample": check_sample,
    "assign": check_assign,
    "cv": check_cv,
}


# Quality metrics, each a value in nats over a reference value in nats, so
# that the seed-to-seed differences of the data cancel out of the ratio:
# - fit_objective: the final training objective over the objective at the
#   fit's starting point (the first row of the --trace file), for the first
#   fit of the plan, which is the one `eval` scores;
# - test_nll: the held-out NLL over the null model's NLL of the held-out file;
# - cv_nll: the best mean validation NLL over the null model's NLL of the
#   cv file.
# The null model (workloads.shape_record) draws a length from the file's own
# length pmf and then a uniform top-k list.
QUALITY = {"fit": "fit_objective", "eval": "test_nll", "cv": "cv_nll"}


def run_pass(tk, plan, paths, files, work, env, after_step):
    """Run every step once; returns (per-step records, metrics of the pass).

    after_step() is called after each step, outside the timed commands.
    session_s is the sum of the commands' wall times.
    """
    records = []
    metrics = {"session_s": 0.0, "peak_rss_mb": 0.0}
    for i, step in enumerate(plan):
        argv = argv_for(step, paths, work)
        log_path = os.path.join(work, f"step{i}.log")
        code, wall, rss = run_cli(argv, env, log_path)
        rec = {"cmd": step["cmd"], "argv": argv, "exit": code, "wall_s": wall, "rss_mb": rss}
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            with open(log_path, encoding="utf-8") as fh:
                log_text = fh.read()
            rec["last_line"] = log_text.rstrip().rsplit("\n", 1)[-1]
            value = CHECKS[step["cmd"]](tk, step, files, work, log_text)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            if step["cmd"] in QUALITY:
                rec["nats"], rec["reference_nats"] = value
                metrics.setdefault(QUALITY[step["cmd"]], value[0] / value[1])
        records.append(rec)
        metrics["session_s"] += wall
        metrics["peak_rss_mb"] = max(metrics["peak_rss_mb"], rss)
        after_step()
    return records, metrics
