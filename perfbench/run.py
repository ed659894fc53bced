"""Benchmark of the topkorders CLI and its layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rcv5 --seed 1 --seconds 30 --trace 0

Both modes first generate the workload's inputs from the seed.
``--trace 0`` then runs the workload's commands (``workloads.PLANS``) as
CLI processes (``python -m topkorders.cli``, through a wrapper that records
each one's peak RSS; see ``cli_run.CLI_MAIN``), checks each output, and
reports the end-to-end metrics of ``BENCHMARK.json``. It runs whole passes
of the plan for about ``--seconds`` seconds, at least one, and reports
medians over passes. ``--trace 1`` replays the same commands in process
through the public API with a span around each call, then the workload's
probe steps (``workloads.PROBES``), and reports the per-layer metrics. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A record of the run,
with the environment, input shapes, per-command wall times and spans, is
written to ``.perfbench_out/``.

The benchmark imports only names in ``topkorders.__all__``, so the package's
private modules can change without breaking it.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

# One BLAS thread, which never exceeds the CPU count, set before numpy is
# imported, in this process and in every CLI process it starts.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import cli_run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# setup_s is the median of at least SETUP_SAMPLES samples. One sample times
# a batch of set-ups that lasts at least SETUP_BATCH_SECONDS, because one
# set-up of a small workload takes milliseconds. The samples are spread over
# the run, some before the first CLI command and some after each one: the
# machine's speed drifts over seconds, and samples taken in one window all
# land in one phase of it.
SETUP_SAMPLES = 7
SETUP_BATCH_SECONDS = 0.3
EVAL_TOLERANCE = 1e-9  # CLI test_nll against the library's


def environment(tk):
    def version(mod):
        return __import__(mod).__version__

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "topkorders")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None  # a checkout without git metadata records only the source digest
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    return {
        "backend": tk.backend_name(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class SetupTimer:
    """Times the workload's set-up in batches; keeps seconds per set-up."""

    def __init__(self, workload, seed, out_dir, first_s, per_call):
        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        self.batch = max(1, math.ceil(SETUP_BATCH_SECONDS / first_s))
        self.per_call = per_call
        self.samples = []

    def __call__(self):
        for _ in range(self.per_call):
            t0 = time.perf_counter()
            for _ in range(self.batch):
                workloads.generate(self.workload, self.seed, self.out_dir)
            self.samples.append((time.perf_counter() - t0) / self.batch)


def untraced_run(tk, workload, seed, seconds, work, record):
    plan = workloads.PLANS[workload]
    t0 = time.perf_counter()
    paths, files = workloads.generate(workload, seed, os.path.join(work, "inputs"))
    time_setup = SetupTimer(workload, seed, os.path.join(work, "setup"),
                            time.perf_counter() - t0,
                            math.ceil(SETUP_SAMPLES / (len(plan) + 1)))
    time_setup()
    record["files"] = files
    env = cli_env()
    # Every workload's pass lasts more than half the declared run_seconds,
    # so at that setting a run measures one pass; a longer --seconds gives
    # the median over several.
    passes, steps = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        recs, metrics = cli_run.run_pass(tk, plan, paths, files, work, env, time_setup)
        steps += recs
        passes.append(metrics)
        elapsed = time.perf_counter() - t_start
        if elapsed + (time.perf_counter() - t0) > seconds:
            break
    record["steps"] = steps
    record["setup_samples_s"] = time_setup.samples
    metrics = {"setup_s": statistics.median(time_setup.samples)}
    for key in passes[0]:
        values = [p[key] for p in passes if key in p]
        if len(values) == len(passes):
            metrics[key] = statistics.median(values)
    record["passes"] = len(passes)
    return len(steps), sum(1 for r in steps if "error" in r), metrics


def traced_run(tk, workload, seed, work, record):
    paths, files = workloads.generate(workload, seed, os.path.join(work, "inputs"))
    record["files"] = files
    env = cli_env()
    plan = workloads.PLANS[workload]
    tr = traced.Tracer(workload, f"{workload}-seed{seed}-traced")

    rp = traced.Replay(tk, tr, paths, files, work)
    errors = rp.run(plan)
    rp.probe(workloads.PROBES[workload])
    spans = tr.finish()
    for i, msg in traced.coverage_errors(spans).items():
        errors.setdefault(i, msg)

    # the CLI's eval of the replay's checkpoint must match the library value
    attempted = len(plan) + 1
    failed = len(errors)
    step = next(s for s in plan if s["cmd"] == "eval")
    code, _, _ = cli_run.run_cli(
        cli_run.argv_for(step, paths, work), env, os.path.join(work, "cli_eval.log")
    )
    cli_nll = float("nan")
    if code == 0:
        with open(os.path.join(work, "eval", "eval_report.json"), encoding="utf-8") as fh:
            cli_nll = json.load(fh)["test_nll"]
    lib_nll = rp.test_nll.nll if rp.test_nll is not None else float("nan")
    if not abs(cli_nll - lib_nll) <= EVAL_TOLERANCE:
        failed += 1
        errors["cli_eval"] = f"CLI test_nll {cli_nll!r} != library {lib_nll!r}"

    metrics = traced.layer_metrics(tk, workload, seed, plan, paths, work, spans, rp, env)
    metrics["trace.overhead_pct"] = (
        100.0 * len(spans) * traced.span_cost_s() / sum(rp.walls.values())
    )
    metrics["trace.coverage_min_pct"] = 100.0 * min(
        s["coverage"] for s in spans if s["name"].startswith("cmd.")
    )
    record.update(errors={str(k): v for k, v in errors.items()}, spans=spans,
                  command_walls_s=rp.walls)
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole passes of the plan for about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: kill the running CLI process, remove the work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "topkorders", "__init__.py")):
        print(f"error: no topkorders sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import topkorders as tk

    if os.path.dirname(os.path.abspath(tk.__file__)) != os.path.join(SRC, "topkorders"):
        print(f"error: imported topkorders from {tk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(tk)}
    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            attempted, failed, metrics = traced_run(tk, args.workload, args.seed, work, record)
        else:
            attempted, failed, metrics = untraced_run(
                tk, args.workload, args.seed, args.seconds, work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["metrics"] = metrics
    os.makedirs(OUT_ROOT, exist_ok=True)
    out = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    errors = record.get("errors") or [r["error"] for r in record.get("steps", []) if "error" in r]
    print(json.dumps({"environment": record["environment"], "files": record["files"]}))
    print(json.dumps({"record": out, "fail_rate": failed / attempted, "errors": errors}))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    unit = {m["name"]: m["unit"] for m in declared}
    undeclared = sorted(set(metrics) - set(unit))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": unit[k]} for k in unit if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
