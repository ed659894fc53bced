import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topkorders
from topkorders import Dataset, FitConfig, Universe, parse_preflib, write_dataset
from topkorders import orders
from topkorders.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    _fit_config,
    _load_data,
    _parse_grid,
    build_parser,
    main,
)
from util import random_orders


@pytest.fixture
def ballots(tmp_path):
    rng = np.random.default_rng(0)
    D = Dataset(Universe(4), tuple(random_orders(4, 80, rng)))
    p = tmp_path / "ballots.soi"
    write_dataset(D, p)
    return str(p)


def run(args):
    return main([str(a) for a in args])


def test_parse_grid():
    assert _parse_grid("K=1,5,10;lapl=0,1e-3") == ([1, 5, 10], [0.0, 1e-3])
    with pytest.raises(ValueError):
        _parse_grid("K=1")


def test_stats_command(ballots, tmp_path, capsys):
    out = tmp_path / "stats.txt"
    assert run(["stats", "--data", ballots, "--out", out]) == EXIT_OK
    text = capsys.readouterr().out
    assert "n: 80" in text
    assert out.read_text().strip() in text


def test_missing_file_is_input_error(tmp_path, capsys):
    assert run(["stats", "--data", tmp_path / "nope.soi"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_malformed_file_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.soi"
    p.write_text("# NUMBER ALTERNATIVES: 2\n1: 7\n")
    assert run(["stats", "--data", p]) == EXIT_INPUT


def test_fit_writes_checkpoint_and_trace(ballots, tmp_path, capsys):
    ck = tmp_path / "model.json"
    tr = tmp_path / "trace.tsv"
    rc = run(
        ["fit", "--data", ballots, "--model", "c-i", "--out", ck,
         "--trace", tr, "--lr", "0.05", "--max-epochs", "50", "--tol", "1e-9"]
    )
    assert rc == EXIT_OK
    doc = json.loads(ck.read_text())
    assert doc["model_type"] == "c-i"
    assert doc["fit_config"]["learning_rate"] == 0.05
    assert doc["provenance"]["seed"] == 0
    lines = tr.read_text().strip().split("\n")
    assert lines[0] == "epoch\tobjective\tgrad_norm"
    assert len(lines) == 51
    assert "fit c-i" in capsys.readouterr().out


def test_fit_cci_without_covariates_is_input_error(ballots, tmp_path, capsys):
    rc = run(["fit", "--data", ballots, "--model", "c-ci",
              "--out", tmp_path / "x.json"])
    assert rc == EXIT_INPUT


def test_fit_determinism_byte_identical(ballots, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["--model", "a", "--lr", "0.05", "--max-epochs", "40",
             "--tol", "1e-9", "--seed", "3"]
    assert run(["fit", "--data", ballots, *flags, "--out", a]) == EXIT_OK
    assert run(["fit", "--data", ballots, *flags, "--out", b]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture
def checkpoint(ballots, tmp_path):
    ck = tmp_path / "ci.json"
    run(["fit", "--data", ballots, "--model", "c-i", "--out", ck,
         "--lr", "0.05", "--max-epochs", "200", "--tol", "1e-7"])
    return str(ck)


def test_eval_command(checkpoint, ballots, tmp_path, capsys):
    out = tmp_path / "evalout"
    rc = run(["eval", "--model-ckpt", checkpoint, "--data", ballots,
              "--reps", "3", "--seed", "1", "--out", out])
    assert rc == EXIT_OK
    doc = json.loads((out / "eval_report.json").read_text())
    assert doc["model"] == "c-i"
    assert np.isfinite(doc["test_nll"])
    assert set(doc["length_stats"]) == {
        "mean_of_means", "std_of_means", "mean_of_stds", "true_mean", "true_std"
    }
    for f in ("nll_by_model.tsv", "length_stats_by_model.tsv",
              "demand_by_alternative.tsv"):
        assert (out / f).exists()
    assert "test NLL" in capsys.readouterr().out


def test_eval_deterministic(checkpoint, ballots, tmp_path):
    o1, o2 = tmp_path / "e1", tmp_path / "e2"
    args = ["eval", "--model-ckpt", checkpoint, "--data", ballots,
            "--reps", "2", "--seed", "5"]
    assert run([*args, "--out", o1]) == EXIT_OK
    assert run([*args, "--out", o2]) == EXIT_OK
    for f in os.listdir(o1):
        assert (o1 / f).read_bytes() == (o2 / f).read_bytes()


def test_sample_command(checkpoint, tmp_path):
    out = tmp_path / "samples"
    rc = run(["sample", "--model-ckpt", checkpoint, "--n", "25",
              "--reps", "2", "--seed", "4", "--out", out])
    assert rc == EXIT_OK
    files = sorted(os.listdir(out))
    assert files == ["replicate_000.txt", "replicate_001.txt"]
    D = parse_preflib(out / "replicate_000.txt")
    assert D.n == 25
    assert D.universe.m == 4


def test_cv_command(ballots, tmp_path, capsys):
    out = tmp_path / "cv.tsv"
    rc = run(["cv", "--data", ballots, "--model", "c-ld",
              "--grid", "K=1,2;lapl=0", "--folds", "3",
              "--lr", "0.05", "--max-epochs", "60", "--tol", "1e-6",
              "--out", out])
    assert rc == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "K\tlambda_laplacian\tmean_val_nll"
    assert len(lines) == 4  # 2 grid rows + best line
    assert lines[-1].startswith("best\tK=")


def test_assign_command(ballots, tmp_path, checkpoint, capsys):
    caps = tmp_path / "caps.csv"
    caps.write_text("program_id,capacity\n1,10\n2,10\n3,10\n4,10\n")
    out = tmp_path / "assign.tsv"
    rc = run(["assign", "--preferences", ballots, "--capacities", caps,
              "--seed", "2", "--synthetic-from", checkpoint, "--reps", "2",
              "--out", out])
    assert rc == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "source\ttop1\ttop3\tany_listed"
    assert lines[1].startswith("true\t")
    assert any(ln.startswith("synthetic_mean\t") for ln in lines)
    rates = [float(v) for v in lines[1].split("\t")[1:]]
    assert all(0.0 <= r <= 1.0 for r in rates)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_failure_exit_code(tmp_path, capsys):
    # a dataset whose fit diverges immediately: absurd learning rate on a
    # single repeated ballot can overflow the length softmax
    p = tmp_path / "one.soi"
    p.write_text("# NUMBER ALTERNATIVES: 3\n1: 1\n")
    rc = run(["fit", "--data", p, "--model", "c-i", "--out", tmp_path / "x.json",
              "--lr", "1e300", "--max-epochs", "5"])
    assert rc in (EXIT_NUMERIC, EXIT_OK)  # overflow path must not crash
    if rc == EXIT_NUMERIC:
        assert "numeric failure" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy_stats():
    """Importing scipy.stats costs most of a second of every CLI start."""
    src = str(Path(topkorders.__file__).resolve().parents[1])
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, topkorders.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy():
    """scipy, and the numpy.testing and numpy.f2py it loads, are test-only."""
    src = str(Path(topkorders.__file__).resolve().parents[1])
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys, topkorders.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m in ('numpy.testing', 'numpy.f2py')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_package_imports_sit_at_module_level():
    """No module imports from the package inside a function, so the module
    graph is one-way; standard-library imports there stay allowed."""
    inside = []
    for path in sorted(Path(topkorders.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside += [
                    f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").split(".")[0] == "topkorders")
                ]
    assert inside == []


def test_fit_flag_defaults_are_the_fit_config_defaults():
    args = build_parser().parse_args(["fit", "--data", "d.txt", "--model", "a", "--out", "m.json"])
    assert _fit_config(args) == FitConfig()


def test_fit_rejects_negative_batch_size(ballots, tmp_path):
    out = tmp_path / "m.json"
    args = ["fit", "--data", ballots, "--model", "c-i", "--batch-size", "-5", "--out", out]
    assert run(args) == EXIT_INPUT
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value",
    [("--batch-size", "abc"), ("--batch-size", "0"), ("--max-epochs", "0"), ("--lr", "0"),
     ("--tol", "-1"), ("--K", "0")],
)
def test_bad_fit_flag_names_itself(ballots, tmp_path, capsys, flag, value):
    out = tmp_path / "m.json"
    args = ["fit", "--data", ballots, "--model", "a-s", flag, value, "--out", out]
    assert run(args) == EXIT_INPUT
    assert f"error: {flag} must be " in capsys.readouterr().err
    assert not out.exists()


def test_negative_count_is_input_error(tmp_path, capsys):
    p = tmp_path / "neg.soi"
    p.write_text("# NUMBER ALTERNATIVES: 3\n2: 3\n-3: 1,2\n")
    assert run(["stats", "--data", p]) == EXIT_INPUT
    assert f"{p}:3:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["1\n", "x,10\n", "1,ten\n", "1,-1\n", "5,10\n", "0,10\n"],
    ids=["no-comma", "bad-id", "bad-capacity", "negative-capacity", "id-above-m", "id-zero"],
)
def test_bad_capacity_line_is_input_error(ballots, tmp_path, capsys, text):
    caps = tmp_path / "caps.csv"
    caps.write_text("program_id,capacity\n2,10\n" + text)
    rc = run(["assign", "--preferences", ballots, "--capacities", caps])
    assert rc == EXIT_INPUT
    assert f"{caps}:3:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1\n", "one,g1\n", "5,g1\n"],
                         ids=["no-comma", "bad-id", "id-above-m"])
def test_bad_group_map_line_is_input_error(checkpoint, ballots, tmp_path, capsys, text):
    groups = tmp_path / "groups.csv"
    groups.write_text("item_id,group\n2,g1\n" + text)
    rc = run(["eval", "--model-ckpt", checkpoint, "--data", ballots, "--reps", "1",
              "--group-map", groups, "--out", tmp_path / "evalout"])
    assert rc == EXIT_INPUT
    assert f"{groups}:3:" in capsys.readouterr().err


def test_fit_line_names_the_stop_rule(ballots, tmp_path, capsys):
    flags = ["fit", "--data", ballots, "--model", "c-i", "--lr", "0.05"]
    assert run([*flags, "--max-epochs", "5", "--tol", "1e-12", "--out", tmp_path / "a.json"]) == 0
    out = capsys.readouterr().out
    assert "stopped by max-epochs after 5 epochs" in out and "gradient norm" in out
    assert run([*flags, "--max-epochs", "500", "--tol", "1", "--out", tmp_path / "b.json"]) == 0
    assert "stopped by |dF| < tol after 2 epochs" in capsys.readouterr().out


def test_malformed_checkpoint_is_input_error(ballots, tmp_path, capsys):
    ck = tmp_path / "ck.json"
    ck.write_text(json.dumps({"format_version": 1, "model_type": "a", "d": 0, "K": 1,
                              "arrays": {"delta": [0.0] * 4, "end": [0.0]}}))
    rc = run(["eval", "--model-ckpt", ck, "--data", ballots, "--out", tmp_path / "evalout"])
    assert rc == EXIT_INPUT
    assert f"{ck}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows,where",
    [("7,1,0.5\n7,1,0.7\n", ":3:"), ("7,1,nan\n", ":2:"), ("7,1,0.5\n", ": ")],
    ids=["duplicate-pair", "non-finite", "agent-count"],
)
def test_bad_covariate_file_is_input_error(ballots, tmp_path, capsys, rows, where):
    cov = tmp_path / "cov.csv"
    cov.write_text("agent_id,item_id,f1\n" + rows)
    rc = run(["fit", "--data", ballots, "--model", "a", "--covariates", cov,
              "--max-epochs", "1", "--out", tmp_path / "x.json"])
    assert rc == EXIT_INPUT
    assert f"{cov}{where}" in capsys.readouterr().err


def test_load_data_checks_the_rows_once_with_covariates(ballots, tmp_path, monkeypatch):
    """Attaching covariates to the parsed ballots does not check the rows again."""
    cov = tmp_path / "cov.csv"
    cov.write_text("agent_id,item_id,f1\n" + "".join(f"{a},1,0.5\n" for a in range(80)))
    calls = []
    check = orders._validate_rows
    monkeypatch.setattr(orders, "_validate_rows", lambda *a: calls.append(1) or check(*a))
    D = _load_data(argparse.Namespace(data=ballots, covariates=str(cov)))
    assert calls == [1]  # the parse's
    assert D.covariates.values.shape == (80, 4, 1)
    np.testing.assert_array_equal(D.to_padded()[0], parse_preflib(ballots).to_padded()[0])


def test_sample_covariate_count_is_input_error(checkpoint, tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    cov.write_text("agent_id,item_id,f1\n7,1,0.5\n")
    rc = run(["sample", "--model-ckpt", checkpoint, "--covariates", cov, "--n", "5",
              "--out", tmp_path / "synth"])
    assert rc == EXIT_INPUT
    assert f"{cov}: 1 agents, but --n 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cmd,flags,name",
    [("assign", ["--reps", "-1"], "--reps"), ("sample", ["--reps", "-2"], "--reps"),
     ("sample", ["--n", "0"], "--n"), ("eval", ["--reps", "-1"], "--reps"),
     ("eval", ["--reps", "1", "--n", "-3"], "--n")],
    ids=["assign-reps", "sample-reps", "sample-n", "eval-reps", "eval-n"],
)
def test_negative_count_flag_is_input_error(checkpoint, ballots, tmp_path, capsys, cmd, flags,
                                            name):
    out = tmp_path / "out"
    if cmd == "assign":
        caps = tmp_path / "caps.csv"
        caps.write_text("program_id,capacity\n1,10\n")
        args = ["assign", "--preferences", ballots, "--capacities", caps,
                "--synthetic-from", checkpoint]
    elif cmd == "sample":
        args = ["sample", "--model-ckpt", checkpoint, "--n", "5"]
    else:
        args = ["eval", "--model-ckpt", checkpoint, "--data", ballots]
    assert run([*args, *flags, "--out", out]) == EXIT_INPUT
    assert f"error: {name} must be >= " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "cmd,flags,message",
    [("eval", ["--n", "5"], "--n applies only with --reps above 0"),
     ("eval", ["--reps", "0", "--seed", "3"], "--seed applies only with --reps above 0"),
     ("eval", ["--group-map", "groups.csv"], "--group-map applies only with --reps above 0"),
     ("sample", ["--no-empty"], "--no-empty applies only to augmented models, not c-i"),
     ("assign", ["--reps", "2"], "--reps applies only with --synthetic-from")],
    ids=["eval-n", "eval-seed", "eval-group-map", "sample-no-empty", "assign-reps"],
)
def test_flag_without_effect_is_input_error(checkpoint, ballots, tmp_path, capsys, cmd, flags,
                                            message):
    out = tmp_path / "out"
    if cmd == "assign":
        caps = tmp_path / "caps.csv"
        caps.write_text("program_id,capacity\n1,10\n")
        args = ["assign", "--preferences", ballots, "--capacities", caps]
    elif cmd == "sample":
        args = ["sample", "--model-ckpt", checkpoint, "--n", "5"]
    else:
        args = ["eval", "--model-ckpt", checkpoint, "--data", ballots]
    assert run([*args, *flags, "--out", out]) == EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "cmd,model,flags,message",
    [("fit", "a", ["--K", "3"], "--K and --lambda-laplacian apply only"),
     ("fit", "c-i", ["--lambda-laplacian", "0.5"], "--K and --lambda-laplacian apply only"),
     ("fit", "c-i", ["--covariates", "COV"], "--model c-i takes no --covariates"),
     ("cv", "a-pd", ["--grid", "K=1,2;lapl=0"], "--grid K other than 1"),
     ("cv", "a", ["--grid", "K=1;lapl=0,0.1"], "--grid K other than 1"),
     ("cv", "c-ld", ["--grid", "K=1,2;lapl=0", "--K", "2"], "cv takes K and lambda_L from --grid"),
     ("cv", "a-s", ["--grid", "K=2;lapl=0", "--lambda-laplacian", "1"],
      "cv takes K and lambda_L from --grid"),
     ("cv", "c-i", ["--grid", "K=1;lapl=0", "--covariates", "COV"],
      "--model c-i takes no --covariates")],
    ids=["fit-K", "fit-lapl", "fit-ci-cov", "cv-grid-K", "cv-grid-lapl", "cv-K", "cv-lapl",
         "cv-ci-cov"],
)
def test_ignored_fit_flag_is_input_error(ballots, tmp_path, capsys, cmd, model, flags, message):
    cov = tmp_path / "cov.csv"
    cov.write_text("agent_id,item_id,f1\n1,1,0.5\n")
    flags = [str(cov) if f == "COV" else f for f in flags]
    out = tmp_path / "out"
    assert run([cmd, "--data", ballots, "--model", model, *flags, "--out", out]) == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_stratified_fit_flags_and_unit_grid_still_run(ballots, tmp_path):
    fit_flags = ["--max-epochs", "3", "--lr", "0.05"]
    assert run(["fit", "--data", ballots, "--model", "a-s", "--K", "2", "--lambda-laplacian",
                "0.1", *fit_flags, "--out", tmp_path / "as.json"]) == EXIT_OK
    assert run(["cv", "--data", ballots, "--model", "c-i", "--grid", "K=1;lapl=0.0",
                "--folds", "2", *fit_flags]) == EXIT_OK


def test_condition_nonempty_on_composite_is_input_error(checkpoint, ballots, tmp_path, capsys):
    rc = run(["eval", "--model-ckpt", checkpoint, "--data", ballots, "--condition-nonempty",
              "--out", tmp_path / "evalout"])
    assert rc == EXIT_INPUT
    assert "--condition-nonempty applies only to augmented models" in capsys.readouterr().err


ASSIGN_TSV_PINNED = (
    "source\ttop1\ttop3\tany_listed\n"
    "true\t0.2\t0.3125\t0.3125\n"
    "synthetic_000\t0.15\t0.3\t0.3125\n"
    "synthetic_001\t0.15\t0.275\t0.3125\n"
    "synthetic_mean\t0.15\t0.2875\t0.3125\n"
    "synthetic_std\t0.0\t0.012499999999999983\t0.0\n"
)


def test_assign_output_pinned(ballots, tmp_path):
    """The assign table of a fixed market and model, as the scan-based
    deferred acceptance wrote it."""
    caps = tmp_path / "caps.csv"
    caps.write_text("program_id,capacity\n1,10\n2,10\n3,5\n4,0\n")
    model = topkorders.CompositeModel(
        "c-i", topkorders.CategoricalLengthParams(np.array([0.2, -0.1, 0.4, 0.0])),
        topkorders.PLParams(np.array([0.5, 0.0, -0.3, 0.1])), Universe(4))
    ck = tmp_path / "model.json"
    topkorders.save_checkpoint(model, ck)
    out = tmp_path / "assign.tsv"
    rc = run(["assign", "--preferences", ballots, "--capacities", caps, "--seed", "3",
              "--synthetic-from", ck, "--reps", "2", "--out", out])
    assert rc == EXIT_OK
    assert out.read_text() == ASSIGN_TSV_PINNED
