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
    program_main,
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


def test_sample_writes_the_replicates_of_replicate_sample(checkpoint, tmp_path):
    """Each replicate is written as it is drawn, seeded by (seed, r): the
    files equal write_dataset of replicate_sample's datasets, byte for byte."""
    out = tmp_path / "samples"
    rc = run(["sample", "--model-ckpt", checkpoint, "--n", "40", "--reps", "3",
              "--seed", "9", "--out", out])
    assert rc == EXIT_OK
    model, _ = topkorders.load_checkpoint(checkpoint)
    for r, rep in enumerate(topkorders.replicate_sample(model, 40, 3, 9)):
        want = tmp_path / f"want_{r}.txt"
        write_dataset(rep, want)
        assert (out / f"replicate_{r:03d}.txt").read_bytes() == want.read_bytes()


def test_fit_of_no_records_is_input_error(tmp_path, capsys):
    data = tmp_path / "zero.soi"
    data.write_text("# NUMBER ALTERNATIVES: 3\n0: 1,2\n")
    out = tmp_path / "z.json"
    assert run(["fit", "--data", data, "--model", "c-i", "--out", out]) == EXIT_INPUT
    assert "empty dataset" in capsys.readouterr().err
    assert not out.exists()


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


def _loads_numpy_random(argv, also=()):
    """Those of numpy.random and the modules ``also`` that a fresh process
    that runs ``python -m topkorders.cli`` on ``argv`` imports; a None entry
    in sys.modules, which blocks an import, is no module."""
    names = ("numpy.random", *also)
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['topkorders', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('topkorders.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"print([m for m in {names!r} if sys.modules.get(m) is not None])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    )
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def test_full_batch_fit_leaves_out_numpy_random(ballots, tmp_path):
    """A full-batch fit draws nothing, so its process never imports
    numpy.random (about 14 ms and 3 MB of a CLI start). It hashes its data
    for the checkpoint's data_hash with the built-in sha256, not OpenSSL's
    _hashlib (3.4 MB)."""
    argv = ["fit", "--data", ballots, "--model", "a-s", "--K", "2", "--max-epochs", "20",
            "--out", str(tmp_path / "as.json")]
    assert not _loads_numpy_random(argv, also=("_hashlib",))


@pytest.mark.parametrize("cmd", ["stats", "eval"])
def test_commands_that_draw_nothing_leave_out_numpy_random(checkpoint, ballots, tmp_path, cmd):
    """``stats`` and ``eval --reps 0``, like a full-batch fit, draw nothing:
    importing numpy.random would add about 2.4 MB to each one's peak RSS.
    Neither hashes, so neither loads OpenSSL's _hashlib (3.4 MB)."""
    argv = {
        "stats": ["stats", "--data", ballots],
        "eval": ["eval", "--model-ckpt", checkpoint, "--data", ballots, "--reps", "0",
                 "--out", str(tmp_path / "evalout")],
    }[cmd]
    assert not _loads_numpy_random(argv, also=("_hashlib",))


@pytest.mark.parametrize("cmd", ["sample", "eval", "assign", "cv-1", "cv-2"])
def test_drawing_commands_leave_out_openssl(checkpoint, ballots, tmp_path, cmd):
    """The commands that draw import numpy.random, whose ``secrets`` would
    load OpenSSL's _hashlib (3.4 MB) though none of them hashes."""
    caps = tmp_path / "caps.csv"
    caps.write_text("program_id,capacity\n1,10\n2,10\n3,10\n4,10\n")
    cv = ["cv", "--data", ballots, "--model", "c-ld", "--grid", "K=1,2;lapl=0", "--folds", "2",
          "--max-epochs", "10", "--out", str(tmp_path / "cv.tsv")]
    argv = {
        "sample": ["sample", "--model-ckpt", checkpoint, "--n", "5",
                   "--out", str(tmp_path / "samples")],
        "eval": ["eval", "--model-ckpt", checkpoint, "--data", ballots, "--reps", "1",
                 "--out", str(tmp_path / "evalout")],
        "assign": ["assign", "--preferences", ballots, "--capacities", str(caps),
                   "--synthetic-from", checkpoint, "--reps", "1"],
        "cv-1": ["--workers", "1", *cv],
        "cv-2": ["--workers", "2", *cv],
    }[cmd]
    assert _loads_numpy_random(argv, also=("_hashlib",)) == ["numpy.random"]


def test_cli_keeps_a_loaded_openssl(checkpoint, tmp_path):
    """A process that already loaded OpenSSL's _hashlib keeps it after
    program_main."""
    openssl = pytest.importorskip("_hashlib")
    argv = ["sample", "--model-ckpt", checkpoint, "--n", "5", "--out", str(tmp_path / "samples")]
    assert program_main(argv) == EXIT_OK
    assert sys.modules["_hashlib"] is openssl


@pytest.mark.parametrize("how", ["library-main", "no-builtin-sha256"])
def test_openssl_stays_where_the_program_does_not_block_it(checkpoint, tmp_path, how):
    """``main`` called from a library changes no import of its caller, and
    ``program_main`` blocks nothing where the interpreter lacks a built-in
    sha256 (a build configured without it, or one that ships only blake2):
    in both, a fresh process that runs sample ends with OpenSSL's hashlib,
    whose ``scrypt`` the built-in fallback lacks."""
    pytest.importorskip("_hashlib")
    argv = ["sample", "--model-ckpt", checkpoint, "--n", "5", "--out", str(tmp_path / "samples")]
    call = {
        "library-main": f"from topkorders.cli import main; assert main({argv!r}) == 0; ",
        "no-builtin-sha256": (
            "import importlib.util; find = importlib.util.find_spec; "
            "importlib.util.find_spec = "
            "lambda name, *a: None if name in ('_sha2', '_sha256') else find(name, *a); "
            f"from topkorders.cli import program_main; assert program_main({argv!r}) == 0; "
        ),
    }[how]
    code = call + (
        "import sys, hashlib; "
        "print(sys.modules.get('_hashlib') is not None, hasattr(hashlib, 'scrypt'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.split()[-2:] == ["True", "True"]


def test_dataset_hash_without_openssl_is_the_pinned_one(tmp_path):
    """With _hashlib blocked as program_main blocks it, hashlib's built-in
    sha256 gives test_dataset_hash_pinned's digests, so a fit writes the
    same data_hash with and without OpenSSL."""
    p = tmp_path / "pin.soi"
    p.write_text("# NUMBER ALTERNATIVES: 5\n3: 2,1\n1: 5,4,1,2,3\n2: 3\n")
    code = (
        "import sys; sys.modules.setdefault('_hashlib', None); import hashlib; "
        "from topkorders import Dataset, dataset_hash, parse_preflib; "
        f"D = parse_preflib({str(p)!r}); "
        "print(hashlib.sha256.__module__, dataset_hash(D), "
        "dataset_hash(Dataset(D.universe, tuple(reversed(D.orders)))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    )
    module, *digests = out.stdout.split()
    assert module in ("_sha256", "_sha2")  # the interpreter's own, not _hashlib
    assert digests == ["33b51225ffc4855b", "31f756ad8b435f6b"]


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
    ["1\n", "x,10\n", "1,ten\n", "1,-1\n", "5,10\n", "0,10\n", "2,5\n"],
    ids=["no-comma", "bad-id", "bad-capacity", "negative-capacity", "id-above-m", "id-zero",
         "duplicate-id"],
)
def test_bad_capacity_line_is_input_error(ballots, tmp_path, capsys, text):
    caps = tmp_path / "caps.csv"
    caps.write_text("program_id,capacity\n2,10\n" + text)
    rc = run(["assign", "--preferences", ballots, "--capacities", caps])
    assert rc == EXIT_INPUT
    assert f"{caps}:3:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1\n", "one,g1\n", "5,g1\n", "2,g2\n"],
                         ids=["no-comma", "bad-id", "id-above-m", "duplicate-id"])
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


@pytest.mark.parametrize("model", ["c-ld", "a-s"])
def test_laplacian_with_one_stratum_is_input_error(ballots, tmp_path, capsys, model):
    """With --K 1 there are no adjacent strata, so --lambda-laplacian would be
    ignored, and recorded in the checkpoint as if it had acted."""
    out = tmp_path / "x.json"
    assert run(["fit", "--data", ballots, "--model", model, "--K", "1", "--lambda-laplacian",
                "0.5", "--out", out]) == EXIT_INPUT
    assert "--lambda-laplacian applies only with --K above 1" in capsys.readouterr().err
    assert not out.exists()


def test_one_fold_is_input_error_before_the_data_is_read(tmp_path, capsys):
    missing = tmp_path / "missing.soi"
    assert run(["cv", "--data", missing, "--model", "c-i", "--grid", "K=1;lapl=0",
                "--folds", "1"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: --folds must be >= 2, got 1\n"


def test_more_folds_than_records_is_input_error(ballots, tmp_path, capsys):
    out = tmp_path / "cv.tsv"
    assert run(["cv", "--data", ballots, "--model", "c-i", "--grid", "K=1;lapl=0",
                "--folds", "999999", "--out", out]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: --folds must be at most the 80 records, got 999999\n"
    assert not out.exists()


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


def _src_env():
    """This environment, with the package's source directory on PYTHONPATH."""
    src = str(Path(topkorders.__file__).resolve().parents[1])
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_pool_outputs_match_in_process_outputs(ballots, tmp_path):
    grids = {"c-ld": ("K=1,2;lapl=0,0.1", 4), "a-s": ("K=1,3;lapl=0", 2)}  # spec, cells
    for workers in (1, 2):
        for variant, (grid, _) in grids.items():
            out = tmp_path / f"{variant}-{workers}.tsv"
            args = ["cv", "--data", ballots, "--model", variant, "--grid", grid, "--folds", "3",
                    "--lr", "0.05", "--max-epochs", "30", "--out", out]
            assert run(["--workers", workers, *args]) == EXIT_OK
    for variant, (_, cells) in grids.items():
        one = (tmp_path / f"{variant}-1.tsv").read_bytes()
        assert one.count(b"\n") == 1 + cells + 1  # header, cells, best
        assert one == (tmp_path / f"{variant}-2.tsv").read_bytes()


def test_pool_under_spawn_matches_in_process(ballots, tmp_path):
    """Where the default start method is spawn, workers unpickle their state."""
    args = ["cv", "--data", ballots, "--model", "a-s", "--grid", "K=1,2;lapl=0", "--folds", "2",
            "--lr", "0.05", "--max-epochs", "20"]
    assert run([*args, "--out", tmp_path / "one.tsv"]) == EXIT_OK
    env = _src_env()
    argv = ["--workers", "2", *args, "--out", str(tmp_path / "two.tsv")]
    code = (
        "import multiprocessing, sys; multiprocessing.set_start_method('spawn'); "
        f"from topkorders.cli import main; sys.exit(main({argv!r}))"
    )
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    assert (tmp_path / "two.tsv").read_bytes() == (tmp_path / "one.tsv").read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_error_in_a_worker_reaches_the_cli_as_in_process(ballots, tmp_path, capsys):
    args = ["cv", "--data", ballots, "--model", "c-ld", "--grid", "K=1,2;lapl=0", "--folds", "2",
            "--lr", "1e308", "--max-epochs", "5"]
    errors = []
    for workers in (1, 2):
        assert run(["--workers", workers, *args]) == EXIT_NUMERIC
        errors.append(capsys.readouterr().err.strip().splitlines()[-1])
    assert errors[0].startswith("numeric failure: objective diverged")
    assert errors[0] == errors[1]


def test_cli_import_leaves_out_the_process_pool():
    """multiprocessing and the process pool load only when a command starts a pool."""
    env = _src_env()
    code = (
        "import sys, topkorders.cli; "
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('multiprocessing', 'concurrent.futures.process'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "workers,cmd,message",
    [("0", "stats", "--workers must be >= 1, got 0"),
     ("-2", "cv", "--workers must be >= 1, got -2"),
     ("2", "stats", "--workers above 1 applies only to cv"),
     ("2", "fit", "--workers above 1 applies only to cv"),
     ("2", "eval", "--workers above 1 applies only to cv"),
     ("2", "eval-reps", "--workers above 1 applies only to cv"),
     ("2", "sample", "--workers above 1 applies only to cv"),
     ("2", "assign", "--workers above 1 applies only to cv"),
     ("2", "assign-synthetic", "--workers above 1 applies only to cv")],
    ids=["zero", "negative", "stats", "fit", "eval-no-reps", "eval-reps", "sample",
         "assign-no-synthetic", "assign-synthetic"],
)
def test_bad_workers_is_input_error(ballots, checkpoint, tmp_path, capsys, workers, cmd, message):
    """Only cv runs tasks in a pool; replicate draws of up to 10,000 orders
    ran slower in a pool of 2 than in process, so they stay in process."""
    out = tmp_path / "out"
    caps = tmp_path / "caps.csv"
    args = {
        "stats": ["stats", "--data", ballots],
        "cv": ["cv", "--data", ballots, "--model", "c-i", "--grid", "K=1;lapl=0"],
        "fit": ["fit", "--data", ballots, "--model", "c-i"],
        "eval": ["eval", "--model-ckpt", checkpoint, "--data", ballots],
        "eval-reps": ["eval", "--model-ckpt", checkpoint, "--data", ballots, "--reps", "3"],
        "sample": ["sample", "--model-ckpt", checkpoint, "--n", "40", "--reps", "3"],
        "assign": ["assign", "--preferences", ballots, "--capacities", caps],
        "assign-synthetic": ["assign", "--preferences", ballots, "--capacities", caps,
                             "--synthetic-from", checkpoint, "--reps", "3"],
    }[cmd]
    assert run(["--workers", workers, *args, "--out", out]) == EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid,message",
    [("K=a;lapl=0", "--grid K must be an int >= 1, got 'a'"),
     ("K=1.5;lapl=0", "--grid K must be an int >= 1, got '1.5'"),
     ("K=1,0;lapl=0", "--grid K must be an int >= 1, got '0'"),
     ("K=1;lapl=-1", "--grid lapl must be a finite float >= 0, got '-1'"),
     ("K=1;lapl=0,nan", "--grid lapl must be a finite float >= 0, got 'nan'"),
     ("K=1;lapl=inf", "--grid lapl must be a finite float >= 0, got 'inf'"),
     ("K=1", "--grid 'K=1' is malformed")],
)
def test_bad_grid_is_input_error_before_the_data_is_read(tmp_path, capsys, grid, message):
    out = tmp_path / "cv.tsv"
    args = ["cv", "--data", tmp_path / "missing.soi", "--model", "c-ld", "--grid", grid]
    assert run(["--workers", "2", *args, "--out", out]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,message",
    [(["--beta1", "1.5"], "--beta1 must be in [0, 1), got 1.5"),
     (["--beta2", "nan"], "--beta2 must be in [0, 1), got nan"),
     (["--eps-opt", "0"], "--eps-opt must be > 0, got 0.0"),
     (["--lambda-l2", "-1"], "--lambda-l2 must be >= 0, got -1.0")],
)
def test_bad_optimizer_flag_is_input_error(ballots, tmp_path, capsys, flags, message):
    out = tmp_path / "m.json"
    assert run(["fit", "--data", ballots, "--model", "c-i", *flags, "--out", out]) == EXIT_INPUT
    assert f"error: {message}\n" == capsys.readouterr().err
    assert not out.exists()
