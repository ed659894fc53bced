"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import ast
import os

import numpy as np
import pytest

import traced
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
INIT = os.path.join(SRC, "topkorders", "__init__.py")


def public_names():
    with open(INIT, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("topkorders/__init__.py defines no __all__")


def private_uses(source, public):
    """Uses of topkorders outside __all__: submodule imports, imported
    names, and attributes of ``tk`` or ``self.tk`` other than module
    metadata such as ``__file__``."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bad += [a.name for a in node.names
                    if a.name.startswith("topkorders.")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("topkorders"):
            if node.module != "topkorders":
                bad.append(node.module)
            else:
                bad += [a.name for a in node.names if a.name not in public]
        elif isinstance(node, ast.Attribute):
            owner = node.value
            is_tk = isinstance(owner, ast.Name) and owner.id == "tk"
            is_self_tk = (isinstance(owner, ast.Attribute) and owner.attr == "tk"
                          and isinstance(owner.value, ast.Name) and owner.value.id == "self")
            dunder = node.attr.startswith("__") and node.attr.endswith("__")
            if (is_tk or is_self_tk) and node.attr not in public and not dunder:
                bad.append("tk." + node.attr)
    return bad


def benchmark_sources():
    return sorted(
        os.path.join(HERE, f) for f in os.listdir(HERE)
        if f.endswith(".py") and not f.startswith("test_")
    )


@pytest.mark.parametrize("path", benchmark_sources(), ids=os.path.basename)
def test_benchmark_uses_only_public_names(path):
    with open(path, encoding="utf-8") as fh:
        assert private_uses(fh.read(), public_names()) == []


def test_private_use_detector_flags_each_form():
    source = (
        "import topkorders.kernels\n"
        "from topkorders.estimation import fit\n"
        "from topkorders import _FitData, fit\n"
        "tk.objective_and_grad\n"
        "self.tk.nll_private\n"
        "tk.fit\n"
        "tk.__file__\n"
    )
    assert private_uses(source, {"fit"}) == [
        "topkorders.kernels", "topkorders.estimation", "_FitData",
        "tk.objective_and_grad", "tk.nll_private",
    ]


def test_generator_is_a_function_of_the_seed(tmp_path):
    def read_all(d):
        return {f: (d / f).read_bytes() for f in sorted(os.listdir(d))}

    for run in ("a", "b"):
        workloads.generate("cv", 7, str(tmp_path / run))
    workloads.generate("cv", 8, str(tmp_path / "c"))
    a, b, c = (read_all(tmp_path / r) for r in "abc")
    assert a == b
    assert a["cv.soi"] != c["cv.soi"]


def test_rcv5_has_the_paper_shape(tmp_path):
    _, files = workloads.generate("rcv5", 3, str(tmp_path))
    rec = files["rcv5"]
    assert (rec["n"], rec["m"]) == (253_866, 8)
    assert abs(rec["mean_length"] - 2.5) <= 0.1
    assert 15_000 <= rec["distinct_lines"] <= 30_000


def test_count_compressed_lines_expand_to_the_ballots():
    rng = np.random.default_rng(0)
    ballots = workloads.sample_rcv(3_000, rng)
    lines = workloads.ballot_lines(ballots)
    counts = [int(ln.split(":")[0]) for ln in lines]
    assert sum(counts) == 3_000
    assert counts == sorted(counts, reverse=True)
    assert len(lines) == len({ln.split(":")[1] for ln in lines})


def test_self_time_and_coverage():
    tr = traced.Tracer("w", "r")
    with tr.span("cmd.x"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            with tr.span("c"):
                pass
    spans = tr.finish()
    top, a, b, c = spans
    assert (a["parent"], b["parent"], c["parent"]) == (0, 0, 2)
    assert top["self"] == pytest.approx(top["dur"] - a["dur"] - b["dur"])
    assert b["self"] == pytest.approx(b["dur"] - c["dur"])
    assert 0.0 <= top["coverage"] <= 1.0
    assert traced.coverage_errors([{**top, "step": 0, "coverage": 0.5}]) == {
        0: "cmd.x: spans cover 50.0% of its wall time"
    }


def test_null_nll_is_uniform_top_k_with_the_file_length_pmf():
    # half the ballots list one item, half list two: ln 2 nats for the
    # length, then ln 8 or ln(8 * 7) nats for the list
    ballots = np.zeros((4, workloads.M), dtype=int)
    ballots[:, 0] = 1
    ballots[2:, 1] = 2
    rec = workloads.shape_record(ballots, 2)
    expected = np.log(2) + (np.log(8) + np.log(56)) / 2
    assert rec["null_nll"] == pytest.approx(expected, rel=1e-12)
    assert rec["mean_length"] == 1.5


@pytest.mark.xfail(strict=True, raises=ValueError, reason="write_dataset writes an empty draw as "
                   "'1: ', which parse_preflib rejects as an empty ballot")
def test_replicate_with_an_empty_draw_reparses(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(SRC)
    import topkorders as tk

    D = tk.Dataset(tk.Universe(workloads.M, None),
                   (tk.PartialOrder((1, 2)), tk.PartialOrder(())), allow_empty=True)
    path = str(tmp_path / "replicate.txt")
    tk.write_dataset(D, path)
    assert tk.parse_preflib(path).n == 2
