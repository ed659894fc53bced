import json
import math

import numpy as np
import pytest

from topkorders import (
    Dataset,
    PartialOrder,
    Universe,
    load_checkpoint,
    parse_preflib,
    save_checkpoint,
    summary_stats,
    write_dataset,
)
from topkorders.dataio import (
    ParseError,
    dataset_hash,
    load_covariates,
)
from util import random_model, random_orders

LEGACY = """3
1,apple
2,banana
3,cherry
5,5,3
2,1,2
2,3
1,2,1,3
"""

MODERN = """# FILE NAME: toy.soi
# NUMBER ALTERNATIVES: 3
# NUMBER VOTERS: 5
# ALTERNATIVE NAME 1: apple
# ALTERNATIVE NAME 2: banana
# ALTERNATIVE NAME 3: cherry
2: 1,2
2: 3
1: 2,1,3
"""


@pytest.fixture
def legacy_file(tmp_path):
    p = tmp_path / "toy_legacy.soi"
    p.write_text(LEGACY)
    return p


@pytest.fixture
def modern_file(tmp_path):
    p = tmp_path / "toy_modern.soi"
    p.write_text(MODERN)
    return p


def test_parse_legacy(legacy_file):
    D = parse_preflib(legacy_file)
    assert D.universe.m == 3
    assert D.n == 5
    assert D.universe.labels == ("apple", "banana", "cherry")
    assert D.orders[0] == PartialOrder((1, 2))
    assert D.orders[1] == PartialOrder((1, 2))  # weight expansion
    assert D.orders[2] == PartialOrder((3,))
    assert D.orders[4] == PartialOrder((2, 1, 3))


def test_parse_modern_matches_legacy(legacy_file, modern_file):
    a = parse_preflib(legacy_file)
    b = parse_preflib(modern_file)
    assert a.orders == b.orders
    assert a.universe.m == b.universe.m
    assert a.universe.labels == b.universe.labels


def test_summary_stats(legacy_file):
    s = summary_stats(parse_preflib(legacy_file))
    assert (s.n, s.m) == (5, 3)
    # lengths 2,2,1,1,3 -> mean 1.8
    assert s.mean_length == pytest.approx(1.8)
    assert s.length_histogram == (2, 2, 1)
    text = s.format()
    assert "n: 5" in text and "mean_length: 1.800000" in text


def test_tied_ballots_rejected(tmp_path):
    p = tmp_path / "tied.soi"
    p.write_text(
        "# NUMBER ALTERNATIVES: 3\n# NUMBER VOTERS: 1\n1: 1,{2,3}\n"
    )
    with pytest.raises(ParseError):
        parse_preflib(p)


@pytest.mark.parametrize(
    "bad",
    [
        "# NUMBER ALTERNATIVES: 3\n1: 1,1\n",  # duplicate item
        "# NUMBER ALTERNATIVES: 3\n1: 4\n",  # out of range
        "# NUMBER ALTERNATIVES: 3\nx: 1\n",  # malformed count
        "# NUMBER ALTERNATIVES: 3\n1: \n",  # empty ballot
        "1: 1,2\n# NUMBER ALTERNATIVES: 3\n",  # ballot before header
        "",  # empty file
    ],
)
def test_malformed_modern_rejected(tmp_path, bad):
    p = tmp_path / "bad.soi"
    p.write_text(bad)
    with pytest.raises(ParseError):
        parse_preflib(p)


def test_parse_error_carries_location(tmp_path):
    p = tmp_path / "bad.soi"
    p.write_text("# NUMBER ALTERNATIVES: 3\n1: 9\n")
    with pytest.raises(ParseError) as ei:
        parse_preflib(p)
    assert ei.value.line == 2
    assert str(p) in str(ei.value)


@pytest.mark.parametrize(
    "text,line",
    [
        ("# NUMBER ALTERNATIVES: 3\n2: 3\n-3: 1,2\n", 3),
        ("3\n1,a\n2,b\n3,c\n5,5,2\n2,3\n-3,1,2\n", 7),
    ],
    ids=["2021", "legacy"],
)
def test_negative_count_rejected(tmp_path, text, line):
    p = tmp_path / "neg.soi"
    p.write_text(text)
    with pytest.raises(ParseError, match="negative count") as ei:
        parse_preflib(p)
    assert ei.value.line == line
    assert f"{p}:{line}:" in str(ei.value)


def test_zero_count_adds_no_record(tmp_path):
    p = tmp_path / "zero.soi"
    p.write_text("# NUMBER ALTERNATIVES: 3\n0: 1,2\n2: 3\n")
    assert parse_preflib(p).orders == (PartialOrder((3,)), PartialOrder((3,)))


def test_count_mismatch_warns_and_uses_observed(tmp_path):
    p = tmp_path / "off.soi"
    p.write_text("# NUMBER ALTERNATIVES: 2\n# NUMBER VOTERS: 99\n1: 1\n")
    with pytest.warns(UserWarning, match="declared 99"):
        D = parse_preflib(p)
    assert D.n == 1


def test_write_then_parse_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    D = Dataset(Universe(4, ("a", "b", "c", "d")), tuple(random_orders(4, 30, rng)))
    out = tmp_path / "rt.soi"
    write_dataset(D, out)
    back = parse_preflib(out)
    assert back.orders == D.orders
    assert back.universe.labels == D.universe.labels


def test_dataset_hash_order_sensitive(legacy_file):
    D = parse_preflib(legacy_file)
    h1 = dataset_hash(D)
    assert h1 == dataset_hash(parse_preflib(legacy_file))
    flipped = Dataset(D.universe, tuple(reversed(D.orders)))
    assert dataset_hash(flipped) != h1


def test_dataset_hash_pinned(tmp_path):
    # values taken from the per-record implementation; checkpoints record them
    p = tmp_path / "pin.soi"
    p.write_text("# NUMBER ALTERNATIVES: 5\n3: 2,1\n1: 5,4,1,2,3\n2: 3\n")
    D = parse_preflib(p)
    assert [q.items for q in D.orders] == [(2, 1)] * 3 + [(5, 4, 1, 2, 3)] + [(3,)] * 2
    assert dataset_hash(D) == "33b51225ffc4855b"
    assert dataset_hash(Dataset(D.universe, tuple(reversed(D.orders)))) == "31f756ad8b435f6b"


# ---------------------------------------------------------------------------
# covariates
# ---------------------------------------------------------------------------

COV = """agent_id,item_id,dist,income
7,1,0.5,1.0
7,2,1.5,1.0
7,3,2.5,1.0
9,1,0.1,2.0
9,3,0.2,2.0
"""


def test_load_covariates(tmp_path):
    p = tmp_path / "cov.csv"
    p.write_text(COV)
    cov, agents, missing = load_covariates(p, Universe(3))
    assert agents == [7, 9]
    assert cov.values.shape == (2, 3, 2)
    assert cov.values[0, 2, 0] == 2.5
    assert missing == 1  # agent 9 has no row for item 2
    np.testing.assert_array_equal(cov.values[1, 1], [0.0, 0.0])


def test_load_covariates_errors(tmp_path):
    p = tmp_path / "cov.csv"
    p.write_text("agent_id,item_id\n")
    with pytest.raises(ParseError):
        load_covariates(p, Universe(3))
    p.write_text("agent_id,item_id,f\n1,9,0.5\n")
    with pytest.raises(ParseError):
        load_covariates(p, Universe(3))
    p.write_text("agent_id,item_id,f\n1,1,abc\n")
    with pytest.raises(ParseError):
        load_covariates(p, Universe(3))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "variant,d",
    [("c-i", 0), ("c-ci", 2), ("c-ld", 0), ("a", 0), ("a-pd", 0), ("a-s", 0)],
)
def test_checkpoint_roundtrip_exact(tmp_path, variant, d):
    rng = np.random.default_rng(5)
    model = random_model(variant, 4, rng, K=3, d=d)
    p = tmp_path / "ck.json"
    save_checkpoint(model, p, fit_config={"lr": 0.001}, data_hash="abc", seed=11)
    loaded, meta = load_checkpoint(p)
    from topkorders.estimation import ParamLayout

    K = 3 if variant in ("c-ld", "a-s") else 1
    layout = ParamLayout(variant, 4, d, K)
    np.testing.assert_array_equal(
        layout.from_model(loaded), layout.from_model(model)
    )
    assert meta["provenance"] == {"data_hash": "abc", "seed": 11}
    assert meta["fit_config"] == {"lr": 0.001}


def test_checkpoint_is_versioned_json(tmp_path):
    model = random_model("a", 3, np.random.default_rng(6))
    p = tmp_path / "ck.json"
    save_checkpoint(model, p)
    raw = json.loads(p.read_text())
    assert raw["format_version"] == 1
    assert raw["model_type"] == "a"


def test_checkpoint_rejects_unknown_version(tmp_path):
    model = random_model("a", 3, np.random.default_rng(7))
    p = tmp_path / "ck.json"
    save_checkpoint(model, p)
    raw = json.loads(p.read_text())
    raw["format_version"] = 99
    p.write_text(json.dumps(raw))
    with pytest.raises(ValueError):
        load_checkpoint(p)


def test_checkpoint_bytes_deterministic(tmp_path):
    model = random_model("c-ld", 3, np.random.default_rng(8), K=2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(model, p1, data_hash="h", seed=0)
    save_checkpoint(model, p2, data_hash="h", seed=0)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_preserves_awkward_floats(tmp_path):
    from topkorders import AugmentedModel, AugmentedNaiveParams

    theta = np.array([0.1, 1e-300, -math.pi, 12345678.987654321])
    model = AugmentedModel("a", AugmentedNaiveParams(theta), Universe(3))
    p = tmp_path / "ck.json"
    save_checkpoint(model, p)
    loaded, _ = load_checkpoint(p)
    np.testing.assert_array_equal(loaded.params.theta, theta)
