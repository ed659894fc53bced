import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from topkorders import dataio, orders
from topkorders.dataio import (
    ParseError,
    dataset_hash,
    load_covariates,
)
from topkorders.estimation import ParamLayout
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
        "# NUMBER ALTERNATIVES: 3\n1: 99999999999999999999\n",  # id beyond 64 bits
        "# NUMBER ALTERNATIVES: 3\n99999999999999999999: 1\n",  # count beyond 64 bits
    ],
)
def test_malformed_modern_rejected(tmp_path, bad):
    p = tmp_path / "bad.soi"
    p.write_text(bad)
    with pytest.raises(ParseError):
        parse_preflib(p)


MODERN_HEAD = "# NUMBER ALTERNATIVES: 3\n2: 3\n"  # the next line is line 3
LEGACY_HEAD = "3\n1,a\n2,b\n3,c\n5,5,2\n2,3\n"  # the next line is line 7
RULES = {  # rule: (2021 line, legacy line, message)
    "tied": ("1: 1,{2,3}", "1,1,{2,3}", "tied entries ({...}) are unsupported"),
    "non-integer": ("1: 1,x", "1,1,x", "malformed alternative 'x'"),
    "duplicate": ("1: 2,1,2", "1,2,1,2", "duplicate alternative id 2"),
    "range": ("1: 1,4", "1,1,4", "alternative id 4 outside [1, 3]"),
    "empty": ("1: ", "1,", "empty order"),
    "count": ("x: 1", "x,1", "malformed count 'x'"),
    "negative": ("-3: 1,2", "-3,1,2", "negative count -3"),
    "count-0-line": ("0: 1,1", "0,1,1", "duplicate alternative id 1"),
}


@pytest.mark.parametrize(
    "text,line,message",
    [("# NUMBER ALTERNATIVES: 3\n1: 9\n", 2, "alternative id 9 outside [1, 3]")]
    + [(MODERN_HEAD + modern + "\n", 3, msg) for modern, _, msg in RULES.values()]
    + [(LEGACY_HEAD + legacy + "\n", 7, msg) for _, legacy, msg in RULES.values()]
    + [
        ("# NUMBER ALTERNATIVES: 0\n", 1, "alternative count must be >= 1, got 0"),
        ("# FILE NAME: x\n# NUMBER ALTERNATIVES: 0\n1: 1\n", 2,
         "alternative count must be >= 1, got 0"),
        ("0\n", 1, "alternative count must be >= 1, got 0"),
        ("0\n1,1,1\n1,1\n", 1, "alternative count must be >= 1, got 0"),
        ("3\n\n1,a\n2,b\n3,c\n5,5,2\n\n1,1,1\n", 8, "duplicate alternative id 1"),
    ],
    ids=["2021-range-first-line"]
    + [f"2021-{rule}" for rule in RULES]
    + [f"legacy-{rule}" for rule in RULES]
    + ["2021-no-alternatives", "2021-no-alternatives-ballot", "legacy-no-alternatives",
       "legacy-no-alternatives-ballot", "legacy-blank-lines"],
)
def test_parse_error_carries_location(tmp_path, text, line, message):
    p = tmp_path / "bad.soi"
    p.write_text(text)
    with pytest.raises(ParseError) as ei:
        parse_preflib(p)
    assert ei.value.line == line
    assert str(ei.value) == f"{p}:{line}: {message}"


@pytest.mark.parametrize(
    "text",
    ["# NUMBER ALTERNATIVES: 3\n1: 1, 2 ,,3,\n1: +1,02\n",
     "3\n1,a\n2,b\n3,c\n2,2,2\n1,1, 2 ,,3,\n1,+1,02\n"],
    ids=["2021", "legacy"],
)
def test_lenient_entries_parse(tmp_path, text):
    # entries are stripped and empty ones skipped; int() reads '+1' and '02'
    p = tmp_path / "lenient.soi"
    p.write_text(text)
    D = parse_preflib(p)
    assert D.orders == (PartialOrder((1, 2, 3)), PartialOrder((1, 2)))
    items, lengths = D.to_padded()
    assert items.dtype == np.int8 and items.tolist() == [[0, 1, 2], [0, 1, -1]]
    assert lengths.tolist() == [3, 2]


def _parse_outcome(path):
    """The stored rows, counts and dtypes of a parsed file, or its error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a declared count the file does not hold
            items, lengths, counts = parse_preflib(path).rows()
    except ParseError as exc:
        return str(exc), exc.line
    return [(a.dtype, a.tolist()) for a in (items, lengths, counts)]


def _parse_both(path, monkeypatch):
    """The outcome of parsing a file with its blocks' numeric read, and with
    the tokenizer alone."""
    fast = _parse_outcome(path)
    with monkeypatch.context() as mp:
        mp.setattr(dataio, "_read_block", lambda texts, sep: None)
        return fast, _parse_outcome(path)


@pytest.mark.parametrize(
    "body,outcome",
    [
        ("1: 1,+ 2\n", "malformed alternative '+ 2'"),
        ("+ 4: 1,2\n", "malformed count '+ 4'"),
        ("1: 1,- 1\n", "malformed alternative '- 1'"),
        ("12345678901234567890: 1\n", "malformed count '12345678901234567890'"),
        ("1: 2,12345678901234567890\n", "malformed alternative '12345678901234567890'"),
        ("1: 1, 2 ,,3,\n", [[0, 1, 2]]),
        ("1: 1, ,2\n", [[0, 1]]),  # numpy reads ' ' as 0
        ("1: 3,\t,1\n2: ,2\n", [[2, 0], [1, -1]]),
        ("1: 1\n1: \n", "empty order"),
        ("1: 2:3\n", "malformed alternative '2:3'"),
        ("1: \xa02,\u0663\n", [[1, 2]]),
        ("1: 1_0\n", [[9]]),  # int() reads '1_0' as 10
    ],
)
def test_numeric_read_leaves_what_int_rejects_to_the_tokenizer(tmp_path, monkeypatch, body,
                                                               outcome):
    """numpy reads '+ 2', '- 1' and values past int64 (saturated), and
    stops at empty entries: each such block is read by the tokenizer."""
    p = tmp_path / "lines.soi"
    p.write_text("# NUMBER ALTERNATIVES: 10\n" + body, encoding="utf-8")
    fast, exact = _parse_both(p, monkeypatch)
    assert fast == exact
    if isinstance(outcome, str):
        assert outcome in fast[0]
    else:
        assert fast[0][1] == outcome


def test_numeric_read_reads_plain_blocks():
    texts = ["3: 1,2", "0: 3", "12 :4 , 1\t"]
    counts, lengths, ids = dataio._read_block(texts, ":")
    assert counts.tolist() == [3, 0, 12]
    assert lengths.tolist() == [2, 1, 2]
    assert ids.tolist() == [1, 2, 3, 4, 1]
    assert dataio._read_block(["3,1,2", "2,3"], ",")[0].tolist() == [3, 2]
    assert dataio._read_block(["1: 9223372036854775807"], ":") is None  # as numpy reads 2**64


def test_numeric_read_that_warns_is_left_to_the_tokenizer(monkeypatch):
    """numpy < 2 returns the values read before unmatched text with a
    DeprecationWarning, as many as the entries here: the block is left to the
    tokenizer."""
    def partial(text, dtype, sep):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array([1, 2, 3])

    monkeypatch.setattr(np, "fromstring", partial)
    assert dataio._read_block(["1: 2,3"], ":") is None


_FRAGMENTS = ["+ 2", "- 1", "2:3", "12345678901234567890", "9223372036854775807", "1", "2", "0",
              "02", "+", "-", " ", "\t", "\x0b", "\x1c", "\x00", "\xa0", "_", "{", "}", ":",
              "\u0663"]
_CLEAN = st.sampled_from(["1", "2", "3", "9", "02", " 4", "5\t", "0"])
_SPACED = st.sampled_from(["1", "2", "7", " ", "\t", " 3 "])  # numpy reads ' ' as 0


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(layout=st.sampled_from(["2021", "legacy"]),
       lines=st.one_of(*(st.lists(st.lists(entry, min_size=1, max_size=5), min_size=1, max_size=6)
                         for entry in (_CLEAN, st.one_of(_CLEAN, _SPACED)))),
       odd=st.one_of(st.none(), st.sampled_from(_FRAGMENTS),
                     st.lists(st.sampled_from(_FRAGMENTS), max_size=3).map("".join)),
       at=st.integers(0, 40))
def test_numeric_read_matches_the_tokenizer(tmp_path, monkeypatch, layout, lines, odd, at):
    """Generated files of ballot lines (count, then ids) whose entries are
    digits, spaces and tabs, with at most one odd entry of signs, control
    characters, no-break spaces, underscores, braces, colons, non-ASCII
    digits, 20-digit values, the int64 maximum, or nothing: both paths give
    the same rows, counts and dtypes, or the same error at the same line.
    Lines of a count alone are the '1: ' lines of empty lists."""
    if odd is not None:
        cells = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        i, j = cells[at % len(cells)]
        lines[i][j] = odd
    sep = ": " if layout == "2021" else ","
    body = "".join(line[0] + sep + ",".join(line[1:]) + "\n" for line in lines)
    head = ("# NUMBER ALTERNATIVES: 9\n" if layout == "2021"
            else "9\n" + "".join(f"{i},c{i}\n" for i in range(1, 10)) + "5,5,5\n")
    p = tmp_path / "gen.soi"
    p.write_text(head + body, encoding="utf-8")
    fast, exact = _parse_both(p, monkeypatch)
    assert fast == exact


def test_parse_checks_each_line_once(legacy_file, monkeypatch):
    """The rules are checked once, on the 3 ballot lines, not again on the 5 records."""
    calls = []
    check = orders._validate_rows
    monkeypatch.setattr(orders, "_validate_rows", lambda items, *a: calls.append(len(items))
                        or check(items, *a))
    assert parse_preflib(legacy_file).n == 5
    assert calls == [3]


@pytest.mark.parametrize(
    "text,line",
    [
        ("# NUMBER ALTERNATIVES: 3\n2: 3\n-3: 1,2\n", 3),
        ("3\n1,a\n2,b\n3,c\n5,5,2\n2,3\n-3,1,2\n", 7),
        ("# NUMBER ALTERNATIVES: 3\n-1: 1,1\n", 2),  # the count is read before the list
        ("3\n1,a\n2,b\n3,c\n5,5,2\n-1,1,{2}\n", 6),
        ("# NUMBER ALTERNATIVES: 3\n2: 3\n\n0: 1\n-3: 1,2\n", 5),
        ("3\n1,a\n\n2,b\n3,c\n5,5,2\n2,3\n-3,1,2\n", 8),  # blank lines count
    ],
    ids=["2021", "legacy", "2021-bad-list", "legacy-bad-list", "2021-blank-line",
         "legacy-blank-line"],
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


def test_parse_keeps_each_line_once_with_its_count(tmp_path):
    """A parsed file stores its 3 kept lines with their counts; the records
    come out one each, in file order, from read-only arrays."""
    p = tmp_path / "counts.soi"
    p.write_text("# NUMBER ALTERNATIVES: 3\n2: 1,2\n0: 3\n1: 2\n3: 3,1\n")
    D = parse_preflib(p)
    items, lengths, counts = D.rows()
    assert (items + 1).tolist() == [[1, 2], [2, 0], [3, 1]]
    assert lengths.tolist() == [2, 1, 2]
    assert counts.tolist() == [2, 1, 3]
    assert D.n == 6
    assert [q.items for q in D.orders] == [(1, 2)] * 2 + [(2,)] + [(3, 1)] * 3
    assert D.lengths().tolist() == [2, 2, 1, 2, 2, 2]
    padded, per_record = D.to_padded()
    assert padded.shape == (6, 2)
    assert not padded.flags.writeable and not per_record.flags.writeable


def _text_case(case, tmp_path):
    if case == "m12":  # two-digit ids
        return Dataset(Universe(12), random_orders(12, 40, np.random.default_rng(4)))
    if case == "empty-lists":
        lists = [(2, 1), (), (3,), (), (), (1, 3, 2), (2,)]
        return Dataset(Universe(3), [PartialOrder(q) for q in lists], allow_empty=True)
    p = tmp_path / "counts.soi"
    p.write_text("# NUMBER ALTERNATIVES: 11\n# ALTERNATIVE NAME 2: two\n"
                 "3: 10,2\n0: 1\n1: 11,4,1\n4: 5\n2: 1,11\n")
    return parse_preflib(p)


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("case", ["m12", "empty-lists", "count-lines"])
def test_ballot_text_matches_the_records(tmp_path, monkeypatch, case, block):
    """write_dataset and dataset_hash give the text built here record by
    record from ``D.orders``, also when blocks of 3 records split the lists
    and the count lines."""
    if block:
        monkeypatch.setattr(dataio, "TEXT_BLOCK_RECORDS", block)
    D = _text_case(case, tmp_path)
    blocks = [block.count(b"\n") for block in dataio._ballot_bytes(D, b"", b"\n")]
    assert sum(blocks) == D.n
    assert max(blocks) <= dataio.TEXT_BLOCK_RECORDS
    texts = [",".join(map(str, q.items)) for q in D.orders]
    head = ["# FILE NAME: dataset", f"# NUMBER ALTERNATIVES: {D.m}", f"# NUMBER VOTERS: {D.n}"]
    if D.universe.labels is not None:
        head += [f"# ALTERNATIVE NAME {i}: {name}"
                 for i, name in enumerate(D.universe.labels, start=1)]
    p = tmp_path / "out.soi"
    write_dataset(D, p)
    assert p.read_text() == "\n".join(head + [f"1: {text}" for text in texts]) + "\n"
    digest = hashlib.sha256((str(D.m) + "".join("|" + text for text in texts)).encode())
    assert dataset_hash(D) == digest.hexdigest()[:16]


def test_ballot_text_of_long_repeated_rows(tmp_path, monkeypatch):
    """Lists of 30 to 40 of m = 40 items, each held by several rows, in
    blocks of 7 records: every record's text is its own list."""
    monkeypatch.setattr(dataio, "TEXT_BLOCK_RECORDS", 7)
    lists = random_orders(40, 30, np.random.default_rng(5), min_len=30)
    D = Dataset(Universe(40), lists + lists[::-1] + lists[:9])
    texts = [",".join(map(str, q.items)) for q in D.orders]
    assert [t for block in dataio._ballot_bytes(D, b"", b"\n")
            for t in block.decode().split("\n")[:-1]] == texts
    p = tmp_path / "out.soi"
    write_dataset(D, p)
    assert p.read_text().splitlines()[3:] == [f"1: {text}" for text in texts]
    digest = hashlib.sha256(("40" + "".join("|" + text for text in texts)).encode())
    assert dataset_hash(D) == digest.hexdigest()[:16]


def test_ballot_text_memory_is_bounded_by_a_block(tmp_path):
    """One row of 10^6 records: write_dataset and dataset_hash hold its text
    one block of TEXT_BLOCK_RECORDS records at a time (84 and 133 kB traced
    here), not the 19 MB of all its records."""
    D = Dataset.from_padded(Universe(8), np.array([[7, 6, 5, 4, 3, 2, 1, 0]]), np.array([8]),
                            counts=np.array([10**6]))
    record = "8,7,6,5,4,3,2,1"
    block = dataio.TEXT_BLOCK_RECORDS * len(f"1: {record}\n")
    p = tmp_path / "big.soi"
    for run in (lambda: write_dataset(D, p), lambda: dataset_hash(D)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * block
    with open(p, encoding="utf-8") as fh:
        assert sum(line == f"1: {record}\n" for line in fh) == 10**6
    digest = hashlib.sha256(("8" + f"|{record}" * 10**6).encode())
    assert dataset_hash(D) == digest.hexdigest()[:16]


@pytest.mark.parametrize("layout", ["2021", "legacy"])
def test_row_check_error_in_a_later_block_names_its_line(tmp_path, monkeypatch, layout):
    """Lines tokenized 2 at a time and rows checked 3 at a time: the
    duplicate on the 5th ballot line, in the second block of the row check,
    is reported as row 4 of all rows, at its line of the file."""
    monkeypatch.setattr(dataio, "PARSE_BLOCK_LINES", 2)
    monkeypatch.setattr(orders, "CHECK_BLOCK_CELLS", 3 * 4)
    lists = ["1,2", "3", "2,1,3", "0", "2,2", "1"]  # count-0 lines are checked too
    if layout == "2021":
        text = "# NUMBER ALTERNATIVES: 3\n" + "".join(f"1: {q}\n\n" for q in lists)
        text = text.replace("1: 0\n", "0: 1\n")
    else:
        text = "3\n1,a\n2,b\n3,c\n5,5,5\n" + "".join(f"1,{q}\n\n" for q in lists)
        text = text.replace("1,0\n", "0,1\n")
    p = tmp_path / "bad.soi"
    p.write_text(text)
    line = text.splitlines().index(("1: " if layout == "2021" else "1,") + "2,2") + 1
    with pytest.raises(ParseError) as ei:
        parse_preflib(p)
    assert str(ei.value) == f"{p}:{line}: duplicate alternative id 2"
    items = np.array([[0, 1, -1], [2, -1, -1], [1, 0, 2], [0, -1, -1], [1, 1, -1], [0, -1, -1]])
    with pytest.raises(orders.InvalidOrderError) as ei:
        orders._validate_rows(items, np.array([2, 1, 3, 1, 2, 1]), Universe(3), False)
    assert ei.value.row == 4


@pytest.mark.parametrize("block", [None, 2])
def test_parse_reports_the_earliest_rule_broken_across_blocks(tmp_path, monkeypatch, block):
    """Every count is read before any list: a malformed count on the last
    line is reported before a bad id, a tie or a duplicate on earlier
    lines, in whichever block they fall; a line that breaks the layout is
    reported before any of them."""
    if block:
        monkeypatch.setattr(dataio, "PARSE_BLOCK_LINES", block)
    head = "# NUMBER ALTERNATIVES: 3\n"
    body = "1: 1,1\n1: 1,{2,3}\n1: 1,x\n1: 2\n2: 3\n"
    p = tmp_path / "bad.soi"
    p.write_text(head + body + "x: 1\n")
    with pytest.raises(ParseError) as ei:
        parse_preflib(p)
    assert str(ei.value) == f"{p}:7: malformed count 'x'"
    p.write_text(head + body + "-2: 1\n")
    with pytest.raises(ParseError, match=f"{p}:7: negative count -2"):
        parse_preflib(p)
    p.write_text(head + body)
    with pytest.raises(ParseError, match=f"{p}:3: tied entries"):
        parse_preflib(p)
    p.write_text(head + body + "1: 2\nno separator\n")
    with pytest.raises(ParseError, match=f"{p}:8: expected 'count: alt,alt,...'"):
        parse_preflib(p)


def test_parse_memory_is_bounded_by_its_blocks(tmp_path):
    """A file of 200,000 one-ballot lines of up to 8 ids peaks at about
    5 MB: the rows in the smallest integer types (8 bytes of ids, a length,
    a count and a line number, about 14 bytes a line), the dataset's int64
    lengths, and the Python strings of one block of PARSE_BLOCK_LINES
    lines. Holding every line as a string, with its tokens, took 97 MB."""
    rng = np.random.default_rng(3)
    lengths = rng.integers(1, 9, 200_000)
    ids = np.argsort(rng.random((200_000, 8)), axis=1) + 1
    p = tmp_path / "big.soi"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("# NUMBER ALTERNATIVES: 8\n")
        fh.writelines("1: " + ",".join(map(str, row[:k])) + "\n"
                      for row, k in zip(ids.tolist(), lengths.tolist()))
    tracemalloc.start()
    try:
        D = parse_preflib(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert D.n == 200_000 and D.lengths().tolist() == lengths.tolist()
    assert peak < 12 * 2**20


def test_summary_stats_of_count_lines_match_the_records(tmp_path):
    """The length histogram and mean of a count-weighted file, from its
    lines, equal those of its records one by one."""
    p = tmp_path / "counts.soi"
    p.write_text("# NUMBER ALTERNATIVES: 4\n7: 1,2\n0: 3\n3: 4,1,3\n1: 2\n5: 1,2,3,4\n2: 3\n")
    D = parse_preflib(p)
    assert D.rows()[0].shape[0] == 5
    per_record = Dataset(D.universe, list(D.orders))
    s = summary_stats(D)
    assert s == summary_stats(per_record)
    lengths = per_record.lengths()
    assert s.mean_length == float(lengths.mean()) == 46 / 18
    assert s.length_histogram == tuple(np.bincount(lengths, minlength=5)[1:].tolist())
    assert s.format() == summary_stats(per_record).format()


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


def test_covariate_error_line_counts_blank_lines(tmp_path):
    p = tmp_path / "cov.csv"
    p.write_text("agent_id,item_id,f\n\n1,1,0.5\n\n1,9,0.5\n")
    with pytest.raises(ParseError) as ei:
        load_covariates(p, Universe(3))
    assert ei.value.line == 5
    assert str(ei.value) == f"{p}:5: unknown item_id 9"


@pytest.mark.parametrize(
    "rows,line,message",
    [
        (["5,1,0.5", "5,1,0.7", "5,2,abc"], 3, "duplicate (agent, item) pair (5, 1)"),
        (["5,1,0.5", "5,2,abc", "5,1,0.7"], 3, "non-numeric cell in '5,2,abc'"),
        (["5,1,0.5", "6,1,inf", "5,1,0.7"], 3, "non-finite feature in '6,1,inf'"),
        (["5,1,0.5", "6,1,1", "6,1,2", "5,1,3"], 4, "duplicate (agent, item) pair (6, 1)"),
        (["5,1,0.5", "5,1", "5,9,1"], 3, "expected 3 columns"),
    ],
)
def test_covariate_errors_name_the_first_bad_line(tmp_path, rows, line, message):
    p = tmp_path / "cov.csv"
    p.write_text("agent_id,item_id,f\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError) as ei:
        load_covariates(p, Universe(3))
    assert str(ei.value) == f"{p}:{line}: {message}"


def test_load_covariates_fills_the_tensor_by_agent_and_item(tmp_path):
    """Agents in any order, ids beyond 64 bits included, land in sorted
    agent order; each (agent, item) row lands in its cell."""
    big = 10**30
    p = tmp_path / "cov.csv"
    p.write_text("agent_id,item_id,a,b\n"
                 f"9,3,1.5,2.5\n{big},1,-1,0.25\n-4,2,3,4\n9,1,5,6\n{big},3,7,8\n")
    cov, agents, missing = load_covariates(p, Universe(3))
    assert agents == [-4, 9, big]
    assert missing == 4
    want = np.zeros((3, 3, 2))
    for agent, item, feats in [(1, 2, [1.5, 2.5]), (2, 0, [-1, 0.25]), (0, 1, [3, 4]),
                               (1, 0, [5, 6]), (2, 2, [7, 8])]:
        want[agent, item] = feats
    np.testing.assert_array_equal(cov.values, want)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "variant,d",
    [("c-i", 0), ("c-ci", 2), ("c-ld", 0), ("a", 0), ("a-pd", 0), ("a-s", 0),
     ("c-ld", 2), ("a", 2), ("a-pd", 2), ("a-s", 2)],
)
def test_checkpoint_roundtrip_exact(tmp_path, variant, d):
    rng = np.random.default_rng(5)
    K = 3 if variant in ("c-ld", "a-s") else 1
    layout = ParamLayout(variant, 4, d, K)
    model = layout.to_model(rng.normal(size=layout.size), Universe(4))
    p = tmp_path / "ck.json"
    save_checkpoint(model, p, fit_config={"lr": 0.001}, data_hash="abc", seed=11)
    assert json.loads(p.read_text())["d"] == d
    loaded, meta = load_checkpoint(p)
    np.testing.assert_array_equal(
        layout.from_model(loaded), layout.from_model(model)
    )
    assert meta["provenance"] == {"data_hash": "abc", "seed": 11}
    assert meta["fit_config"] == {"lr": 0.001}


def _pinned_checkpoint(path, variant, d):
    K = 3 if variant in ("c-ld", "a-s") else 1
    layout = ParamLayout(variant, 4, d, K)
    flat = (np.arange(layout.size) - layout.size / 2) / 7
    model = layout.to_model(flat, Universe(4, ("w", "x", "y", "z")))
    save_checkpoint(model, path, fit_config={"lr": 0.001}, data_hash="abc", seed=3)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "variant,d,digest",
    [
        ("c-i", 0, "f1bd83c8534be3c2fa6f0b0e62ea33b809126363c30b1e9a38f9fa321749e2b9"),
        ("c-ci", 2, "4dea46c1a9b1a1ceb6aa65532124440314160b31dd11b7c80670a221fbe9bb69"),
        ("c-ld", 0, "06f7c7f6bd423e7f284d4ecb9676b43fc61d0d6591185afdf59afb4cd8cfe064"),
        ("a", 0, "e8e80fe7bee5b66d556b1ab09e1f3dac24b6bdb3e0e401b6468ccda896f3c516"),
        ("a-pd", 0, "08ed666927db0e2edfda7a09504faf3c6db4e2ef0e2195537b641f5ae78af65e"),
        ("a-s", 0, "5bd72c79964f9837ff8b4fa197cd5ceb06f46bf1474af71dc16128eb5a73fc3e"),
        ("a", 2, "5a1a00fabf54178aa46524ecb6fde1460020651675265d206dc88d2645c921d3"),
        ("a-pd", 2, "49db1d23b918036041d841ef74dc753deb88e2a26e5cfb4b202bb8ead7b5a329"),
        ("a-s", 2, "e5d070e7103935665cfc1044bf98ddcc164b9b5e6fe938a7ec81be7233d848a0"),
    ],
)
def test_checkpoint_bytes_pinned(tmp_path, variant, d, digest):
    # digests of files written before the arrays became ParamLayout views
    assert _pinned_checkpoint(tmp_path / "ck.json", variant, d) == digest


def test_checkpoint_with_bank_weights_and_d_zero_loads(tmp_path):
    # c-ld files with covariates once recorded d = 0; d is read from bank_betas
    p = tmp_path / "ck.json"
    _pinned_checkpoint(p, "c-ld", 2)
    doc = json.loads(p.read_text())
    assert doc["d"] == 2
    doc["d"] = 0
    p.write_text(json.dumps(doc))
    model, _ = load_checkpoint(p)
    layout = ParamLayout("c-ld", 4, 2, 3)
    np.testing.assert_array_equal(
        layout.from_model(model), (np.arange(layout.size) - layout.size / 2) / 7
    )


DELETE = object()


@pytest.mark.parametrize(
    "key,value",
    [
        (None, [1, 2]),
        ("m", DELETE),
        ("m", "3"),
        ("m", 10**15),
        ("d", 1.5),
        ("K", True),
        ("model_type", DELETE),
        ("model_type", "b-x"),
        ("labels", ["only-one"]),
        ("arrays", [1.0]),
        (("arrays", "bogus"), [1.0]),
        (("arrays", "end"), DELETE),
        (("arrays", "beta"), [0.1, 0.2, 0.3]),
        (("arrays", "delta"), [[0.0, 0.0, 0.0]]),
        (("arrays", "delta"), [0.0, "x", 0.0]),
        (("arrays", "delta"), [0.0, None, 0.0]),
        (("arrays", "delta"), [[0.0], [0.0, 0.0], [0.0]]),
        (("arrays", "delta"), [0.0, float("nan"), 0.0]),
        (("arrays", "beta"), [float("inf"), 0.0]),
        (("arrays", "end"), [-float("inf")]),
    ],
    ids=["list", "no-m", "str-m", "huge-m", "float-d", "bool-K", "no-variant", "unknown-variant",
         "labels", "arrays-list", "extra-array", "missing-array", "beta-shape",
         "delta-shape", "str-entry", "null-entry", "ragged", "nan-entry", "inf-entry",
         "minus-inf-entry"],
)
def test_malformed_checkpoint_names_its_path(tmp_path, key, value):
    layout = ParamLayout("a", 3, 2, 1)
    p = tmp_path / "ck.json"
    save_checkpoint(layout.to_model(np.arange(layout.size) / 4.0, Universe(3)), p)
    doc = json.loads(p.read_text())
    if key is None:
        doc = value
    else:
        *parents, last = key if isinstance(key, tuple) else (key,)
        target = doc
        for k in parents:
            target = target[k]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as ei:
        load_checkpoint(p)
    assert ei.value.path == p
    assert str(ei.value).startswith(f"{p}: ")


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
