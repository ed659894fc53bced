"""Dataset ingestion, checkpoint serialization, and summary statistics.

Supported ballot formats are preflib strict-incomplete-order files in both
the legacy layout (count header lines, then "count,alt,alt,...") and the
2021 layout ("# key: value" metadata, then "count: alt,alt,..."); a "#"
line anywhere means the 2021 layout. The file is streamed, and its ballot
lines are held as text one block of PARSE_BLOCK_LINES at a time. Each
block is read into rows in the smallest integer types by one numeric read
of its text (``np.fromstring``), or, where that read might differ from
int(), by the tokenizer, which serves both layouts: it strips entries,
skips empty ones, and rejects malformed or negative counts, tied ({...})
entries and ids that are no 64-bit integers. ``Dataset.from_padded`` then
checks the range, duplicate and empty-list rules once per line over all
rows, count-0 lines included, with ``validate_order``'s messages
("duplicate alternative id 1"). Every error is a ParseError at path:line.
Full-length ballots are length-m orders. The dataset keeps each line once,
with its count, and drops count-0 lines.

Ballot text (``write_dataset``, ``dataset_hash``) is built as bytes, a
block of records at a time, from a table of ',id' tokens; covariate tables
(``load_covariates``) are read without an object per record.

Checkpoints are versioned JSON holding a model's ``ParamLayout`` (variant,
m, d, K) and the layout's named arrays; floats round-trip exactly
(shortest-decimal repr, <= 17 significant digits).
"""

import json
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .estimation import ParamLayout
from .orders import CovariateTensor, Dataset, InvalidOrderError, Universe

CHECKPOINT_VERSION = 1


class ParseError(ValueError):
    def __init__(self, message, path=None, line=None):
        loc = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{loc}{message}" if path else message)
        self.path = path
        self.line = line


# ---------------------------------------------------------------------------
# preflib ballots
# ---------------------------------------------------------------------------

def parse_preflib(path) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        modern = any(ln.lstrip().startswith("#") for ln in fh)
        fh.seek(0)
        parse = _parse_preflib_2021 if modern else _parse_preflib_legacy
        return parse(path, enumerate(fh, start=1))


def _parse_preflib_2021(path, lines) -> Dataset:
    m = None
    declared_n = None
    labels, ballots = {}, _BallotLines(path, ":")
    for lineno, ln in lines:
        s = ln.strip()
        if not s:
            continue
        if s.startswith("#"):
            body = s.lstrip("#").strip()
            if mm := re.match(r"NUMBER ALTERNATIVES\s*:\s*(\d+)", body, re.I):
                m = int(mm.group(1))
                if m < 1:
                    raise ParseError(f"alternative count must be >= 1, got {m}", path, lineno)
            if mm := re.match(r"NUMBER VOTERS\s*:\s*(\d+)", body, re.I):
                declared_n = int(mm.group(1))
            if mm := re.match(r"ALTERNATIVE NAME (\d+)\s*:\s*(.*)", body, re.I):
                labels[int(mm.group(1))] = mm.group(2)
            continue
        if m is None:
            raise ParseError("ballot line before NUMBER ALTERNATIVES header", path, lineno)
        if ":" not in s:
            raise ParseError("expected 'count: alt,alt,...'", path, lineno)
        ballots.add(lineno, s)
    if m is None:
        raise ParseError("missing NUMBER ALTERNATIVES header", path)
    label_tuple = tuple(labels.get(i, str(i)) for i in range(1, m + 1)) if labels else None
    return ballots.dataset(Universe(m, label_tuple), declared_n)


def _parse_preflib_legacy(path, lines) -> Dataset:
    """Legacy .soi: m, then m label lines 'id,name', then 'n,sum,unique', ballots."""
    m = declared_n = None
    labels, n_labels, ballots = {}, 0, _BallotLines(path, ",")
    lineno = 0
    for lineno, ln in lines:
        text = ln.strip()
        if not text:
            continue
        if m is None:
            try:
                m = int(text)
            except ValueError:
                raise ParseError(f"malformed alternative count {text!r}", path, lineno) from None
            if m < 1:
                raise ParseError(f"alternative count must be >= 1, got {m}", path, lineno)
        elif n_labels < m:
            n_labels += 1
            parts = text.split(",", 1)
            try:
                labels[int(parts[0].strip())] = parts[1].strip() if len(parts) > 1 else ""
            except ValueError:
                raise ParseError(f"malformed label line {text!r}", path, lineno) from None
        elif declared_n is None:
            try:
                declared_n = int(text.split(",")[0].strip())
            except ValueError:
                raise ParseError(f"malformed count line {text!r}", path, lineno) from None
        elif "," not in text:
            raise ParseError("expected 'count,alt,alt,...'", path, lineno)
        else:
            ballots.add(lineno, text)
    if m is None:
        raise ParseError("empty file", path)
    if declared_n is None:
        missing = "truncated label block" if n_labels < m else "missing ballot count line"
        raise ParseError(missing, path, lineno + 1)
    label_tuple = tuple(labels.get(i, str(i)) for i in range(1, m + 1))
    return ballots.dataset(Universe(m, label_tuple), declared_n)


def _int64s(texts, what, line_of, path) -> np.ndarray:
    """``texts`` as int64s; a ParseError at ``line_of(k)`` for the first text
    ``k`` that int() rejects or int64 cannot hold."""
    try:
        return np.fromiter(map(int, texts), np.int64, len(texts))
    except (ValueError, OverflowError):
        for k, text in enumerate(texts):
            try:
                np.int64(int(text))
            except (ValueError, OverflowError):
                raise ParseError(f"malformed {what} {text.strip()!r}", path, line_of(k)) from None
        raise


# Ballot lines tokenized at a time: their Python strings are the largest
# temporaries of parsing.
PARSE_BLOCK_LINES = 1 << 9


class _BallotLines:
    """A file's ballot lines, 'count<sep>ids', read in blocks of
    PARSE_BLOCK_LINES lines. Each block is checked against the ballot rules
    (``_ballot_block``) and kept as rows; ``dataset`` then checks the lists
    of all rows at once.

    An error does not stop the reading: the error reported is the first
    line that breaks the earliest rule any line breaks, as if each rule were
    checked over the whole file before the next, and a file whose layout
    breaks later on reports that first.
    """

    def __init__(self, path, sep):
        self.path, self.sep = path, sep
        self.linenos, self.texts = [], []
        self.blocks = []  # (items, lengths, counts, line numbers) of each block
        self.error = None

    def add(self, lineno, text):
        self.linenos.append(lineno)
        self.texts.append(text)
        if len(self.texts) == PARSE_BLOCK_LINES:
            self._flush()

    def _flush(self):
        if not self.texts:
            return
        try:
            self.blocks.append(_ballot_block(self.linenos, self.texts, self.sep, self.path))
        except ParseError as exc:
            if self.error is None or exc.rule < self.error.rule:
                self.error = exc
        self.linenos, self.texts = [], []

    def dataset(self, universe, declared_n) -> Dataset:
        """Each line as one row standing for its count of records, in file
        order. ``Dataset.from_padded`` checks the lists once per line,
        count-0 lines included, so a line whose list breaks a rule is
        reported at its line, whatever its count; it then drops count-0 lines."""
        self._flush()
        if self.error is not None:
            raise self.error
        items, lengths, counts, linenos = _stack_blocks(self.blocks)
        self.blocks = []
        try:
            D = Dataset.from_padded(universe, items, lengths, counts=counts)
        except InvalidOrderError as exc:
            raise ParseError(str(exc), self.path, int(linenos[exc.row])) from None
        if declared_n is not None and declared_n != D.n:
            note = f"declared {declared_n} ballots, observed {D.n}; using observed count"
            warnings.warn(f"{self.path}: {note}")
        return D


def _stack_blocks(blocks):
    """The rows of consecutive blocks as one (items, lengths, counts, line
    numbers), items padded with -1 to the widest block."""
    if not blocks:
        return np.full((0, 1), -1, np.int8), *[np.zeros(0, np.int8)] * 3
    width = max(b[0].shape[1] for b in blocks)
    items = np.full((sum(b[1].size for b in blocks), width), -1,
                    np.result_type(*(b[0] for b in blocks)))
    lo = 0
    for block, *_ in blocks:
        items[lo : lo + block.shape[0], : block.shape[1]] = block
        lo += block.shape[0]
    return items, *(np.concatenate([b[i] for b in blocks]) for i in (1, 2, 3))


def _ballot_block(linenos, texts, sep, path):
    """The rows of ballot lines 'count<sep>ids': (items, lengths, counts,
    line numbers), each in the smallest integer type that holds it, items
    the 0-based ids padded with -1; read by ``_read_block``, or else by
    ``_tokenize_block``."""
    read = _read_block(texts, sep)
    counts, lengths, ids = _tokenize_block(linenos, texts, sep, path) if read is None else read
    width = max(int(lengths.max(initial=0)), 1)
    items = np.full((len(texts), width), -1, dtype=np.int64)
    items[np.arange(width) < lengths[:, None]] = ids - 1
    x = max(int(items.max()), -1 - int(items.min()))
    return (
        items.astype(np.min_scalar_type(-1 - x)),
        lengths.astype(np.min_scalar_type(width)),
        counts.astype(np.min_scalar_type(int(counts.max()))),
        np.array(linenos, dtype=np.min_scalar_type(linenos[-1])),
    )


def _read_block(texts, sep):
    """(counts, lengths, ids) of ballot lines by one ``np.fromstring`` over
    the block, or None where it might differ from the tokenizer: text that
    is not ASCII or has a sign (numpy reads '+ 2', which int() rejects), a
    2021 line with more than one ':', an entry without digits (numpy reads
    ' ' as 0), a read that fails or warns (numpy < 2 returns a partial read
    with a DeprecationWarning), fewer values than the lines' comma-counted
    entries, or a value at the int64 limit, where numpy saturates."""
    text = "\n".join(texts)
    if not text.isascii() or "+" in text or "-" in text:
        return None
    codes = np.frombuffer(text.encode(), np.uint8)
    seps = codes == ord(",")
    if sep != ",":
        colons = codes == ord(sep)
        if np.count_nonzero(colons) != len(texts):
            return None
        seps |= colons
        text = text.replace(sep, ",")
    per_line = np.bincount(np.cumsum(codes == ord("\n"))[seps], minlength=len(texts)) + 1
    digit = (codes >= ord("0")) & (codes <= ord("9"))
    if np.count_nonzero(digit[1:] > digit[:-1]) + digit[0] != per_line.sum():
        return None  # an entry without digits, which numpy reads as 0 if it holds spaces
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.fromstring(text.replace("\n", ","), np.int64, sep=",")
        except (ValueError, DeprecationWarning):
            return None
    if values.size != per_line.sum() or values.max() == np.iinfo(np.int64).max:
        return None
    first = np.cumsum(per_line) - per_line  # each line's count
    ids = np.ones(values.size, dtype=bool)
    ids[first] = False
    return values[first], per_line - 1, values[ids]


def _tokenize_block(linenos, texts, sep, path):
    """(counts, lengths, ids) of ballot lines, int64s, by the tokenizer.

    The item texts of all lines are tokenized in one pass: entries are
    stripped, empty ones skipped. The rules are checked in turn, each over
    every line: counts are 64-bit integers, none is negative, no entry is
    tied ({...}), every id is a 64-bit integer. A ParseError is raised at
    the first line that breaks the first rule broken, with the rule's index
    as ``rule``.
    """
    count_texts, item_texts = zip(*(text.split(sep, 1) for text in texts))
    rule = 0
    try:
        counts = _int64s(count_texts, "count", linenos.__getitem__, path)
        rule = 1
        if np.any(counts < 0):
            k = int(np.argmax(counts < 0))
            raise ParseError(f"negative count {counts[k]}", path, linenos[k])
        rule = 2
        joined = ",".join(item_texts)
        if "{" in joined or "}" in joined:
            k = next(k for k, text in enumerate(item_texts) if "{" in text or "}" in text)
            raise ParseError("tied entries ({...}) are unsupported", path, linenos[k])
        rule = 3
        tokens = [t.strip() for t in joined.split(",")]
        per_line = np.fromiter((text.count(",") + 1 for text in item_texts), np.int64, len(texts))
        kept = np.fromiter(map(bool, tokens), bool, len(tokens))
        line = np.repeat(np.arange(len(texts)), per_line)[kept]  # the line index of each id
        ids = _int64s([t for t in tokens if t], "alternative", lambda k: linenos[line[k]], path)
    except ParseError as exc:
        exc.rule = rule
        raise
    return counts, np.bincount(line, minlength=len(texts)), ids


# Records turned into ballot text at a time: the bytes of one block, and
# the arrays they are built from, are the largest temporaries of writing or
# hashing.
TEXT_BLOCK_RECORDS = 1 << 12


def _ballot_bytes(D: Dataset, head: bytes, tail: bytes):
    """The records' text in blocks of up to TEXT_BLOCK_RECORDS records, each
    record as ``head``, its 1-based ids 'a,b,c' ('' for the empty list) and
    ``tail``. A block holds whole rows, repeated by their counts, whose ids
    gather ',id' tokens padded with zero bytes to one width; one mask drops
    the padding and each record's first comma. A row of more records than
    a block fills blocks of its own with its record's text repeated.
    """
    items, lengths, counts = D.rows()
    # each ',id' in a zero-padded cell of a power-of-two width, which numpy
    # gathers as one word; cell 0 stands for the -1 padding
    width = 1 << len(str(D.m)).bit_length()
    table = np.zeros((D.m + 1, width), np.uint8)
    for a in range(1, D.m + 1):
        table[a, : len(str(a)) + 1] = np.frombuffer(f",{a}".encode(), np.uint8)
    table = table.view(f"V{width}").ravel()
    r, B = 0, TEXT_BLOCK_RECORDS
    while r < lengths.size:
        # the next rows whose records fit in one block (each row holds at
        # least one record), or else the next row alone
        rows = max(int(np.searchsorted(np.cumsum(counts[r : r + B]), B, side="right")), 1)
        k = int(lengths[r : r + rows].max())
        one = rows == 1 and counts[r] > B  # a row of more records than a block
        ids = np.repeat(items[r : r + rows, :k], 1 if one else counts[r : r + rows], axis=0)
        text = np.empty((ids.shape[0], len(head) + k * width + len(tail)), np.uint8)
        text[:, : len(head)] = np.frombuffer(head, np.uint8)
        text[:, len(head) : text.shape[1] - len(tail)] = table.take(ids + 1).view(np.uint8)
        text[:, len(head) : len(head) + min(k, 1)] = 0  # the first id's comma
        text[:, text.shape[1] - len(tail) :] = np.frombuffer(tail, np.uint8)
        block = text[text != 0].tobytes()
        if one:  # whole blocks of its record, then the rest
            full, rest = divmod(int(counts[r]), B)
            for _ in range(full):
                yield block * B
            block *= rest
        yield block
        r += rows


def write_dataset(D: Dataset, path) -> None:
    """One unit-weight ballot per record, 2021 style: '1: a,b,c'."""
    head = ["# FILE NAME: dataset", f"# NUMBER ALTERNATIVES: {D.universe.m}",
            f"# NUMBER VOTERS: {D.n}"]
    if D.universe.labels is not None:
        head += [f"# ALTERNATIVE NAME {i}: {name}" for i, name in enumerate(D.universe.labels, 1)]
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in head).encode())
        fh.writelines(_ballot_bytes(D, b"1: ", b"\n"))


@dataclass(frozen=True)
class SummaryStats:
    n: int
    m: int
    mean_length: float
    length_histogram: tuple

    def format(self) -> str:
        lines = [
            f"n: {self.n}",
            f"m: {self.m}",
            f"mean_length: {self.mean_length:.6f}",
            "length_histogram:",
        ]
        for k, c in enumerate(self.length_histogram, start=1):
            lines.append(f"  {k}: {c}")
        return "\n".join(lines)


def summary_stats(D: Dataset) -> SummaryStats:
    """The records' length histogram, from the stored rows weighted by their
    counts; the mean is the exact sum of the lengths over n, rounded once."""
    _, lengths, counts = D.rows()
    hist = np.bincount(lengths, counts, minlength=D.universe.m + 1).astype(np.int64)
    total = int(np.arange(hist.size) @ hist)
    return SummaryStats(
        n=D.n,
        m=D.universe.m,
        mean_length=total / D.n if D.n else 0.0,
        length_histogram=tuple(int(c) for c in hist[1:]),
    )


# ---------------------------------------------------------------------------
# covariates
# ---------------------------------------------------------------------------

def load_covariates(path, universe: Universe):
    """Delimited text with header 'agent_id,item_id,f1,...'; returns
    (CovariateTensor, agent_ids, missing_count). Missing (agent, item)
    pairs are zero-filled and counted.

    Each line is read into flat arrays: agent ids, item ids and features.
    An error names the first bad line in file order. Duplicate pairs are
    found by sorting the pairs read before that line."""
    # imported only here: `array` is a shared library, and loading it with
    # the package raised the peak RSS of `assign`, which reads none, by 0.4 MB
    from array import array

    agents, items, feats, linenos = [], array("q"), array("d"), array("q")
    d = None
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, ln in enumerate(fh, start=1):
                if not (ln := ln.strip()):
                    continue
                if d is None:
                    d = ln.count(",") - 1
                    if d < 1:
                        raise ParseError("d must be >= 1", path, lineno)
                    continue
                parts = [p.strip() for p in ln.split(",")]
                if len(parts) != d + 2:
                    raise ParseError(f"expected {d + 2} columns", path, lineno)
                try:
                    agent, item = int(parts[0]), int(parts[1])
                    row = [float(v) for v in parts[2:]]
                except ValueError:
                    raise ParseError(f"non-numeric cell in {ln!r}", path, lineno) from None
                if not 1 <= item <= universe.m:
                    raise ParseError(f"unknown item_id {item}", path, lineno)
                if not all(map(math.isfinite, row)):
                    raise ParseError(f"non-finite feature in {ln!r}", path, lineno)
                agents.append(agent)
                items.append(item)
                feats.extend(row)
                linenos.append(lineno)
        except ParseError:
            _pairs(agents, items, linenos, universe.m, path)  # a duplicate on an earlier line
            raise
    if d is None:
        raise ParseError("empty covariate file", path)
    agent_ids, inverse = _pairs(agents, items, linenos, universe.m, path)
    values = np.zeros((len(agent_ids), universe.m, d))
    values[inverse, np.asarray(items) - 1] = np.asarray(feats).reshape(-1, d)
    return CovariateTensor(values), agent_ids, values.shape[0] * universe.m - len(items)


def _pairs(agents, items, linenos, m, path):
    """(the sorted distinct agent ids, each line's index among them); a
    ParseError at the first line whose (agent, item) pair an earlier line holds."""
    agent_ids, inverse = np.unique(np.array(agents), return_inverse=True)
    keys = inverse * m + np.asarray(items) - 1
    order = np.argsort(keys, kind="stable")  # equal pairs stay in file order
    repeat = np.zeros(keys.size, dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    if repeat.any():
        k = int(np.argmax(repeat))
        raise ParseError(
            f"duplicate (agent, item) pair ({agents[k]}, {items[k]})", path, linenos[k]
        )
    return agent_ids.tolist(), inverse


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model, path, fit_config=None, data_hash=None, seed=None) -> None:
    """Write the model's layout and the layout's named arrays as JSON."""
    layout = ParamLayout.of(model)
    arrays = layout.arrays(layout.from_model(model))
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "model_type": layout.variant,
        "m": layout.m,
        "d": layout.d,
        "K": layout.K,
        "labels": list(model.universe.labels) if model.universe.labels else None,
        "arrays": {name: view.tolist() for name, view in arrays.items()},
        "fit_config": fit_config,
        "provenance": {"data_hash": data_hash, "seed": seed},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (model, metadata) where metadata carries
    the stored fit_config and provenance dictionaries. Each array must have
    the name and shape of a view of the stored layout, and every parameter
    must be finite."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid checkpoint: {exc}", path) from None
    if not isinstance(doc, dict):
        raise ParseError("checkpoint is not a JSON object", path)
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ParseError(
            f"unsupported checkpoint version {doc.get('format_version')}", path
        )
    arrays = doc.get("arrays")
    if not isinstance(arrays, dict):
        raise ParseError("checkpoint has no 'arrays' object", path)
    m, d, K = (doc.get(key) for key in ("m", "d", "K"))
    if not all(type(v) is int for v in (m, d, K)):
        raise ParseError(f"m, d and K must be integers, got {m!r}, {d!r}, {K!r}", path)
    try:
        if d == 0 and "bank_betas" in arrays:  # older files wrote d = 0 beside per-bank weights
            d = int(np.shape(arrays["bank_betas"])[-1])
        layout = ParamLayout(doc.get("model_type"), m, d, K)
        universe = Universe(m, tuple(doc["labels"]) if doc.get("labels") else None)
        # views of a zero-stride vector: the shapes, with nothing allocated for a huge header
        views = layout.arrays(np.broadcast_to(0.0, layout.size))
    except (IndexError, TypeError, ValueError) as exc:
        raise ParseError(str(exc), path) from None
    if sorted(arrays) != sorted(views):
        raise ParseError(f"arrays {sorted(arrays)}, expected {sorted(views)}", path)
    values = {}
    for name, view in views.items():
        try:
            values[name] = np.array(arrays[name])
        except ValueError:  # ragged nesting
            values[name] = np.array(None)
        if values[name].dtype.kind not in "iuf":
            raise ParseError(f"array {name!r} is not numeric", path)
        if values[name].shape != view.shape:
            shape = values[name].shape
            raise ParseError(f"array {name!r} has shape {shape}, expected {view.shape}", path)
    flat = np.zeros(layout.size)
    for name, view in layout.arrays(flat).items():
        view[...] = values[name]
    if not np.isfinite(flat).all():  # json reads NaN, Infinity and 1e999
        raise ParseError("checkpoint parameters must be finite", path)
    meta = {
        "fit_config": doc.get("fit_config"),
        "provenance": doc.get("provenance", {}),
    }
    return layout.to_model(flat, universe), meta


def dataset_hash(D: Dataset) -> str:
    """The first 16 hex digits of the sha256 of m, then '|a,b,c' per record."""
    import hashlib  # here, so that cli.program_main can block OpenSSL after the package loads

    h = hashlib.sha256(str(D.universe.m).encode())
    for block in _ballot_bytes(D, b"|", b""):
        h.update(block)
    return h.hexdigest()[:16]
