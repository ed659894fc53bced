"""Dataset ingestion, checkpoint serialization, and summary statistics.

Supported ballot formats are preflib strict-incomplete-order files in both
the legacy layout (count header lines, then "count,alt,alt,...") and the
2021 layout ("# key: value" metadata, then "count: alt,alt,..."). One
tokenizer reads the ballot lines of both: it strips entries, skips empty
ones, and rejects malformed or negative counts, tied ({...}) entries and
ids that are no 64-bit integers. ``Dataset.from_padded`` checks the range,
duplicate and empty-list rules once per line, count-0 lines included, with
``validate_order``'s messages ("duplicate alternative id 1"). Every error
is a ParseError at path:line. Full-length ballots are length-m orders. The
dataset keeps each line once, with its count, and drops count-0 lines.

Checkpoints are versioned JSON holding a model's ``ParamLayout`` (variant,
m, d, K) and the layout's named arrays; floats round-trip exactly
(shortest-decimal repr, <= 17 significant digits).
"""

import hashlib
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
        lines = fh.readlines()
    if any(ln.lstrip().startswith("#") for ln in lines):
        return _parse_preflib_2021(path, lines)
    return _parse_preflib_legacy(path, lines)


def _parse_preflib_2021(path, lines) -> Dataset:
    m = None
    declared_n = None
    labels, ballots = {}, []
    for lineno, ln in enumerate(lines, start=1):
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
        ballots.append((lineno, *s.split(":", 1)))
    if m is None:
        raise ParseError("missing NUMBER ALTERNATIVES header", path)
    label_tuple = tuple(labels.get(i, str(i)) for i in range(1, m + 1)) if labels else None
    return _ballot_dataset(Universe(m, label_tuple), ballots, declared_n, path)


def _parse_preflib_legacy(path, lines) -> Dataset:
    """Legacy .soi: m, then m label lines 'id,name', then 'n,sum,unique', ballots."""
    rows = [(lineno, s) for lineno, ln in enumerate(lines, start=1) if (s := ln.strip())]
    if not rows:
        raise ParseError("empty file", path)
    lineno, text = rows[0]
    try:
        m = int(text)
    except ValueError:
        raise ParseError(f"malformed alternative count {text!r}", path, lineno) from None
    if m < 1:
        raise ParseError(f"alternative count must be >= 1, got {m}", path, lineno)
    labels = {}
    for lineno, text in rows[1 : m + 1]:
        parts = text.split(",", 1)
        try:
            labels[int(parts[0].strip())] = parts[1].strip() if len(parts) > 1 else ""
        except ValueError:
            raise ParseError(f"malformed label line {text!r}", path, lineno) from None
    if len(rows) < m + 2:
        missing = "truncated label block" if len(rows) <= m else "missing ballot count line"
        raise ParseError(missing, path, len(lines) + 1)
    lineno, text = rows[m + 1]
    try:
        declared_n = int(text.split(",")[0].strip())
    except ValueError:
        raise ParseError(f"malformed count line {text!r}", path, lineno) from None
    ballots = []
    for lineno, text in rows[m + 2 :]:
        if "," not in text:
            raise ParseError("expected 'count,alt,alt,...'", path, lineno)
        ballots.append((lineno, *text.split(",", 1)))
    label_tuple = tuple(labels.get(i, str(i)) for i in range(1, m + 1))
    return _ballot_dataset(Universe(m, label_tuple), ballots, declared_n, path)


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


def _ballot_dataset(universe, ballots, declared_n, path) -> Dataset:
    """Each (line number, count text, items text) of ``ballots`` as one row
    standing for ``count`` records, in file order. The item texts of all
    lines are tokenized in one pass: entries are stripped, empty ones
    skipped. The lines are then checked once, by ``Dataset.from_padded``, so
    a line whose list breaks a rule is reported at its line, whatever its
    count; a count-0 line is dropped after its check."""
    linenos, count_texts, item_texts = zip(*ballots) if ballots else ((), (), ())
    counts = _int64s(count_texts, "count", linenos.__getitem__, path)
    if np.any(counts < 0):
        k = int(np.argmax(counts < 0))
        raise ParseError(f"negative count {counts[k]}", path, linenos[k])
    joined = ",".join(item_texts)
    if "{" in joined or "}" in joined:
        k = next(k for k, text in enumerate(item_texts) if "{" in text or "}" in text)
        raise ParseError("tied entries ({...}) are unsupported", path, linenos[k])
    tokens = [t.strip() for t in joined.split(",")] if ballots else []
    per_line = np.fromiter((text.count(",") + 1 for text in item_texts), np.int64, len(ballots))
    kept = np.fromiter(map(bool, tokens), bool, len(tokens))
    line = np.repeat(np.arange(len(ballots)), per_line)[kept]  # the line index of each id
    ids = _int64s([t for t in tokens if t], "alternative", lambda k: linenos[line[k]], path)
    lengths = np.bincount(line, minlength=len(ballots))
    width = max(int(lengths.max(initial=0)), 1)
    items = np.full((len(ballots), width), -1, dtype=np.int64)
    items[np.arange(width) < lengths[:, None]] = ids - 1
    try:
        D = Dataset.from_padded(universe, items, lengths, counts=counts)
    except InvalidOrderError as exc:
        raise ParseError(str(exc), path, linenos[exc.row]) from None
    if declared_n is not None and declared_n != D.n:
        note = f"declared {declared_n} ballots, observed {D.n}; using observed count"
        warnings.warn(f"{path}: {note}")
    return D


# Records turned into ballot text at a time: the text of one block, a
# Python string per row and one joined string, is the largest temporary of
# writing or hashing.
TEXT_BLOCK_RECORDS = 1 << 14


def _ballot_text_blocks(D: Dataset):
    """The records in blocks of up to TEXT_BLOCK_RECORDS, each as (texts,
    counts) over the stored rows it meets: each row's 1-based ids as 'a,b,c'
    ('' for the empty list), built one list position at a time, and how many
    of the row's records fall in the block. Repeating each text by its
    count gives the block's records in order."""
    items, lengths, counts = D.rows()
    ends = np.cumsum(counts)  # the records through each row
    names = np.array([""] + [str(a) for a in range(1, D.m + 1)], dtype=object)
    for lo in range(0, D.n, TEXT_BLOCK_RECORDS):
        hi = min(lo + TEXT_BLOCK_RECORDS, D.n)
        r0, r1 = np.searchsorted(ends, [lo, hi - 1], side="right")
        r1 += 1
        block, k, end = items[r0:r1], lengths[r0:r1], ends[r0:r1]
        text = names[block[:, 0] + 1]
        for j in range(1, block.shape[1]):
            rows = k > j
            text[rows] += "," + names[block[rows, j] + 1]
        taken = np.minimum(end, hi) - np.maximum(end - counts[r0:r1], lo)
        yield text.tolist(), taken.tolist()


def write_dataset(D: Dataset, path) -> None:
    """One unit-weight ballot per record, 2021 style: '1: a,b,c'."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# FILE NAME: dataset\n")
        fh.write(f"# NUMBER ALTERNATIVES: {D.universe.m}\n")
        fh.write(f"# NUMBER VOTERS: {D.n}\n")
        if D.universe.labels is not None:
            for i, name in enumerate(D.universe.labels, start=1):
                fh.write(f"# ALTERNATIVE NAME {i}: {name}\n")
        for texts, counts in _ballot_text_blocks(D):
            fh.write("".join(f"1: {text}\n" * c for text, c in zip(texts, counts)))


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
    lengths = D.lengths()
    hist = np.bincount(lengths, minlength=D.universe.m + 1)[1:]
    return SummaryStats(
        n=D.n,
        m=D.universe.m,
        mean_length=float(lengths.mean()) if D.n else 0.0,
        length_histogram=tuple(int(c) for c in hist),
    )


# ---------------------------------------------------------------------------
# covariates
# ---------------------------------------------------------------------------

def load_covariates(path, universe: Universe):
    """Delimited text with header 'agent_id,item_id,f1,...'; returns
    (CovariateTensor, agent_ids, missing_count). Missing (agent, item)
    pairs are zero-filled and counted."""
    with open(path, encoding="utf-8") as fh:
        lines = [(lineno, s) for lineno, ln in enumerate(fh, start=1) if (s := ln.strip())]
    if not lines:
        raise ParseError("empty covariate file", path)
    d = lines[0][1].count(",") - 1
    if d < 1:
        raise ParseError("d must be >= 1", path, lines[0][0])
    rows = {}
    for lineno, ln in lines[1:]:
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != d + 2:
            raise ParseError(f"expected {d + 2} columns", path, lineno)
        try:
            agent = int(parts[0])
            item = int(parts[1])
            feats = [float(v) for v in parts[2:]]
        except ValueError:
            raise ParseError(f"non-numeric cell in {ln!r}", path, lineno) from None
        if not 1 <= item <= universe.m:
            raise ParseError(f"unknown item_id {item}", path, lineno)
        if not all(map(math.isfinite, feats)):
            raise ParseError(f"non-finite feature in {ln!r}", path, lineno)
        if (agent, item) in rows:
            raise ParseError(f"duplicate (agent, item) pair ({agent}, {item})", path, lineno)
        rows[(agent, item)] = feats
    agent_ids = sorted({a for a, _ in rows})
    index = {agent: i for i, agent in enumerate(agent_ids)}
    values = np.zeros((len(agent_ids), universe.m, d))
    for (agent, item), feats in rows.items():
        values[index[agent], item - 1] = feats
    return CovariateTensor(values), agent_ids, values.shape[0] * universe.m - len(rows)


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
    the name and shape of a view of the stored layout."""
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
    meta = {
        "fit_config": doc.get("fit_config"),
        "provenance": doc.get("provenance", {}),
    }
    return layout.to_model(flat, universe), meta


def dataset_hash(D: Dataset) -> str:
    """The first 16 hex digits of the sha256 of m, then '|a,b,c' per record."""
    h = hashlib.sha256(str(D.universe.m).encode())
    for texts, counts in _ballot_text_blocks(D):
        h.update("".join(("|" + text) * c for text, c in zip(texts, counts)).encode())
    return h.hexdigest()[:16]
