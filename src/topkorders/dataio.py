"""Dataset ingestion, checkpoint serialization, and summary statistics.

Supported ballot formats are preflib strict-incomplete-order files in both
the legacy layout (count header lines, then "count,alt,alt,...") and the
2021 layout ("# key: value" metadata, then "count: alt,alt,..."). Ballots
with ties (grouped {} entries) are rejected; ballots listing every
alternative are kept as length-m orders.

Checkpoints are versioned JSON with parameter arrays keyed by role; floats
round-trip exactly (shortest-decimal repr, <= 17 significant digits).
"""

import hashlib
import json
import re
from dataclasses import dataclass

import numpy as np

from .augmented import (
    AugmentedModel,
    AugmentedNaiveParams,
    PositionDependentParams,
    StratifiedAugmentedParams,
)
from .composite import CompositeModel
from .lengthdist import CategoricalLengthParams, PoissonLengthParams
from .orders import CovariateTensor, Dataset, Universe, pad_rows
from .ranking import PLParams, StratifiedPLParams

CHECKPOINT_VERSION = 1


class ParseError(ValueError):
    def __init__(self, message, path=None, line=None):
        loc = f"{path}:{line}: " if path else ""
        super().__init__(f"{loc}{message}")
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


def _check_count(raw_count, path, lineno):
    try:
        count = int(raw_count.strip())
    except ValueError:
        raise ParseError(f"malformed count {raw_count.strip()!r}", path, lineno) from None
    if count < 0:
        raise ParseError(f"negative count {count}", path, lineno)
    return count


def _check_ballot(raw_items, m, path, lineno):
    if "{" in raw_items or "}" in raw_items:
        raise ParseError("tied entries ({...}) are unsupported", path, lineno)
    alts = [a.strip() for a in raw_items.split(",") if a.strip()]
    if not alts:
        raise ParseError("empty ballot", path, lineno)
    items = []
    for a in alts:
        try:
            items.append(int(a))
        except ValueError:
            raise ParseError(f"malformed alternative {a!r}", path, lineno) from None
    if len(set(items)) != len(items):
        raise ParseError("duplicate alternative within ballot", path, lineno)
    for a in items:
        if not 1 <= a <= m:
            raise ParseError(f"alternative {a} outside [1, {m}]", path, lineno)
    return tuple(items)


def _parse_preflib_2021(path, lines) -> Dataset:
    m = None
    declared_n = None
    labels = {}
    ballots, counts = [], []
    for lineno, ln in enumerate(lines, start=1):
        s = ln.strip()
        if not s:
            continue
        if s.startswith("#"):
            body = s.lstrip("#").strip()
            mm = re.match(r"NUMBER ALTERNATIVES\s*:\s*(\d+)", body, re.I)
            if mm:
                m = int(mm.group(1))
            mm = re.match(r"NUMBER VOTERS\s*:\s*(\d+)", body, re.I)
            if mm:
                declared_n = int(mm.group(1))
            mm = re.match(r"ALTERNATIVE NAME (\d+)\s*:\s*(.*)", body, re.I)
            if mm:
                labels[int(mm.group(1))] = mm.group(2)
            continue
        if m is None:
            raise ParseError("ballot line before NUMBER ALTERNATIVES header", path, lineno)
        if ":" not in s:
            raise ParseError("expected 'count: alt,alt,...'", path, lineno)
        count_s, raw_items = s.split(":", 1)
        counts.append(_check_count(count_s, path, lineno))
        ballots.append(_check_ballot(raw_items, m, path, lineno))
    if m is None:
        raise ParseError("missing NUMBER ALTERNATIVES header", path)
    label_tuple = tuple(labels.get(i, str(i)) for i in range(1, m + 1)) if labels else None
    return _ballot_dataset(Universe(m, label_tuple), ballots, counts, declared_n, path)


def _parse_preflib_legacy(path, lines) -> Dataset:
    """Legacy .soi: m, then m label lines 'id,name', then 'n,sum,unique', ballots."""
    rows = [ln.strip() for ln in lines if ln.strip()]
    if not rows:
        raise ParseError("empty file", path)
    try:
        m = int(rows[0])
    except ValueError:
        raise ParseError(f"malformed alternative count {rows[0]!r}", path, 1) from None
    labels = {}
    idx = 1
    for _ in range(m):
        if idx >= len(rows):
            raise ParseError("truncated label block", path, idx + 1)
        parts = rows[idx].split(",", 1)
        try:
            labels[int(parts[0].strip())] = parts[1].strip() if len(parts) > 1 else ""
        except ValueError:
            raise ParseError(f"malformed label line {rows[idx]!r}", path, idx + 1) from None
        idx += 1
    if idx >= len(rows):
        raise ParseError("missing ballot count line", path, idx + 1)
    head = rows[idx].split(",")
    try:
        declared_n = int(head[0].strip())
    except ValueError:
        raise ParseError(f"malformed count line {rows[idx]!r}", path, idx + 1) from None
    idx += 1
    ballots, counts = [], []
    for lineno, row in enumerate(rows[idx:], start=idx + 1):
        parts = row.split(",", 1)
        if len(parts) < 2:
            raise ParseError("expected 'count,alt,alt,...'", path, lineno)
        counts.append(_check_count(parts[0], path, lineno))
        ballots.append(_check_ballot(parts[1], m, path, lineno))
    label_tuple = tuple(labels.get(i, str(i)) for i in range(1, m + 1))
    return _ballot_dataset(Universe(m, label_tuple), ballots, counts, declared_n, path)


def _ballot_dataset(universe, ballots, counts, declared_n, path) -> Dataset:
    """Each checked ballot line repeated ``count`` times, in file order."""
    items, lengths = pad_rows(ballots)
    repeats = np.array(counts, dtype=np.int64)
    items, lengths = np.repeat(items, repeats, axis=0), np.repeat(lengths, repeats)
    D = Dataset.from_padded(universe, items, lengths)
    _warn_count(declared_n, D.n, path)
    return D


def _warn_count(declared_n, observed_n, path):
    if declared_n is not None and declared_n != observed_n:
        import warnings

        warnings.warn(
            f"{path}: declared {declared_n} ballots, observed {observed_n};"
            " using observed count"
        )


def _ballot_texts(D: Dataset) -> list:
    """Each record's 1-based ids as 'a,b,c' ('' for the empty list), built
    one list position at a time."""
    items, lengths = D.to_padded()
    names = np.array([""] + [str(a) for a in range(1, D.m + 1)], dtype=object)
    text = names[items[:, 0] + 1]
    for j in range(1, items.shape[1]):
        rows = lengths > j
        text[rows] += "," + names[items[rows, j] + 1]
    return text.tolist()


def write_dataset(D: Dataset, path) -> None:
    """One unit-weight ballot per line, 2021 style: '1: a,b,c'."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# FILE NAME: dataset\n")
        fh.write(f"# NUMBER ALTERNATIVES: {D.universe.m}\n")
        fh.write(f"# NUMBER VOTERS: {D.n}\n")
        if D.universe.labels is not None:
            for i, name in enumerate(D.universe.labels, start=1):
                fh.write(f"# ALTERNATIVE NAME {i}: {name}\n")
        fh.writelines(f"1: {text}\n" for text in _ballot_texts(D))


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
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParseError("empty covariate file", path)
    header = [h.strip() for h in lines[0].split(",")]
    d = len(header) - 2
    if d < 1:
        raise ParseError("d must be >= 1", path, 1)
    rows = {}
    for lineno, ln in enumerate(lines[1:], start=2):
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
        rows[(agent, item)] = feats
    agent_ids = sorted({a for a, _ in rows})
    n = len(agent_ids)
    values = np.zeros((n, universe.m, d))
    missing = 0
    for i, agent in enumerate(agent_ids):
        for j in range(universe.m):
            feats = rows.get((agent, j + 1))
            if feats is None:
                missing += 1
            else:
                values[i, j] = feats
    return CovariateTensor(values), agent_ids, missing


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _arrays_for(model) -> dict:
    if isinstance(model, CompositeModel):
        out = {}
        if isinstance(model.length_params, CategoricalLengthParams):
            out["length_logits"] = model.length_params.logits
        else:
            out["rate_weights"] = model.length_params.weights
        rp = model.ranking_params
        if isinstance(rp, StratifiedPLParams):
            out["banks"] = np.stack([b.delta for b in rp.banks])
            if rp.banks[0].beta is not None:
                out["bank_betas"] = np.stack([b.beta for b in rp.banks])
        else:
            out["delta"] = rp.delta
            if rp.beta is not None:
                out["beta"] = rp.beta
        return out
    p = model.params
    if isinstance(p, AugmentedNaiveParams):
        out = {"delta": p.theta[:-1], "end": p.theta[-1:]}
        if p.beta is not None:
            out["beta"] = p.beta
        return out
    if isinstance(p, PositionDependentParams):
        out = {"delta": p.theta, "gamma": p.gamma}
        if p.beta is not None:
            out["beta"] = p.beta
        return out
    out = {"banks": p.banks}
    if p.betas is not None:
        out["bank_betas"] = p.betas
    return out


def save_checkpoint(model, path, fit_config=None, data_hash=None, seed=None) -> None:
    if isinstance(model, CompositeModel):
        variant = model.variant
        K = model.ranking_params.K if variant == "c-ld" else 1
        d = 0
        if variant == "c-ci":
            d = model.length_params.d
    else:
        variant = model.variant
        K = model.params.K if variant == "a-s" else 1
        beta = getattr(model.params, "beta", None)
        betas = getattr(model.params, "betas", None)
        d = beta.shape[0] if beta is not None else (
            betas.shape[1] if betas is not None else 0
        )
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "model_type": variant,
        "m": model.universe.m,
        "d": d,
        "K": K,
        "labels": list(model.universe.labels) if model.universe.labels else None,
        "arrays": {k: np.asarray(v).tolist() for k, v in _arrays_for(model).items()},
        "fit_config": fit_config,
        "provenance": {"data_hash": data_hash, "seed": seed},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (model, metadata) where metadata carries
    the stored fit_config and provenance dictionaries."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid checkpoint: {exc}", path) from None
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ParseError(
            f"unsupported checkpoint version {doc.get('format_version')}", path
        )
    meta = {
        "fit_config": doc.get("fit_config"),
        "provenance": doc.get("provenance", {}),
    }
    return _model_from_doc(doc, path), meta


def _model_from_doc(doc, path):
    variant = doc["model_type"]
    m, d, K = doc["m"], doc["d"], doc["K"]
    labels = tuple(doc["labels"]) if doc.get("labels") else None
    universe = Universe(m, labels)
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in doc["arrays"].items()}

    def need(key, shape):
        if key not in arrays:
            raise ParseError(f"checkpoint missing array {key!r}", path)
        if arrays[key].shape != shape:
            raise ParseError(
                f"array {key!r} has shape {arrays[key].shape}, expected {shape}", path
            )
        return arrays[key]

    if variant == "c-i":
        return CompositeModel(
            "c-i",
            CategoricalLengthParams(need("length_logits", (m,))),
            PLParams(need("delta", (m,))),
            universe,
        )
    if variant == "c-ci":
        return CompositeModel(
            "c-ci",
            PoissonLengthParams(need("rate_weights", (d,)), m),
            PLParams(need("delta", (m,)), need("beta", (d,))),
            universe,
        )
    if variant == "c-ld":
        banks = need("banks", (K, m))
        betas = arrays.get("bank_betas")
        pl_banks = tuple(
            PLParams(banks[i], betas[i] if betas is not None else None)
            for i in range(K)
        )
        return CompositeModel(
            "c-ld",
            CategoricalLengthParams(need("length_logits", (m,))),
            StratifiedPLParams(pl_banks),
            universe,
        )
    if variant == "a":
        theta = np.concatenate([need("delta", (m,)), need("end", (1,))])
        return AugmentedModel(
            "a", AugmentedNaiveParams(theta, arrays.get("beta")), universe
        )
    if variant == "a-pd":
        return AugmentedModel(
            "a-pd",
            PositionDependentParams(
                need("delta", (m,)), need("gamma", (m,)), arrays.get("beta")
            ),
            universe,
        )
    if variant == "a-s":
        return AugmentedModel(
            "a-s",
            StratifiedAugmentedParams(
                need("banks", (K, m + 1)), arrays.get("bank_betas")
            ),
            universe,
        )
    raise ParseError(f"unknown model_type {variant!r}", path)


def dataset_hash(D: Dataset) -> str:
    h = hashlib.sha256(str(D.universe.m).encode())
    h.update("".join("|" + text for text in _ballot_texts(D)).encode())
    return h.hexdigest()[:16]
