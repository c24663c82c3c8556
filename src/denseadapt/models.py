"""Encoder, cross-encoder, and generator contracts plus a small trainable
reference encoder (embedding bag + linear projection) with exact analytic
gradients.

The reference encoder reserves three embedding rows: 0 for out-of-vocabulary
tokens, 1 for the mask token used by masked-prediction objectives, and 2 for
the begin-of-sequence token used by the reconstruction decoder.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import tokenize

OOV_INDEX = 0
MASK_INDEX = 1
BOS_INDEX = 2
NUM_RESERVED = 3

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class EncoderModel:
    """Bi-encoder over a closed vocabulary.

    encode(text) = pool(embedding rows of tokens, truncated to max_seq_len)
    followed by a single linear projection. Pooling is "mean" or "cls"
    (first-token embedding); similarity is "dot" or "cosine".
    """

    vocab: dict[str, int]
    embedding: np.ndarray
    projection: np.ndarray
    pooling: str = "mean"
    similarity: str = "dot"
    max_seq_len: int = 350

    def __post_init__(self):
        if self.pooling not in ("mean", "cls"):
            raise ValueError(f"unknown pooling {self.pooling!r}")
        if self.similarity not in ("dot", "cosine"):
            raise ValueError(f"unknown similarity {self.similarity!r}")
        if self.embedding.ndim != 2 or self.embedding.shape[1] < 1:
            raise ValueError("embedding table must be (vocab, d) with d > 0")
        d = self.embedding.shape[1]
        if self.projection.shape != (d, d):
            raise ValueError("projection must be (d, d)")

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    def token_ids(self, text: str | Sequence[str]) -> np.ndarray:
        """Token ids of a text, or of its tokens, truncated to max_seq_len;
        no tokens map to [OOV]."""
        tokens = (tokenize(text) if isinstance(text, str)
                  else list(text))[: self.max_seq_len]
        if not tokens:
            return np.array([OOV_INDEX], dtype=np.intp)
        return np.fromiter((self.vocab.get(t, OOV_INDEX) for t in tokens),
                           dtype=np.intp, count=len(tokens))

    def parameters(self) -> dict[str, np.ndarray]:
        return {"embedding": self.embedding, "projection": self.projection}


def init_encoder(tokens: Iterable[str], dim: int = 32, seed: int = 0,
                 pooling: str = "mean", similarity: str = "dot",
                 init_scale: float = 0.05, max_seq_len: int = 350) -> EncoderModel:
    """Fresh encoder over the given token set, deterministic per seed."""
    vocab = {t: i + NUM_RESERVED for i, t in enumerate(sorted(set(tokens)))}
    rng = np.random.default_rng(seed)
    embedding = rng.normal(0.0, init_scale, size=(NUM_RESERVED + len(vocab), dim))
    projection = np.eye(dim)
    return EncoderModel(vocab, embedding, projection, pooling, similarity, max_seq_len)


# Tokens per block in the forward and backward passes: neither holds more
# than one block of (tokens x d) values at a time, so a corpus-wide encode
# needs no more memory than a training batch.
_GATHER_TOKENS = 1024


@dataclass
class ForwardCache:
    """State saved by a forward pass, consumed by encode_backward: the
    batch's token ids row after row, and each row's length."""

    ids: np.ndarray
    lengths: np.ndarray
    pooled: np.ndarray
    dropout_mask: np.ndarray | None = None


def _pack(id_lists: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """One flat id array and the row lengths of a batch of id lists."""
    lengths = np.fromiter(map(len, id_lists), dtype=np.intp, count=len(id_lists))
    if not lengths.all():
        raise ValueError("every row needs at least one token id")
    if not lengths.size:
        return np.zeros(0, dtype=np.intp), lengths
    return np.concatenate(id_lists).astype(np.intp, copy=False), lengths


def _pool(model: EncoderModel, ids: np.ndarray, lengths: np.ndarray
          ) -> np.ndarray:
    """Mean of each row's embedding rows, or its first token's row (CLS)."""
    ends = np.cumsum(lengths)
    starts = ends - lengths
    if model.pooling == "cls":
        return model.embedding[ids[starts]]
    sums = np.empty((lengths.size, model.dim))
    row = 0
    while row < lengths.size:
        # Whole rows, at most _GATHER_TOKENS tokens unless one row is longer.
        stop = max(row + 1, int(np.searchsorted(
            ends, starts[row] + _GATHER_TOKENS, side="right")))
        lo, hi = starts[row], ends[stop - 1]
        sums[row:stop] = np.add.reduceat(model.embedding[ids[lo:hi]],
                                         starts[row:stop] - lo, axis=0)
        row = stop
    return sums / lengths[:, None]


def encode_ids(model: EncoderModel, id_lists: Sequence[Sequence[int]],
               dropout_mask: np.ndarray | None = None
               ) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass over pre-tokenized inputs; returns embeddings and cache.

    dropout_mask, when given, multiplies the pooled vectors elementwise
    (inverted-dropout convention: mask values are 0 or 1/keep_prob).
    """
    ids, lengths = _pack(id_lists)
    pooled = _pool(model, ids, lengths)
    if dropout_mask is not None:
        pooled = pooled * dropout_mask
    return pooled @ model.projection, ForwardCache(ids, lengths, pooled,
                                                   dropout_mask)


def encode_backward(model: EncoderModel, cache: ForwardCache,
                    d_out: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Accumulate gradients of a scalar loss into grads, given dL/d(output).

    Token gradients are added row after row and token after token, the
    order of a row-by-row loop, so the embedding gradient is bit-identical
    to that loop's."""
    grads["projection"] += cache.pooled.T @ d_out
    d_pooled = d_out @ model.projection.T
    if cache.dropout_mask is not None:
        d_pooled = d_pooled * cache.dropout_mask
    if model.pooling == "mean":
        ids = cache.ids
        row_of = np.repeat(np.arange(cache.lengths.size), cache.lengths)
        d_pooled = d_pooled / cache.lengths[:, None]
    else:
        ids = cache.ids[np.cumsum(cache.lengths) - cache.lengths]
        row_of = np.arange(cache.lengths.size)
    target = grads["embedding"]
    if not target.flags.c_contiguous:
        raise ValueError("embedding gradient must be C-contiguous")
    flat, d = target.reshape(-1), model.dim
    for lo in range(0, ids.size, _GATHER_TOKENS):
        block = slice(lo, lo + _GATHER_TOKENS)
        np.add.at(flat, (ids[block, None] * d + np.arange(d)).ravel(),
                  d_pooled[row_of[block]].ravel())


def new_grads(model: EncoderModel) -> dict[str, np.ndarray]:
    return {name: np.zeros(p.shape) for name, p in model.parameters().items()}


def encode_batch(model: EncoderModel, texts: Sequence[str]) -> np.ndarray:
    """Encode texts into a (batch, d) matrix. Empty batch gives (0, d)."""
    out, _ = encode_ids(model, [model.token_ids(t) for t in texts])
    return out


def similarity(model: EncoderModel, u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (model.dim,) or v.shape != (model.dim,):
        raise ValueError("vectors must be 1-d of the model dimension")
    if model.similarity == "dot":
        return float(u @ v)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for zero vectors")
    return float(u @ v / (nu * nv))


@dataclass
class OptimizerState:
    """Plain SGD state."""

    learning_rate: float
    step_count: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")


def apply_gradients(model: EncoderModel, grads: dict[str, np.ndarray],
                    opt: OptimizerState) -> tuple[EncoderModel, OptimizerState]:
    """In-place SGD step: p <- p - lr * g for every parameter."""
    params = model.parameters()
    for name, g in grads.items():
        if name not in params:
            raise KeyError(f"unknown parameter {name!r}")
        if params[name].shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape "
                             f"{params[name].shape} for {name!r}")
        params[name] -= opt.learning_rate * g
    opt.step_count += 1
    return model, opt


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    passed: bool
    n_coords: int


def finite_diff_gradcheck(loss_fn, model, epsilon: float = 1e-4,
                          tolerance: float = 1e-4, n_coords: int = 128,
                          seed: int = 0) -> GradCheckReport:
    """Central-difference check of analytic gradients.

    loss_fn(model) must return (loss, grads) where grads maps parameter
    names to arrays. `model` is either an EncoderModel or a plain dict of
    parameter arrays, which are perturbed in place and restored. Relative
    error is measured against the largest analytic gradient magnitude, so
    coordinates with near-zero gradients do not blow up on rounding noise.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError("epsilon must be in [1e-6, 1e-3]")
    params = model if isinstance(model, dict) else model.parameters()
    loss0, grads = loss_fn(model)
    if not np.isfinite(loss0):
        raise ValueError(f"loss is not finite: {loss0}")

    coords = [(name, i) for name in sorted(grads) for i in range(params[name].size)]
    rng = np.random.default_rng(seed)
    k = min(len(coords), max(100, n_coords))
    picked = rng.choice(len(coords), size=k, replace=False)

    scale = max(max(np.max(np.abs(g)) for g in grads.values()), 1e-8)
    max_rel = 0.0
    for ci in picked:
        name, i = coords[ci]
        flat = params[name].reshape(-1)
        orig = flat[i]
        flat[i] = orig + epsilon
        loss_plus, _ = loss_fn(model)
        flat[i] = orig - epsilon
        loss_minus, _ = loss_fn(model)
        flat[i] = orig
        if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
            raise ValueError("loss is not finite under perturbation")
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        analytic = grads[name].reshape(-1)[i]
        max_rel = max(max_rel, abs(analytic - numeric) / scale)
    return GradCheckReport(float(max_rel), bool(max_rel <= tolerance), int(k))


# --- cross-encoder / generator contracts ------------------------------------


@dataclass
class CrossEncoderScorer:
    """Deterministic (query text, passage text) -> raw logit scorer."""

    score_fn: Callable[[str, str], float]
    name: str = "ce"

    def __call__(self, query_text: str, passage_text_: str) -> float:
        return float(self.score_fn(query_text, passage_text_))


def lexical_overlap_ce(scale: float = 10.0) -> CrossEncoderScorer:
    """Mock cross-encoder: scale * fraction of query terms present in the passage.

    Identical texts score identically, so duplicated passages receive equal
    scores and their margins vanish.
    """

    def score(query_text: str, passage_text_: str) -> float:
        q = set(tokenize(query_text))
        if not q:
            return 0.0
        p = set(tokenize(passage_text_))
        return scale * len(q & p) / len(q)

    return CrossEncoderScorer(score, name=f"lexical-overlap-{scale:g}")


@dataclass
class QueryGenerator:
    """Autoregressive generator contract.

    next_token_logits(passage text, generated prefix) returns a logits
    vector over `vocab`; decoding stops at eos_token or max_query_len.
    """

    vocab: tuple[str, ...]
    next_token_logits: Callable[[str, tuple[str, ...]], np.ndarray]
    eos_token: str
    max_query_len: int = 12


# --- checkpoint serialization ------------------------------------------------


def _pack_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _unpack_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype=np.float64).reshape(obj["shape"]).copy()


def save_model(model: EncoderModel, path: str | Path) -> None:
    """Serialize a checkpoint as a single JSON file; exact float64 bytes."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "pooling": model.pooling,
        "similarity": model.similarity,
        "max_seq_len": model.max_seq_len,
        "vocab": model.vocab,
        "embedding": _pack_array(model.embedding),
        "projection": _pack_array(model.projection),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)


def load_model(path: str | Path) -> EncoderModel:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version!r}")
    return EncoderModel(
        vocab={str(k): int(v) for k, v in doc["vocab"].items()},
        embedding=_unpack_array(doc["embedding"]),
        projection=_unpack_array(doc["projection"]),
        pooling=doc["pooling"],
        similarity=doc["similarity"],
        max_seq_len=int(doc["max_seq_len"]),
    )
