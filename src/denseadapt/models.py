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
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import ParseError, tokenize

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

    def token_ids(self, text: str) -> np.ndarray:
        """Token ids of a text, truncated to max_seq_len; none for a text
        without tokens."""
        tokens = tokenize(text)[: self.max_seq_len]
        return np.fromiter((self.vocab.get(t, OOV_INDEX) for t in tokens),
                           dtype=np.intp, count=len(tokens))

    def tokens(self, texts: Sequence[str]) -> "Tokens":
        """The packed token ids of a list of texts, one row per text."""
        return Tokens.of_text_ids([self.token_ids(t) for t in texts])

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


@dataclass(frozen=True, eq=False)
class Tokens:
    """Token-id rows packed flat: `ids` holds the rows one after another,
    row i has lengths[i] >= 1 ids, and len() is the row count."""

    ids: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, rows: Sequence[Sequence[int]]) -> "Tokens":
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        if not lengths.all():
            raise ValueError("every row needs at least one token id")
        ids = np.concatenate(rows) if len(rows) else np.zeros(0)
        return cls(ids.astype(np.intp, copy=False), lengths)

    @classmethod
    def of_text_ids(cls, rows: Sequence[np.ndarray]) -> "Tokens":
        """Pack texts' id rows (`EncoderModel.token_ids`); a text without
        tokens is encoded as one [OOV] id."""
        return cls.of([row if len(row) else [OOV_INDEX] for row in rows])

    def __len__(self) -> int:
        return self.lengths.size

    @cached_property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.lengths) - self.lengths

    def take(self, rows: Sequence[int]) -> "Tokens":
        """The given rows, in the given order (repeats allowed)."""
        rows = np.asarray(rows, dtype=np.intp)
        lengths = self.lengths[rows]
        # A position in a gathered row sits at its row's source start minus
        # its row's output start further on in `ids`.
        shift = np.repeat(self.starts[rows] - (np.cumsum(lengths) - lengths),
                          lengths)
        return Tokens(self.ids[np.arange(shift.size) + shift], lengths)


@dataclass
class ForwardCache:
    """State saved by a forward pass, consumed by encode_backward."""

    tokens: Tokens
    pooled: np.ndarray
    dropout_mask: np.ndarray | None = None


def _pool(model: EncoderModel, tokens: Tokens) -> np.ndarray:
    """Mean of each row's embedding rows, or its first token's row (CLS)."""
    ids, lengths, starts = tokens.ids, tokens.lengths, tokens.starts
    if model.pooling == "cls":
        return model.embedding[ids[starts]]
    ends = starts + lengths
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


def encode_ids(model: EncoderModel, tokens: Tokens,
               dropout_mask: np.ndarray | None = None
               ) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass over a packed batch; returns embeddings and cache.

    dropout_mask, when given, multiplies the pooled vectors elementwise
    (inverted-dropout convention: mask values are 0 or 1/keep_prob).
    """
    pooled = _pool(model, tokens)
    if dropout_mask is not None:
        pooled = pooled * dropout_mask
    return pooled @ model.projection, ForwardCache(tokens, pooled, dropout_mask)


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
    tokens = cache.tokens
    if model.pooling == "mean":
        ids = tokens.ids
        row_of = np.repeat(np.arange(len(tokens)), tokens.lengths)
        d_pooled = d_pooled / tokens.lengths[:, None]
    else:
        ids = tokens.ids[tokens.starts]
        row_of = np.arange(len(tokens))
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
    return encode_ids(model, model.tokens(texts))[0]


def apply_gradients(model: EncoderModel, grads: dict[str, np.ndarray],
                    learning_rate: float) -> None:
    """In-place SGD step: p <- p - lr * g for every parameter."""
    params = model.parameters()
    for name, g in grads.items():
        if name not in params:
            raise KeyError(f"unknown parameter {name!r}")
        if params[name].shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape "
                             f"{params[name].shape} for {name!r}")
        params[name] -= learning_rate * g


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
    vector over `vocab`; decoding stops at eos_token or at the sampler's
    max_query_len.
    """

    vocab: tuple[str, ...]
    next_token_logits: Callable[[str, tuple[str, ...]], np.ndarray]
    eos_token: str


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
        try:
            doc = json.load(f)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise ParseError(f"{path}: not a JSON checkpoint ({e})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a checkpoint (a JSON {type(doc).__name__})")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint format version "
                         f"{version!r}")
    return EncoderModel(
        vocab={str(k): int(v) for k, v in doc["vocab"].items()},
        embedding=_unpack_array(doc["embedding"]),
        projection=_unpack_array(doc["projection"]),
        pooling=doc["pooling"],
        similarity=doc["similarity"],
        max_seq_len=int(doc["max_seq_len"]),
    )
