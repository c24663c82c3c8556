"""Encoder, cross-encoder, and generator contracts plus a small trainable
reference encoder (embedding bag + linear projection) with exact analytic
gradients.

The reference encoder reserves three embedding rows: 0 for out-of-vocabulary
tokens, 1 for the mask token used by masked-prediction objectives, and 2 for
the begin-of-sequence token used by the reconstruction decoder.
"""

from __future__ import annotations

import binascii
import json
import math
import os
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import ParseError, tokenize
from .util import check_interval

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
    for name, value in (("dim", dim), ("init_scale", init_scale),
                        ("max_seq_len", max_seq_len)):
        check_interval(name, value)
    vocab = {t: i + NUM_RESERVED for i, t in enumerate(sorted(set(tokens)))}
    rng = np.random.default_rng(seed)
    embedding = rng.normal(0.0, init_scale, size=(NUM_RESERVED + len(vocab), dim))
    projection = np.eye(dim)
    return EncoderModel(vocab, embedding, projection, pooling, similarity, max_seq_len)


# Tokens per block in the forward and backward passes: neither holds more
# than one block of (tokens x d) values at a time, so a corpus-wide encode
# needs no more memory than a training batch.
_GATHER_TOKENS = 1024

# Texts per block in encode_batch.
_ENCODE_TEXTS = 256


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
                    d_out: np.ndarray, grads: dict) -> None:
    """Accumulate gradients of a scalar loss into grads, given dL/d(output).

    Token gradients are added row after row and token after token, the
    order of a row-by-row loop, into the rows' slots of the embedding
    gradient's block (see `new_grads`), so the block is bit-identical to
    that loop's dense gradient on those rows. A token whose row has no slot
    raises IndexError."""
    grads["projection"] += cache.pooled.T @ d_out
    d_pooled = d_out @ model.projection.T
    if cache.dropout_mask is not None:
        d_pooled = d_pooled * cache.dropout_mask
    tokens = cache.tokens
    ids = _pooled_ids(model, tokens)
    if model.pooling == "mean":
        row_of = np.repeat(np.arange(len(tokens)), tokens.lengths)
        d_pooled = d_pooled / tokens.lengths[:, None]
    else:
        row_of = np.arange(len(tokens))
    rows, block = grads["embedding"]
    if not block.flags.c_contiguous:
        raise ValueError("embedding gradient must be C-contiguous")
    if not isinstance(rows, slice):
        # Each table row's slot in the block; a row without one points past
        # the block's end.
        slot = np.full(model.vocab_size, rows.size)
        slot[rows] = np.arange(rows.size)
        ids = slot[ids]
    flat, d = block.reshape(-1), model.dim
    for lo in range(0, ids.size, _GATHER_TOKENS):
        part = slice(lo, lo + _GATHER_TOKENS)
        np.add.at(flat, (ids[part, None] * d + np.arange(d)).ravel(),
                  d_pooled[row_of[part]].ravel())


def _pooled_ids(model: EncoderModel, tokens: Tokens) -> np.ndarray:
    """The ids whose embedding rows a forward pass reads: all of them under
    mean pooling, each row's first under CLS."""
    return tokens.ids if model.pooling == "mean" else tokens.ids[tokens.starts]


def new_grads(model: EncoderModel, *batches: Tokens) -> dict:
    """Zero gradients for a step over the given token batches.

    The embedding gradient is a pair (rows, block): block[i] is the
    gradient of embedding row rows[i]. With batches, rows are the distinct
    ids they read, ascending, so a step holds and updates only those rows;
    without, rows is slice(None) and the block covers every row (dense)."""
    rows, n = slice(None), model.vocab_size
    if batches:
        read = np.zeros(model.vocab_size, dtype=bool)
        for tokens in batches:
            read[_pooled_ids(model, tokens)] = True
        rows = np.flatnonzero(read)
        n = rows.size
    return {"embedding": (rows, np.zeros((n, model.dim))),
            "projection": np.zeros(model.projection.shape)}


def encode_batch(model: EncoderModel, texts: Sequence[str]) -> np.ndarray:
    """Encode texts into a (batch, d) matrix. Empty batch gives (0, d).

    The texts are tokenized and pooled _ENCODE_TEXTS at a time, so a
    corpus-wide encode holds the token ids of one block."""
    pooled = np.empty((len(texts), model.dim))
    for lo in range(0, len(texts), _ENCODE_TEXTS):
        block = slice(lo, lo + _ENCODE_TEXTS)
        pooled[block] = _pool(model, model.tokens(texts[block]))
    return pooled @ model.projection


def apply_gradients(model: EncoderModel, grads: dict,
                    learning_rate: float) -> None:
    """In-place SGD step: p <- p - lr * g for every parameter, on the
    embedding's gradient rows only (rows without a gradient have a zero
    one). The gradients are consumed: each is scaled by lr in place."""
    params = model.parameters()
    for name, g in grads.items():
        if name not in params:
            raise KeyError(f"unknown parameter {name!r}")
        p, rows = params[name], slice(None)
        if name == "embedding":
            rows, g = g
        shape = p.shape if isinstance(rows, slice) else (len(rows), *p.shape[1:])
        if g.shape != shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape "
                             f"{shape} for {name!r}")
        g *= learning_rate
        p[rows] -= g


# --- cross-encoder / generator contracts ------------------------------------


@dataclass
class CrossEncoderScorer:
    """Deterministic cross-encoder: raw logits of (query text, passage
    text) pairs, scored a list at a time by `score_pairs`, which calls
    `score_fn(query texts, passage texts)` for one score per pair."""

    score_fn: Callable
    name: str = "ce"

    def score_pairs(self, query_texts: Sequence[str],
                    passage_texts: Sequence[str]) -> np.ndarray:
        """float64 scores of the pairs (query_texts[i], passage_texts[i])."""
        if len(query_texts) != len(passage_texts):
            raise ValueError(f"{len(query_texts)} query texts for "
                             f"{len(passage_texts)} passage texts")
        scores = np.asarray(self.score_fn(query_texts, passage_texts),
                            dtype=np.float64)
        if scores.shape != (len(query_texts),):
            raise ValueError(f"{len(query_texts)} pairs scored as shape "
                             f"{scores.shape}")
        return scores

    def __call__(self, query_text: str, passage_text_: str) -> float:
        return float(self.score_pairs([query_text], [passage_text_])[0])


def lexical_overlap_ce(scale: float = 10.0) -> CrossEncoderScorer:
    """Mock cross-encoder: scale * fraction of query terms present in the passage.

    A pair scores scale * |q & p| / |q| over the two texts' token sets, and
    0.0 for a query without tokens. Identical texts score identically, so
    duplicated passages receive equal scores and their margins vanish.
    Each distinct text of a call is tokenized once into a term set; a
    passage's set keeps only the terms of the call's queries.
    """

    def score_pairs(query_texts: Sequence[str],
                    passage_texts: Sequence[str]) -> np.ndarray:
        terms = {t: frozenset(tokenize(t)) for t in dict.fromkeys(query_texts)}
        # One string per query term: a passage's set holds these, not its
        # own copies (tokens are never empty, so `filter` drops misses only).
        vocab = {w: w for q in terms.values() for w in q}
        for text in dict.fromkeys(passage_texts):
            if text not in terms:
                terms[text] = frozenset(filter(None, map(vocab.get,
                                                         tokenize(text))))
        pairs = ((terms[q], terms[p]) for q, p in zip(query_texts, passage_texts))
        return np.fromiter((scale * len(q & p) / len(q) if q else 0.0
                            for q, p in pairs),
                           dtype=np.float64, count=len(query_texts))

    return CrossEncoderScorer(score_pairs, name=f"lexical-overlap-{scale:g}")


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

# Bytes of a checkpoint payload held at a time. The writer encodes one block
# of raw bytes at a time, a multiple of 3 so that the base64 blocks join
# without padding; the reader reads the file one block at a time.
_PAYLOAD_BLOCK = 3 << 16

# Vocabulary entries written at a time.
_VOCAB_BLOCK = 1024

# The key and opening quote of a `data` value. Whitespace is bounded, so a
# match is never longer than _DATA_VALUE_MAX bytes.
_DATA_VALUE = re.compile(rb'"data"[ \t\n\r]{0,64}:[ \t\n\r]{0,64}"')
_DATA_VALUE_MAX = 136


def save_model(model: EncoderModel, path: str | Path) -> None:
    """Serialize a checkpoint as a single JSON file; exact float64 bytes.

    The file is `json.dump(doc, f, sort_keys=True)` of the document, each
    array's `data` the base64 of its bytes. The payloads are written one
    block at a time, and the vocabulary _VOCAB_BLOCK entries at a time, so
    no copy of a whole array or of the vocabulary's text is held."""
    arrays = [np.ascontiguousarray(a, dtype=np.float64)
              for a in (model.embedding, model.projection)]
    slot = "<payload>"
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "pooling": model.pooling,
        "similarity": model.similarity,
        "max_seq_len": model.max_seq_len,
        "vocab": slot,
        "embedding": {"shape": list(arrays[0].shape), "data": slot},
        "projection": {"shape": list(arrays[1].shape), "data": slot},
    }
    # Sorted keys put the two payloads before the vocabulary, and no other
    # value can hold the slot.
    texts = json.dumps(doc, sort_keys=True).split(slot)
    with open(path, "wb") as f:
        for text, array in zip(texts, arrays):
            f.write(text.encode("utf-8"))
            raw = array.reshape(-1).view(np.uint8)
            for lo in range(0, raw.size, _PAYLOAD_BLOCK):
                f.write(binascii.b2a_base64(raw[lo:lo + _PAYLOAD_BLOCK],
                                            newline=False))
        # The vocabulary's value replaces its quoted slot.
        f.write(texts[2][:-1].encode("utf-8") + b"{")
        tokens = sorted(model.vocab)
        for lo in range(0, len(tokens), _VOCAB_BLOCK):
            block = {t: model.vocab[t] for t in tokens[lo:lo + _VOCAB_BLOCK]}
            f.write((", " if lo else "").encode("utf-8") +
                    json.dumps(block)[1:-1].encode("utf-8"))
        f.write(b"}" + texts[3][1:].encode("utf-8"))


def _read_payload(f, buf: bytes, pos: int
                  ) -> tuple[bytearray | None, bytes, int]:
    """Decode the string body that starts at buf[pos] and runs to the next
    quote or backslash, reading on through f one block at a time. Returns
    the decoded bytes, or None unless the body is canonical base64 closed by
    a quote, and the block and the position of that quote or backslash."""
    out: bytearray | None = bytearray()
    run = b""
    while True:
        quote = buf.find(b'"', pos)
        escape = buf.find(b"\\", pos, len(buf) if quote < 0 else quote)
        end = quote if escape < 0 else escape
        if end >= 0:
            break
        run += buf[pos:]
        buf, pos = f.read(_PAYLOAD_BLOCK), 0
        if not buf:
            return None, buf, 0
        # Decode all but the last one to four characters: only the last
        # quantum may hold padding.
        cut = max(0, (len(run) - 1) // 4 * 4)
        if out is not None:
            size = len(out)
            try:
                out += binascii.a2b_base64(memoryview(run)[:cut])
            except binascii.Error:
                pass
            # a2b_base64 skips characters outside the alphabet and stops at
            # padding: an error or a short result means the run held some.
            if len(out) - size != cut // 4 * 3:
                out = None
        run = run[cut:]
    run += buf[pos:end]
    try:
        last = binascii.a2b_base64(run)
    except binascii.Error:
        return None, buf, end
    # Only canonical base64 encodes back to the same characters.
    if out is None or end != quote or \
            binascii.b2a_base64(last, newline=False) != run:
        return None, buf, end
    out += last
    return out, buf, end


def _read_json(path: str | Path) -> tuple[object, dict[str, bytearray]]:
    """Parse a checkpoint file read one block at a time, each `data` string
    value decoded from base64 as it is read. json.loads parses the rest,
    with a marker string standing in for each decoded payload; returns the
    document and the payloads by marker.

    In valid JSON a `"data"` match whose first quote is not escaped is a
    key: that quote cannot close a string, as `data` would then stand
    outside one. Where the file is not valid JSON, the text json.loads gets
    is not either: only characters between quotes and backslashes change."""
    nonce = os.urandom(16).hex()  # no string in the file can equal a marker
    payloads: dict[str, bytearray] = {}
    pieces: list[bytes] = []
    with open(path, "rb") as f:
        # The byte before buf[0], if any, is never a backslash.
        buf, pos, start = f.read(_PAYLOAD_BLOCK), 0, 0
        while True:
            m = _DATA_VALUE.search(buf, start)
            if m is None:
                block = f.read(_PAYLOAD_BLOCK)
                if not block:
                    break
                # Keep back what may begin a match.
                cut = max(pos, len(buf) - _DATA_VALUE_MAX)
                while cut > pos and buf[cut - 1] == 0x5C:
                    cut -= 1
                pieces.append(buf[pos:cut])
                buf, pos, start = buf[cut:] + block, 0, 0
                continue
            start = m.start() + 1
            if m.start() > 0 and buf[m.start() - 1] == 0x5C:  # escaped
                continue
            pieces.append(buf[pos:m.end()])
            marker = f"{nonce}-{len(pieces)}"
            data, buf, pos = _read_payload(f, buf, m.end())
            if data is not None:
                payloads[marker] = data
            pieces.append(marker.encode("ascii"))
            start = pos
        pieces.append(buf[pos:])
    return json.loads(b"".join(pieces).decode("utf-8")), payloads


def _array(doc: dict, name: str, payloads: dict[str, bytearray],
           path: str | Path) -> np.ndarray:
    obj = doc.get(name)
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: {name} must be an object with shape and "
                         "data")
    shape = obj.get("shape")
    if not (isinstance(shape, list) and
            all(type(n) is int and n >= 0 for n in shape)):
        raise ParseError(f"{path}: {name}.shape must be a list of "
                         "non-negative ints")
    data = obj.get("data")
    raw = payloads.get(data) if isinstance(data, str) else None
    if raw is None:
        raise ParseError(f"{path}: {name}.data is not a canonical base64 "
                         "string")
    if len(raw) != 8 * math.prod(shape):
        raise ParseError(f"{path}: {name}.shape {shape} does not match its "
                         f"data ({len(raw)} bytes)")
    return np.frombuffer(raw, dtype=np.float64).reshape(shape)


def load_model(path: str | Path) -> EncoderModel:
    """Read a checkpoint written by save_model; the arrays are writable.

    The payloads are decoded one block at a time into the arrays' own
    buffers. Each array's `data` must be a string of canonical base64,
    without escapes, and every field is checked: a malformed file raises
    ParseError naming the field."""
    try:
        doc, payloads = _read_json(path)
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"{path}: not a JSON checkpoint ({e})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a checkpoint (a JSON {type(doc).__name__})")
    version = doc.get("format_version")
    if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint format version "
                         f"{version!r}")
    max_seq_len = doc.get("max_seq_len")
    if type(max_seq_len) is not int:
        raise ParseError(f"{path}: max_seq_len must be an int")
    embedding = _array(doc, "embedding", payloads, path)
    projection = _array(doc, "projection", payloads, path)
    try:  # checks embedding and projection shapes, pooling and similarity
        model = EncoderModel(doc.get("vocab"), embedding, projection,
                             doc.get("pooling"), doc.get("similarity"),
                             max_seq_len)
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from None
    ids = model.vocab.values() if isinstance(model.vocab, dict) else [None]
    if set(map(type, ids)) - {int} or ids and not (
            NUM_RESERVED <= min(ids) and max(ids) < model.vocab_size):
        raise ParseError(f"{path}: vocab must map tokens to int row ids in "
                         f"[{NUM_RESERVED}, {model.vocab_size})")
    return model
