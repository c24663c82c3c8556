"""Cross-encoder pseudo-labeling: draw a negative for each (query,
positive) example, score its margin, and hold the labelled stream as
columns."""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import ParseError, Passage, Query, passage_text
from .mining import PoolEntry
from .models import CrossEncoderScorer
from .util import derive_seed

# Tuples per block when drawing, labelling and writing: no temporary grows
# with the stream.
_BLOCK = 1 << 14


@dataclass
class TupleColumns:
    """A labelled stream as columns. Tuple i is (query_ids[query[i]],
    passage_ids[pos[i]], passage_ids[neg[i]], margin[i]); query, pos and
    neg are int32, margin float64. Each id list holds the distinct ids of
    the stream in order of first use."""

    query_ids: list[str]
    passage_ids: list[str]
    query: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    margin: np.ndarray

    def __len__(self) -> int:
        return self.margin.size

    def rows(self) -> Iterator[tuple[str, str, str, float]]:
        """(query id, positive id, negative id, margin) of each tuple."""
        for start in range(0, len(self), _BLOCK):
            block = slice(start, start + _BLOCK)
            yield from zip(
                map(self.query_ids.__getitem__, self.query[block].tolist()),
                map(self.passage_ids.__getitem__, self.pos[block].tolist()),
                map(self.passage_ids.__getitem__, self.neg[block].tolist()),
                self.margin[block].tolist())

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, str, float]]
                  ) -> "TupleColumns":
        appender = _Appender()
        for row in rows:
            appender.add(*row)
        return appender.columns()


@dataclass
class GPLDataset:
    tuples: TupleColumns
    manifest: dict = field(default_factory=dict)


def _check_tuple(query_id: str, pos_id: str, neg_id: str,
                 margin: float) -> None:
    if pos_id == neg_id:
        raise ValueError(f"pos_id == neg_id ({pos_id!r}) for "
                         f"query {query_id!r}")
    if not math.isfinite(margin):
        raise ValueError(f"non-finite margin for query {query_id!r}")


class _Appender:
    """Checked tuples appended straight into int32/float64 buffers."""

    def __init__(self):
        self.query_ids: dict[str, int] = {}
        self.passage_ids: dict[str, int] = {}
        self.query, self.pos, self.neg = array("i"), array("i"), array("i")
        self.margin = array("d")

    def add(self, query_id: str, pos_id: str, neg_id: str,
            margin: float) -> None:
        _check_tuple(query_id, pos_id, neg_id, margin)
        passages = self.passage_ids
        self.query.append(self.query_ids.setdefault(query_id,
                                                    len(self.query_ids)))
        self.pos.append(passages.setdefault(pos_id, len(passages)))
        self.neg.append(passages.setdefault(neg_id, len(passages)))
        self.margin.append(margin)

    def columns(self) -> TupleColumns:
        return TupleColumns(
            list(self.query_ids), list(self.passage_ids),
            *(np.frombuffer(a, dtype=np.int32)
              for a in (self.query, self.pos, self.neg)),
            np.frombuffer(self.margin))


# --- draws: np.random.default_rng(seed).integers(n), one row per seed ----------
# numpy's SeedSequence (pool of four 32-bit words), its PCG64 seeding and
# one 64-bit output, and its 32-bit Lemire bounded draw on the output's low
# word. Each hashmix call multiplies by the next of a fixed sequence of
# constants, whatever the data, so the sequences are computed once.

def _powers(init: int, mult: int, count: int) -> list[np.uint32]:
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return [np.uint32(c) for c in out]


_HASH_A = _powers(0x43B0D7E5, 0x931E8875, 17)   # SeedSequence.mix_entropy
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 9)    # SeedSequence.generate_state
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_LOW32 = np.uint64(0xFFFFFFFF)
_U16, _U32 = np.uint32(16), np.uint64(32)
# The vector path costs about 250 numpy calls whatever its length, more
# than the scalar generator takes for a dozen rows.
_VECTOR_ROWS = 16


def _hashmix(value: np.ndarray, k: int) -> np.ndarray:
    value = (value ^ _HASH_A[k]) * _HASH_A[k + 1]
    return value ^ (value >> _U16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return value ^ (value >> _U16)


def _mul_high(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of the 128-bit products a x b."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    cross0, cross1 = a0 * b1, a1 * b0
    carry = ((a0 * b0) >> _U32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    return a1 * b1 + (cross0 >> _U32) + (cross1 >> _U32) + (carry >> _U32)


def _add128(hi, lo, add_hi, add_lo):
    total = lo + add_lo
    return hi + add_hi + (total < lo), total


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state = state x multiplier + increment, mod 2^128, in (hi, lo) limbs."""
    mult_hi, mult_lo = _PCG_MULT
    return _add128(_mul_high(lo, mult_lo) + hi * mult_lo + lo * mult_hi,
                   lo * mult_lo, inc_hi, inc_lo)


def _scalar_draw(seed: int, n: int) -> int:
    return int(np.random.default_rng(seed).integers(n))


def _vector_draw(seeds: np.ndarray, sizes: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """default_rng(seeds[i]).integers(sizes[i]) for each i (uint64 arrays),
    and a mask of the rows it cannot give: those Lemire's method would
    reject and redraw (probability below n / 2^32), and n above 2^32."""
    low, high = (seeds & _LOW32).astype(np.uint32), \
        (seeds >> _U32).astype(np.uint32)
    zero = np.zeros_like(low)
    # A seed below 2^32 is one entropy word; the pool's unused words hash
    # zeros, so a zero high word gives the same pool.
    pool = [_hashmix(word, k) for k, word in enumerate((low, high, zero, zero))]
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], k))
                k += 1
    words = []
    for i in range(8):
        value = (pool[i % 4] ^ _HASH_B[i]) * _HASH_B[i + 1]
        words.append((value ^ (value >> _U16)).astype(np.uint64))
    state_hi, state_lo, seq_hi, seq_lo = (
        words[j] | (words[j + 1] << _U32) for j in range(0, 8, 2))
    del pool, words
    # Seeding: state 0, inc = (seq << 1) | 1, step (state = inc), add the
    # initial state, step.
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    hi, lo = _add128(inc_hi, inc_lo, state_hi, state_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)   # the first output's step
    mixed, rotation = hi ^ lo, hi >> np.uint64(58)
    output = (mixed >> rotation) | (mixed << (-rotation & np.uint64(63)))
    scaled = (output & _LOW32) * sizes
    redo = ((scaled & _LOW32) < (np.uint64(1 << 32) - sizes) % sizes) \
        | (sizes > np.uint64(1 << 32))
    return (scaled >> _U32).astype(np.int64), redo


def _draw_indices(seeds, sizes) -> np.ndarray:
    """np.random.default_rng(seeds[i]).integers(sizes[i]) for each i, for
    seeds below 2^64: the vector path, and the scalar generator for the
    rows it cannot give or for calls of fewer than _VECTOR_ROWS rows."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    sizes = np.asarray(sizes, dtype=np.uint64)
    if seeds.size < _VECTOR_ROWS:
        picks, redo = np.empty(seeds.size, np.int64), np.ones(seeds.size, bool)
    else:
        picks, redo = _vector_draw(seeds, sizes)
    for i in np.flatnonzero(redo).tolist():
        picks[i] = _scalar_draw(int(seeds[i]), int(sizes[i]))
    return picks


def _negative_seed(seed: int, query_id: str, draw: int) -> int:
    """The key of a query's draw; draw 0 keys on (seed, query id) alone."""
    return derive_seed(seed, "negsample", query_id, *((draw,) if draw else ()))


def sample_tuple(query: Query, pool: PoolEntry, seed: int,
                 draw: int = 0) -> tuple[str, str]:
    """Pick (positive, negative) ids for one query.

    The positive is the query's source passage; the negative is drawn
    uniformly from the pool by the generator seeded with
    `_negative_seed(seed, query id, draw)`.
    """
    if not pool.usable or not pool.negative_ids:
        raise ValueError(f"query {query.id} has an empty negative pool")
    if query.source_passage_id is None:
        raise ValueError(f"query {query.id} has no source passage")
    pick = _draw_indices([_negative_seed(seed, query.id, draw)],
                         [len(pool.negative_ids)])[0]
    return query.source_passage_id, pool.negative_ids[pick]


def build_dataset(queries: Sequence[Query], pools: Mapping[str, PoolEntry],
                  corpus: Sequence[Passage], ce: CrossEncoderScorer,
                  seed: int, n_tuples: int | None = None) -> GPLDataset:
    """Pseudo-labeled (query, positive, negative) stream.

    Tuple i belongs to usable query i mod U (usable queries in id order,
    U of them) and is that query's draw i // U, so every draw takes a
    fresh negative from the query's pool (the draw `sample_tuple` makes).
    n_tuples=None labels one tuple per usable query. Queries whose pool is
    missing, unusable, or empty are skipped; with no usable query the
    dataset is empty. Each distinct (query, passage) pair is scored by the
    cross-encoder once. The build is a pure function of (queries, pools,
    corpus, ce, seed, n_tuples).
    """
    if n_tuples is not None and n_tuples < 0:
        raise ValueError("n_tuples must be >= 0")
    usable = [q for q in sorted(queries, key=lambda q: q.id)
              if q.id in pools and pools[q.id].usable
              and pools[q.id].negative_ids]
    if n_tuples is None or not usable:
        n_tuples = len(usable)
    stream = usable[:n_tuples]
    for query in stream:
        if query.source_passage_id is None:
            raise ValueError(f"query {query.id} has no source passage")
    texts = {p.id: passage_text(p) for p in corpus}

    # Every passage a query of the stream can draw gets a candidate index;
    # each query's pool is a slice of `pool_flat`.
    names: dict[str, int] = {}
    sources = np.array([names.setdefault(q.source_passage_id, len(names))
                        for q in stream], dtype=np.int64)
    pool_flat = np.array([names.setdefault(pid, len(names)) for q in stream
                          for pid in pools[q.id].negative_ids], dtype=np.int64)
    sizes = np.array([len(pools[q.id].negative_ids) for q in stream],
                     dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    candidates = list(names)
    scores: dict[int, float] = {}

    def score(pair: int) -> float:
        """The cross-encoder score of pair = query x len(names) + candidate."""
        if pair not in scores:
            q, c = divmod(pair, len(names))
            value = ce(stream[q].text, texts[candidates[c]])
            if not math.isfinite(value):
                raise ValueError("cross-encoder produced a non-finite score")
            scores[pair] = value
        return scores[pair]

    columns = TupleColumns([q.id for q in stream], [],
                           *(np.empty(n_tuples, np.int32) for _ in range(3)),
                           np.empty(n_tuples))
    place = np.full(len(names), -1, dtype=np.int64)  # candidate -> column id
    for start in range(0, n_tuples, _BLOCK):
        stop = min(start + _BLOCK, n_tuples)
        q = np.arange(start, stop) % len(stream)
        seeds = np.fromiter(
            (_negative_seed(seed, stream[i % len(stream)].id, i // len(stream))
             for i in range(start, stop)), dtype=np.uint64, count=stop - start)
        pos = sources[q]
        neg = pool_flat[offsets[q] + _draw_indices(seeds, sizes[q])]
        pairs = np.concatenate([pos, neg]) + np.tile(q, 2) * len(names)
        distinct, inverse = np.unique(pairs, return_inverse=True)
        pair_scores = np.fromiter(map(score, distinct.tolist()), dtype=float,
                                  count=distinct.size)[inverse]
        with np.errstate(over="ignore"):  # an infinite margin is refused below
            margin = pair_scores[:q.size] - pair_scores[q.size:]
        bad = np.flatnonzero((pos == neg) | ~np.isfinite(margin))
        if bad.size:
            i = bad[0]
            _check_tuple(stream[q[i]].id, candidates[pos[i]],
                         candidates[neg[i]], margin[i])
        # Passages enter the id list in order of first use, positive first.
        used = np.column_stack([pos, neg]).ravel()
        seen, first = np.unique(used, return_index=True)
        new = place[seen] < 0
        fresh = seen[new][np.argsort(first[new])]
        place[fresh] = np.arange(fresh.size) + len(columns.passage_ids)
        columns.passage_ids += [candidates[c] for c in fresh.tolist()]
        block = slice(start, stop)
        columns.query[block], columns.pos[block] = q, place[pos]
        columns.neg[block], columns.margin[block] = place[neg], margin
    retrievers = sorted({name for pool in pools.values()
                         for name in pool.per_retriever})
    manifest = {
        "seed": seed,
        "cross_encoder": ce.name,
        "retrievers": retrievers,
        "n_queries": len(queries),
        "n_tuples": n_tuples,
        "n_skipped": len(queries) - len(usable),
    }
    return GPLDataset(columns, manifest)


def write_dataset(dataset: GPLDataset, path: str | Path) -> None:
    """TSV `qid <TAB> pos <TAB> neg <TAB> margin` with margins at 17
    significant digits (exact float64 round-trip); manifest as a JSON
    sidecar next to the file."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{qid}\t{pos}\t{neg}\t{margin:.17g}\n"
                     for qid, pos, neg, margin in dataset.tuples.rows())
    with open(path.with_suffix(path.suffix + ".manifest.json"), "w",
              encoding="utf-8") as f:
        json.dump(dataset.manifest, f, sort_keys=True, indent=2)


def read_dataset(path: str | Path) -> GPLDataset:
    """The TSV `write_dataset` writes, parsed line by line into columns."""
    path = Path(path)
    appender = _Appender()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 tab-separated fields")
            qid, pos_id, neg_id, margin_str = parts
            try:
                margin = float(margin_str)
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: bad margin {margin_str!r}") from e
            try:
                appender.add(qid, pos_id, neg_id, margin)
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
    manifest_path = path.with_suffix(path.suffix + ".manifest.json")
    manifest = {}
    if manifest_path.exists():
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    return GPLDataset(appender.columns(), manifest)
