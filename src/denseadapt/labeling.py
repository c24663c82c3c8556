"""Cross-encoder pseudo-labeling: draw a negative for each (query,
positive) example, score its margin, and hold the labelled stream as
columns."""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import ParseError, Passage, Query, passage_text, read_lines
from .mining import PoolColumns
from .models import CrossEncoderScorer
from .util import derive_seed

# Tuples per block when labelling and writing: no temporary grows with the
# stream.
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


def _negative_stream(seed: int, query_id: str) -> random.Random:
    """The generator of a query's negative draws."""
    return random.Random(derive_seed(seed, "negsample", query_id))


def sample_tuple(query: Query, pools: PoolColumns, seed: int
                 ) -> tuple[str, str]:
    """Pick (positive, negative) ids for one query.

    The positive is the query's source passage; the negative is the first
    draw of the query's negative stream, `randrange(size)` of
    `random.Random(derive_seed(seed, "negsample", query id))` over the
    query's pool in `pools`: the negative of the query's first tuple in
    `build_dataset`.
    """
    size = pools.size(query.id)
    if not size:
        raise ValueError(f"query {query.id} has an empty negative pool")
    if query.source_passage_id is None:
        raise ValueError(f"query {query.id} has no source passage")
    pick = pools.offsets[pools.find(query.id)] + \
        _negative_stream(seed, query.id).randrange(size)
    return query.source_passage_id, pools.passage_ids[pools.rows[pick]]


def build_dataset(queries: Sequence[Query], pools: PoolColumns,
                  corpus: Sequence[Passage], ce: CrossEncoderScorer,
                  seed: int, n_tuples: int | None = None) -> GPLDataset:
    """Pseudo-labeled (query, positive, negative) stream.

    Tuple i belongs to usable query i mod U (usable queries in id order,
    U of them) and its negative is draw i // U of that query's stream,
    `random.Random(derive_seed(seed, "negsample", query id))`, each draw
    `randrange` over the query's pool; draw 0 is the one `sample_tuple`
    makes. One generator per query, not one per tuple: the draws are
    uniform over each pool, as GPL's per-example negatives are.
    n_tuples=None labels one tuple per usable query. Queries whose pool
    is missing, unusable, or empty are skipped; with no usable query the
    dataset is empty. The stream is labelled in blocks of 16,384 tuples,
    with one `ce.score_pairs` call per block on the block's distinct
    (query, passage) pairs that no earlier block scored, so each distinct
    pair is scored once. The build is a pure function of (queries, pools,
    corpus, ce, seed, n_tuples).
    """
    if n_tuples is not None and n_tuples < 0:
        raise ValueError("n_tuples must be >= 0")
    usable = [q for q in sorted(queries, key=lambda q: q.id)
              if pools.size(q.id)]
    if n_tuples is None or not usable:
        n_tuples = len(usable)
    stream = usable[:n_tuples]
    for query in stream:
        if query.source_passage_id is None:
            raise ValueError(f"query {query.id} has no source passage")
    texts = {p.id: passage_text(p) for p in corpus}

    # Every passage of the pools' id table is a candidate, and so is a
    # positive outside it; each query's pool is a slice of the table's rows.
    names = dict(zip(pools.passage_ids, range(len(pools.passage_ids))))
    sources = np.array([names.setdefault(q.source_passage_id, len(names))
                        for q in stream], dtype=np.int64)
    at = np.array([pools.find(q.id) for q in stream], dtype=np.int64)
    pool_flat, offsets = pools.rows, pools.offsets[at]
    sizes = pools.offsets[at + 1] - offsets
    candidates = list(names)
    # Every pair scored so far, pair = query x len(names) + candidate, in
    # ascending order, and its score.
    scored, known = np.empty(0, dtype=np.int64), np.empty(0)

    columns = TupleColumns([q.id for q in stream], [],
                           *(np.empty(n_tuples, np.int32) for _ in range(3)),
                           np.empty(n_tuples))
    # Each query's draws, as indices into its pool, go straight into its
    # rows of the negative column; the blocks below map them to passages.
    for j, query in enumerate(stream):
        count = len(range(j, n_tuples, len(stream)))
        columns.neg[j::len(stream)] = np.fromiter(
            map(_negative_stream(seed, query.id).randrange,
                repeat(int(sizes[j]), count)), dtype=np.int32, count=count)
    place = np.full(len(names), -1, dtype=np.int64)  # candidate -> column id
    for start in range(0, n_tuples, _BLOCK):
        stop = min(start + _BLOCK, n_tuples)
        q = np.arange(start, stop) % len(stream)
        block = slice(start, stop)
        pos = sources[q]
        neg = pool_flat[offsets[q] + columns.neg[block]]
        pairs = np.concatenate([pos, neg]) + np.tile(q, 2) * len(names)
        distinct, inverse = np.unique(pairs, return_inverse=True)
        at = np.searchsorted(scored, distinct)
        new = at == scored.size
        new[~new] = scored[at[~new]] != distinct[~new]
        new_q, new_c = np.divmod(distinct[new], len(names))
        values = ce.score_pairs([stream[i].text for i in new_q],
                                [texts[candidates[c]] for c in new_c])
        if not np.isfinite(values).all():
            raise ValueError("cross-encoder produced a non-finite score")
        scored = np.insert(scored, at[new], distinct[new])
        known = np.insert(known, at[new], values)
        pair_scores = known[np.searchsorted(scored, distinct)][inverse]
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
        columns.query[block], columns.pos[block] = q, place[pos]
        columns.neg[block], columns.margin[block] = place[neg], margin
    manifest = {
        "seed": seed,
        "cross_encoder": ce.name,
        "retrievers": sorted(pools.retrievers),
        "n_queries": len(queries),
        "n_tuples": n_tuples,
        "n_skipped": len(queries) - len(usable),
    }
    return GPLDataset(columns, manifest)


def write_dataset(dataset: GPLDataset, path: str | Path) -> None:
    """TSV `qid <TAB> pos <TAB> neg <TAB> margin` with margins at 17
    significant digits (exact float64 round-trip)."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{qid}\t{pos}\t{neg}\t{margin:.17g}\n"
                     for qid, pos, neg, margin in dataset.tuples.rows())


def read_dataset(path: str | Path) -> GPLDataset:
    """The TSV `write_dataset` writes, parsed line by line into columns."""
    appender = _Appender()
    for lineno, line in read_lines(path):
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
    return GPLDataset(appender.columns())
