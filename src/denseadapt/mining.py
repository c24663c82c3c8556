"""Hard-negative mining: Okapi BM25 over an inverted index, exact dense
retrieval, one ranking loop over a query set, and per-query negative
pools, with the positive excluded, held as columns."""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import ParseError, Passage, Query, passage_text, tokenize
from .models import EncoderModel, encode_batch

K1 = 1.2
B = 0.75
DEFAULT_N_PER_RETRIEVER = 50


@dataclass
class BM25Index:
    """Inverted index in CSR form with each posting's Okapi BM25 score.

    The postings of term t are rows indptr[terms[t]] : indptr[terms[t] + 1]
    of `doc` (passage positions in corpus order, ascending) and `weight`;
    `ids` are the passage ids in corpus order. Term t, tf times in passage
    i of dl_i tokens, weighs, with k1 = 1.2 and b = 0.75,
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl_i / avgdl)),
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)) >= 0 over N passages of
    mean length avgdl, df of them holding t.
    """

    terms: dict[str, int]
    indptr: np.ndarray
    doc: np.ndarray
    weight: np.ndarray
    ids: list[str]


def build_bm25_index(passages: Sequence[Passage]) -> BM25Index:
    if not passages:
        raise ValueError("cannot index an empty corpus")
    terms: dict[str, int] = {}
    postings, lengths = array("i"), []  # (term row, passage, tf) triples
    for i, p in enumerate(passages):
        tokens = tokenize(passage_text(p))
        lengths.append(len(tokens))
        for t, c in Counter(tokens).items():
            postings.extend((terms.setdefault(t, len(terms)), i, c))
    triples = np.frombuffer(postings, dtype=np.int32).reshape(-1, 3)
    df = np.bincount(triples[:, 0], minlength=len(terms))
    order = np.argsort(triples[:, 0], kind="stable")  # docs stay ascending
    doc, tf = triples[order, 1], triples[order, 2]
    del postings, triples, order
    avgdl = sum(lengths) / len(lengths)
    norm = K1 * (1.0 - B + B * np.asarray(lengths, dtype=np.float64) / avgdl)
    idf = np.fromiter(map(math.log, 1.0 + (len(passages) - df + 0.5)
                          / (df + 0.5)), dtype=np.float64, count=df.size)
    # In place, in the formula's order: idf * tf * (k1 + 1) / (tf + norm).
    weight = np.repeat(idf, df)
    weight *= tf
    weight *= K1 + 1.0
    denominator = norm[doc]
    denominator += tf
    weight /= denominator
    return BM25Index(terms, _offsets(df), doc, weight, [p.id for p in passages])


def _id_rank(ids: Sequence[str]) -> np.ndarray:
    """Each position's rank in ascending id order."""
    return np.argsort(sorted(range(len(ids)), key=ids.__getitem__))


class BM25Retriever:
    """Full-scan BM25 scores over the CSR index; unmatched passages score 0."""

    def __init__(self, index: BM25Index, name: str = "bm25"):
        self.index = index
        self.name = name
        self.ids = index.ids
        self.id_rank = _id_rank(index.ids)

    def scores(self, query_text: str) -> np.ndarray:
        """Scores in corpus order, summed token by token in query order."""
        index = self.index
        scores = np.zeros(len(index.ids))
        for row in map(index.terms.get, tokenize(query_text)):
            if row is not None:
                lo, hi = index.indptr[row:row + 2]
                scores[index.doc[lo:hi]] += index.weight[lo:hi]
        return scores


class DenseRetriever:
    """Exact brute-force dense scores from a precomputed passage matrix,
    its rows divided by their norms under cosine."""

    def __init__(self, model: EncoderModel, passages: Sequence[Passage],
                 similarity: str | None = None, name: str = "dense"):
        self.model = model
        self.name = name
        self.similarity = similarity or model.similarity
        if self.similarity not in ("dot", "cosine"):
            raise ValueError(f"unknown similarity {self.similarity!r}")
        self.ids = [p.id for p in passages]
        self.id_rank = _id_rank(self.ids)
        self.matrix = encode_batch(model, [passage_text(p) for p in passages])
        if self.similarity == "cosine":
            norms = np.linalg.norm(self.matrix, axis=1)
            if np.any(norms == 0.0):
                raise ValueError("cosine similarity undefined for zero embeddings")
            self.matrix /= norms[:, None]

    def scores(self, query_text: str) -> np.ndarray:
        """One score per passage in corpus order: a matrix-vector product
        with the query's embedding (unit-normalized under cosine)."""
        q = encode_batch(self.model, [query_text])[0]
        if self.similarity == "dot":
            return self.matrix @ q
        qn = np.linalg.norm(q)
        if qn == 0.0:
            raise ValueError("cosine similarity undefined for zero embeddings")
        return self.matrix @ (q / qn)


def retrieve_top_k(retriever, query_text: str, k: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The exact top k of one query: (rows, scores), rows positions in
    `retriever.ids`, by score descending, ties broken by passage id
    ascending.

    `retriever` is a BM25Retriever or a DenseRetriever; the result equals
    a full sort of the corpus on (score descending, id ascending) cut at k.
    Every position scoring at least the k-th largest score is kept, so a
    tie across the cut is settled by id like any other; the kept positions
    are then sorted and cut at k. Fewer than k rows are returned when the
    corpus has fewer than k passages.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = retriever.scores(query_text)
    kept = np.arange(len(scores)) if k >= len(scores) else \
        np.flatnonzero(scores >= np.partition(scores, -k)[-k])
    top = kept[np.lexsort((retriever.id_rank[kept], -scores[kept]))][:k]
    return top, scores[top]


def rank_queries(retriever, queries: Sequence[Query], k: int
                 ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each query's `retrieve_top_k` in turn, min(k, len(retriever.ids))
    (rows, scores): a caller keeps only the columns it reads."""
    for query in queries:
        yield retrieve_top_k(retriever, query.text, k)


# Queries whose union is formed at once: bounds the union's temporaries.
_QUERY_BLOCK = 1 << 12


@dataclass
class PoolColumns:
    """Mined negative pools as columns, queries in ascending id order.

    Query `query_ids[i]` has the source passage `passage_ids[source[i]]`
    and its negatives in entries offsets[i]:offsets[i + 1] (int64 offsets)
    of `rows` (int32 positions in the passage-id table, in ascending
    passage id, each once). Retriever `retrievers[b]`'s own rank-ordered
    list for query i is entries ranked[b][0][i]:ranked[b][0][i + 1] of
    ranked[b][1] (int64 offsets, int32 rows); every query has a list from
    every retriever, perhaps an empty one. A query with no negative is
    unusable. `lists` unpacks one query's rank-ordered lists.
    """

    query_ids: list[str]
    passage_ids: list[str]
    source: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray
    retrievers: list[str]
    ranked: list[tuple[np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        return len(self.query_ids)

    def find(self, query_id: str) -> int | None:
        """The position of a query's pool, None if it has none."""
        i = bisect_left(self.query_ids, query_id)
        return i if i < len(self) and self.query_ids[i] == query_id else None

    def size(self, query_id: str) -> int:
        """The number of a query's negatives, 0 if it has no pool."""
        i = self.find(query_id)
        return 0 if i is None else int(self.offsets[i + 1] - self.offsets[i])

    def lists(self, i: int) -> dict[str, list[str]]:
        """Query i's rank-ordered list from each retriever."""
        return {name: list(map(self.passage_ids.__getitem__,
                               rows[offsets[i]:offsets[i + 1]].tolist()))
                for name, (offsets, rows) in zip(self.retrievers, self.ranked)}


class _Packer:
    """Pools packed into buffers a query at a time (`add`), then into
    `PoolColumns` (`columns`). Every query lists the first one's
    retrievers."""

    def __init__(self):
        self.query_ids: dict[str, None] = {}  # in order of addition
        self.passages: dict[str, int] = {}
        self.source = array("i")
        # retriever name -> (its list's size per query, its rows)
        self.ranked: dict[str, tuple[array, array]] = {}

    def row(self, pid: str) -> int:
        return self.passages.setdefault(pid, len(self.passages))

    def add(self, query_id: str, source: str,
            lists: Mapping[str, Sequence[str]]) -> None:
        if query_id in self.query_ids:
            raise ValueError(f"query {query_id!r} has two pools")
        if not self.query_ids:
            self.ranked = {name: (array("q"), array("i")) for name in lists}
        elif lists.keys() != self.ranked.keys():
            raise ValueError(f"retrievers {sorted(lists)} differ from the "
                             f"first pool's {sorted(self.ranked)}")
        self.query_ids[query_id] = None
        self.source.append(self.row(source))
        for name, pids in lists.items():
            sizes, rows = self.ranked[name]
            sizes.append(len(pids))
            rows.extend(map(self.row, pids))

    def columns(self) -> PoolColumns:
        query_ids = list(self.query_ids)
        passage_ids = list(self.passages)
        source = np.frombuffer(self.source, dtype=np.int32)
        ranked = [(_offsets(np.frombuffer(sizes, dtype=np.int64)),
                   np.frombuffer(rows, dtype=np.int32))
                  for sizes, rows in self.ranked.values()]
        order = sorted(range(len(query_ids)), key=query_ids.__getitem__)
        if order != list(range(len(query_ids))):
            query_ids = [query_ids[i] for i in order]
            order = np.array(order, dtype=np.int64)
            source = source[order]
            ranked = [_take(offsets, rows, order) for offsets, rows in ranked]
        return PoolColumns(query_ids, passage_ids, source,
                           *_union(ranked, passage_ids, len(query_ids)),
                           list(self.ranked), ranked)


def _offsets(sizes: np.ndarray) -> np.ndarray:
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _take(offsets: np.ndarray, values: np.ndarray, order: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """The (offsets, values) CSR of the rows `order` of another."""
    sizes = np.diff(offsets)[order]
    taken = _offsets(sizes)
    return taken, values[np.repeat(offsets[order] - taken[:-1], sizes)
                         + np.arange(taken[-1])]


def _union(ranked: list[tuple[np.ndarray, np.ndarray]],
           passage_ids: list[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each query's deduplicated union of its retrievers' lists: (offsets,
    rows in ascending passage id), a block of queries at a time."""
    rank = _id_rank(passage_ids)
    by_id = np.empty_like(rank)
    by_id[rank] = np.arange(rank.size)
    sizes = np.zeros(n, dtype=np.int64)
    parts = [np.empty(0, dtype=np.int32)]
    for lo in range(0, n, _QUERY_BLOCK):
        hi = min(lo + _QUERY_BLOCK, n)
        keys = [np.empty(0, dtype=np.int64)]
        for offsets, rows in ranked:
            query = np.repeat(np.arange(lo, hi), np.diff(offsets[lo:hi + 1]))
            keys.append(query * rank.size + rank[rows[offsets[lo]:offsets[hi]]])
        # Sorted and deduplicated by hand: a bare np.unique imports numpy.ma.
        keys = np.sort(np.concatenate(keys))
        query, at = np.divmod(keys[np.diff(keys, prepend=-1) > 0], rank.size)
        sizes[lo:hi] = np.bincount(query - lo, minlength=hi - lo)
        parts.append(by_id[at].astype(np.int32))
    return _offsets(sizes), np.concatenate(parts)


def _positions(wanted: Sequence[str], ids: list[str]
               ) -> tuple[list[str], np.ndarray]:
    """`ids` followed by the wanted ids it lacks, and each wanted id's
    int32 position in that table."""
    at = dict.fromkeys(wanted)
    for i, pid in enumerate(ids):
        if pid in at:
            at[pid] = i
    extra = [pid for pid, i in at.items() if i is None]
    at.update(zip(extra, range(len(ids), len(ids) + len(extra))))
    return [*ids, *extra] if extra else ids, \
        np.array([at[pid] for pid in wanted], dtype=np.int32)


def mine_pools(queries: Sequence[Query], retrievers: Iterable,
               n_per_retriever: int = DEFAULT_N_PER_RETRIEVER) -> PoolColumns:
    """Top-n negatives from each retriever for each generated query.

    Each retriever ranks every query, in id order, before the next is taken
    from `retrievers`, and is dropped first: an iterator that builds each
    retriever when asked holds one at a time. Every retriever must rank
    the same passage-id list. A query's source passage is removed from each
    list; an empty union marks the query unusable. A retriever whose name
    repeats replaces the earlier one's lists, and a query id given twice is
    a ValueError. Negative sampling happens downstream at labeling time.
    """
    queries = sorted(queries, key=lambda q: q.id)
    for i, query in enumerate(queries):
        if query.source_passage_id is None:
            raise ValueError(f"query {query.id} has no source passage")
        if i and queries[i - 1].id == query.id:
            raise ValueError(f"query {query.id!r} has two pools")
    ids, lists = None, {}
    for retriever in retrievers:
        if ids is None:
            ids = retriever.ids
        elif retriever.ids != ids:
            raise ValueError(f"retriever {retriever.name!r} ranks other "
                             f"passages than the first retriever")
        rows = np.empty((len(queries), min(n_per_retriever, len(ids))),
                        dtype=np.int32)
        for i, (top, _) in enumerate(rank_queries(retriever, queries,
                                                  n_per_retriever)):
            rows[i] = top
        lists[retriever.name] = rows
        del retriever
    passage_ids, source = _positions([q.source_passage_id for q in queries],
                                     ids or [])
    ranked = []
    for rows in lists.values():
        keep = rows != source[:, None]
        ranked.append((_offsets(keep.sum(axis=1)), rows[keep]))
    return PoolColumns([q.id for q in queries], passage_ids, source,
                       *_union(ranked, passage_ids, len(queries)),
                       list(lists), ranked)


def write_hard_negatives(pools: PoolColumns, path: str | Path) -> None:
    """One JSON record per query: {qid, pos: [...], neg: {retriever: [ids]}}."""
    with open(path, "w", encoding="utf-8") as f:
        for i, qid in enumerate(pools.query_ids):
            record = {"qid": qid, "pos": [pools.passage_ids[pools.source[i]]],
                      "neg": pools.lists(i)}
            f.write(json.dumps(record, sort_keys=True) + "\n")


def _is_ids(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _pool_record(record) -> tuple[str, str, dict[str, list[str]]]:
    """(query id, positive, lists) of one record; ValueError if it is not
    a pool."""
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    qid, pos, neg = record.get("qid"), record.get("pos"), record.get("neg")
    if not isinstance(qid, str):
        raise ValueError("record needs a string 'qid'")
    if not (pos and _is_ids(pos)):
        raise ValueError("record needs a non-empty 'pos' list of passage ids")
    if not (isinstance(neg, dict) and all(map(_is_ids, neg.values()))):
        raise ValueError("record needs a 'neg' object mapping each retriever "
                         "to a list of passage ids")
    return qid, pos[0], neg


def read_hard_negatives(path: str | Path) -> PoolColumns:
    """The records `write_hard_negatives` writes, parsed line by line into
    columns. A record that is not a pool, repeats a query, or names other
    retrievers than the first record is a ParseError naming its line."""
    packer = _Packer()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
            try:
                packer.add(*_pool_record(record))
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
    return packer.columns()
