"""Hard-negative mining: Okapi BM25 over an inverted index, exact dense
retrieval, and per-query negative pools with the positive excluded."""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import ParseError, Passage, Query, passage_text, tokenize
from .models import EncoderModel, encode_batch

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_N_PER_RETRIEVER = 50


@dataclass
class BM25Index:
    """Inverted index in CSR form with the statistics BM25 needs.

    The postings of term t are rows indptr[terms[t]] : indptr[terms[t] + 1]
    of `doc` (passage positions in corpus order, ascending) and `tf`.
    `ids` are the passage ids in corpus order and
    norm[i] = k1 * (1 - b + b * dl_i / avgdl) for passage i of length dl_i.
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), which keeps idf >= 0.
    """

    terms: dict[str, int]
    indptr: np.ndarray
    doc: np.ndarray
    tf: np.ndarray
    ids: list[str]
    norm: np.ndarray
    avgdl: float
    n_docs: int
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """The (doc, tf) slices of a term; empty for an unknown term."""
        row = self.terms.get(term)
        lo, hi = (0, 0) if row is None else (self.indptr[row], self.indptr[row + 1])
        return self.doc[lo:hi], self.tf[lo:hi]

    def idf(self, term: str) -> float:
        df = len(self.postings(term)[0])
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5)) if df else 0.0


def build_bm25_index(passages: Sequence[Passage], k1: float = DEFAULT_K1,
                     b: float = DEFAULT_B) -> BM25Index:
    if not passages:
        raise ValueError("cannot index an empty corpus")
    terms: dict[str, int] = {}
    postings, lengths = array("i"), []  # (term row, passage, tf) triples
    for i, p in enumerate(passages):
        tokens = tokenize(passage_text(p))
        lengths.append(len(tokens))
        for t, c in Counter(tokens).items():
            postings.extend((terms.setdefault(t, len(terms)), i, c))
    rows, docs, tfs = np.frombuffer(postings, dtype=np.int32).reshape(-1, 3).T
    order = np.argsort(rows, kind="stable")  # each term's docs stay ascending
    avgdl = sum(lengths) / len(lengths)
    norm = k1 * (1.0 - b + b * np.asarray(lengths, dtype=np.float64) / avgdl)
    return BM25Index(terms, np.searchsorted(rows[order], np.arange(len(terms) + 1)),
                     docs[order], tfs[order].astype(np.float64),
                     [p.id for p in passages], norm, avgdl, len(passages), k1, b)


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
        scores = np.zeros(index.n_docs)
        for term in tokenize(query_text):
            doc, tf = index.postings(term)
            if len(doc):
                scores[doc] += index.idf(term) * tf * (index.k1 + 1.0) / \
                    (tf + index.norm[doc])
        return scores


class DenseRetriever:
    """Exact brute-force dense scores from a precomputed passage matrix."""

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
            self._unit = self.matrix / norms[:, None]

    def scores(self, query_text: str) -> np.ndarray:
        """One score per passage in corpus order: a matrix-vector product
        with the query's embedding (unit-normalized under cosine)."""
        q = encode_batch(self.model, [query_text])[0]
        if self.similarity == "dot":
            return self.matrix @ q
        qn = np.linalg.norm(q)
        if qn == 0.0:
            raise ValueError("cosine similarity undefined for zero embeddings")
        return self._unit @ (q / qn)


def top_k_rows(scores: np.ndarray, id_rank: np.ndarray, k: int) -> np.ndarray:
    """Positions of the exact top k of `scores`, by score descending, ties
    broken by `id_rank` (each position's rank in passage-id order)
    ascending.

    Every position scoring at least the k-th largest score is kept, so a
    tie across the cut is settled by id like any other; the kept positions
    are then sorted and cut at k. Fewer than k positions are returned when
    there are fewer than k scores.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    kept = np.arange(len(scores)) if k >= len(scores) else \
        np.flatnonzero(scores >= np.partition(scores, -k)[-k])
    return kept[np.lexsort((id_rank[kept], -scores[kept]))][:k]


def retrieve_top_k(retriever, query_text: str, k: int
                   ) -> list[tuple[str, float]]:
    """The (passage id, score) list of `top_k_rows` for one query.

    `retriever` is a BM25Retriever or a DenseRetriever; the result equals
    a full sort of the corpus on (score descending, id ascending) cut at k.
    """
    scores = retriever.scores(query_text)
    top = top_k_rows(scores, retriever.id_rank, k)
    return list(zip([retriever.ids[i] for i in top.tolist()],
                    scores[top].tolist()))


@dataclass
class PoolEntry:
    """Mined negatives for one query: per-retriever lists plus the
    deduplicated union (sorted ascending), with the positive excluded."""

    query_id: str
    source_passage_id: str
    per_retriever: dict[str, list[str]]
    negative_ids: list[str]
    provenance: dict[str, list[str]]
    usable: bool


def _union_entry(query_id: str, source_pid: str,
                 per_retriever: dict[str, list[str]]) -> PoolEntry:
    provenance: dict[str, list[str]] = {}
    for name, pids in per_retriever.items():
        for pid in pids:
            provenance.setdefault(pid, []).append(name)
    negatives = sorted(provenance)
    return PoolEntry(query_id, source_pid, per_retriever, negatives,
                     provenance, usable=bool(negatives))


def mine_negatives(query: Query, retrievers: Iterable,
                   n_per_retriever: int = DEFAULT_N_PER_RETRIEVER) -> PoolEntry:
    """Top-n negatives from each retriever for one generated query (see
    `mine_pools`)."""
    return mine_pools([query], retrievers, n_per_retriever)[query.id]


def mine_pools(queries: Sequence[Query], retrievers: Iterable,
               n_per_retriever: int = DEFAULT_N_PER_RETRIEVER
               ) -> dict[str, PoolEntry]:
    """Top-n negatives from each retriever for each generated query.

    Each retriever ranks every query before the next is taken from
    `retrievers`, and is dropped first: an iterator that builds each
    retriever when asked holds one at a time. A query's source passage is
    removed before the union; an empty pool marks the query unusable.
    Negative sampling happens downstream at labeling time.
    """
    for query in queries:
        if query.source_passage_id is None:
            raise ValueError(f"query {query.id} has no source passage")
    per_query: list[dict[str, list[str]]] = [{} for _ in queries]
    for retriever in retrievers:
        for query, per_retriever in zip(queries, per_query):
            top = retrieve_top_k(retriever, query.text, n_per_retriever)
            per_retriever[retriever.name] = [
                pid for pid, _ in top if pid != query.source_passage_id]
        del retriever
    return {q.id: _union_entry(q.id, q.source_passage_id, per_retriever)
            for q, per_retriever in zip(queries, per_query)}


def write_hard_negatives(pools: Mapping[str, PoolEntry], path: str | Path) -> None:
    """One JSON record per query: {qid, pos: [...], neg: {retriever: [ids]}}."""
    with open(path, "w", encoding="utf-8") as f:
        for qid in sorted(pools):
            entry = pools[qid]
            record = {"qid": entry.query_id,
                      "pos": [entry.source_passage_id],
                      "neg": entry.per_retriever}
            f.write(json.dumps(record, sort_keys=True) + "\n")


def read_hard_negatives(path: str | Path) -> dict[str, PoolEntry]:
    pools: dict[str, PoolEntry] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
            try:
                entry = _union_entry(record["qid"], record["pos"][0],
                                     {name: list(pids)
                                      for name, pids in record["neg"].items()})
            except (KeyError, IndexError) as e:
                raise ParseError(f"{path}:{lineno}: record needs 'qid', a "
                                 f"non-empty 'pos' and 'neg' ({e!r})") from e
            pools[entry.query_id] = entry
    return pools
