"""Hard-negative mining: Okapi BM25 over an inverted index, exact dense
retrieval, and per-query negative pools with the positive excluded."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Passage, Query, passage_text, tokenize
from .models import EncoderModel, encode_batch

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_N_PER_RETRIEVER = 50


@dataclass
class BM25Index:
    """Inverted index with the statistics BM25 needs.

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), which keeps idf >= 0.
    """

    postings: dict[str, list[tuple[str, int]]]
    doc_len: dict[str, int]
    avgdl: float
    n_docs: int
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    _tf: dict[str, dict[str, int]] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self._tf:
            self._tf = {t: dict(pairs) for t, pairs in self.postings.items()}

    def idf(self, term: str) -> float:
        pairs = self.postings.get(term)
        if not pairs:
            return 0.0
        df = len(pairs)
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))


def build_bm25_index(passages: Sequence[Passage], k1: float = DEFAULT_K1,
                     b: float = DEFAULT_B) -> BM25Index:
    if not passages:
        raise ValueError("cannot index an empty corpus")
    postings: dict[str, list[tuple[str, int]]] = {}
    doc_len: dict[str, int] = {}
    for p in passages:
        tokens = tokenize(passage_text(p))
        doc_len[p.id] = len(tokens)
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        for t, c in counts.items():
            postings.setdefault(t, []).append((p.id, c))
    avgdl = sum(doc_len.values()) / len(doc_len)
    return BM25Index(postings, doc_len, avgdl, len(passages), k1, b)


def bm25_score(index: BM25Index, query_tokens: Sequence[str],
               passage_id: str) -> float:
    """Okapi BM25 for one (query, passage) pair.

    Repeated query terms contribute once per occurrence in the query; terms
    absent from the passage contribute 0.
    """
    if passage_id not in index.doc_len:
        raise KeyError(f"unknown passage id {passage_id!r}")
    dl = index.doc_len[passage_id]
    norm = index.k1 * (1.0 - index.b + index.b * dl / index.avgdl)
    score = 0.0
    for term in query_tokens:
        tf = index._tf.get(term, {}).get(passage_id, 0)
        if tf == 0:
            continue
        score += index.idf(term) * tf * (index.k1 + 1.0) / (tf + norm)
    return score


class BM25Retriever:
    """Full-scan BM25 scorer; unmatched passages score 0."""

    def __init__(self, index: BM25Index, name: str = "bm25"):
        self.index = index
        self.name = name

    def score_all(self, query_text: str) -> dict[str, float]:
        index = self.index
        scores = dict.fromkeys(index.doc_len, 0.0)
        for term in tokenize(query_text):
            pairs = index._tf.get(term)
            if not pairs:
                continue
            idf = index.idf(term)
            for pid, tf in pairs.items():
                dl = index.doc_len[pid]
                norm = index.k1 * (1.0 - index.b + index.b * dl / index.avgdl)
                scores[pid] += idf * tf * (index.k1 + 1.0) / (tf + norm)
        return scores


class DenseRetriever:
    """Exact brute-force dense scorer over a precomputed passage matrix."""

    def __init__(self, model: EncoderModel, passages: Sequence[Passage],
                 similarity: str | None = None, name: str = "dense"):
        self.model = model
        self.name = name
        self.similarity = similarity or model.similarity
        if self.similarity not in ("dot", "cosine"):
            raise ValueError(f"unknown similarity {self.similarity!r}")
        self.ids = [p.id for p in passages]
        self.matrix = encode_batch(model, [passage_text(p) for p in passages])
        if self.similarity == "cosine":
            norms = np.linalg.norm(self.matrix, axis=1)
            if np.any(norms == 0.0):
                raise ValueError("cosine similarity undefined for zero embeddings")
            self._unit = self.matrix / norms[:, None]

    def score_all(self, query_text: str) -> dict[str, float]:
        q = encode_batch(self.model, [query_text])[0]
        if self.similarity == "dot":
            scores = self.matrix @ q
        else:
            qn = np.linalg.norm(q)
            if qn == 0.0:
                raise ValueError("cosine similarity undefined for zero embeddings")
            scores = self._unit @ (q / qn)
        return dict(zip(self.ids, scores.tolist()))


def retrieve_top_k(source, query_text: str, k: int) -> list[tuple[str, float]]:
    """Exact top-k by score descending, ties broken by passage id ascending.

    `source` is a BM25Index or any object exposing score_all(query_text).
    Fewer than k results are returned when the corpus is smaller than k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    retriever = BM25Retriever(source) if isinstance(source, BM25Index) else source
    scores = retriever.score_all(query_text)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


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


def mine_negatives(query: Query, retrievers: Sequence,
                   n_per_retriever: int = DEFAULT_N_PER_RETRIEVER) -> PoolEntry:
    """Top-n negatives from each retriever for one generated query.

    The query's source passage is removed before the union; an empty pool
    marks the query unusable. Negative sampling happens downstream at
    labeling time.
    """
    if query.source_passage_id is None:
        raise ValueError(f"query {query.id} has no source passage")
    per_retriever: dict[str, list[str]] = {}
    for retriever in retrievers:
        top = retrieve_top_k(retriever, query.text, n_per_retriever)
        per_retriever[retriever.name] = [pid for pid, _ in top
                                         if pid != query.source_passage_id]
    return _union_entry(query.id, query.source_passage_id, per_retriever)


def mine_pools(queries: Sequence[Query], retrievers: Sequence,
               n_per_retriever: int = DEFAULT_N_PER_RETRIEVER
               ) -> dict[str, PoolEntry]:
    return {q.id: mine_negatives(q, retrievers, n_per_retriever)
            for q in queries}


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
                raise ValueError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
            entry = _union_entry(record["qid"], record["pos"][0],
                                 {name: list(pids)
                                  for name, pids in record["neg"].items()})
            pools[entry.query_id] = entry
    return pools
