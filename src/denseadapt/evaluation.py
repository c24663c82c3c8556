"""Ranking evaluation: full-corpus brute-force retrieval, nDCG@k and MRR@k,
macro-averaged reports, and cross-encoder re-ranking."""

from __future__ import annotations

import json
import logging
import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import ParseError, Passage, Qrels, Query, passage_text, \
    read_lines
from .labeling import _BLOCK
from .mining import DenseRetriever, _id_rank, rank_queries
from .models import CrossEncoderScorer, EncoderModel
from .util import check_interval

logger = logging.getLogger(__name__)

DEFAULT_CUTOFF = 1000
DEFAULT_K = 10


@dataclass
class RunRanking:
    """Per-query ranked candidates in columns. Query `qids[i]` holds
    entries offsets[i]:offsets[i + 1] (int64 offsets) of `rows` (int32
    positions in the passage-id table `pids`) and `scores` (float64), in
    rank order: scores non-increasing, no passage twice within a query."""

    qids: list[str]
    offsets: np.ndarray
    pids: list[str]
    rows: np.ndarray
    scores: np.ndarray

    def span(self, i: int) -> slice:
        """Query i's entries in `rows` and `scores`."""
        return slice(self.offsets[i], self.offsets[i + 1])

    def top_ids(self, i: int, n: int | None = None) -> list[str]:
        """The passage ids of query i's first n entries (all by default)."""
        return [self.pids[r] for r in self.rows[self.span(i)][:n].tolist()]


@dataclass
class EvalReport:
    per_query: dict[str, dict[str, float]]
    averages: dict[str, float]
    config: dict = field(default_factory=dict)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(vars(self), f, sort_keys=True, indent=2)


def load_report(path: str | Path) -> EvalReport:
    """The report `EvalReport.save` writes. One that is not JSON, lacks one
    of its three objects or holds an average that is not a number is a
    ParseError."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"{path}: not valid JSON: {e}") from None
    keys = ("per_query", "averages", "config")
    if not (isinstance(doc, dict)
            and all(isinstance(doc.get(key), dict) for key in keys)
            and all(isinstance(v, (int, float))
                    for v in doc["averages"].values())):
        raise ParseError(f"{path}: a report needs 'per_query', 'averages' and "
                         "'config' objects, with numbers as averages")
    return EvalReport(doc["per_query"], doc["averages"], doc["config"])


def full_rank(model: EncoderModel, queries: Sequence[Query],
              corpus: Sequence[Passage], cutoff: int = DEFAULT_CUTOFF
              ) -> RunRanking:
    """Exact brute-force top-cutoff ranking of the whole corpus per query
    under the model's similarity: `rank_queries` over a DenseRetriever,
    each query's `retrieve_top_k` written straight into the run's
    columns."""
    check_interval("cutoff", cutoff)
    retriever = DenseRetriever(model, corpus)
    width = min(cutoff, len(retriever.ids))
    rows = np.empty((len(queries), width), dtype=np.int32)
    scores = np.empty((len(queries), width))
    for i, (top, top_scores) in enumerate(rank_queries(retriever, queries,
                                                       cutoff)):
        rows[i], scores[i] = top, top_scores
    offsets = np.arange(len(queries) + 1, dtype=np.int64) * width
    return RunRanking([q.id for q in queries], offsets, retriever.ids,
                      rows.ravel(), scores.ravel())


def _gain(grade: int, kind: str) -> float:
    if kind == "linear":
        return float(grade)
    if kind == "exp":
        return float(2 ** grade - 1)
    raise ValueError(f"unknown gain {kind!r}")


def ndcg_at_k(ranking: Sequence[str], rels: Mapping[str, int],
              k: int = DEFAULT_K, gain: str = "linear") -> float:
    """Normalized discounted cumulative gain at cutoff k of passage ids.

    DCG@k = sum_i gain(rel_i) / log2(i + 1) over ranks i = 1..k; the ideal
    DCG sorts the judged grades descending. Unjudged passages count as
    grade 0. Linear gain by default; exponential (2^rel - 1) behind the
    flag. Requires at least one positive grade in rels.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ideal = sorted((_gain(g, gain) for g in rels.values()), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
    if idcg == 0.0:
        raise ValueError("no positive grades; query cannot be scored")
    dcg = 0.0
    for i, pid in enumerate(ranking[:k]):
        dcg += _gain(rels.get(pid, 0), gain) / math.log2(i + 2)
    return dcg / idcg


def mrr_at_k(ranking: Sequence[str], rels: Mapping[str, int],
             k: int = DEFAULT_K) -> float:
    """Reciprocal rank of the first passage id with grade >= 1 in the top
    k, else 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for i, pid in enumerate(ranking[:k]):
        if rels.get(pid, 0) >= 1:
            return 1.0 / (i + 1)
    return 0.0


def parse_metrics(metrics: Sequence[str]) -> list[tuple[str, int]]:
    """Each metric's (name, k): `ndcg` or `mrr`, optionally `@K` with K an
    int >= 1, else k = DEFAULT_K. No metric, or another name, is a
    ValueError."""
    if not metrics:
        raise ValueError("no metrics to evaluate")
    parsed = []
    for metric in metrics:
        name, at, k = metric.partition("@")
        if name not in ("ndcg", "mrr") or \
                at and not (k.isdecimal() and int(k) >= 1):
            raise ValueError(f"unknown metric {metric!r}")
        parsed.append((name, int(k) if at else DEFAULT_K))
    return parsed


def evaluate(run: RunRanking, queries: Sequence[Query], qrels: Qrels,
             metrics: Sequence[str] = ("ndcg@10", "mrr@10"),
             cutoff: int = DEFAULT_CUTOFF, gain: str = "linear") -> EvalReport:
    """Per-query metrics of a run plus macro averages.

    Queries without a positive judgment are skipped from averaging (logged);
    zero judged queries is an error. Metric names are `ndcg@K` / `mrr@K`.
    `cutoff`, the depth the run was ranked to, is recorded in the config.
    """
    parsed = parse_metrics(metrics)
    _gain(0, gain)  # an unknown gain fails before any query is scored
    position = {qid: i for i, qid in enumerate(run.qids)}
    per_query: dict[str, dict[str, float]] = {m: {} for m in metrics}
    n_skipped = 0
    for q in queries:
        rels = qrels.grades_for(q.id)
        if not any(g > 0 for g in rels.values()):
            n_skipped += 1
            logger.info("query %s has no positive judgments; skipped", q.id)
            continue
        i = position.get(q.id)
        for metric, (name, k) in zip(metrics, parsed):
            ranking = [] if i is None else run.top_ids(i, k)
            per_query[metric][q.id] = ndcg_at_k(ranking, rels, k, gain) \
                if name == "ndcg" else mrr_at_k(ranking, rels, k)

    n_judged = len(next(iter(per_query.values())))
    if n_judged == 0:
        raise ValueError("no judged queries to evaluate")
    averages = {m: sum(vals.values()) / len(vals) for m, vals in per_query.items()}
    config = {"metrics": list(metrics), "cutoff": cutoff, "gain": gain,
              "n_judged": n_judged, "n_skipped": n_skipped}
    return EvalReport(per_query, averages, config)


def ce_rerank(first_stage: RunRanking, ce: CrossEncoderScorer,
              queries: Sequence[Query], corpus: Sequence[Passage],
              top_n: int = 100) -> RunRanking:
    """Re-score the top-n candidates per query with the cross-encoder; sort
    by the new score (ties by passage id) and drop the rest. Whole queries'
    candidates are scored together, one `ce.score_pairs` call per block of
    at most _BLOCK pairs (a query with more has a call of its own). The
    result keeps the first stage's passage-id table."""
    check_interval("top_n", top_n)
    texts = {p.id: passage_text(p) for p in corpus}
    query_texts = {q.id: q.text for q in queries}
    kept = np.array([i for i, qid in enumerate(first_stage.qids)
                     if qid in query_texts], dtype=np.intp)
    starts = first_stage.offsets[kept]
    lengths = np.minimum(first_stage.offsets[kept + 1] - starts, top_n)
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    rows = np.concatenate([np.empty(0, dtype=np.int32), *(
        first_stage.rows[lo:lo + n] for lo, n in zip(starts, lengths))])
    scores = np.empty(len(rows))
    blocks: list[list[int]] = []  # positions in `kept`, whole queries
    n_pairs = 0
    for j, n in enumerate(lengths.tolist()):
        if not blocks or n_pairs + n > _BLOCK:
            blocks.append([])
            n_pairs = 0
        blocks[-1].append(j)
        n_pairs += n
    id_rank = _id_rank(first_stage.pids)
    for block in blocks:
        lo, hi = offsets[block[0]], offsets[block[-1] + 1]
        scores[lo:hi] = ce.score_pairs(
            [query_texts[first_stage.qids[kept[j]]]
             for j in block for _ in range(lengths[j])],
            [texts[first_stage.pids[r]] for r in rows[lo:hi].tolist()])
        for j in block:
            span = slice(offsets[j], offsets[j + 1])
            order = np.lexsort((id_rank[rows[span]], -scores[span]))
            rows[span], scores[span] = rows[span][order], scores[span][order]
    return RunRanking([first_stage.qids[i] for i in kept], offsets,
                      first_stage.pids, rows, scores)


def write_trec_run(run: RunRanking, path: str | Path, tag: str = "run") -> None:
    """`qid Q0 docid rank score tag` lines, queries in sorted order."""
    with open(path, "w", encoding="utf-8") as f:
        for i in sorted(range(len(run.qids)), key=run.qids.__getitem__):
            qid, span = run.qids[i], run.span(i)
            for rank, (row, score) in enumerate(zip(
                    run.rows[span].tolist(), run.scores[span].tolist()),
                    start=1):
                f.write(f"{qid} Q0 {run.pids[row]} {rank} {score:.17g} {tag}\n")


def read_trec_run(path: str | Path) -> RunRanking:
    """The run `write_trec_run` wrote: each query's lines in rank order,
    scores exact (17 significant digits round-trip float64). A query's
    lines need not be contiguous; queries keep their first-seen order.
    A score that is not finite, or a passage listed twice for one query,
    is a ParseError naming its line."""
    qids: dict[str, int] = {}
    pids: dict[str, int] = {}
    query, rows, scores = array("i"), array("i"), array("d")
    for lineno, line in read_lines(path):
        try:
            qid, _, pid, _, score, _ = line.split()
            scores.append(float(score))
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: expected 'qid Q0 pid rank "
                             f"score tag' ({e})") from e
        query.append(qids.setdefault(qid, len(qids)))
        rows.append(pids.setdefault(pid, len(pids)))
    query = np.frombuffer(query, dtype=np.int32)
    rows = np.frombuffer(rows, dtype=np.int32)
    scores = np.frombuffer(scores, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(scores))
    if len(bad):
        raise ParseError(f"{path}:{bad[0] + 1}: score {scores[bad[0]]} is not "
                         f"finite")
    key = query.astype(np.int64) * len(pids) + rows
    by_key = np.argsort(key, kind="stable")
    repeats = by_key[1:][key[by_key[1:]] == key[by_key[:-1]]]
    if len(repeats):
        line = int(repeats.min())
        raise ParseError(f"{path}:{line + 1}: passage "
                         f"{list(pids)[rows[line]]!r} listed twice for query "
                         f"{list(qids)[query[line]]!r}")
    if np.any(query[1:] < query[:-1]):  # gather each query's lines
        order = np.argsort(query, kind="stable")
        query, rows, scores = query[order], rows[order], scores[order]
    offsets = np.searchsorted(query, np.arange(len(qids) + 1)).astype(np.int64)
    return RunRanking(list(qids), offsets, list(pids), rows, scores)
