"""Ranking evaluation: full-corpus brute-force retrieval, nDCG@k and MRR@k,
macro-averaged reports, and cross-encoder re-ranking."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import ParseError, Passage, Qrels, Query, passage_text
from .labeling import _BLOCK
from .mining import DenseRetriever, retrieve_top_k
from .models import CrossEncoderScorer, EncoderModel

logger = logging.getLogger(__name__)

DEFAULT_CUTOFF = 1000
DEFAULT_K = 10


@dataclass
class RunRanking:
    """Per-query ranked candidate lists: query-id -> [(passage-id, score)],
    scores non-increasing, no duplicate passages within a query."""

    entries: dict[str, list[tuple[str, float]]] = field(default_factory=dict)


@dataclass
class EvalReport:
    per_query: dict[str, dict[str, float]]
    averages: dict[str, float]
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"per_query": self.per_query, "averages": self.averages,
                "config": self.config}

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, sort_keys=True, indent=2)


def load_report(path: str | Path) -> EvalReport:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return EvalReport(doc["per_query"], doc["averages"], doc.get("config", {}))


def full_rank(model: EncoderModel, queries: Sequence[Query],
              corpus: Sequence[Passage], cutoff: int = DEFAULT_CUTOFF
              ) -> RunRanking:
    """Exact brute-force top-cutoff ranking of the whole corpus per query
    under the model's similarity; same tie rule as retrieve_top_k."""
    retriever = DenseRetriever(model, corpus)
    run = RunRanking()
    for q in queries:
        run.entries[q.id] = retrieve_top_k(retriever, q.text, cutoff)
    return run


def _gain(grade: int, kind: str) -> float:
    if kind == "linear":
        return float(grade)
    if kind == "exp":
        return float(2 ** grade - 1)
    raise ValueError(f"unknown gain {kind!r}")


def ndcg_at_k(ranking: Sequence, rels: Mapping[str, int], k: int = DEFAULT_K,
              gain: str = "linear") -> float:
    """Normalized discounted cumulative gain at cutoff k.

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
    for i, item in enumerate(ranking[:k]):
        pid = item[0] if isinstance(item, tuple) else item
        dcg += _gain(rels.get(pid, 0), gain) / math.log2(i + 2)
    return dcg / idcg


def mrr_at_k(ranking: Sequence, rels: Mapping[str, int], k: int = DEFAULT_K
             ) -> float:
    """Reciprocal rank of the first passage with grade >= 1 in the top k,
    else 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for i, item in enumerate(ranking[:k]):
        pid = item[0] if isinstance(item, tuple) else item
        if rels.get(pid, 0) >= 1:
            return 1.0 / (i + 1)
    return 0.0


def evaluate(model_or_run, queries: Sequence[Query], corpus: Sequence[Passage],
             qrels: Qrels, metrics: Sequence[str] = ("ndcg@10", "mrr@10"),
             cutoff: int = DEFAULT_CUTOFF, gain: str = "linear") -> EvalReport:
    """Per-query metrics plus macro averages.

    Accepts a model (ranked on the fly) or a prebuilt RunRanking. Queries
    without a positive judgment are skipped from averaging (logged); zero
    judged queries is an error. Metric names are `ndcg@K` / `mrr@K`.
    """
    if isinstance(model_or_run, RunRanking):
        run = model_or_run
    else:
        run = full_rank(model_or_run, queries, corpus, cutoff)

    per_query: dict[str, dict[str, float]] = {m: {} for m in metrics}
    n_skipped = 0
    for q in queries:
        rels = qrels.grades_for(q.id)
        if not any(g > 0 for g in rels.values()):
            n_skipped += 1
            logger.info("query %s has no positive judgments; skipped", q.id)
            continue
        ranking = run.entries.get(q.id, [])
        for metric in metrics:
            name, _, k_str = metric.partition("@")
            k = int(k_str) if k_str else DEFAULT_K
            if name == "ndcg":
                value = ndcg_at_k(ranking, rels, k, gain)
            elif name == "mrr":
                value = mrr_at_k(ranking, rels, k)
            else:
                raise ValueError(f"unknown metric {metric!r}")
            per_query[metric][q.id] = value

    n_judged = len(next(iter(per_query.values()))) if metrics else 0
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
    at most _BLOCK pairs (a query with more has a call of its own)."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    texts = {p.id: passage_text(p) for p in corpus}
    query_texts = {q.id: q.text for q in queries}
    blocks: list[list[tuple[str, list[str]]]] = []
    n_pairs = 0
    for qid, ranking in first_stage.entries.items():
        if qid not in query_texts:
            continue
        ids = [pid for pid, _ in ranking[:top_n]]
        if not blocks or n_pairs + len(ids) > _BLOCK:
            blocks.append([])
            n_pairs = 0
        blocks[-1].append((qid, ids))
        n_pairs += len(ids)
    out = RunRanking()
    for block in blocks:
        scores = iter(ce.score_pairs(
            [query_texts[qid] for qid, ids in block for _ in ids],
            [texts[pid] for _, ids in block for pid in ids]).tolist())
        for qid, ids in block:
            out.entries[qid] = sorted(zip(ids, islice(scores, len(ids))),
                                      key=lambda kv: (-kv[1], kv[0]))
    return out


def write_trec_run(run: RunRanking, path: str | Path, tag: str = "run") -> None:
    """`qid Q0 docid rank score tag` lines, queries in sorted order."""
    with open(path, "w", encoding="utf-8") as f:
        for qid in sorted(run.entries):
            for rank, (pid, score) in enumerate(run.entries[qid], start=1):
                f.write(f"{qid} Q0 {pid} {rank} {score:.17g} {tag}\n")


def read_trec_run(path: str | Path) -> RunRanking:
    """The run `write_trec_run` wrote: each query's lines in rank order,
    scores exact (17 significant digits round-trip float64)."""
    run = RunRanking()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                qid, _, pid, _, score, _ = line.split()
                entry = (pid, float(score))
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: expected 'qid Q0 pid rank "
                                 f"score tag' ({e})") from e
            run.entries.setdefault(qid, []).append(entry)
    return run
