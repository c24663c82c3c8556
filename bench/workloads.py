"""The benchmark's workloads and the seeded inputs they run on.

Inputs are a BeIR-style dataset (corpus.jsonl, queries.jsonl, qrels.tsv)
made from a seed alone: topic-structured passages over a Zipfian
vocabulary with a long tail, varied passage lengths, titles on some
passages, and test queries with graded judgments. Every count (passages,
test queries, pipeline schedules) is fixed per workload; the seed changes
only the content, so run time and artifact size move little between seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_SYLLABLES = ("ba", "ce", "di", "fo", "gu", "ha", "ke", "li", "mo", "nu",
              "pa", "re", "si", "to", "vu", "wa", "xe", "yi", "zo", "ru",
              "la", "me", "ni", "ko", "tu", "sa", "de", "fi", "go", "hu",
              "ja", "ve", "bi", "co", "du", "ga", "he", "ki", "lo", "mu")


def word(rank: int) -> str:
    """The vocabulary word of a given frequency rank (seed-independent)."""
    parts = []
    n = rank
    while True:
        n, r = divmod(n, len(_SYLLABLES))
        parts.append(_SYLLABLES[r])
        if n == 0:
            break
        n -= 1
    return "".join(reversed(parts)) + "n"


@dataclass(frozen=True)
class Workload:
    """One workload: the shape of its inputs, its pipeline config and the
    `pipeline` commands run after ingest, in order."""

    name: str
    why: str
    n_passages: int
    vocab_ranks: int          # size of the global Zipfian vocabulary
    zipf_exponent: float
    n_topics: int
    topic_words: int          # words drawn per topic
    mean_len: float           # mean passage length in tokens
    n_test_queries: int
    config: dict = field(default_factory=dict)
    commands: tuple = ()
    checks: tuple = ()        # (check name, argument...) after the commands


def _config(total_budget, n_per_retriever, gpl_steps, cutoff, *,
            qgen_steps=None) -> dict:
    return {
        "dataset": "bench",
        "encoder": {"dim": 32, "max_seq_len": 350, "init_scale": 1.0},
        "generate": {"total_budget": total_budget, "max_query_len": 12},
        "mine": {"retrievers": ["bm25", "dense"],
                 "n_per_retriever": n_per_retriever},
        "train": {"gpl": {"steps": gpl_steps, "batch_size": 32,
                          "learning_rate": 0.02, "log_every": 50},
                  "qgen": {"steps": qgen_steps, "batch_size": 32,
                           "learning_rate": 0.02, "log_every": 50}},
        "pretrain": {"steps": 12, "batch_size": 8,
                     "learning_rate": 0.01},
        "label": {"cross_encoder": "lexical", "ce_scale": 10.0},
        "evaluate": {"metrics": ["ndcg@10", "mrr@10"], "cutoff": cutoff},
        "rerank": {"top_n": 100},
    }


_GPL_STAGES = (("stage", "generate"), ("stage", "mine"), ("stage", "label"),
               ("stage", "train", "--method", "gpl"),
               ("stage", "evaluate", "--method", "gpl"))
_GPL_CHECKS = (("generate",), ("mine",), ("label",), ("train", "gpl"),
               ("evaluate", "gpl"))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="gpl-stream",
        why=("small corpus, few queries, long GPL schedule: labelling the "
             "per-example stream and Margin-MSE training dominate"),
        n_passages=400, vocab_ranks=20_000, zipf_exponent=1.05,
        n_topics=20, topic_words=60, mean_len=45.0, n_test_queries=50,
        config=_config(total_budget=450, n_per_retriever=20,
                       gpl_steps=800, cutoff=100),
        commands=_GPL_STAGES, checks=_GPL_CHECKS),
    Workload(
        name="gpl-wide",
        why=("ten times the corpus with a long-tailed vocabulary: "
             "generation, top-n mining and cutoff-1000 evaluation dominate"),
        n_passages=4000, vocab_ranks=60_000, zipf_exponent=1.0,
        n_topics=40, topic_words=150, mean_len=55.0, n_test_queries=60,
        config=_config(total_budget=210, n_per_retriever=50,
                       gpl_steps=100, cutoff=1000),
        commands=_GPL_STAGES, checks=_GPL_CHECKS),
    Workload(
        name="method-sweep",
        why=("zero_shot, qgen, gpl, tsdae+gpl and a rerank on one cache: "
             "cache hits beside misses and checkpoints passed between runs"),
        n_passages=1000, vocab_ranks=30_000, zipf_exponent=1.05,
        n_topics=25, topic_words=100, mean_len=50.0, n_test_queries=100,
        config=_config(total_budget=240, n_per_retriever=30,
                       gpl_steps=150, cutoff=100, qgen_steps=100),
        commands=(("run", "--method", "zero_shot"),
                  ("run", "--method", "qgen"),
                  ("run", "--method", "gpl"),
                  ("run", "--method", "tsdae+gpl"),
                  ("stage", "rerank", "--method", "gpl")),
        checks=(("generate",), ("mine",), ("label",), ("pretrain", "tsdae"),
                ("train", "qgen"), ("train", "gpl"), ("train", "tsdae+gpl"),
                *(("evaluate", m) for m in ("zero_shot", "qgen", "gpl",
                                            "tsdae+gpl")),
                ("rerank", "gpl"))),
)}


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    cdf = np.cumsum(1.0 / np.arange(1, n + 1, dtype=float) ** exponent)
    return cdf / cdf[-1]


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"),
                      cdf.size - 1)


def make_dataset(w: Workload, seed: int):
    """Passages, test queries and graded qrels for one workload and seed.

    Returns (passages, queries, qrels): passages as (id, title, body),
    queries as (id, text), qrels as {query id: {passage id: grade}}.
    """
    rng = np.random.default_rng([seed, len(w.name), sum(map(ord, w.name))])
    cdf = _zipf_cdf(w.vocab_ranks, w.zipf_exponent)
    # Topic words come from the middle of the frequency range, so topics
    # are told apart by terms that are neither stop words nor hapaxes.
    lo, hi = 50, min(w.vocab_ranks, 50 + 40 * w.n_topics * w.topic_words // 10)
    topics = [rng.choice(np.arange(lo, hi), size=w.topic_words, replace=False)
              for _ in range(w.n_topics)]
    topic_cdf = _zipf_cdf(w.topic_words, 0.8)
    table = [word(r) for r in range(w.vocab_ranks)]

    passages, topic_of, token_sets = [], [], []
    for i in range(w.n_passages):
        t = int(rng.integers(w.n_topics))
        # Capped at 2.4x the mean so that most samples of a hundred passages
        # hold one at the cap: the longest passage a stage meets, and so its
        # peak memory, does not depend on the seed.
        n = int(np.clip(rng.lognormal(np.log(w.mean_len), 0.5), 6,
                        2.4 * w.mean_len))
        from_topic = rng.random(n) < 0.4
        ranks = np.where(from_topic, topics[t][_draw(rng, topic_cdf, n)],
                         _draw(rng, cdf, n))
        words = [table[r] for r in ranks.tolist()]
        sentences, start = [], 0
        while start < n:
            end = min(n, start + int(rng.integers(6, 16)))
            sentence = words[start:end]
            sentence[0] = sentence[0].capitalize()
            sentences.append(" ".join(sentence) + ".")
            start = end
        title = ""
        if rng.random() < 0.4:
            k = int(rng.integers(2, 6))
            title = " ".join(table[r] for r in
                             topics[t][_draw(rng, topic_cdf, k)].tolist()).title()
        pid = f"d{i:05d}"
        passages.append((pid, title, " ".join(sentences)))
        topic_of.append(t)
        token_sets.append(set(words) | set(title.lower().split()))

    by_topic: dict[int, list[int]] = {}
    for i, t in enumerate(topic_of):
        by_topic.setdefault(t, []).append(i)
    targets = rng.choice(w.n_passages, size=w.n_test_queries, replace=False)
    queries, qrels = [], {}
    for j, target in enumerate(targets):
        pool = sorted(token_sets[target])
        k = min(len(pool), int(rng.integers(3, 7)))
        terms = [pool[int(x)] for x in rng.choice(len(pool), size=k,
                                                  replace=False)]
        qid = f"test-{j:04d}"
        queries.append((qid, " ".join(terms)))
        grades = {passages[target][0]: 2}
        q = set(terms)
        related = sorted(((len(q & token_sets[i]), passages[i][0])
                          for i in by_topic[topic_of[target]] if i != target),
                         key=lambda x: (-x[0], x[1]))
        for overlap, pid in related[:3]:
            if overlap >= 2:
                grades[pid] = 1
        qrels[qid] = grades
    return passages, queries, qrels


def write_dataset(w: Workload, seed: int, directory: Path) -> dict[str, Path]:
    """Write the workload's inputs and its pipeline config under directory."""
    directory.mkdir(parents=True, exist_ok=True)
    passages, queries, qrels = make_dataset(w, seed)
    paths = {"corpus": directory / "corpus.jsonl",
             "queries": directory / "queries.jsonl",
             "qrels": directory / "qrels.tsv"}
    with open(paths["corpus"], "w", encoding="utf-8") as f:
        for pid, title, body in passages:
            record = {"_id": pid, "text": body}
            if title:
                record["title"] = title
            f.write(json.dumps(record) + "\n")
    with open(paths["queries"], "w", encoding="utf-8") as f:
        for qid, text in queries:
            f.write(json.dumps({"_id": qid, "text": text}) + "\n")
    with open(paths["qrels"], "w", encoding="utf-8") as f:
        for qid in sorted(qrels):
            for pid in sorted(qrels[qid]):
                f.write(f"{qid}\t{pid}\t{qrels[qid][pid]}\n")
    return paths


def write_config(w: Workload, inputs: dict[str, Path], output: Path,
                 seed: int, path: Path) -> None:
    config = json.loads(json.dumps(w.config))
    config["seed"] = seed
    config["paths"] = {"corpus": str(inputs["corpus"]),
                       "queries": str(inputs["queries"]),
                       "qrels": str(inputs["qrels"]),
                       "output": str(output)}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config, f, indent=2, sort_keys=True)
