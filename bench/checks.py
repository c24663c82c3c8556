"""Correctness checks on a finished workload's artifacts.

Every expected value here is computed by the benchmark itself, from the
inputs it generated and from the documented formulas: the tokenizer rule,
the budget rule, Okapi BM25 as `BM25Index` documents it, the checkpoint
format, mean pooling with a linear projection, the lexical-overlap
cross-encoder, nDCG and MRR. Nothing is compared against a stored copy of
an earlier output, and no function of the program is called.
"""

from __future__ import annotations

import base64
import json
import math
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NOISE_TOKENS = frozenset(f"noise{i:03d}" for i in range(200))
PLACEHOLDER = "placeholder"
REL_TOL = 1e-9


class CheckFailed(AssertionError):
    """An artifact disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- readers ------------------------------------------------------------------


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_corpus(path: Path) -> dict[str, str]:
    """Passage id -> text (title and body joined by a space)."""
    texts = {}
    for r in read_jsonl(path):
        title, body = r.get("title", ""), r["text"]
        texts[r["_id"]] = f"{title} {body}" if title and body else title or body
    return texts


def read_qrels(path: Path) -> dict[str, dict[str, int]]:
    qrels: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            qid, pid, grade = line.rstrip("\n").split("\t")
            qrels.setdefault(qid, {})[pid] = int(grade)
    return qrels


def read_trec(path: Path) -> dict[str, list[tuple[str, float]]]:
    """Per-query (passage id, score) lists in rank order."""
    ranked: dict[str, list[tuple[int, str, float]]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            qid, _, pid, rank, score, _ = line.split()
            ranked.setdefault(qid, []).append((int(rank), pid, float(score)))
    out = {}
    for qid, rows in ranked.items():
        rows.sort()
        require([r for r, _, _ in rows] == list(range(1, len(rows) + 1)),
                f"{path}: ranks of {qid} are not 1..n")
        out[qid] = [(pid, score) for _, pid, score in rows]
    return out


@dataclass
class Checkpoint:
    vocab: dict[str, int]
    embedding: np.ndarray
    projection: np.ndarray
    pooling: str
    similarity: str
    max_seq_len: int

    def encode(self, texts: list[str]) -> np.ndarray:
        """Pool the embedding rows of each text's tokens, then project."""
        ids, lengths = [], []
        for text in texts:
            row = [self.vocab.get(t, 0)
                   for t in tokenize(text)[: self.max_seq_len]] or [0]
            ids.extend(row if self.pooling == "mean" else row[:1])
            lengths.append(len(row) if self.pooling == "mean" else 1)
        offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(int)
        pooled = np.add.reduceat(self.embedding[np.asarray(ids)], offsets,
                                 axis=0) / np.asarray(lengths)[:, None]
        return pooled @ self.projection


def read_checkpoint(path: Path) -> Checkpoint:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    require(doc.get("format_version") == 1, f"{path}: unknown format")

    def array(obj):
        raw = base64.b64decode(obj["data"])
        return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()

    return Checkpoint(doc["vocab"], array(doc["embedding"]),
                      array(doc["projection"]), doc["pooling"],
                      doc["similarity"], int(doc["max_seq_len"]))


# --- the workload's artifacts ------------------------------------------------


@dataclass
class Artifacts:
    """Where one round's inputs and outputs are, and the config it ran."""

    inputs: dict[str, Path]
    out: Path           # <paths.output>/<dataset>
    config: dict

    def shared(self, stage: str, name: str) -> Path:
        return self.out / "shared" / stage / name

    def scoped(self, method: str, stage: str, name: str) -> Path:
        return self.out / method / stage / name

    def corpus(self) -> dict[str, str]:
        return read_corpus(self.inputs["corpus"])

    def gen_queries(self) -> list[dict]:
        return read_jsonl(self.shared("generate", "gen-queries.jsonl"))


def _top(scores: np.ndarray, ids: list[str], id_rank: np.ndarray, n: int
         ) -> list[str]:
    """Top-n ids by score descending, then id ascending."""
    order = np.lexsort((id_rank, -scores))[:n]
    return [ids[i] for i in order]


def _same_ranking(got: list[str], want: list[str], score: dict[str, float],
                  what: str) -> None:
    """Equal lists, except that items may trade places with an item whose
    score is equal up to float rounding."""
    require(len(got) == len(want),
            f"{what}: {len(got)} items, expected {len(want)}")
    require(len(set(got)) == len(got), f"{what}: duplicate ids")
    for rank, (g, w) in enumerate(zip(got, want), start=1):
        require(g in score, f"{what}: unknown id {g}")
        require(g == w or close(score[g], score[w]),
                f"{what}: rank {rank} is {g} ({score[g]!r}), expected {w} "
                f"({score[w]!r})")


# --- generate -------------------------------------------------------------------


def check_generate(a: Artifacts) -> None:
    corpus = a.corpus()
    section = a.config["generate"]
    n, budget = len(corpus), int(section["total_budget"])
    if 3 * n > budget:
        effective, qpp = budget // 3, 3
    else:
        effective, qpp = n, math.ceil(budget / n)
    queries = a.gen_queries()
    require(len(queries) == effective * qpp,
            f"{len(queries)} generated queries, budget rule gives "
            f"{effective} x {qpp}")
    per_source = Counter(q["source_passage_id"] for q in queries)
    require(set(per_source) <= set(corpus), "a source passage is not in the corpus")
    require(len(per_source) == effective
            and set(per_source.values()) == {qpp},
            f"queries per source passage {sorted(set(per_source.values()))}, "
            f"expected {qpp} for each of {effective}")
    vocab = {t for text in corpus.values() for t in tokenize(text)}
    limit = int(section["max_query_len"])
    for q in queries:
        tokens = tokenize(q["text"])
        require(0 < len(tokens) <= limit,
                f"{q['_id']}: {len(tokens)} tokens, limit {limit}")
        if tokens != [PLACEHOLDER]:
            stray = [t for t in tokens if t not in vocab and t not in NOISE_TOKENS]
            require(not stray, f"{q['_id']}: tokens {stray} are neither corpus "
                               f"nor noise tokens")


# --- mine -----------------------------------------------------------------------


class BM25:
    """Okapi BM25 with idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))."""

    def __init__(self, texts: list[str], k1: float = 1.2, b: float = 0.75):
        self.k1, self.b = k1, b
        postings: dict[str, tuple[list[int], list[int]]] = {}
        lengths = []
        for i, text in enumerate(texts):
            tokens = tokenize(text)
            lengths.append(len(tokens))
            for term, tf in Counter(tokens).items():
                docs, tfs = postings.setdefault(term, ([], []))
                docs.append(i)
                tfs.append(tf)
        self.n = len(texts)
        self.doc_len = np.asarray(lengths, dtype=float)
        self.avgdl = sum(lengths) / len(lengths)
        self.postings = {t: (np.asarray(d), np.asarray(f, dtype=float))
                         for t, (d, f) in postings.items()}

    def scores(self, query: str) -> np.ndarray:
        out = np.zeros(self.n)
        for term in tokenize(query):
            if term not in self.postings:
                continue
            docs, tf = self.postings[term]
            df = docs.size
            idf = math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))
            norm = self.k1 * (1.0 - self.b + self.b * self.doc_len[docs] / self.avgdl)
            out[docs] += idf * tf * (self.k1 + 1.0) / (tf + norm)
        return out


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def check_mine(a: Artifacts) -> None:
    corpus = a.corpus()
    ids = list(corpus)
    id_rank = np.argsort(np.argsort(np.asarray(ids)))
    texts = [corpus[i] for i in ids]
    n_top = int(a.config["mine"]["n_per_retriever"])
    bm25 = BM25(texts)
    model = read_checkpoint(a.shared("ingest", "model-initial.json"))
    units = _unit_rows(model.encode(texts))
    queries = a.gen_queries()
    q_units = _unit_rows(model.encode([q["text"] for q in queries]))
    mined = {r["qid"]: r for r in
             read_jsonl(a.shared("mine", "hard-negatives.jsonl"))}
    require(set(mined) == {q["_id"] for q in queries},
            "mined queries differ from generated queries")
    for q, q_unit in zip(queries, q_units):
        record = mined[q["_id"]]
        pos = q["source_passage_id"]
        require(record["pos"] == [pos], f"{q['_id']}: positive {record['pos']}")
        for name, scores in (("bm25", bm25.scores(q["text"])),
                             ("dense", units @ q_unit)):
            want = [p for p in _top(scores, ids, id_rank, n_top) if p != pos]
            _same_ranking(record["neg"][name], want,
                          dict(zip(ids, scores.tolist())),
                          f"{q['_id']} {name} negatives")


# --- label ----------------------------------------------------------------------


def lexical_score(query: str, passage: str, scale: float) -> float:
    q = set(tokenize(query))
    return scale * len(q & set(tokenize(passage))) / len(q) if q else 0.0


def read_label_tsv(path: Path) -> list[tuple[str, str, str, float]]:
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            qid, pos, neg, margin = line.rstrip("\n").split("\t")
            rows.append((qid, pos, neg, float(margin)))
    return rows


def check_label(a: Artifacts) -> None:
    gpl = a.config["train"]["gpl"]
    rows = read_label_tsv(a.shared("label", "gpl-training-data.tsv"))
    n = int(gpl["steps"]) * int(gpl["batch_size"])
    require(len(rows) == n, f"{len(rows)} labelled tuples, expected {n}")
    corpus = a.corpus()
    queries = {q["_id"]: q for q in a.gen_queries()}
    pools = {r["qid"]: set().union(*map(set, r["neg"].values()))
             for r in read_jsonl(a.shared("mine", "hard-negatives.jsonl"))}
    usable = [qid for qid, pool in pools.items() if pool]
    scale = float(a.config["label"]["ce_scale"])
    q_tokens = {qid: set(tokenize(q["text"])) for qid, q in queries.items()}
    p_tokens = {pid: set(tokenize(text)) for pid, text in corpus.items()}
    for i, (qid, pos, neg, margin) in enumerate(rows):
        require(qid in queries, f"tuple {i}: unknown query {qid}")
        require(pos == queries[qid]["source_passage_id"],
                f"tuple {i}: positive {pos} is not the source passage of {qid}")
        require(neg != pos and neg in pools[qid],
                f"tuple {i}: negative {neg} is not in the mined pool of {qid}")
        q = q_tokens[qid]
        want = scale * (len(q & p_tokens[pos]) - len(q & p_tokens[neg])) / len(q)
        require(close(margin, want, 1e-12),
                f"tuple {i}: margin {margin!r}, expected {want!r}")
    draws = Counter(qid for qid, _, _, _ in rows)
    require(set(draws) == set(usable), "drawn queries differ from usable queries")
    lo, hi = n // len(usable), -(-n // len(usable))
    require(set(draws.values()) <= {lo, hi},
            f"draws per query {sorted(set(draws.values()))}, expected {lo} or {hi}")


# --- train and pretrain ----------------------------------------------------------


def margin_mse(model: Checkpoint, rows, query_texts: dict[str, str],
               passage_texts: dict[str, str]) -> float:
    """Mean squared error of dot-product margins against the labels."""
    qids = sorted({r[0] for r in rows})
    pids = sorted({p for r in rows for p in r[1:3]})
    q_emb = dict(zip(qids, model.encode([query_texts[q] for q in qids])))
    p_emb = dict(zip(pids, model.encode([passage_texts[p] for p in pids])))
    q = np.stack([q_emb[r[0]] for r in rows])
    pos = np.stack([p_emb[r[1]] for r in rows])
    neg = np.stack([p_emb[r[2]] for r in rows])
    predicted = (q * pos).sum(axis=1) - (q * neg).sum(axis=1)
    target = np.asarray([r[3] for r in rows])
    return float(np.mean((predicted - target) ** 2))


def _finite(model: Checkpoint, path: Path) -> None:
    require(np.isfinite(model.embedding).all()
            and np.isfinite(model.projection).all(),
            f"{path}: non-finite weights")


def start_checkpoint(a: Artifacts, method: str) -> Path:
    pre, _, final = method.rpartition("+")
    if pre:
        return a.shared(f"pretrain-{pre}", "model-pretrained.json")
    return a.shared("ingest", "model-initial.json")


def check_train(a: Artifacts, method: str) -> None:
    """The method's checkpoint is finite; margin training lowered its loss."""
    path = a.scoped(method, "train", "model-final.json")
    final = read_checkpoint(path)
    _finite(final, path)
    if method.rpartition("+")[2] != "gpl":
        return
    start_path = start_checkpoint(a, method)
    start = read_checkpoint(start_path)
    rows = read_label_tsv(a.shared("label", "gpl-training-data.tsv"))
    query_texts = {q["_id"]: q["text"] for q in a.gen_queries()}
    corpus = a.corpus()
    before = margin_mse(start, rows, query_texts, corpus)
    after = margin_mse(final, rows, query_texts, corpus)
    require(after < before, f"{method}: Margin-MSE {after:.6g} after training, "
                            f"{before:.6g} at {start_path.name}")


def check_pretrain(a: Artifacts, method: str) -> None:
    path = a.shared(f"pretrain-{method}", "model-pretrained.json")
    model = read_checkpoint(path)
    _finite(model, path)
    initial = read_checkpoint(a.shared("ingest", "model-initial.json"))
    require(not np.array_equal(model.embedding, initial.embedding),
            f"{method}: pre-trained embedding equals the initial one")


# --- evaluate and rerank ----------------------------------------------------------


def ndcg_at_k(ranking: list[str], grades: dict[str, int], k: int) -> float:
    ideal = sorted(grades.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
    dcg = sum(grades.get(pid, 0) / math.log2(i + 2)
              for i, pid in enumerate(ranking[:k]))
    return dcg / idcg


def mrr_at_k(ranking: list[str], grades: dict[str, int], k: int) -> float:
    for i, pid in enumerate(ranking[:k]):
        if grades.get(pid, 0) >= 1:
            return 1.0 / (i + 1)
    return 0.0


def _check_report(a: Artifacts, stage_dir: Path) -> dict[str, list]:
    """Recompute the report's averages from its run file; return the run."""
    run = read_trec(stage_dir / "run.trec")
    qrels = read_qrels(a.inputs["qrels"])
    queries = [r["_id"] for r in read_jsonl(a.inputs["queries"])]
    judged = [q for q in queries if any(g > 0 for g in qrels.get(q, {}).values())]
    rankings = {q: [pid for pid, _ in run.get(q, [])] for q in judged}
    want = {
        "ndcg@10": sum(ndcg_at_k(rankings[q], qrels[q], 10) for q in judged) / len(judged),
        "mrr@10": sum(mrr_at_k(rankings[q], qrels[q], 10) for q in judged) / len(judged),
    }
    with open(stage_dir / "report.json", encoding="utf-8") as f:
        got = json.load(f)["averages"]
    for metric, value in want.items():
        require(close(got[metric], value, 1e-12),
                f"{stage_dir}: {metric} {got[metric]!r}, recomputed {value!r}")
    return run


def check_evaluate(a: Artifacts, method: str, sample: int = 10) -> None:
    """Averages match the run; sampled top-10s match a brute-force ranking."""
    run = _check_report(a, a.out / method / "evaluate")
    _, _, final = method.rpartition("+")
    path = (start_checkpoint(a, method) if final == "zero_shot"
            else a.scoped(method, "train", "model-final.json"))
    model = read_checkpoint(path)
    corpus = a.corpus()
    ids = list(corpus)
    id_rank = np.argsort(np.argsort(np.asarray(ids)))
    matrix = model.encode([corpus[i] for i in ids])
    queries = read_jsonl(a.inputs["queries"])
    picked = queries[:: max(1, len(queries) // sample)][:sample]
    q_emb = model.encode([q["text"] for q in picked])
    if model.similarity == "cosine":
        matrix, q_emb = _unit_rows(matrix), _unit_rows(q_emb)
    for q, vec in zip(picked, q_emb):
        scores = matrix @ vec
        score = dict(zip(ids, scores.tolist()))
        got = run[q["_id"]][:10]
        _same_ranking([pid for pid, _ in got], _top(scores, ids, id_rank, 10),
                      score, f"{method} top-10 of {q['_id']}")
        for pid, value in got:
            require(close(value, score[pid]),
                    f"{method} {q['_id']}: score of {pid} is {value!r}, "
                    f"recomputed {score[pid]!r}")


def check_rerank(a: Artifacts, method: str) -> None:
    """Each reranked list permutes the first-stage top-n by lexical score."""
    first = read_trec(a.out / method / "evaluate" / "run.trec")
    reranked = _check_report(a, a.out / method / "rerank")
    top_n = int(a.config["rerank"]["top_n"])
    corpus = a.corpus()
    scale = float(a.config["label"]["ce_scale"])
    texts = {r["_id"]: r["text"] for r in read_jsonl(a.inputs["queries"])}
    require(set(reranked) == set(first), "reranked queries differ")
    for qid, rows in reranked.items():
        ids = [pid for pid, _ in rows]
        require(sorted(ids) == sorted(pid for pid, _ in first[qid][:top_n]),
                f"{qid}: reranked list is not a permutation of the top {top_n}")
        scores = [lexical_score(texts[qid], corpus[pid], scale) for pid in ids]
        for i in range(len(ids) - 1):
            s, t = scores[i], scores[i + 1]
            require(s > t or (close(s, t) and ids[i] < ids[i + 1]),
                    f"{qid}: rank {i + 1} ({ids[i]}, {s!r}) before "
                    f"({ids[i + 1]}, {t!r})")
