"""Reference implementations the tests hold the package to: Okapi BM25
for one (query, passage) pair counted from the passages, the lexical mock
cross-encoder's score of one pair, a one-pair scorer mapped over two
lists, the teacher margin of one tuple, one query's top k as a
(passage id, score) list, runs packed from and unpacked to such lists, a
TREC run written line by line from per-query lists, mined pools as
per-query dicts and their `hard-negatives.jsonl` text, the binary labels
a generation-only baseline would train on, the token cross-entropy of
tied-output losses written out array by array, the tied-output loss with
its vocabulary gradient formed as one V x d product, a labelled stream's tuples
as named rows, and the checkpoint format written and read as whole JSON
documents.

Also the builders that only tests need: labelled streams and mined pools
packed from rows and lists, one pool's negatives, a graded judgment set
one pair at a time, a config merged from a dict, and the single-row masked
and CLS-focused losses the pre-training schedule computes in batches."""

import base64
import json
import math
from collections import Counter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from denseadapt import labeling, mining, pipeline, pretraining
from denseadapt.corpus import Passage, Qrels, passage_text, tokenize
from denseadapt.evaluation import RunRanking
from denseadapt.labeling import GPLDataset, TupleColumns
from denseadapt.mining import PoolColumns, retrieve_top_k
from denseadapt.pipeline import PipelineConfig
from denseadapt.models import (CrossEncoderScorer, EncoderModel, Tokens,
                               encode_backward, encode_ids, new_grads)

K1, B = 1.2, 0.75

# The last corpus scored and its statistics: a test scores one corpus many
# times in a row.
_counts: tuple[Sequence[Passage] | None, tuple] = (None, ())


def _bm25_counts(passages: Sequence[Passage]
                 ) -> tuple[dict[str, Counter], Counter, float]:
    """Each passage's term counts by id, each term's document frequency and
    the mean passage length, from one tokenization of the corpus."""
    global _counts
    if _counts[0] is not passages:
        counts = [Counter(tokenize(passage_text(p))) for p in passages]
        df = Counter(term for c in counts for term in c)
        avgdl = sum(sum(c.values()) for c in counts) / len(passages)
        _counts = (passages, (dict(zip((p.id for p in passages), counts)),
                              df, avgdl))
    return _counts[1]


def bm25_score(passages: Sequence[Passage], query_tokens: Sequence[str],
               passage_id: str) -> float:
    """Okapi BM25 for one (query, passage) pair over a corpus, with
    k1 = 1.2 and b = 0.75: each query token t adds
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)),
    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), for the passage's tf
    occurrences of t among its dl tokens, N passages of mean length avgdl
    and df of them holding t.

    Repeated query terms contribute once per occurrence in the query; terms
    absent from the passage contribute 0.
    """
    tf, df, avgdl = _bm25_counts(passages)
    if passage_id not in tf:
        raise KeyError(f"unknown passage id {passage_id!r}")
    counts = tf[passage_id]
    dl = sum(counts.values())
    score = 0.0
    for term in query_tokens:
        t = counts[term]
        if t:
            idf = math.log(1.0 + (len(passages) - df[term] + 0.5)
                           / (df[term] + 0.5))
            score += idf * t * (K1 + 1.0) / \
                (t + K1 * (1.0 - B + B * dl / avgdl))
    return score


def lexical_overlap_score(query_text: str, passage_text: str,
                          scale: float = 10.0) -> float:
    """The lexical mock's score of one pair, as a per-pair scorer computes
    it: scale * |q & p| / |q| over the two texts' token sets, 0.0 for a
    query without tokens."""
    q = set(tokenize(query_text))
    if not q:
        return 0.0
    p = set(tokenize(passage_text))
    return scale * len(q & p) / len(q)


def pairwise(score_pair: Callable[[str, str], float]) -> Callable:
    """A `CrossEncoderScorer` score function that maps a one-pair scorer,
    `score_pair(query text, passage text)`, over the two lists."""
    return lambda query_texts, passage_texts: list(
        map(score_pair, query_texts, passage_texts))


def ce_margin(ce: CrossEncoderScorer, query_text: str, pos_text: str,
              neg_text: str) -> float:
    """Teacher margin: score(query, positive) - score(query, negative).

    A negative margin means the cross-encoder prefers the mined "negative",
    i.e. a likely false negative.
    """
    pos_score = ce(query_text, pos_text)
    neg_score = ce(query_text, neg_text)
    if not (math.isfinite(pos_score) and math.isfinite(neg_score)):
        raise ValueError("cross-encoder produced a non-finite score")
    return pos_score - neg_score


def top_k_list(retriever, query_text: str, k: int) -> list[tuple[str, float]]:
    """`retrieve_top_k` of one query as its (passage id, score) list."""
    rows, scores = retrieve_top_k(retriever, query_text, k)
    return list(zip([retriever.ids[i] for i in rows.tolist()],
                    scores.tolist()))


def pack_run(rankings: Mapping[str, Sequence[tuple[str, float]]]
             ) -> RunRanking:
    """The RunRanking of per-query (passage id, score) lists, queries in
    the mapping's order, passage ids in order of first use."""
    table: dict[str, int] = {}
    rows = [table.setdefault(pid, len(table))
            for ranking in rankings.values() for pid, _ in ranking]
    return RunRanking(
        list(rankings),
        np.cumsum([0, *map(len, rankings.values())], dtype=np.int64),
        list(table), np.array(rows, dtype=np.int32),
        np.array([score for ranking in rankings.values()
                  for _, score in ranking], dtype=np.float64))


def pack_pools(pools: Mapping[str, tuple[str, Mapping[str, Sequence[str]]]]
               ) -> PoolColumns:
    """The PoolColumns of per-query (source, {retriever: [ids]}) lists,
    packed and checked as `read_hard_negatives` packs its records."""
    packer = mining._Packer()
    for qid, (source, lists) in pools.items():
        packer.add(qid, source, lists)
    return packer.columns()


def pool_negatives(pools: PoolColumns, query_id: str) -> list[str]:
    """A query's negatives in ascending id order, [] if it has no pool."""
    i = pools.find(query_id)
    return [] if i is None else list(map(
        pools.passage_ids.__getitem__,
        pools.rows[pools.offsets[i]:pools.offsets[i + 1]].tolist()))


def pack_tuples(rows: Iterable[tuple[str, str, str, float]]) -> TupleColumns:
    """The TupleColumns of (query id, positive id, negative id, margin)
    rows, each checked as `build_dataset` checks its tuples."""
    appender = labeling._Appender()
    for row in rows:
        appender.add(*row)
    return appender.columns()


def set_grade(qrels: Qrels, query_id: str, passage_id: str, grade: int
              ) -> None:
    """Judge one (query, passage) pair; a grade is never negative."""
    if grade < 0:
        raise ValueError(f"negative grade {grade} for ({query_id}, {passage_id})")
    qrels.judgments.setdefault(query_id, {})[passage_id] = grade


def config_from_dict(data: dict) -> PipelineConfig:
    """The DEFAULTS with `data` merged in, checked as a config file is."""
    return PipelineConfig(pipeline._deep_merge(pipeline.DEFAULTS, data, ""))


def run_lists(run: RunRanking) -> dict[str, list[tuple[str, float]]]:
    """Each query's (passage id, score) list, queries in run order."""
    return {qid: list(zip(run.top_ids(i), run.scores[run.span(i)].tolist()))
            for i, qid in enumerate(run.qids)}


def trec_run_text(rankings: Mapping[str, Sequence[tuple[str, float]]],
                  tag: str) -> str:
    """`qid Q0 pid rank score tag` lines of per-query (pid, score) lists,
    queries in sorted order, scores at 17 significant digits."""
    lines = []
    for qid in sorted(rankings):
        for rank, (pid, score) in enumerate(rankings[qid], start=1):
            lines.append(f"{qid} Q0 {pid} {rank} {score:.17g} {tag}\n")
    return "".join(lines)


def mined_lists(queries: Sequence, retrievers: Sequence, n: int
                ) -> dict[str, tuple[str, dict[str, list[str]]]]:
    """Each query's (source, {retriever name: top n ids}): a full sort of
    the retriever's scores on (score descending, id ascending) cut at n,
    the source removed. A repeated retriever name keeps the last one's
    lists, in the first one's place."""
    lists = {q.id: (q.source_passage_id, {}) for q in queries}
    for retriever in retrievers:
        for q in queries:
            ranked = sorted(zip(retriever.scores(q.text).tolist(),
                                retriever.ids), key=lambda e: (-e[0], e[1]))
            lists[q.id][1][retriever.name] = [
                pid for _, pid in ranked[:n] if pid != q.source_passage_id]
    return lists


def union_entry(lists: Mapping[str, Sequence[str]]) -> dict[str, list[str]]:
    """A pool's negatives in ascending id order, each mapped to the
    retrievers that listed it: the union the per-query dicts formed."""
    provenance: dict[str, list[str]] = {}
    for name, pids in lists.items():
        for pid in pids:
            provenance.setdefault(pid, []).append(name)
    return dict(sorted(provenance.items()))


def hard_negatives_text(pools: Mapping[str, tuple[str, Mapping[str, Sequence[str]]]]
                        ) -> str:
    """`hard-negatives.jsonl` of per-query (source, lists): one
    `json.dumps(sort_keys=True)` record per query, queries sorted."""
    return "".join(json.dumps({"qid": qid, "pos": [pools[qid][0]],
                               "neg": pools[qid][1]}, sort_keys=True) + "\n"
                   for qid in sorted(pools))


class Row(NamedTuple):
    query_id: str
    pos_id: str
    neg_id: str
    margin: float


def stream_rows(dataset: GPLDataset) -> list[Row]:
    """The dataset's tuples in stream order, one named row each."""
    return [Row(*row) for row in dataset.tuples.rows()]


def binary_relevance_labels(dataset: GPLDataset) -> list[tuple[str, str, int]]:
    """Companion 0/1 labels over the same tuples: positives 1, negatives 0.

    This is the label set a generation-only baseline would train on; it
    cannot express a false negative, where the margin label is near zero.
    """
    labels: list[tuple[str, str, int]] = []
    for t in stream_rows(dataset):
        labels.append((t.query_id, t.pos_id, 1))
        labels.append((t.query_id, t.neg_id, 0))
    return labels


def token_cross_entropy(logits, target_ids) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over positions and dL/dlogits, each intermediate
    its own (positions x V) array: the shift, its exp, the log-probabilities,
    the softmax and the scaled gradient."""
    logits = np.asarray(logits, dtype=float)
    targets = np.asarray(target_ids, dtype=int)
    rows = np.arange(targets.size)
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = shift - np.log(denom)
    loss = float(-np.mean(log_probs[rows, targets]))
    d_logits = exp / denom
    d_logits[rows, targets] -= 1.0
    return loss, d_logits / targets.size


def tied_output_loss(model: EncoderModel, items: Sequence[tuple],
                     scale: float, head: np.ndarray | None = None,
                     name: str = "head") -> tuple[float, dict[str, np.ndarray]]:
    """`pretraining._tied_output_loss` with each logits block's embedding
    gradient formed as one whole V x d product and then added: the same
    positions per logits block, the same cross-entropy."""
    d = model.dim
    encoded, inputs, targets = zip(*items)
    lengths = np.fromiter(map(len, targets), dtype=np.intp, count=len(items))
    inputs, targets = np.concatenate(inputs), np.concatenate(targets)
    x, weight = model.embedding[inputs], model.projection.T
    if head is not None:
        pooled, cache = encode_ids(model, Tokens.of(encoded))
        x = np.concatenate([np.repeat(pooled, lengths, axis=0), x], axis=1)
        weight = head
    hidden = x @ weight.T
    weights = np.repeat(scale / lengths, lengths)
    grads = new_grads(model)
    _, embedding_grad = grads["embedding"]
    size = max(1, pretraining._LOGIT_BLOCK // model.vocab_size)
    logits = np.empty((min(size, targets.size), model.vocab_size))
    buf = np.empty_like(embedding_grad)
    d_hidden = np.empty_like(hidden)
    loss = 0.0
    for lo in range(0, targets.size, size):
        h = hidden[lo:lo + size]
        part, d_logits = pretraining.token_cross_entropy(
            np.matmul(h, model.embedding.T, out=logits[:len(h)]),
            targets[lo:lo + size], weights[lo:lo + size])
        loss += part
        embedding_grad += np.matmul(d_logits.T, h, out=buf)
        np.matmul(d_logits, model.embedding, out=d_hidden[lo:lo + size])
    d_x = d_hidden @ weight
    np.add.at(embedding_grad, inputs, d_x[:, -d:])
    if head is None:
        grads["projection"] += x.T @ d_hidden
        return loss, grads
    grads[name] = d_hidden.T @ x
    encode_backward(model, cache, np.add.reduceat(
        d_x[:, :d], np.cumsum(lengths) - lengths), grads)
    return loss, grads


def mlm_loss(model: EncoderModel, original_ids: Sequence[int],
             corrupted_ids: Sequence[int], positions: Sequence[int]
             ) -> tuple[float, dict[str, np.ndarray]]:
    """Cross-entropy of predicting original tokens at the selected positions
    from per-position encoder states (projected token embeddings), scored
    against the tied embedding table: one row of the masked objective."""
    if not positions:
        raise ValueError("no masked positions")
    return pretraining._tied_output_loss(model, [pretraining._masked_item(
        original_ids, corrupted_ids, positions)], 1.0)


def condensor_loss(model: EncoderModel, head: np.ndarray, ids: np.ndarray,
                   mask_ratio: float = 0.15, rng=0
                   ) -> tuple[float, dict[str, np.ndarray]]:
    """Masked prediction where the head consumes [final CLS state (+)
    token-embedding state at position i]; requires CLS pooling. One row of
    the CLS-focused objective."""
    if model.pooling != "cls":
        raise ValueError("this objective requires CLS pooling")
    return pretraining._tied_output_loss(model, [pretraining._masked_item(
        ids, *pretraining.mlm_corrupt(ids, model.vocab_size, mask_ratio,
                                      rng)[:2])], 1.0, head)


def _pack_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _unpack_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype=np.float64).reshape(obj["shape"]).copy()


def save_checkpoint(model: EncoderModel, path) -> None:
    """The checkpoint as one JSON document, each array's bytes base64."""
    doc = {
        "format_version": 1,
        "pooling": model.pooling,
        "similarity": model.similarity,
        "max_seq_len": model.max_seq_len,
        "vocab": model.vocab,
        "embedding": _pack_array(model.embedding),
        "projection": _pack_array(model.projection),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)


def load_checkpoint(path) -> EncoderModel:
    """A checkpoint read back with json.load and b64decode."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return EncoderModel(
        vocab={str(k): int(v) for k, v in doc["vocab"].items()},
        embedding=_unpack_array(doc["embedding"]),
        projection=_unpack_array(doc["projection"]),
        pooling=doc["pooling"],
        similarity=doc["similarity"],
        max_seq_len=int(doc["max_seq_len"]),
    )
