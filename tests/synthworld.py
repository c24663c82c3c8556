"""Synthetic two-domain retrieval world for the adaptation experiments.

The world plants a vocabulary with three tiers per domain: topic-exclusive
tokens, pair tokens shared between sibling topics (graded relevance:
own-topic passages grade 2, sibling passages grade 1), and a small pool of
general tokens shared across source and target domains. A model trained on
the source domain transfers general-token geometry to the target (a
moderate zero-shot baseline); target-exclusive tokens start untrained, so
adaptation has headroom.

The mock generator's noise vocabulary is the target corpus vocabulary
itself: at temperature 1 queries are pristine, at temperature 10 they are
mostly plausible-but-wrong corpus words, which is what makes in-batch
training on 1/0 labels degrade while margin labels stay calibrated.

GPL labels a stream of GPL_TRAIN steps x batch_size tuples: each tuple is
a fresh negative drawn from its query's mined pool, as in the paper.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from denseadapt.corpus import Passage, Qrels, Query, passage_text, tokenize
from denseadapt.evaluation import evaluate, full_rank
from denseadapt.labeling import GPLDataset, build_dataset
from denseadapt.mining import (BM25Retriever, DenseRetriever, build_bm25_index,
                               mine_pools)
from denseadapt.models import init_encoder, lexical_overlap_ce
from denseadapt.qgen import (SamplerConfig, compute_budget, generate_queries,
                             mock_generator)
from denseadapt.training import (LossConfig, TrainRunConfig, gpl_train,
                                 qgen_train)
from denseadapt.util import derive_seed
from oracles import (binary_relevance_labels, ce_margin, pack_pools,
                     pack_tuples, pool_negatives, set_grade, stream_rows)

N_GENERAL = 8
N_TOPICS = 8
PASSAGES_PER_TOPIC = 5
EVAL_QUERIES_PER_TOPIC = 6
DIM = 32
CE_SCALE = 10.0
QPP = 8
N_PER_RETRIEVER = 20

GENERATOR_KW = dict(content_logit=8.0, noise_logit=0.0, eos_logit=5.5)
SAMPLER_KW = dict(top_k=50, top_p=0.95, max_query_len=5)

SOURCE_TRAIN = dict(steps=2500, batch_size=32, learning_rate=0.01)
GPL_TRAIN = dict(steps=3000, batch_size=32, learning_rate=0.02)
QGEN_TRAIN = dict(steps=150, batch_size=16, learning_rate=0.02, tau=20.0)


def topic_general(k: int) -> tuple[str, str]:
    return f"g{k % N_GENERAL}", f"g{(k + 3) % N_GENERAL}"


def vocab_tokens() -> list[str]:
    tokens = [f"g{i}" for i in range(N_GENERAL)]
    for prefix in ("s", "t"):
        for k in range(N_TOPICS):
            tokens += [f"{prefix}{k}x{j}" for j in range(3)]
        for pair in range(N_TOPICS // 2):
            tokens += [f"{prefix}P{pair}y{j}" for j in range(3)]
    return tokens


def make_domain(prefix: str, seed: int):
    """Passages, gold eval queries, and graded qrels for one domain."""
    rng = np.random.default_rng(seed)
    passages, queries, qrels = [], [], Qrels()
    for k in range(N_TOPICS):
        exclusive = [f"{prefix}{k}x{j}" for j in range(3)]
        shared = [f"{prefix}P{k // 2}y{j}" for j in range(3)]
        g_a, g_b = topic_general(k)
        for i in range(PASSAGES_PER_TOPIC):
            body = list(rng.choice(exclusive, size=3)) + shared + [g_a, g_b]
            rng.shuffle(body)
            passages.append(Passage(f"{prefix}p{k:02d}{i}", "", " ".join(body)))
    for k in range(N_TOPICS):
        sibling = k + 1 if k % 2 == 0 else k - 1
        exclusive = [f"{prefix}{k}x{j}" for j in range(3)]
        shared = [f"{prefix}P{k // 2}y{j}" for j in range(3)]
        g_a, g_b = topic_general(k)
        for i in range(EVAL_QUERIES_PER_TOPIC):
            q_tokens = list(rng.choice(exclusive, size=2, replace=False)) \
                + [rng.choice(shared), rng.choice([g_a, g_b])]
            qid = f"{prefix}q{k:02d}{i}"
            queries.append(Query(qid, " ".join(q_tokens)))
            for i2 in range(PASSAGES_PER_TOPIC):
                set_grade(qrels, qid, f"{prefix}p{k:02d}{i2}", 2)
                set_grade(qrels, qid, f"{prefix}p{sibling:02d}{i2}", 1)
    return passages, queries, qrels


def train_source_model(seed: int):
    """Margin-regression training on gold source tuples; the returned model
    is the zero-shot checkpoint for the target domain."""
    src_passages, src_queries, src_qrels = make_domain("s", derive_seed(seed, "src"))
    model = init_encoder(vocab_tokens(), dim=DIM,
                         seed=derive_seed(seed, "init"), init_scale=0.05)
    ce = lexical_overlap_ce(CE_SCALE)
    rng = np.random.default_rng(derive_seed(seed, "src-tuples"))
    texts = {p.id: passage_text(p) for p in src_passages}
    tuples, train_queries = [], []
    for p in src_passages:
        k = int(p.id[2:4])
        exclusive = [f"s{k}x{j}" for j in range(3)]
        shared = [f"sP{k // 2}y{j}" for j in range(3)]
        g_a, g_b = topic_general(k)
        for n in range(2):
            q_tokens = list(rng.choice(exclusive, size=2, replace=False)) \
                + [rng.choice(shared), g_a, g_b]
            qid = f"strainq-{p.id}-{n}"
            train_queries.append(Query(qid, " ".join(q_tokens), p.id))
            while True:
                neg = src_passages[rng.integers(len(src_passages))]
                if neg.id != p.id:
                    break
            margin = ce_margin(ce, " ".join(q_tokens), texts[p.id], texts[neg.id])
            tuples.append((qid, p.id, neg.id, margin))
    cfg = TrainRunConfig(seed=derive_seed(seed, "srctrain"),
                         log_every=SOURCE_TRAIN["steps"], **SOURCE_TRAIN)
    model, _ = gpl_train(model, GPLDataset(pack_tuples(tuples)),
                         src_passages, train_queries, cfg)
    return model, (src_passages, src_queries, src_qrels)


def ndcg10(model, queries, passages, qrels) -> float:
    run = full_rank(model, queries, passages, cutoff=len(passages))
    report = evaluate(run, queries, qrels, metrics=("ndcg@10",),
                      cutoff=len(passages))
    return report.averages["ndcg@10"]


def target_generator(passages):
    corpus_vocab = tuple(sorted({t for p in passages
                                 for t in tokenize(passage_text(p))}))
    return mock_generator(passages, noise_vocab=corpus_vocab, **GENERATOR_KW)


def generate_for(seed: int, passages, temperature: float):
    generator = target_generator(passages)
    budget = compute_budget(len(passages), QPP * len(passages))
    sampler = SamplerConfig(temperature=temperature,
                            seed=derive_seed(seed, "gen"), **SAMPLER_KW)
    return generate_queries(generator, passages, budget, sampler)


def mine_for(seed: int, model0, corpus, queries, n_per=N_PER_RETRIEVER):
    retrievers = [BM25Retriever(build_bm25_index(corpus)),
                  DenseRetriever(copy.deepcopy(model0), corpus,
                                 similarity="cosine")]
    return mine_pools(queries, retrievers, n_per_retriever=n_per)


def label_for(seed: int, queries, pools, corpus):
    """The pseudo-label stream: one labelled tuple per GPL training example."""
    return build_dataset(queries, pools, corpus, lexical_overlap_ce(CE_SCALE),
                         seed=derive_seed(seed, "label"),
                         n_tuples=GPL_TRAIN["steps"] * GPL_TRAIN["batch_size"])


def binary_labeled(dataset):
    """The same tuples with binary targets: CE_SCALE x (label of positive -
    label of negative), from the 0/1 labels a generation-only baseline
    trains on. A planted duplicate keeps the full target of a true
    negative, where its margin label is 0."""
    labels = binary_relevance_labels(dataset)
    tuples = [(t.query_id, t.pos_id, t.neg_id,
               CE_SCALE * (pos_label - neg_label))
              for t, (_, _, pos_label), (_, _, neg_label)
              in zip(stream_rows(dataset), labels[0::2], labels[1::2])]
    return GPLDataset(pack_tuples(tuples), dict(dataset.manifest))


def adapt_gpl(seed: int, model0, corpus, queries, dataset):
    model = copy.deepcopy(model0)
    cfg = TrainRunConfig(seed=derive_seed(seed, "gpltrain"),
                         log_every=GPL_TRAIN["steps"], **GPL_TRAIN)
    model, _ = gpl_train(model, dataset, corpus, queries, cfg)
    return model


def adapt_qgen(seed: int, model0, corpus, queries):
    model = copy.deepcopy(model0)
    model.similarity = "cosine"
    steps = QGEN_TRAIN["steps"]
    cfg = TrainRunConfig(steps=steps, batch_size=QGEN_TRAIN["batch_size"],
                         seed=derive_seed(seed, "qgentrain"),
                         learning_rate=QGEN_TRAIN["learning_rate"],
                         log_every=steps)
    model, _ = qgen_train(model, queries, corpus, cfg,
                          loss_cfg=LossConfig(tau=QGEN_TRAIN["tau"],
                                              similarity="cosine"))
    return model


def plant_duplicates(passages, qrels, per_topic_slots=("0", "1")):
    """Near-duplicate copies of some passages, relevant at the same grade."""
    duplicates = [Passage(p.id + "-dup", p.title, p.body + " filler")
                  for p in passages if p.id.endswith(per_topic_slots)]
    planted_qrels = Qrels({qid: dict(grades)
                           for qid, grades in qrels.judgments.items()})
    for qid, grades in qrels.judgments.items():
        for pid, grade in list(grades.items()):
            if pid.endswith(per_topic_slots):
                set_grade(planted_qrels, qid, pid + "-dup", grade)
    return passages + duplicates, planted_qrels


def poison_pools(pools, queries, corpus_ids):
    """Insert the positive's near-duplicate into each query's pool.

    A guard only: in this world BM25 and the dense retriever already mine
    every planted duplicate into its query's pool, so nothing is added.
    """
    lists = {}
    for q in queries:
        lists[q.id] = (q.source_passage_id, pools.lists(pools.find(q.id)))
        dup_id = q.source_passage_id + "-dup"
        if dup_id in corpus_ids and dup_id not in pool_negatives(pools, q.id):
            lists[q.id][1].setdefault("planted", []).append(dup_id)
    return pack_pools(lists)


@dataclass
class ExperimentResult:
    zero_shot: float
    gpl: float
    qgen: float


def run_adaptation(seed: int, temperature: float = 1.0) -> ExperimentResult:
    """Zero-shot vs margin-distilled vs in-batch baseline on the target."""
    model0, _ = train_source_model(seed)
    passages, queries, qrels = make_domain("t", derive_seed(seed, "tgt"))
    zero = ndcg10(model0, queries, passages, qrels)
    generated = generate_for(seed, passages, temperature)
    pools = mine_for(seed, model0, passages, generated)
    dataset = label_for(seed, generated, pools, passages)
    gpl_model = adapt_gpl(seed, model0, passages, generated, dataset)
    qgen_model = adapt_qgen(seed, model0, passages, generated)
    return ExperimentResult(zero,
                            ndcg10(gpl_model, queries, passages, qrels),
                            ndcg10(qgen_model, queries, passages, qrels))


@dataclass
class FalseNegativeResult:
    dup_margins: list
    gpl_margin: float
    gpl_binary: float


def run_false_negative_study(seed: int) -> FalseNegativeResult:
    """Planted near-duplicates: margin labels neutralize them; binary
    labels push genuinely relevant copies away.

    Both arms train on the same labelled stream with the same seed and the
    same batches; only the targets differ (teacher margins vs binary).
    """
    model0, _ = train_source_model(seed)
    originals, queries, qrels = make_domain("t", derive_seed(seed, "tgt"))
    corpus, planted_qrels = plant_duplicates(originals, qrels)
    corpus_ids = {p.id for p in corpus}
    generated = generate_for(seed, originals, 1.0)
    pools = poison_pools(mine_for(seed, model0, corpus, generated),
                         generated, corpus_ids)
    dataset = label_for(seed, generated, pools, corpus)
    dup_margins = [t.margin for t in stream_rows(dataset)
                   if t.neg_id == t.pos_id + "-dup"]
    gpl_margin = adapt_gpl(seed, model0, corpus, generated, dataset)
    gpl_binary = adapt_gpl(seed, model0, corpus, generated,
                           binary_labeled(dataset))
    return FalseNegativeResult(
        dup_margins,
        ndcg10(gpl_margin, queries, corpus, planted_qrels),
        ndcg10(gpl_binary, queries, corpus, planted_qrels))
