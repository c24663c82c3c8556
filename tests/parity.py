"""Result digests for checking that a change alters no trained result.

For each training case the script trains from a fixed seed and prints one
line: the case name, the sha256 of the final weights (embedding then
projection, float64 bytes) and the sha256 of the loss trace (each step and
the float64 bytes of its loss). The `label_tsv` case prints the sha256 of
a label TSV. Run it on two checkouts and compare:

    PYTHONPATH=<checkout>/src python tests/parity.py [case ...]

Identical lines mean bit-identical weights, loss traces and labels. The
training cases are the six pre-training objectives (Condenser on CLS
pooling), `gpl_train`, `qgen_train` with and without mined negatives, and
UDALM through `run_pipeline` on the world of `tests/test_pipeline.py`.
`label_tsv` draws 500 tuples over the toy world's usable queries, about
20 draws each from the query's one negative stream, one query's pool
holding a single negative; `gpl_train` trains on such a stream, and
`qgen_train_negatives` takes each query's first draw. `checkpoint`
prints the sha256 of a saved checkpoint file whose payload spans several
write blocks and whose vocabulary holds quotes, backslashes, non-ASCII
characters and a 10,000-character token. `rerank` prints the sha256 of
the TREC run that `ce_rerank` with the lexical cross-encoder writes from
a dense first stage over the toy world, and `generate` the sha256 of the
queries the mock generator decodes from the toy corpus, its body-less
passages included. `mine` prints the sha256 of the `hard-negatives.jsonl`
that `mine_pools` writes for the toy queries with a BM25 and a cosine
dense retriever over the toy corpus, and `bm25` the sha256 of the float64
scores `BM25Retriever.scores` gives each toy query over the toy corpus.
`tsdae_wide` trains TSDAE on the toy corpus with a d = 8 model whose
vocabulary holds 12,289 = 3 x 4,096 + 1 tokens: three of the vocabulary
gradient's 4,096-row blocks at d = 8 plus one row, which joins the third
block rather than forming a block of its own. The corpus's words take
the last rows and the learning rate is 2.0, so a gradient that differs in
its last bits reaches the weights (at 0.05 the SGD update rounds such a
difference away).
"""

from __future__ import annotations

import hashlib
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from denseadapt.corpus import Passage, Query
from denseadapt.evaluation import ce_rerank, full_rank, write_trec_run
from denseadapt.labeling import build_dataset, write_dataset
from denseadapt.mining import (BM25Retriever, DenseRetriever, PoolColumns,
                               build_bm25_index, mine_pools,
                               write_hard_negatives)
from denseadapt.models import (NUM_RESERVED, init_encoder, lexical_overlap_ce,
                               load_model, save_model)
from denseadapt.pipeline import run_pipeline
from denseadapt.pretraining import PretrainConfig, pretrain
from denseadapt.qgen import (SamplerConfig, compute_budget, generate_queries,
                             mock_generator)
from denseadapt.training import TrainRunConfig, gpl_train, qgen_train
from oracles import pack_pools

WORDS = [f"w{i:02d}" for i in range(40)]
WIDE_VOCAB = 3 * 4_096 + 1


def toy_corpus(n: int = 30) -> list[Passage]:
    """Passages of two to four sentences; every seventh has no body."""
    rng = np.random.default_rng(5)
    passages = []
    for i in range(n):
        sentences = [" ".join(rng.choice(WORDS, size=int(rng.integers(2, 9))))
                     + "." for _ in range(int(rng.integers(2, 5)))]
        passages.append(Passage(f"p{i:02d}", "", "" if i % 7 == 3
                                else " ".join(sentences)))
    return passages


def toy_queries(passages) -> list[Query]:
    return [Query(f"q{p.id}", " ".join(p.body.split()[:2]), p.id)
            for p in passages if p.body]


def toy_lists(passages, queries) -> dict[str, tuple[str, dict]]:
    ids = [p.id for p in passages if p.body]
    return {q.id: (q.source_passage_id, {"bm25": sorted(
        {ids[(i + k) % len(ids)] for k in (1, 2, 5)})})
        for i, q in enumerate(queries)}


def toy_pools(passages, queries) -> PoolColumns:
    return pack_pools(toy_lists(passages, queries))


def model_for(pooling: str = "mean", similarity: str = "dot"):
    model = init_encoder(WORDS, dim=8, seed=3, pooling=pooling,
                         init_scale=0.3)
    model.similarity = similarity
    return model


def pretrain_case(method: str):
    def run():
        passages = toy_corpus()
        model = model_for("cls" if method == "cd" else "mean")
        return pretrain(model, passages, PretrainConfig(
            method=method, steps=12, batch_size=4, learning_rate=0.05, seed=2))
    return run


def wide_tsdae_case():
    fillers = [f"a{i:05d}" for i in range(WIDE_VOCAB - NUM_RESERVED
                                         - len(WORDS))]
    model = init_encoder(WORDS + fillers, dim=8, seed=3, init_scale=0.3)
    assert model.vocab_size == WIDE_VOCAB
    return pretrain(model, toy_corpus(), PretrainConfig(
        method="tsdae", steps=12, batch_size=4, learning_rate=2.0, seed=2))


def gpl_case():
    passages = toy_corpus()
    queries = toy_queries(passages)
    dataset = build_dataset(queries, toy_pools(passages, queries), passages,
                            lexical_overlap_ce(), seed=1, n_tuples=96)
    return gpl_train(model_for(), dataset, passages, queries,
                     TrainRunConfig(steps=24, batch_size=4, seed=4,
                                    learning_rate=0.05))


def qgen_case(with_negatives: bool):
    def run():
        passages = toy_corpus()
        queries = toy_queries(passages)
        pools = toy_pools(passages, queries) if with_negatives else None
        return qgen_train(model_for(similarity="cosine"), queries,
                          passages, TrainRunConfig(steps=12, batch_size=4,
                                                   seed=4, learning_rate=0.05),
                          negatives=pools)
    return run


def udalm_case():
    from test_pipeline import TestUdalmMethod
    with tempfile.TemporaryDirectory() as tmp:
        cfg = TestUdalmMethod().udalm_config(Path(tmp))
        run_pipeline(cfg, "udalm")
        train_dir = cfg.stage_dir("train", scope="udalm")
        model = load_model(train_dir / "model-final.json")
        rows = (train_dir / "loss-trace.csv").read_text().splitlines()[1:]
    trace = [(int(step), float(loss))
             for step, loss in (row.split(",") for row in rows)]
    return model, trace


def label_tsv_case() -> tuple[str]:
    passages = toy_corpus()
    queries = toy_queries(passages)
    lists = toy_lists(passages, queries)
    source, single = lists[queries[0].id]
    lists[queries[0].id] = (source, {"bm25": single["bm25"][:1]})
    dataset = build_dataset(queries, pack_pools(lists), passages,
                            lexical_overlap_ce(), seed=1, n_tuples=500)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.tsv"
        write_dataset(dataset, path)
        return (hashlib.sha256(path.read_bytes()).hexdigest(),)


def checkpoint_case() -> tuple[str]:
    tokens = [f"t{i:04d}" for i in range(5_000)] + [
        'say "hi"', "back\\slash", "na\u00efve", "\u65e5\u672c", "x" * 10_000]
    model = init_encoder(tokens, dim=16, seed=6)
    model.projection = np.random.default_rng(7).normal(size=(16, 16))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        return (hashlib.sha256(path.read_bytes()).hexdigest(),)


def rerank_case() -> tuple[str]:
    passages = toy_corpus()
    queries = toy_queries(passages)
    run = full_rank(model_for(), queries, passages, cutoff=20)
    reranked = ce_rerank(run, lexical_overlap_ce(), queries, passages,
                         top_n=12)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.trec"
        write_trec_run(reranked, path, tag="rerank")
        return (hashlib.sha256(path.read_bytes()).hexdigest(),)


def generate_case() -> tuple[str]:
    passages = toy_corpus()
    queries = generate_queries(mock_generator(passages), passages,
                               compute_budget(len(passages), 120),
                               SamplerConfig(seed=3, temperature=1.5))
    lines = "".join(f"{q.id}\t{q.text}\t{q.source_passage_id}\n"
                    for q in queries)
    return (hashlib.sha256(lines.encode()).hexdigest(),)


def mine_case() -> tuple[str]:
    passages = toy_corpus()
    retrievers = [BM25Retriever(build_bm25_index(passages)),
                  DenseRetriever(model_for(similarity="cosine"), passages)]
    pools = mine_pools(toy_queries(passages), retrievers, n_per_retriever=6)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hard-negatives.jsonl"
        write_hard_negatives(pools, path)
        return (hashlib.sha256(path.read_bytes()).hexdigest(),)


def bm25_case() -> tuple[str]:
    passages = toy_corpus()
    retriever = BM25Retriever(build_bm25_index(passages))
    scores = hashlib.sha256()
    for query in toy_queries(passages):
        scores.update(retriever.scores(query.text).tobytes())
    return (scores.hexdigest(),)


def digest(model, trace) -> tuple[str, str]:
    """(sha256 of the weights, sha256 of the loss trace)."""
    weights = hashlib.sha256()
    for array in (model.embedding, model.projection):
        weights.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    losses = hashlib.sha256()
    for step, loss in trace:
        losses.update(struct.pack("<qd", step, loss))
    return weights.hexdigest(), losses.hexdigest()


def trained(case):
    return lambda: digest(*case())


CASES = {**{m: trained(pretrain_case(m)) for m in
            ("tsdae", "mlm", "ict", "simcse", "ct", "cd")},
         "gpl_train": trained(gpl_case),
         "qgen_train": trained(qgen_case(False)),
         "qgen_train_negatives": trained(qgen_case(True)),
         "udalm": trained(udalm_case),
         "label_tsv": label_tsv_case,
         "checkpoint": checkpoint_case,
         "rerank": rerank_case,
         "generate": generate_case,
         "mine": mine_case,
         "bm25": bm25_case,
         "tsdae_wide": trained(wide_tsdae_case)}


def main(names) -> None:
    for name in names or CASES:
        print(name, *CASES[name]())


if __name__ == "__main__":
    main(sys.argv[1:])
