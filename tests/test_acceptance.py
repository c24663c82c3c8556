"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The synthetic-experiment criteria share per-seed worlds through
module-scoped fixtures; everything is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

import synthworld
from denseadapt.corpus import Passage, tokenize
from denseadapt.evaluation import ce_rerank, full_rank, mrr_at_k, ndcg_at_k
from denseadapt.mining import BM25Retriever, DenseRetriever, build_bm25_index
from denseadapt.models import (CrossEncoderScorer, encode_backward, encode_ids,
                               init_encoder, new_grads)
from denseadapt.pretraining import (ct_step, ict_example, init_condensor_head,
                                    mlm_corrupt, simcse_step, split_sentences,
                                    tsdae_corrupt, tsdae_loss)
from denseadapt.qgen import compute_budget
from denseadapt.training import LossConfig, margin_mse_loss, mnrl_loss
from gradcheck import finite_diff_gradcheck
from oracles import (bm25_score, condensor_loss, mlm_loss, pairwise, run_lists,
                     top_k_list)

SEEDS = (0, 4, 6)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)


@pytest.fixture(scope="module")
def adaptation_results():
    """Zero-shot / margin-distilled / in-batch scores per (seed, temperature)."""
    results = {}
    for seed in SEEDS:
        for temperature in (1.0, 10.0):
            results[(seed, temperature)] = synthworld.run_adaptation(
                seed, temperature)
    return results


@pytest.fixture(scope="module")
def false_negative_results():
    return {seed: synthworld.run_false_negative_study(seed) for seed in SEEDS}


def test_criterion_1_budget_rule_exactness():
    start = time.time()
    fiqa = compute_budget(57_600, 250_000)
    robust = compute_budget(528_200, 250_000)
    ok = (fiqa.qpp == 5 and fiqa.effective_corpus_size == 57_600
          and robust.qpp == 3 and robust.effective_corpus_size == 83_333)
    elapsed = time.time() - start
    report(1, "budget-rule exactness", ok and elapsed < 1.0,
           f"qpp {fiqa.qpp}/{robust.qpp}, {elapsed:.3f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_loss_gradients():
    start = time.time()
    tokens = [f"w{i}" for i in range(16)]
    texts = ["w0 w1", "w2 w3 w4", "w5", "w6 w7"]
    worst = 0.0
    for seed in range(20):
        model = init_encoder(tokens, dim=6, seed=seed, init_scale=0.3)
        rng = np.random.default_rng(seed)
        targets = rng.normal(scale=2.0, size=2)

        def margin_fn(m):
            q, qc = encode_ids(m, m.tokens(texts[:2]))
            p, pc = encode_ids(m, m.tokens(texts[2:]))
            n, nc = encode_ids(m, m.tokens(texts[::-2]))
            loss, d = margin_mse_loss((q * p).sum(1) - (q * n).sum(1), targets)
            grads = new_grads(m)
            encode_backward(m, qc, d[:, None] * (p - n), grads)
            encode_backward(m, pc, d[:, None] * q, grads)
            encode_backward(m, nc, -d[:, None] * q, grads)
            return loss, grads

        def mnrl_fn(m):
            q, qc = encode_ids(m, m.tokens(texts))
            p, pc = encode_ids(m, m.tokens(texts[::-1]))
            loss, gq, gp = mnrl_loss(q, p, LossConfig(tau=20.0,
                                                      similarity="cosine"))
            grads = new_grads(m)
            encode_backward(m, qc, gq, grads)
            encode_backward(m, pc, gp, grads)
            return loss, grads

        for fn in (margin_fn, mnrl_fn):
            check = finite_diff_gradcheck(fn, model, tolerance=1e-4, seed=seed)
            worst = max(worst, check.max_rel_err)

    loss_eq, _ = margin_mse_loss(np.array([1.5, -2.0]), np.array([1.5, -2.0]))
    single, _, _ = mnrl_loss(np.array([[1.0, 0.5]]), np.array([[0.2, 2.0]]),
                             LossConfig(tau=5.0, similarity="dot"))
    elapsed = time.time() - start
    ok = worst <= 1e-4 and loss_eq == 0.0 and single == 0.0 and elapsed < 60
    report(2, "loss gradient correctness", ok,
           f"max_rel_err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert loss_eq == 0.0
    assert single == 0.0
    assert elapsed < 60


def _oracle_ndcg(ranked_ids, rels, k):
    dcg = sum(float(rels.get(pid, 0)) / math.log2(i + 2)
              for i, pid in enumerate(ranked_ids[:k]))
    ideal = sorted(rels.values(), reverse=True)[:k]
    idcg = sum(float(g) / math.log2(i + 2) for i, g in enumerate(ideal))
    return dcg / idcg


def _oracle_mrr(ranked_ids, rels, k):
    for i, pid in enumerate(ranked_ids[:k]):
        if rels.get(pid, 0) >= 1:
            return 1.0 / (i + 1)
    return 0.0


def test_criterion_3_metric_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    max_diff = 0.0
    for _ in range(200):
        n_docs = int(rng.integers(5, 80))
        ids = [f"d{i}" for i in range(n_docs)]
        rng.shuffle(ids)
        rels = {ids[int(rng.integers(n_docs))]: int(rng.integers(0, 4))
                for _ in range(int(rng.integers(1, 14)))}
        rels[ids[0]] = max(rels.get(ids[0], 0), 1)
        k = int(rng.integers(1, 16))
        max_diff = max(max_diff,
                       abs(ndcg_at_k(ids, rels, k) - _oracle_ndcg(ids, rels, k)),
                       abs(mrr_at_k(ids, rels, k) - _oracle_mrr(ids, rels, k)))
    hand_one = ndcg_at_k(["x", "rel"], {"rel": 1}, 10)
    hand_two = ndcg_at_k(["b", "a"], {"a": 2, "b": 1}, 10)
    elapsed = time.time() - start
    ok = (max_diff <= 1e-9
          and abs(hand_one - 1 / math.log2(3)) < 1e-9
          and abs(hand_one - 0.6309) < 1e-4
          and abs(hand_two - 0.8597) < 1e-4
          and elapsed < 10)
    report(3, "metric oracle equivalence", ok,
           f"max_diff {max_diff:.1e}, {elapsed:.1f}s")
    assert max_diff <= 1e-9
    assert hand_one == pytest.approx(1 / math.log2(3), abs=1e-9)
    assert hand_two == pytest.approx(0.8597, abs=1e-4)
    assert elapsed < 10


def test_criterion_4_retrieval_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(60)]
    passages = []
    for i in range(10_000):
        body = " ".join(rng.choice(words, size=8))
        passages.append(Passage(f"p{i:05d}", "", body))
    # plant tie cases: identical texts score identically
    passages[100] = Passage("p00100", "", passages[101].body)
    passages[5000] = Passage("p05000", "", passages[5001].body)

    index = build_bm25_index(passages)
    bm25 = BM25Retriever(index)
    model = init_encoder(words, dim=16, seed=1, init_scale=0.3,
                         similarity="dot")
    dense = DenseRetriever(model, passages, similarity="dot")
    dense_scores_all = dense.matrix  # (N, d)

    ok = True
    for qi in range(100):
        query = " ".join(rng.choice(words, size=3))
        q_tokens = tokenize(query)
        got = top_k_list(bm25, query, 10)
        brute = sorted(((p.id, bm25_score(passages, q_tokens, p.id))
                        for p in passages), key=lambda kv: (-kv[1], kv[0]))[:10]
        if [pid for pid, _ in got] != [pid for pid, _ in brute]:
            ok = False
            break
        got_dense = top_k_list(dense, query, 10)
        from denseadapt.models import encode_batch
        q_emb = encode_batch(model, [query])[0]
        scores = dense_scores_all @ q_emb
        brute_dense = sorted(zip((p.id for p in passages), scores.tolist()),
                             key=lambda kv: (-kv[1], kv[0]))[:10]
        if [pid for pid, _ in got_dense] != [pid for pid, _ in brute_dense]:
            ok = False
            break
    elapsed = time.time() - start
    report(4, "retrieval oracle equivalence", ok and elapsed < 60,
           f"10k corpus, 100 queries, {elapsed:.1f}s")
    assert ok
    assert elapsed < 60


def test_criterion_5_synthetic_domain_adaptation(adaptation_results):
    details = []
    ok = True
    for seed in SEEDS:
        r = adaptation_results[(seed, 1.0)]
        ok = ok and r.gpl >= r.zero_shot + 0.05 and r.gpl >= r.qgen
        details.append(f"s{seed}: zero {r.zero_shot:.3f} gpl {r.gpl:.3f} "
                       f"qgen {r.qgen:.3f}")
    report(5, "synthetic domain adaptation", ok, "; ".join(details))
    for seed in SEEDS:
        r = adaptation_results[(seed, 1.0)]
        assert r.gpl >= r.zero_shot + 0.05, f"seed {seed}: {r}"
        assert r.gpl >= r.qgen, f"seed {seed}: {r}"


def test_criterion_6a_planted_duplicate_margins(false_negative_results):
    details = []
    ok = True
    for seed in SEEDS:
        fn = false_negative_results[seed]
        worst = max(abs(m) for m in fn.dup_margins) if fn.dup_margins else None
        ok = ok and fn.dup_margins and worst <= 0.05
        details.append(f"s{seed}: {len(fn.dup_margins)} tuples, "
                       f"max|margin| {worst}")
    report(6, "false-negative margins (a)", ok, "; ".join(details))
    for seed in SEEDS:
        fn = false_negative_results[seed]
        assert fn.dup_margins, f"seed {seed}: no duplicate tuples sampled"
        assert max(abs(m) for m in fn.dup_margins) <= 0.05


def test_criterion_6b_false_negative_training(false_negative_results):
    """Margin labels beat binary labels on the same labelled stream.

    Both arms see the same tuples, seed and batches; only the targets
    differ, so the contrast isolates what the labels do with the planted
    duplicates among the mined negatives.
    """
    details = []
    ok = True
    for seed in SEEDS:
        fn = false_negative_results[seed]
        ok = ok and fn.gpl_margin > fn.gpl_binary
        details.append(f"s{seed}: margin {fn.gpl_margin:.3f} "
                       f"binary {fn.gpl_binary:.3f}")
    report(6, "false-negative robustness (b)", ok, "; ".join(details))
    for seed in SEEDS:
        fn = false_negative_results[seed]
        assert fn.gpl_margin > fn.gpl_binary, \
            f"seed {seed}: margin {fn.gpl_margin} binary {fn.gpl_binary}"


def test_criterion_7_temperature_robustness(adaptation_results):
    details = []
    ok = True
    for seed in SEEDS:
        r = adaptation_results[(seed, 10.0)]
        ok = ok and r.gpl >= r.zero_shot and r.qgen < r.zero_shot
        details.append(f"s{seed}: zero {r.zero_shot:.3f} gpl {r.gpl:.3f} "
                       f"qgen {r.qgen:.3f}")
    report(7, "temperature robustness", ok, "; ".join(details))
    for seed in SEEDS:
        r = adaptation_results[(seed, 10.0)]
        assert r.gpl >= r.zero_shot, f"seed {seed}: {r}"
        assert r.qgen < r.zero_shot, f"seed {seed}: {r}"


def test_criterion_8_pretraining_objectives():
    start = time.time()
    tokens = [f"w{i}" for i in range(20)]
    model = init_encoder(tokens, dim=6, seed=3, init_scale=0.3)
    sample = model.token_ids("w0 w3 w5 w7 w9 w11 w13")
    checks = {}

    decoder = init_condensor_head(model.dim, seed=1)
    corrupted = tsdae_corrupt(sample, 0.6, rng=2)
    params = {"embedding": model.embedding, "projection": model.projection,
              "decoder": decoder}

    def tsdae_fn(p):
        model.embedding, model.projection = p["embedding"], p["projection"]
        return tsdae_loss(model, p["decoder"], sample, corrupted)

    checks["tsdae"] = finite_diff_gradcheck(tsdae_fn, params, tolerance=1e-4)

    def mlm_fn(m):
        masked, positions, _ = mlm_corrupt(sample, m.vocab_size, 0.3, rng=5)
        return mlm_loss(m, sample, masked, positions)

    checks["mlm"] = finite_diff_gradcheck(mlm_fn, model, tolerance=1e-4)

    sentences = ["w0 w1 w2.", "w3 w4.", "w5 w6 w7."]
    pairs = [ict_example(sentences, rng=s) for s in range(3)]
    cfg = LossConfig(tau=10.0, similarity="cosine")

    def ict_fn(m):
        q, qc = encode_ids(m, m.tokens([t for t, _ in pairs]))
        c, cc = encode_ids(m, m.tokens([" ".join(t) for _, t in pairs]))
        loss, gq, gc = mnrl_loss(q, c, cfg)
        grads = new_grads(m)
        encode_backward(m, qc, gq, grads)
        encode_backward(m, cc, gc, grads)
        return loss, grads

    checks["ict"] = finite_diff_gradcheck(ict_fn, model, tolerance=1e-4)

    checks["simcse"] = finite_diff_gradcheck(
        lambda m: simcse_step(m, m.tokens(["w0 w1", "w2 w3", "w4 w5"]), cfg,
                              0.1, rng=7),
        model, tolerance=1e-4)

    other = init_encoder(tokens, dim=6, seed=9, init_scale=0.3)
    ct_tokens = model.tokens(["w0 w1", "w2 w3", "w4"])
    ct_params = {"a_emb": model.embedding, "a_proj": model.projection,
                 "b_emb": other.embedding, "b_proj": other.projection}

    def ct_fn(p):
        model.embedding, model.projection = p["a_emb"], p["a_proj"]
        other.embedding, other.projection = p["b_emb"], p["b_proj"]
        loss, ga, gb = ct_step(ct_tokens, model, other, cfg)
        return loss, {"a_emb": ga["embedding"], "a_proj": ga["projection"],
                      "b_emb": gb["embedding"], "b_proj": gb["projection"]}

    checks["ct"] = finite_diff_gradcheck(ct_fn, ct_params, tolerance=1e-4)

    cls_model = init_encoder(tokens, dim=6, seed=11, pooling="cls",
                             init_scale=0.3)
    head = init_condensor_head(6, seed=12)
    cd_params = {"embedding": cls_model.embedding,
                 "projection": cls_model.projection, "head": head}

    def cd_fn(p):
        cls_model.embedding, cls_model.projection = p["embedding"], p["projection"]
        return condensor_loss(cls_model, p["head"], sample, 0.3, rng=13)

    checks["cd"] = finite_diff_gradcheck(cd_fn, cd_params, tolerance=1e-4)

    # statistics: survivor counts, the 80/10/10 split, removal frequency
    survivors_ok = all(
        len(tsdae_corrupt([f"t{i}" for i in range(n)], 0.6, rng=n)) ==
        max(1, n - math.floor(0.6 * n)) for n in range(1, 60))

    counts = {"mask": 0, "random": 0, "keep": 0}
    total = 0
    ids = list(range(3, 13))
    for i in range(10_000):
        _, _, actions = mlm_corrupt(ids, vocab_size=30, mask_ratio=0.1, rng=i)
        for a in actions:
            counts[a] += 1
            total += 1
    split_ok = all(
        abs(counts[a] - total * p) <= 3 * math.sqrt(total * p * (1 - p))
        for a, p in (("mask", 0.8), ("random", 0.1), ("keep", 0.1)))

    removed = 0
    three = ["a one.", "b two.", "c three."]
    for i in range(10_000):
        _, kept = ict_example(three, mask_prob=0.9, rng=i)
        removed += len(split_sentences(" ".join(kept))) == 2
    removal_ok = abs(removed - 9000) <= 3 * math.sqrt(10_000 * 0.9 * 0.1)

    elapsed = time.time() - start
    grad_ok = all(c.passed for c in checks.values())
    ok = grad_ok and survivors_ok and split_ok and removal_ok
    worst = max(c.max_rel_err for c in checks.values())
    report(8, "pre-training objective sanity", ok,
           f"worst gradcheck {worst:.1e}, stats 3-sigma ok, {elapsed:.1f}s")
    assert grad_ok, {k: v for k, v in checks.items() if not v.passed}
    assert survivors_ok
    assert split_ok, counts
    assert removal_ok, removed


def test_criterion_9_end_to_end_determinism(tmp_path):
    from click.testing import CliRunner
    from denseadapt.cli import main as cli_main

    def write_world(root):
        root.mkdir(parents=True, exist_ok=True)
        words = [f"t{i:02d}" for i in range(24)]
        with open(root / "corpus.jsonl", "w") as f:
            for i in range(12):
                body = " ".join([words[(2 * i) % 24], words[(2 * i + 1) % 24],
                                 words[(i + 5) % 24]])
                f.write(json.dumps({"_id": f"p{i:02d}", "title": "",
                                    "text": body}) + "\n")
        with open(root / "queries.jsonl", "w") as f:
            for i in range(0, 12, 2):
                f.write(json.dumps({"_id": f"q{i:02d}",
                                    "text": words[(2 * i) % 24]}) + "\n")
        with open(root / "qrels.tsv", "w") as f:
            for i in range(0, 12, 2):
                f.write(f"q{i:02d}\tp{i:02d}\t1\n")

    def run(tag):
        root = tmp_path / tag
        write_world(root)
        config = {
            "dataset": "toy", "seed": 17,
            "paths": {"corpus": str(root / "corpus.jsonl"),
                      "queries": str(root / "queries.jsonl"),
                      "qrels": str(root / "qrels.tsv"),
                      "output": str(root / "out")},
            "encoder": {"dim": 8},
            "generate": {"total_budget": 36, "max_query_len": 4},
            "mine": {"n_per_retriever": 5},
            "train": {"gpl": {"steps": 30, "batch_size": 4,
                              "learning_rate": 0.01}},
            "evaluate": {"cutoff": 12},
        }
        config_path = root / "config.json"
        config_path.write_text(json.dumps(config))
        runner = CliRunner()
        result = runner.invoke(cli_main, ["run", "--config", str(config_path),
                                          "--method", "gpl"])
        assert result.exit_code == 0, result.output
        base = root / "out" / "toy"
        artifacts = {
            "gen-queries.jsonl":
                (base / "shared" / "generate" / "gen-queries.jsonl").read_bytes(),
            "hard-negatives.jsonl":
                (base / "shared" / "mine" / "hard-negatives.jsonl").read_bytes(),
            "gpl-training-data.tsv":
                (base / "shared" / "label" / "gpl-training-data.tsv").read_bytes(),
        }
        with open(base / "gpl" / "evaluate" / "report.json") as f:
            doc = json.load(f)
        return artifacts, (doc["averages"], doc["per_query"])

    artifacts_a, report_a = run("a")
    artifacts_b, report_b = run("b")
    ok = artifacts_a == artifacts_b and report_a == report_b
    report(9, "end-to-end determinism", ok,
           "byte-identical artifacts and reports")
    assert artifacts_a == artifacts_b
    assert report_a == report_b


def test_criterion_10_rerank_upper_bound():
    from denseadapt.corpus import passage_text
    from denseadapt.util import derive_seed

    model0, _ = synthworld.train_source_model(SEEDS[0])
    passages, queries, qrels = synthworld.make_domain(
        "t", derive_seed(SEEDS[0], "tgt"))
    run = full_rank(model0, queries, passages, cutoff=len(passages))
    text_to_pid = {passage_text(p): p.id for p in passages}
    query_by_text = {q.text: q.id for q in queries}
    oracle = CrossEncoderScorer(pairwise(
        lambda qt, pt: float(qrels.grades_for(query_by_text[qt])
                             .get(text_to_pid[pt], 0))),
        name="grade-oracle")
    reranked = ce_rerank(run, oracle, queries, passages, top_n=len(passages))
    first = {qid: [pid for pid, _ in ranking]
             for qid, ranking in run_lists(run).items()}
    second = {qid: [pid for pid, _ in ranking]
              for qid, ranking in run_lists(reranked).items()}
    ok = True
    worst = 0.0
    for q in queries:
        before = ndcg_at_k(first[q.id], qrels.grades_for(q.id), 10)
        after = ndcg_at_k(second[q.id], qrels.grades_for(q.id), 10)
        worst = min(worst, after - before)
        if after < before - 1e-12:
            ok = False
    report(10, "re-ranking upper bound", ok, f"min per-query gain {worst:+.4f}")
    assert ok
