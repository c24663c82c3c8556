"""Each correctness check passes on real artifacts and fails on a
corrupted copy of the artifact it reads, so none is vacuous."""

import contextlib
import io
import json
import shutil
from dataclasses import replace

import pytest

import checks
from workloads import WORKLOADS, write_config, write_dataset

TINY = replace(
    WORKLOADS["method-sweep"], name="tiny", n_passages=80, vocab_ranks=3000,
    n_topics=6, topic_words=40, mean_len=30.0, n_test_queries=12,
    config={**WORKLOADS["method-sweep"].config,
            "generate": {"total_budget": 60, "max_query_len": 12},
            "mine": {"retrievers": ["bm25", "dense"], "n_per_retriever": 8},
            "train": {"gpl": {"steps": 40, "batch_size": 8,
                              "learning_rate": 0.02, "log_every": 10},
                      "qgen": {"steps": 10, "batch_size": 8,
                               "learning_rate": 0.02, "log_every": 10}},
            "pretrain": {"steps": 3, "batch_size": 4, "learning_rate": 0.01},
            "evaluate": {"metrics": ["ndcg@10", "mrr@10"], "cutoff": 40},
            "rerank": {"top_n": 20}})


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One pipeline run of a tiny method sweep; its directory."""
    from denseadapt import cli

    root = tmp_path_factory.mktemp("tiny")
    inputs = write_dataset(TINY, 3, root / "inputs")
    write_config(TINY, inputs, root / "cache", 3, root / "config.json")
    for command in (("stage", "ingest"), *TINY.commands):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([*command, "--config", str(root / "config.json")],
                     standalone_mode=False)
    return root


@pytest.fixture
def art(built, tmp_path):
    """A private copy of the built artifacts."""
    root = tmp_path / "copy"
    shutil.copytree(built, root)
    config = json.loads((root / "config.json").read_text())
    inputs = {k: root / "inputs" / f"{k}.{ext}" for k, ext in
              (("corpus", "jsonl"), ("queries", "jsonl"), ("qrels", "tsv"))}
    return checks.Artifacts(inputs, root / "cache" / "bench", config)


def _run_all(a):
    for name, *args in TINY.checks:
        getattr(checks, f"check_{name}")(a, *args)


def test_all_checks_pass_on_real_artifacts(art):
    _run_all(art)


def _edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))


def test_changed_margin_fails_label_check(art):
    path = art.shared("label", "gpl-training-data.tsv")

    def edit(lines):
        qid, pos, neg, margin = lines[5].rstrip("\n").split("\t")
        lines[5] = f"{qid}\t{pos}\t{neg}\t{float(margin) + 0.25!r}\n"

    _edit_lines(path, edit)
    with pytest.raises(checks.CheckFailed, match="margin"):
        checks.check_label(art)


def test_negative_outside_the_pool_fails_label_check(art):
    path = art.shared("label", "gpl-training-data.tsv")
    rows = checks.read_label_tsv(path)
    pools = {r["qid"]: set().union(*map(set, r["neg"].values()))
             for r in checks.read_jsonl(art.shared("mine", "hard-negatives.jsonl"))}
    qid, pos, _, margin = rows[0]
    outside = next(p for p in art.corpus() if p not in pools[qid] and p != pos)

    def edit(lines):
        lines[0] = f"{qid}\t{pos}\t{outside}\t{margin!r}\n"

    _edit_lines(path, edit)
    with pytest.raises(checks.CheckFailed, match="not in the mined pool"):
        checks.check_label(art)


def _swap_first_unequal(ranked, score):
    for i in range(len(ranked) - 1):
        if not checks.close(score(ranked[i]), score(ranked[i + 1])):
            ranked[i], ranked[i + 1] = ranked[i + 1], ranked[i]
            return
    raise AssertionError("no two ranks with different scores")


def test_swapped_mined_ranks_fail_mine_check(art):
    path = art.shared("mine", "hard-negatives.jsonl")
    records = checks.read_jsonl(path)
    corpus = art.corpus()
    bm25 = checks.BM25(list(corpus.values()))
    ids = list(corpus)
    record = next(r for r in records if len(r["neg"]["bm25"]) > 2)
    text = next(q["text"] for q in art.gen_queries() if q["_id"] == record["qid"])
    scores = dict(zip(ids, bm25.scores(text).tolist()))
    _swap_first_unequal(record["neg"]["bm25"], scores.get)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    with pytest.raises(checks.CheckFailed, match="bm25 negatives"):
        checks.check_mine(art)


def test_swapped_evaluation_ranks_fail_evaluate_check(art):
    path = art.out / "gpl" / "evaluate" / "run.trec"
    run = checks.read_trec(path)
    qid = next(iter(sorted(run)))
    ranked = run[qid]
    _swap_first_unequal(ranked, lambda row: row[1])
    with open(path, "w") as f:
        for q in sorted(run):
            for rank, (pid, score) in enumerate(run[q], start=1):
                f.write(f"{q} Q0 {pid} {rank} {score!r} gpl\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_evaluate(art, "gpl", sample=len(run))


def test_wrong_report_average_fails_evaluate_and_rerank_checks(art):
    for stage, check in (("evaluate", checks.check_evaluate),
                         ("rerank", checks.check_rerank)):
        path = art.out / "gpl" / stage / "report.json"
        doc = json.loads(path.read_text())
        doc["averages"]["ndcg@10"] += 1e-6
        path.write_text(json.dumps(doc))
        with pytest.raises(checks.CheckFailed, match="ndcg@10"):
            check(art, "gpl")


def test_swapped_rerank_ranks_fail_rerank_check(art):
    path = art.out / "gpl" / "rerank" / "run.trec"
    run = checks.read_trec(path)
    qid = next(q for q in sorted(run)
               if len({s for _, s in run[q]}) > 1)
    _swap_first_unequal(run[qid], lambda row: row[1])
    with open(path, "w") as f:
        for q in sorted(run):
            for rank, (pid, score) in enumerate(run[q], start=1):
                f.write(f"{q} Q0 {pid} {rank} {score!r} gpl+rerank\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_rerank(art, "gpl")


def test_generated_query_with_a_foreign_token_fails_generate_check(art):
    path = art.shared("generate", "gen-queries.jsonl")
    records = checks.read_jsonl(path)
    records[0]["text"] = " ".join(records[0]["text"].split()[:-1] + ["zzzforeign"])
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(checks.CheckFailed, match="zzzforeign"):
        checks.check_generate(art)


def test_untrained_checkpoint_fails_train_check(art):
    shutil.copy(art.shared("ingest", "model-initial.json"),
                art.scoped("gpl", "train", "model-final.json"))
    with pytest.raises(checks.CheckFailed, match="Margin-MSE"):
        checks.check_train(art, "gpl")


def test_initial_weights_fail_pretrain_check(art):
    shutil.copy(art.shared("ingest", "model-initial.json"),
                art.shared("pretrain-tsdae", "model-pretrained.json"))
    with pytest.raises(checks.CheckFailed, match="equals the initial"):
        checks.check_pretrain(art, "tsdae")
