"""Metric hand values, oracle equivalence against an independent formula
implementation, ranking/report invariants, and re-ranking behavior."""

import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denseadapt import evaluation
from denseadapt.corpus import ParseError, Passage, Qrels, Query, passage_text
from denseadapt.evaluation import (ce_rerank, evaluate, full_rank, mrr_at_k,
                                   ndcg_at_k, read_trec_run, write_trec_run)
from denseadapt.mining import DenseRetriever
from denseadapt.models import CrossEncoderScorer, init_encoder
from oracles import pack_run, pairwise, run_lists, top_k_list, trec_run_text


# independent straight-from-formula oracle, kept deliberately naive
def oracle_ndcg(ranked_ids, rels, k, gain="linear"):
    def g(grade):
        return float(grade) if gain == "linear" else float(2 ** grade - 1)

    dcg = 0.0
    for i, pid in enumerate(ranked_ids[:k]):
        dcg += g(rels.get(pid, 0)) / math.log2(i + 2)
    ideal = sorted(rels.values(), reverse=True)[:k]
    idcg = 0.0
    for i, grade in enumerate(ideal):
        idcg += g(grade) / math.log2(i + 2)
    return dcg / idcg


def oracle_mrr(ranked_ids, rels, k):
    for i, pid in enumerate(ranked_ids[:k]):
        if rels.get(pid, 0) >= 1:
            return 1.0 / (i + 1)
    return 0.0


class TestNdcg:
    def test_perfect_ranking_is_one(self):
        rels = {"a": 2, "b": 1, "c": 1}
        ranking = ["a", "b", "c", "x", "y"]
        assert ndcg_at_k(ranking, rels, 10) == pytest.approx(1.0)

    def test_single_relevant_at_rank_two(self):
        value = ndcg_at_k(["x", "rel"], {"rel": 1}, 10)
        assert value == pytest.approx(1.0 / math.log2(3), abs=1e-9)
        assert value == pytest.approx(0.6309, abs=1e-4)

    def test_graded_hand_value(self):
        value = ndcg_at_k(["b", "a"], {"a": 2, "b": 1}, 10)
        expected = (1.0 + 2.0 / math.log2(3)) / (2.0 + 1.0 / math.log2(3))
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(0.8597, abs=1e-4)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], {"a": 1}, 0)

    def test_no_positive_grades_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], {"a": 0}, 10)

    def test_monotone_transformation_invariance(self):
        # ranking order is all that matters, not the scores behind it
        rels = {"a": 2, "b": 1}
        ids = ["b", "x", "a"]
        scored_one = [(pid, 10.0 - i) for i, pid in enumerate(ids)]
        scored_two = [(pid, 1000.0 - i * i) for i, pid in enumerate(ids)]
        assert ndcg_at_k(scored_one, rels, 10) == ndcg_at_k(scored_two, rels, 10)

    def test_exponential_gain_flag(self):
        rels = {"a": 2, "b": 1}
        linear = ndcg_at_k(["b", "a"], rels, 10, gain="linear")
        exponential = ndcg_at_k(["b", "a"], rels, 10, gain="exp")
        assert linear != exponential
        assert exponential == pytest.approx(
            oracle_ndcg(["b", "a"], rels, 10, gain="exp"))

    def test_in_unit_interval_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            ids = [f"d{i}" for i in range(20)]
            rng.shuffle(ids)
            rels = {f"d{i}": int(rng.integers(0, 3)) for i in range(8)}
            if not any(v > 0 for v in rels.values()):
                rels["d0"] = 1
            value = ndcg_at_k(ids, rels, 10)
            assert 0.0 <= value <= 1.0


class TestMrr:
    def test_first_relevant_rank_four(self):
        assert mrr_at_k(["x1", "x2", "x3", "rel"], {"rel": 1}, 10) == 0.25

    def test_no_relevant_in_top_k(self):
        ranking = [f"x{i}" for i in range(10)] + ["rel"]
        assert mrr_at_k(ranking, {"rel": 1}, 10) == 0.0

    def test_rank_one(self):
        assert mrr_at_k(["rel"], {"rel": 2}, 10) == 1.0


class TestOracleEquivalence:
    def test_200_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_docs = int(rng.integers(5, 60))
            ids = [f"d{i}" for i in range(n_docs)]
            rng.shuffle(ids)
            n_judged = int(rng.integers(1, min(n_docs, 12) + 1))
            rels = {ids[int(rng.integers(n_docs))]: int(rng.integers(0, 4))
                    for _ in range(n_judged)}
            rels[ids[0]] = max(rels.get(ids[0], 0), 1)  # ensure a positive
            k = int(rng.integers(1, 15))
            assert ndcg_at_k(ids, rels, k) == \
                pytest.approx(oracle_ndcg(ids, rels, k), abs=1e-9)
            assert mrr_at_k(ids, rels, k) == \
                pytest.approx(oracle_mrr(ids, rels, k), abs=1e-9)


def tiny_world():
    words = [f"w{i}" for i in range(12)]
    passages = [Passage(f"p{i}", "", f"w{i} w{(i+1) % 12}") for i in range(12)]
    queries = [Query("q0", "w0"), Query("q1", "w5")]
    qrels = Qrels({"q0": {"p0": 1, "p11": 1}, "q1": {"p5": 1, "p4": 1}})
    model = init_encoder(words, dim=8, seed=3, init_scale=0.4)
    return passages, queries, qrels, model


class TestFullRank:
    def test_cutoff_one_is_argmax(self):
        passages, queries, _, model = tiny_world()
        run = full_rank(model, queries, passages, cutoff=1)
        retriever = DenseRetriever(model, passages)
        for q in queries:
            assert run_lists(run)[q.id] == top_k_list(retriever, q.text, 1)

    def test_matches_retrieve_top_k(self):
        passages, queries, _, model = tiny_world()
        run = full_rank(model, queries, passages, cutoff=5)
        retriever = DenseRetriever(model, passages)
        for q in queries:
            assert run_lists(run)[q.id] == top_k_list(retriever, q.text, 5)

    def test_scores_non_increasing(self):
        passages, queries, _, model = tiny_world()
        run = full_rank(model, queries, passages, cutoff=12)
        for ranked in run_lists(run).values():
            scores = [s for _, s in ranked]
            assert scores == sorted(scores, reverse=True)


# Distinct ids whose corpus order is not their sorted order.
shuffled_ids = st.lists(st.text("abc", min_size=1, max_size=4), min_size=1,
                        max_size=30, unique=True)
# Small integer vectors, none zero, so cosine is defined for every text.
nonzero_vectors = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)


class TestRunBytes:
    @settings(max_examples=150, deadline=None)
    @given(shuffled_ids, st.sampled_from(["dot", "cosine"]),
           st.lists(nonzero_vectors, min_size=3, max_size=3), st.data())
    def test_full_rank_writes_the_retrieve_top_k_lists(self, ids, similarity,
                                                       vectors, data):
        """The columnar run of `full_rank` writes the bytes of the
        `retrieve_top_k` lists written line by line. One token per passage
        from three small integer vectors makes long exact ties, which
        straddle the cut, and the cutoff reaches past the corpus size."""
        model = init_encoder(["t0", "t1", "t2"], dim=2, seed=0,
                             similarity=similarity)
        for j, v in enumerate(vectors):
            model.embedding[model.vocab[f"t{j}"]] = v
        passages = [Passage(pid, "", f"t{data.draw(st.integers(0, 2))}")
                    for pid in ids]
        queries = [Query("qb", "t0"), Query("qa", "t1"), Query("qc", "t2")]
        cutoff = data.draw(st.integers(1, len(ids) + 3))
        retriever = DenseRetriever(model, passages)
        expected = trec_run_text(
            {q.id: top_k_list(retriever, q.text, cutoff) for q in queries},
            tag="t")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.trec"
            write_trec_run(full_rank(model, queries, passages, cutoff), path,
                           tag="t")
            assert path.read_text(encoding="utf-8") == expected


def traced_held(fn):
    """fn()'s result and the traced memory it still holds on return."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


class TestRunMemory:
    """A run holds an int32 row and a float64 score per entry plus one
    passage-id table: at most 16 bytes per entry for 100 queries ranked
    to a cutoff of 1,000 (per-entry (pid, score) tuples take about 97)."""

    N_QUERIES, CUTOFF, BOUND = 100, 1000, 16

    def world(self):
        words = [f"w{i}" for i in range(50)]
        passages = [Passage(f"p{i:04d}", "", f"w{i % 50} w{i * 7 % 50}")
                    for i in range(1200)]
        queries = [Query(f"q{i:03d}", f"w{i % 50} w{i * 3 % 50}")
                   for i in range(self.N_QUERIES)]
        return passages, queries, init_encoder(words, dim=8, seed=0)

    def check(self, run, held):
        n_entries = sum(map(len, run_lists(run).values()))
        assert n_entries == self.N_QUERIES * self.CUTOFF
        assert held <= self.BOUND * n_entries, held / n_entries

    def test_full_rank(self):
        passages, queries, model = self.world()
        self.check(*traced_held(
            lambda: full_rank(model, queries, passages, self.CUTOFF)))

    def test_read_trec_run(self, tmp_path):
        passages, queries, model = self.world()
        path = tmp_path / "run.trec"
        write_trec_run(full_rank(model, queries, passages, self.CUTOFF), path)
        self.check(*traced_held(lambda: read_trec_run(path)))


class TestEvaluate:
    """`evaluate` scores a run that `full_rank` ranked."""

    def test_deterministic(self):
        passages, queries, qrels, model = tiny_world()
        a = evaluate(full_rank(model, queries, passages), queries, qrels)
        b = evaluate(full_rank(model, queries, passages), queries, qrels)
        assert a.per_query == b.per_query
        assert a.averages == b.averages

    def test_average_is_mean_of_per_query(self):
        passages, queries, qrels, model = tiny_world()
        report = evaluate(full_rank(model, queries, passages), queries, qrels)
        for metric, values in report.per_query.items():
            assert report.averages[metric] == \
                pytest.approx(sum(values.values()) / len(values))

    def test_disjoint_union_weighted_mean(self):
        passages, queries, qrels, model = tiny_world()

        def report(qs):
            return evaluate(full_rank(model, qs, passages), qs, qrels)

        first, second = report([queries[0]]), report([queries[1]])
        union = report(queries)
        for metric in union.averages:
            expected = (first.averages[metric] + second.averages[metric]) / 2
            assert union.averages[metric] == pytest.approx(expected)

    def test_unjudged_query_skipped(self):
        passages, queries, qrels, model = tiny_world()
        queries = queries + [Query("q-unjudged", "w3")]
        report = evaluate(full_rank(model, queries, passages), queries, qrels)
        assert "q-unjudged" not in report.per_query["ndcg@10"]
        assert report.config["n_skipped"] == 1

    def test_zero_judged_queries_rejected(self):
        passages, _, _, model = tiny_world()
        queries = [Query("qx", "w0")]
        with pytest.raises(ValueError):
            evaluate(full_rank(model, queries, passages), queries, Qrels({}))

    def test_per_query_values_are_the_oracle_metrics_of_the_run(self):
        passages, queries, qrels, model = tiny_world()
        run = full_rank(model, queries, passages, cutoff=6)
        report = evaluate(run, queries, qrels, ("ndcg@10", "mrr@3", "ndcg"),
                          cutoff=6, gain="exp")
        for i, qid in enumerate(run.qids):
            rels = qrels.grades_for(qid)
            assert report.per_query["ndcg@10"][qid] == pytest.approx(
                oracle_ndcg(run.top_ids(i), rels, 10, gain="exp"))
            assert report.per_query["ndcg"][qid] == \
                report.per_query["ndcg@10"][qid]
            assert report.per_query["mrr@3"][qid] == \
                oracle_mrr(run.top_ids(i), rels, 3)
        assert report.config["cutoff"] == 6

    @pytest.mark.parametrize("metrics, gain, message", [
        (("map@10",), "linear", "unknown metric 'map@10'"),
        (("ndcg@x",), "linear", "unknown metric 'ndcg@x'"),
        (("mrr@0",), "linear", "unknown metric 'mrr@0'"),
        (("ndcg@",), "linear", "unknown metric 'ndcg@'"),
        ((), "linear", "no metrics to evaluate"),
        (("mrr@10",), "log", "unknown gain 'log'"),
    ])
    def test_bad_metric_or_gain_rejected_before_scoring(self, metrics, gain,
                                                        message):
        passages, queries, qrels, model = tiny_world()
        run = full_rank(model, queries, passages)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(run, queries, qrels, metrics, gain=gain)


class TestCeRerank:
    def test_same_scorer_is_noop_on_prefix(self):
        passages, queries, qrels, model = tiny_world()
        run = full_rank(model, queries, passages, cutoff=6)
        mirror = {(q.id, pid): score for q in queries
                  for pid, score in run_lists(run)[q.id]}
        texts = {f"w{i} w{(i+1) % 12}": f"p{i}" for i in range(12)}
        ce = CrossEncoderScorer(pairwise(
            lambda qt, pt: mirror[({q.text: q.id for q in queries}[qt],
                                   texts[pt])]), name="mirror")
        reranked = ce_rerank(run, ce, queries, passages, top_n=6)
        for qid in run_lists(run):
            assert [pid for pid, _ in run_lists(reranked)[qid]] == \
                [pid for pid, _ in run_lists(run)[qid]]

    def test_negated_scorer_reverses_prefix(self):
        passages, queries, qrels, model = tiny_world()
        run = full_rank(model, queries, passages, cutoff=6)
        mirror = {(q.id, pid): score for q in queries
                  for pid, score in run_lists(run)[q.id]}
        texts = {f"w{i} w{(i+1) % 12}": f"p{i}" for i in range(12)}
        ce = CrossEncoderScorer(pairwise(
            lambda qt, pt: -mirror[({q.text: q.id for q in queries}[qt],
                                    texts[pt])]), name="neg")
        reranked = ce_rerank(run, ce, queries, passages, top_n=6)
        for qid in run_lists(run):
            got = [pid for pid, _ in run_lists(reranked)[qid]]
            expected = [pid for pid, _ in reversed(run_lists(run)[qid])]
            # ties (if any) may reorder by id; scores here are all distinct
            assert got == expected

    def test_grade_revealing_ce_never_hurts(self):
        passages, queries, qrels, model = tiny_world()
        run = full_rank(model, queries, passages, cutoff=12)
        passage_by_text = {f"w{i} w{(i+1) % 12}": f"p{i}" for i in range(12)}
        query_by_text = {q.text: q.id for q in queries}
        ce = CrossEncoderScorer(pairwise(
            lambda qt, pt: float(
                qrels.grades_for(query_by_text[qt]).get(passage_by_text[pt], 0))),
            name="grade-oracle")
        reranked = ce_rerank(run, ce, queries, passages, top_n=12)
        for q in queries:
            rels = qrels.grades_for(q.id)
            before = ndcg_at_k([pid for pid, _ in run_lists(run)[q.id]],
                               rels, 10)
            after = ndcg_at_k([pid for pid, _ in run_lists(reranked)[q.id]],
                              rels, 10)
            assert after >= before - 1e-12

    def test_candidates_beyond_top_n_dropped(self):
        passages, queries, _, model = tiny_world()
        run = full_rank(model, queries, passages, cutoff=12)
        ce = CrossEncoderScorer(pairwise(lambda qt, pt: 0.0), name="flat")
        reranked = ce_rerank(run, ce, queries, passages, top_n=4)
        assert all(len(r) == 4 for r in run_lists(reranked).values())

    @pytest.mark.parametrize("block, groups", [
        (None, [[0, 1, 2, 3, 4]]),
        (1, [[0], [1], [2], [3], [4]]),
        (7, [[0, 1], [2], [3], [4]]),
        (8, [[0, 1], [2, 3], [4]]),
        (12, [[0, 1, 2], [3, 4]]),
        (20, [[0, 1, 2, 3, 4]]),
    ])
    def test_one_batch_per_block_of_whole_queries(self, monkeypatch, block,
                                                  groups):
        """Each call scores whole queries' top n, in run order, as many
        queries as fit in a block of pairs; a query that does not fit
        alone has a call of its own. Here the queries have 5, 2, 5, 3
        and 5 candidates in their top 5."""
        passages, _, _, model = tiny_world()
        queries = [Query(f"q{i}", f"w{i} w{3 * i % 12}") for i in range(5)]
        full = full_rank(model, queries, passages, cutoff=12)
        run = pack_run({q.id: run_lists(full)[q.id][:n]
                          for q, n in zip(queries, [7, 2, 5, 3, 12])})
        texts = {p.id: passage_text(p) for p in passages}
        if block is not None:
            monkeypatch.setattr(evaluation, "_BLOCK", block)
        batches = []

        def batch(query_texts, passage_texts):
            batches.append((list(query_texts), list(passage_texts)))
            return [0.0] * len(query_texts)

        ce_rerank(run, CrossEncoderScorer(batch), queries,
                  passages, top_n=5)
        assert batches == [
            ([queries[i].text for i in group
              for _ in run_lists(run)[queries[i].id][:5]],
             [texts[pid] for i in group
              for pid, _ in run_lists(run)[queries[i].id][:5]])
            for group in groups]

    def test_equal_scores_come_out_in_passage_id_order(self, tmp_path):
        """Tied cross-encoder scores are ordered by passage id, not by
        corpus order or first-stage rank, whether the run was packed from
        lists or read back from a file."""
        order = ["p3", "p10", "p1", "p4", "p0", "p2"]
        passages = [Passage(pid, "", "x" if pid in ("p4", "p10", "p1") else "y")
                    for pid in order]
        queries = [Query("q", "x")]
        run = pack_run({"q": [(pid, float(-i))
                              for i, pid in enumerate(order)]})
        path = tmp_path / "run.trec"
        write_trec_run(run, path)
        ce = CrossEncoderScorer(pairwise(lambda qt, pt: float(qt == pt)),
                                name="match")
        for first_stage in (run, read_trec_run(path)):
            reranked = ce_rerank(first_stage, ce, queries, passages, top_n=5)
            assert run_lists(reranked)["q"] == [
                ("p1", 1.0), ("p10", 1.0), ("p4", 1.0), ("p0", 0.0),
                ("p3", 0.0)]

    @pytest.mark.parametrize("top_n", [0, -1])
    def test_top_n_below_one_rejected(self, top_n):
        passages, queries, _, model = tiny_world()
        run = full_rank(model, queries, passages, cutoff=3)
        ce = CrossEncoderScorer(pairwise(lambda qt, pt: 0.0), name="flat")
        with pytest.raises(ValueError, match="top_n must be >= 1"):
            ce_rerank(run, ce, queries, passages, top_n=top_n)


class TestTrecRunOutput:
    def test_format(self, tmp_path):
        run = pack_run({"q1": [("d2", 1.5), ("d1", 0.5)]})
        path = tmp_path / "run.trec"
        write_trec_run(run, path, tag="test")
        lines = path.read_text().splitlines()
        assert lines[0] == "q1 Q0 d2 1 1.5 test"
        assert lines[1] == "q1 Q0 d1 2 0.5 test"

    def test_read_inverts_write(self, tmp_path):
        scores = [7.0, 7.0, 1 / 3, 0.1 + 0.2, -0.0, -2.5e-300]
        run = pack_run({"q2": [(f"d{i}", s) for i, s in enumerate(scores)],
                          "q1": [("d9", math.pi)]})
        path = tmp_path / "run.trec"
        write_trec_run(run, path, tag="test")
        back = read_trec_run(path)
        assert run_lists(back) == {"q1": run_lists(run)["q1"],
                                   "q2": run_lists(run)["q2"]}
        assert list(run_lists(back)) == ["q1", "q2"]
        assert all(math.copysign(1.0, a[1]) == math.copysign(1.0, b[1])
                   for a, b in zip(run_lists(back)["q2"],
                                   run_lists(run)["q2"]))

    def test_short_line_names_its_location(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d2 1 1.5 test\nq1 Q0 d1 2\n")
        with pytest.raises(ParseError, match=f"{path}:2:"):
            read_trec_run(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-Infinity"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        path = tmp_path / "run.trec"
        path.write_text(f"q1 Q0 d2 1 1.5 test\nq1 Q0 d1 2 {score} test\n")
        with pytest.raises(ParseError, match=f"{path}:2: .*not finite"):
            read_trec_run(path)

    def test_passage_twice_in_a_query_rejected(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q1 Q0 d1 1 3 t\nq2 Q0 d1 1 3 t\nq1 Q0 d2 2 2 t\n"
                        "q1 Q0 d1 3 1 t\nq1 Q0 d2 4 0 t\n")
        with pytest.raises(ParseError, match=f"{path}:4: passage 'd1' listed "
                                             f"twice for query 'q1'"):
            read_trec_run(path)

    def test_interleaved_queries_are_gathered(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("q2 Q0 d1 1 3 t\nq1 Q0 d1 1 3 t\nq2 Q0 d2 2 2 t\n")
        back = read_trec_run(path)
        assert list(run_lists(back)) == ["q2", "q1"]
        assert run_lists(back) == {"q2": [("d1", 3.0), ("d2", 2.0)],
                                "q1": [("d1", 3.0)]}
