"""Cross-encoder margins, negative sampling, dataset assembly and round-trip."""

import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from denseadapt.corpus import ParseError, Passage, Query, passage_text
from denseadapt.labeling import (_BLOCK, GPLDataset, build_dataset,
                                 read_dataset, sample_tuple, write_dataset)
from denseadapt.models import (CrossEncoderScorer, init_encoder,
                               lexical_overlap_ce)
from denseadapt.training import tuple_batches
from denseadapt.util import derive_seed
from oracles import (binary_relevance_labels, ce_margin,
                     lexical_overlap_score, pack_pools, pack_tuples,
                     pairwise, stream_rows)


def fixed_ce(scores: dict) -> CrossEncoderScorer:
    return CrossEncoderScorer(pairwise(lambda q, p: scores[(q, p)]),
                              name="fixed")


def make_pool(source, negatives):
    """One query's pool as `pack_pools` takes it."""
    return source, {"bm25": list(negatives)}


pack = pack_pools


class TestCeMargin:
    def test_values_from_label_study(self):
        ce = fixed_ce({("q", "pos"): 10.3, ("q", "neg1"): 8.2,
                       ("q", "neg2"): 2.0})
        assert ce_margin(ce, "q", "pos", "neg1") == pytest.approx(2.1)
        assert ce_margin(ce, "q", "pos", "neg2") == pytest.approx(8.3)

    def test_identical_texts_zero_margin(self):
        ce = lexical_overlap_ce()
        assert ce_margin(ce, "what is it", "same text", "same text") == 0.0

    def test_antisymmetry(self):
        ce = lexical_overlap_ce()
        q, a, b = "alpha beta", "alpha gamma", "beta delta epsilon"
        assert ce_margin(ce, q, a, b) == pytest.approx(-ce_margin(ce, q, b, a))

    def test_sign_matches_score_order(self):
        ce = fixed_ce({("q", "hi"): 5.0, ("q", "lo"): 1.0})
        assert ce_margin(ce, "q", "hi", "lo") > 0
        assert ce_margin(ce, "q", "lo", "hi") < 0

    def test_non_finite_rejected(self):
        ce = CrossEncoderScorer(pairwise(lambda q, p: float("nan")))
        with pytest.raises(ValueError):
            ce_margin(ce, "q", "a", "b")


class TestSampleTuple:
    def test_singleton_pool(self):
        query = Query("q1", "text", source_passage_id="src")
        pool = pack({"q1": make_pool("src", ["only"])})
        assert sample_tuple(query, pool, seed=0) == ("src", "only")

    def test_deterministic(self):
        query = Query("q1", "text", source_passage_id="src")
        pool = pack({"q1": make_pool("src", [f"n{i}" for i in range(20)])})
        assert sample_tuple(query, pool, seed=3) == sample_tuple(query, pool, seed=3)

    def test_uniformity_binomial_3sigma(self):
        pool_ids = ["n0", "n1", "n2", "n3"]
        counts = {pid: 0 for pid in pool_ids}
        n_draws = 10_000
        queries = [Query(f"q{i}", "text", source_passage_id="src")
                   for i in range(n_draws)]
        pools = pack({q.id: make_pool("src", pool_ids) for q in queries})
        for query in queries:
            _, neg = sample_tuple(query, pools, seed=11)
            counts[neg] += 1
        p = 0.25
        sigma = math.sqrt(n_draws * p * (1 - p))
        for pid in pool_ids:
            assert abs(counts[pid] - n_draws * p) <= 3 * sigma

    def test_empty_pool_rejected(self):
        query = Query("q1", "text", source_passage_id="src")
        pool = pack({"q1": make_pool("src", [])})
        with pytest.raises(ValueError):
            sample_tuple(query, pool, seed=0)


class TestBuildDataset:
    def make_world(self):
        corpus = [Passage("src1", "", "futures contract definition"),
                  Passage("src2", "", "bond yield curve"),
                  Passage("n1", "", "unrelated words here"),
                  Passage("n2", "", "futures contract definition extra")]
        queries = [Query("genQ-src1-1", "futures contract", "src1"),
                   Query("genQ-src2-1", "bond yield", "src2")]
        pools = {"genQ-src1-1": make_pool("src1", ["n1", "n2"]),
                 "genQ-src2-1": make_pool("src2", ["n1"])}
        return corpus, queries, pools

    def test_one_tuple_per_usable_query(self):
        corpus, queries, pools = self.make_world()
        ds = build_dataset(queries, pack(pools), corpus, lexical_overlap_ce(),
                           seed=0)
        assert len(ds.tuples) == 2
        assert [t.query_id for t in stream_rows(ds)] == sorted(q.id for q in queries)

    def test_unusable_query_skipped(self):
        corpus, queries, pools = self.make_world()
        pools["genQ-src2-1"] = make_pool("src2", [])
        ds = build_dataset(queries, pack(pools), corpus, lexical_overlap_ce(),
                           seed=0)
        assert len(ds.tuples) == 1
        assert ds.manifest["n_skipped"] == 1

    def test_planted_duplicate_gets_zero_margin(self):
        corpus, queries, pools = self.make_world()
        corpus.append(Passage("dup", "", "futures contract definition"))
        pools["genQ-src1-1"] = make_pool("src1", ["dup"])
        ds = build_dataset(queries, pack(pools), corpus, lexical_overlap_ce(),
                           seed=0)
        tup = next(t for t in stream_rows(ds) if t.query_id == "genQ-src1-1")
        assert tup.neg_id == "dup"
        assert abs(tup.margin) <= 1e-12

    def test_junk_query_gets_small_margin(self):
        corpus, queries, pools = self.make_world()
        queries.append(Query("genQ-src1-2", "placeholder", "src1"))
        pools["genQ-src1-2"] = make_pool("src1", ["n1"])
        ds = build_dataset(queries, pack(pools), corpus, lexical_overlap_ce(),
                           seed=0)
        tup = next(t for t in stream_rows(ds) if t.query_id == "genQ-src1-2")
        assert abs(tup.margin) <= 1e-12

    def test_manifest_contents(self):
        corpus, queries, pools = self.make_world()
        ds = build_dataset(queries, pack(pools), corpus, lexical_overlap_ce(),
                           seed=9)
        assert ds.manifest["seed"] == 9
        assert ds.manifest["retrievers"] == ["bm25"]
        assert ds.manifest["cross_encoder"].startswith("lexical-overlap")

    def test_pure_function_of_inputs(self, tmp_path):
        corpus, queries, pools = self.make_world()
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        write_dataset(build_dataset(queries, pack(pools), corpus,
                                    lexical_overlap_ce(), seed=4), a)
        write_dataset(build_dataset(queries, pack(pools), corpus,
                                    lexical_overlap_ce(), seed=4), b)
        assert a.read_bytes() == b.read_bytes()

    def test_qgen_label_contrast_on_false_negative(self):
        corpus, queries, pools = self.make_world()
        corpus.append(Passage("dup", "", "futures contract definition"))
        pools["genQ-src1-1"] = make_pool("src1", ["dup"])
        ds = build_dataset(queries, pack(pools), corpus, lexical_overlap_ce(),
                           seed=0)
        labels = dict(((qid, pid), label)
                      for qid, pid, label in binary_relevance_labels(ds))
        tup = next(t for t in stream_rows(ds) if t.query_id == "genQ-src1-1")
        # the margin neutralizes the duplicate, the 0/1 labels cannot
        assert abs(tup.margin) <= 0.05
        assert labels[(tup.query_id, tup.pos_id)] == 1
        assert labels[(tup.query_id, tup.neg_id)] == 0


class TestLabelStream:
    """build_dataset with n_tuples: per-example negatives drawn afresh."""

    def make_world(self):
        corpus = [Passage(f"p{i}", "", f"w{i} w{i + 1} shared")
                  for i in range(8)]
        queries = [Query(f"q{i}", f"w{i} shared", f"p{i}") for i in range(5)]
        queries.append(Query("q-unusable", "w7", "p7"))
        pools = {q.id: make_pool(q.source_passage_id,
                                 [f"p{j}" for j in range(8)
                                  if j != int(q.id[1:])])
                 for q in queries[:5]}
        pools["q-unusable"] = make_pool("p7", [])
        return corpus, queries[::-1], pools

    def one_per_query_reference(self, queries, pools, corpus, ce, seed):
        """One tuple per usable query in id order, each negative the first
        draw of a generator keyed on (seed, "negsample", query id)."""
        texts = {p.id: passage_text(p) for p in corpus}
        tuples = []
        for q in sorted(queries, key=lambda q: q.id):
            negatives = sorted(set(pools[q.id][1]["bm25"]))
            if not negatives:
                continue
            rng = random.Random(derive_seed(seed, "negsample", q.id))
            neg = negatives[rng.randrange(len(negatives))]
            margin = ce_margin(ce, q.text, texts[q.source_passage_id],
                               texts[neg])
            tuples.append((q.id, q.source_passage_id, neg, margin))
        return tuples

    def test_one_per_query_bytes_unchanged(self, tmp_path):
        corpus, queries, pools = self.make_world()
        ce = lexical_overlap_ce()
        expected = tmp_path / "expected.tsv"
        write_dataset(GPLDataset(pack_tuples(
            self.one_per_query_reference(queries, pools, corpus, ce, seed=5))),
            expected)
        for n_tuples in (None, 5):
            got = tmp_path / f"got-{n_tuples}.tsv"
            write_dataset(build_dataset(queries, pack(pools), corpus, ce, seed=5,
                                        n_tuples=n_tuples), got)
            assert got.read_bytes() == expected.read_bytes()

    def test_draws_cycle_through_queries_in_id_order(self):
        """Tuple i is draw i // 5 of the stream of query i mod 5, and each
        query's draw 0 is the negative `sample_tuple` picks."""
        corpus, queries, pools = self.make_world()
        ds = build_dataset(queries, pack(pools), corpus, lexical_overlap_ce(),
                           seed=2, n_tuples=13)
        order = [f"q{i}" for i in range(5)]
        assert [t.query_id for t in stream_rows(ds)] == (order * 3)[:13]
        assert ds.manifest["n_tuples"] == 13
        assert ds.manifest["n_skipped"] == 1
        by_id = {q.id: q for q in queries}
        draws = {}
        for qid in order:
            rng = random.Random(derive_seed(2, "negsample", qid))
            pool = pools[qid][1]["bm25"]
            draws[qid] = [pool[rng.randrange(len(pool))] for _ in range(3)]
        for i, t in enumerate(stream_rows(ds)):
            assert t.pos_id == by_id[t.query_id].source_passage_id
            assert t.neg_id == draws[t.query_id][i // 5]
            if i < 5:
                assert (t.pos_id, t.neg_id) == sample_tuple(
                    by_id[t.query_id], pack(pools), 2)

    def test_negatives_uniform_over_pool_3sigma(self):
        corpus, queries, pools = self.make_world()
        n_draws = 10_000
        ds = build_dataset([q for q in queries if q.id == "q0"], pack(pools),
                           corpus, lexical_overlap_ce(), seed=8,
                           n_tuples=n_draws)
        pool_ids = pools["q0"][1]["bm25"]
        counts = {pid: 0 for pid in pool_ids}
        for t in stream_rows(ds):
            counts[t.neg_id] += 1
        p = 1 / len(pool_ids)
        sigma = math.sqrt(n_draws * p * (1 - p))
        for pid in pool_ids:
            assert abs(counts[pid] - n_draws * p) <= 3 * sigma, counts

    def test_columns_read_back_equal_the_built_ones(self, tmp_path):
        """Ids are listed in order of first use (query, then positive, then
        negative of each tuple in turn), so building a stream and reading
        its TSV give the same columns."""
        corpus, queries, pools = self.make_world()
        built = build_dataset(queries, pack(pools), corpus, lexical_overlap_ce(),
                              seed=6, n_tuples=70).tuples
        path = tmp_path / "stream.tsv"
        write_dataset(GPLDataset(built), path)
        read = read_dataset(path).tuples
        assert (built.query_ids, built.passage_ids) == \
            (read.query_ids, read.passage_ids)
        for column in ("query", "pos", "neg", "margin"):
            a, b = getattr(built, column), getattr(read, column)
            assert a.dtype == b.dtype == (np.float64 if column == "margin"
                                          else np.int32)
            np.testing.assert_array_equal(a, b)

    def test_each_pair_scored_once(self):
        """A 20,000-tuple stream spans two blocks of 16,384: one
        `score_pairs` call per block, the second on pairs the first did not
        score, and every pair of the stream scored exactly once."""
        corpus = [Passage(f"p{i:03d}", "", f"w{i % 50} w{i % 7} w{i}")
                  for i in range(300)]
        queries = [Query(f"q{i:03d}", f"w{i % 50} w{i % 3}", f"p{i:03d}")
                   for i in range(150)]
        pools = {q.id: make_pool(q.source_passage_id,
                                 [f"p{(i + k) % 300:03d}" for k in range(1, 201)])
                 for i, q in enumerate(queries)}
        lexical = lexical_overlap_ce()
        batches = []

        def counting(query_texts, passage_texts):
            batches.append(list(zip(query_texts, passage_texts)))
            return lexical.score_pairs(query_texts, passage_texts)

        ds = build_dataset(queries, pack(pools), corpus,
                           CrossEncoderScorer(counting, name="counting"),
                           seed=1, n_tuples=20_000)
        assert 20_000 > _BLOCK
        texts = {p.id: passage_text(p) for p in corpus}
        query_texts = {q.id: q.text for q in queries}
        pairs = {(query_texts[t.query_id], texts[pid]) for t in stream_rows(ds)
                 for pid in (t.pos_id, t.neg_id)}
        calls = [pair for batch in batches for pair in batch]
        assert len(batches) == 2 and batches[1]
        assert len(calls) == len(set(calls)) == len(pairs)
        assert set(calls) == pairs
        # A per-pair scorer labels the same stream.
        per_pair = build_dataset(
            queries, pack(pools), corpus,
            CrossEncoderScorer(pairwise(lexical_overlap_score)), seed=1,
            n_tuples=20_000)
        for column in ("query", "pos", "neg", "margin"):
            np.testing.assert_array_equal(getattr(ds.tuples, column),
                                          getattr(per_pair.tuples, column))

    def test_no_usable_query_gives_empty_stream(self):
        corpus, queries, pools = self.make_world()
        ds = build_dataset([q for q in queries if q.id == "q-unusable"],
                           pack(pools), corpus, lexical_overlap_ce(), seed=0,
                           n_tuples=10)
        assert len(ds.tuples) == 0

    def test_negative_count_rejected(self):
        corpus, queries, pools = self.make_world()
        with pytest.raises(ValueError):
            build_dataset(queries, pack(pools), corpus, lexical_overlap_ce(),
                          seed=0, n_tuples=-1)


class TestTrainingTupleValidation:
    def test_pos_equals_neg_rejected(self):
        with pytest.raises(ValueError):
            pack_tuples([("q", "same", "same", 0.0)])

    def test_non_finite_margin_rejected(self):
        with pytest.raises(ValueError):
            pack_tuples([("q", "a", "b", float("inf"))])

    def test_build_rejects_a_pool_holding_the_positive(self):
        corpus = [Passage("p0", "", "a b"), Passage("p1", "", "c")]
        pools = {"q0": make_pool("p0", ["p0"])}
        with pytest.raises(ValueError, match=r"^pos_id == neg_id \('p0'\) "
                                             r"for query 'q0'$"):
            build_dataset([Query("q0", "a", "p0")], pack(pools), corpus,
                          lexical_overlap_ce(), seed=0)

    def test_build_rejects_a_non_finite_margin(self):
        corpus = [Passage("p0", "", "a b"), Passage("p1", "", "c")]
        pools = {"q0": make_pool("p0", ["p1"])}
        ce = fixed_ce({("a", "a b"): 1e308, ("a", "c"): -1e308})
        with pytest.raises(ValueError,
                           match="^non-finite margin for query 'q0'$"):
            build_dataset([Query("q0", "a", "p0")], pack(pools), corpus, ce,
                          seed=0)


class TestDatasetIO:
    def make_dataset(self):
        tuples = [("q1", "p1", "n1", 2.125),
                  ("q2", "p2", "n2", -3.5),
                  ("q3", "p3", "n3", 0.1 + 0.2)]
        return GPLDataset(pack_tuples(tuples), {"seed": 1})

    def test_round_trip_exact(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.tsv"
        write_dataset(ds, path)
        loaded = read_dataset(path)
        assert stream_rows(loaded) == stream_rows(ds)

    def test_negative_margin_sign_survives(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.tsv"
        write_dataset(ds, path)
        assert stream_rows(read_dataset(path))[1].margin == -3.5

    def test_read_holds_about_twenty_bytes_per_tuple(self, tmp_path):
        """read_dataset plus the tuple_batches set-up grows traced memory
        by at most 32 bytes per tuple: int32 query, positive and negative
        rows and a float64 margin, no object per tuple."""
        n_tuples = 50_000
        path = tmp_path / "stream.tsv"
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(f"q{i % 100}\tp{i % 100}\tn{i % 97}\t{i / 7:.17g}\n"
                         for i in range(n_tuples))
        model = init_encoder(["w"], dim=4, seed=0)
        queries = {f"q{i}": "w" for i in range(100)}
        passages = {f"{kind}{i}": "w" for kind in "pn" for i in range(100)}
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            dataset = read_dataset(path)
            batch_of = tuple_batches(model, dataset.tuples, queries, passages)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(dataset.tuples) == n_tuples
        assert batch_of(np.arange(3))[3].tolist() == [0.0, 1 / 7, 2 / 7]
        assert peak <= 32 * n_tuples, peak / n_tuples

    def test_truncated_line_rejected(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("q1\tp1\tn1\n")
        with pytest.raises(ParseError):
            read_dataset(path)

    def test_bad_margin_rejected(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("q1\tp1\tn1\tnot-a-float\n")
        with pytest.raises(ParseError):
            read_dataset(path)

    def test_positive_equal_to_negative_names_its_location(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("q0\tp0\tn0\t1.5\nq1\tp1\tp1\t0.5\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: "
                                             "pos_id == neg_id"):
            read_dataset(path)

    @pytest.mark.parametrize("margin", ["nan", "inf", "-inf"])
    def test_non_finite_margin_names_its_location(self, tmp_path, margin):
        path = tmp_path / "data.tsv"
        path.write_text(f"q0\tp0\tn0\t1.5\n\nq1\tp1\tp2\t{margin}\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: "
                                             "non-finite margin"):
            read_dataset(path)
