"""BM25 scoring against hand-derived values, exact top-k retrieval with the
tie rule, and negative-pool construction."""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denseadapt import mining
from denseadapt.corpus import ParseError, Passage, Query, tokenize
from denseadapt.evaluation import full_rank
from denseadapt.mining import (BM25Retriever, DenseRetriever, PoolColumns,
                               build_bm25_index, mine_pools,
                               read_hard_negatives, retrieve_top_k,
                               write_hard_negatives)
from denseadapt.models import encode_batch, init_encoder
from oracles import (bm25_score, hard_negatives_text, mined_lists, pack_pools,
                     pool_negatives, run_lists, top_k_list, union_entry)
from stream_memory import POOL_BOUND, pool_lists

TWO_DOCS = [Passage("d1", "", "a b a"), Passage("d2", "", "b c")]


class TestBuildIndex:
    def test_postings_hold_each_passage_and_its_weight(self):
        """Each term's postings list the passages holding it, in corpus
        order, each weighing exactly the oracle's one-term score."""
        passages = toy_corpus(30, seed=6)
        index = build_bm25_index(passages)
        assert index.ids == [p.id for p in passages]
        assert set(index.terms) == {t for p in passages
                                    for t in tokenize(p.body)}
        for term, row in index.terms.items():
            lo, hi = index.indptr[row], index.indptr[row + 1]
            docs = index.doc[lo:hi].tolist()
            assert [index.ids[i] for i in docs] == \
                [p.id for p in passages if term in tokenize(p.body)]
            assert index.weight[lo:hi].tolist() == \
                [bm25_score(passages, [term], index.ids[i]) for i in docs]
        assert index.indptr[-1] == len(index.doc) == len(index.weight)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_bm25_index([])

    def test_rebuild_identical(self):
        a = build_bm25_index(TWO_DOCS)
        b = build_bm25_index(TWO_DOCS)
        assert a.terms == b.terms
        assert a.ids == b.ids
        for name in ("indptr", "doc", "weight"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name

    def test_memory_is_bounded(self):
        """The index holds flat arrays, not an object per posting or term
        list: 4,000 passages x 50 tokens over a 30,000-word vocabulary is
        about 200,000 postings, at most 64 bytes each."""
        rng = np.random.default_rng(0)
        words = [f"t{i}" for i in range(30_000)]
        passages = [Passage(f"p{i:04d}", "", " ".join(
            words[j] for j in rng.integers(0, len(words), size=50)))
            for i in range(4_000)]
        n_postings = sum(len(set(tokenize(p.body))) for p in passages)
        tracemalloc.start()
        try:
            retriever = BM25Retriever(build_bm25_index(passages))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retriever.index.indptr[-1] == n_postings
        assert held < 64 * n_postings


class TestBM25Score:
    def test_hand_value(self):
        # idf(a) = ln(1 + (2 - 1 + 0.5) / (1 + 0.5)) = ln 2, tf = 2,
        # dl = 3, avgdl = 2.5:
        # score = ln2 * 2 * 2.2 / (2 + 1.2 * (0.25 + 0.75 * 3 / 2.5) - 0.9)
        expected = math.log(2.0) * (2 * 2.2) / (2 + 1.2 * (0.25 + 0.9))
        assert bm25_score(TWO_DOCS, ["a"], "d1") == pytest.approx(expected)
        assert expected == pytest.approx(0.9023, abs=1e-4)
        scores = BM25Retriever(build_bm25_index(TWO_DOCS)).scores("a")
        assert scores.tolist() == [bm25_score(TWO_DOCS, ["a"], "d1"), 0.0]

    def test_absent_term_contributes_zero(self):
        retriever = BM25Retriever(build_bm25_index(TWO_DOCS))
        assert bm25_score(TWO_DOCS, ["a"], "d2") == 0.0
        base = bm25_score(TWO_DOCS, ["a"], "d1")
        assert bm25_score(TWO_DOCS, ["a", "zzz"], "d1") == pytest.approx(base)
        assert retriever.scores("a zzz").tolist() == \
            retriever.scores("a").tolist()

    def test_repeated_query_terms_count_per_occurrence(self):
        assert bm25_score(TWO_DOCS, ["a", "a"], "d1") == \
            pytest.approx(2 * bm25_score(TWO_DOCS, ["a"], "d1"))
        retriever = BM25Retriever(build_bm25_index(TWO_DOCS))
        assert retriever.scores("a a")[0] == 2 * retriever.scores("a")[0]

    def test_unknown_passage(self):
        with pytest.raises(KeyError):
            bm25_score(TWO_DOCS, ["a"], "nope")

    def test_disjoint_texts_score_zero(self):
        assert bm25_score(TWO_DOCS, ["x", "y"], "d1") == 0.0
        retriever = BM25Retriever(build_bm25_index(TWO_DOCS))
        assert retriever.scores("x y").tolist() == [0.0, 0.0]


def toy_corpus(n=40, seed=0):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    passages = []
    for i in range(n):
        body = " ".join(rng.choice(words, size=8))
        passages.append(Passage(f"p{i:03d}", "", body))
    return passages


class TestRetrieveTopK:
    def test_k1_is_argmax(self):
        passages = toy_corpus()
        index = build_bm25_index(passages)
        retriever = BM25Retriever(index)
        query = "w0 w5 w7"
        top = top_k_list(retriever, query, 1)
        all_scores = {p.id: bm25_score(passages, tokenize(query), p.id)
                      for p in passages}
        best = max(all_scores.values())
        assert top[0][1] == pytest.approx(best)
        assert top[0][0] == min(pid for pid, s in all_scores.items() if s == best)

    def test_tie_broken_by_id(self):
        passages = [Passage("b", "", "x y"), Passage("a", "", "x y"),
                    Passage("c", "", "z")]
        index = build_bm25_index(passages)
        top = top_k_list(BM25Retriever(index), "x", 2)
        assert [pid for pid, _ in top] == ["a", "b"]

    def test_only_match_ranks_first(self):
        index = build_bm25_index(TWO_DOCS)
        assert top_k_list(BM25Retriever(index), "c", 1)[0][0] == "d2"

    def test_scores_non_increasing(self):
        passages = toy_corpus(60, seed=3)
        top = top_k_list(BM25Retriever(build_bm25_index(passages)),
                             "w1 w2 w3", 20)
        scores = [s for _, s in top]
        assert scores == sorted(scores, reverse=True)

    def test_small_corpus_returns_fewer(self):
        index = build_bm25_index(TWO_DOCS)
        assert len(top_k_list(BM25Retriever(index), "a b c", 50)) == 2

    def test_bm25_matches_brute_force(self):
        passages = toy_corpus(80, seed=1)
        index = build_bm25_index(passages)
        retriever = BM25Retriever(index)
        rng = np.random.default_rng(2)
        for _ in range(20):
            query = " ".join(rng.choice([f"w{i}" for i in range(30)], size=3))
            got = top_k_list(retriever, query, 10)
            brute = sorted(((p.id, bm25_score(passages, tokenize(query), p.id))
                            for p in passages), key=lambda kv: (-kv[1], kv[0]))[:10]
            assert [pid for pid, _ in got] == [pid for pid, _ in brute]
            np.testing.assert_allclose([s for _, s in got], [s for _, s in brute])

    def test_dense_self_match_ranks_first(self):
        passages = toy_corpus(30, seed=4)
        model = init_encoder([f"w{i}" for i in range(30)], dim=8, seed=5,
                             similarity="cosine")
        retriever = DenseRetriever(model, passages, similarity="cosine")
        target = passages[7]
        top = top_k_list(retriever, target.body, 1)
        assert top[0][1] == pytest.approx(1.0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            top_k_list(BM25Retriever(build_bm25_index(TWO_DOCS)), "a", 0)

    def test_rows_index_the_retriever_ids_and_scores(self):
        passages = [Passage("b", "", "x y"), Passage("a", "", "x y"),
                    Passage("c", "", "x")]
        retriever = BM25Retriever(build_bm25_index(passages))
        rows, scores = retrieve_top_k(retriever, "y", 5)
        assert rows.tolist() == [1, 0, 2]
        assert scores.tolist() == retriever.scores("y")[rows].tolist()
        assert scores[2] == 0.0 < scores[0] == scores[1]


class TestDenseMemory:
    def test_cosine_retriever_holds_one_matrix(self):
        """A cosine retriever over N x d holds one N x d float64 matrix,
        its rows divided by their norms, plus O(N) ids and ranks."""
        n, dim = 2_000, 64
        words = [f"w{i}" for i in range(50)]
        passages = [Passage(f"p{i:04d}", "", f"w{i % 50} w{i * 7 % 50}")
                    for i in range(n)]
        model = init_encoder(words, dim=dim, seed=0, similarity="cosine")
        tracemalloc.start()
        try:
            retriever = DenseRetriever(model, passages)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix_bytes = n * dim * 8
        assert matrix_bytes <= held < 1.25 * matrix_bytes, held / matrix_bytes
        np.testing.assert_allclose(np.linalg.norm(retriever.matrix, axis=1),
                                   1.0)


def by_score_then_id(pairs, k):
    return sorted(pairs, key=lambda kv: (-kv[1], kv[0]))[:k]


# Distinct ids whose corpus order is not their sorted order.
shuffled_ids = st.lists(st.text("abc", min_size=1, max_size=4), min_size=1,
                        max_size=30, unique=True)


class TestTopKTies:
    """retrieve_top_k against a full sort on (-score, id), with ties that
    straddle the k-th position."""

    @settings(max_examples=150, deadline=None)
    @given(shuffled_ids, st.data())
    def test_integer_scores_match_sorted_oracle(self, ids, data):
        # One token per passage and a d=1 identity encoder: each passage's
        # dot score with the query "q" is exactly its token's integer.
        values = data.draw(st.lists(st.integers(0, 3), min_size=len(ids),
                                    max_size=len(ids)))
        k = data.draw(st.integers(1, len(ids) + 3))
        model = init_encoder(["q", *(f"t{i}" for i in range(len(ids)))],
                             dim=1, seed=0)
        model.embedding[model.vocab["q"]] = 1.0
        for i, v in enumerate(values):
            model.embedding[model.vocab[f"t{i}"]] = float(v)
        passages = [Passage(pid, "", f"t{i}") for i, pid in enumerate(ids)]
        got = top_k_list(DenseRetriever(model, passages), "q", k)
        assert got == by_score_then_id(zip(ids, map(float, values)), k)

    @settings(max_examples=100, deadline=None)
    @given(shuffled_ids, st.data())
    def test_bm25_matches_scalar_oracle(self, ids, data):
        words = ["x", "y", "z"]
        bodies = data.draw(st.lists(st.lists(st.sampled_from(words), min_size=1,
                                             max_size=3),
                                    min_size=len(ids), max_size=len(ids)))
        query = data.draw(st.lists(st.sampled_from([*words, "unseen"]),
                                   min_size=1, max_size=3))
        k = data.draw(st.integers(1, len(ids) + 3))
        passages = [Passage(pid, "", " ".join(b)) for pid, b in zip(ids, bodies)]
        index = build_bm25_index(passages)
        got = top_k_list(BM25Retriever(index), " ".join(query), k)
        assert got == by_score_then_id(
            [(pid, bm25_score(passages, query, pid)) for pid in ids], k)

    @settings(max_examples=50, deadline=None)
    @given(shuffled_ids, st.integers(1, 40))
    def test_unknown_terms_give_smallest_ids_at_zero(self, ids, k):
        passages = [Passage(pid, "", "x y") for pid in ids]
        got = top_k_list(BM25Retriever(build_bm25_index(passages)),
                             "nope never", k)
        assert got == [(pid, 0.0) for pid in sorted(ids)[:k]]

    @settings(max_examples=50, deadline=None)
    @given(shuffled_ids, st.data())
    def test_full_rank_below_n_with_identical_passages(self, ids, data):
        # Small integer embeddings and at most two tokens per text keep
        # every score exact, so identical passages tie exactly.
        words = ["w0", "w1", "w2", "w3"]
        model = init_encoder(words, dim=2, seed=0)
        model.embedding = np.random.default_rng(len(ids)).integers(
            -2, 3, size=model.embedding.shape).astype(float)
        bodies = ["w0 w1", "w2", "w1 w3"]
        passages = [Passage(pid, "", data.draw(st.sampled_from(bodies)))
                    for pid in ids]
        cutoff = data.draw(st.integers(1, len(ids)))
        queries = [Query("q0", "w0"), Query("q1", "w1 w2"), Query("q2", "zz")]
        run = full_rank(model, queries, passages, cutoff=cutoff)
        matrix = encode_batch(model, [p.body for p in passages])
        for q in queries:
            scores = (matrix @ encode_batch(model, [q.text])[0]).tolist()
            assert run_lists(run)[q.id] == by_score_then_id(zip(ids, scores),
                                                         cutoff)


class TestMineNegatives:
    def make_world(self):
        passages = toy_corpus(25, seed=6)
        index = build_bm25_index(passages)
        model = init_encoder([f"w{i}" for i in range(30)], dim=8, seed=7,
                             similarity="cosine")
        return passages, [BM25Retriever(index),
                          DenseRetriever(model, passages, similarity="cosine")]

    def test_source_excluded(self):
        passages, retrievers = self.make_world()
        query = Query("q1", passages[0].body, source_passage_id=passages[0].id)
        pools = mine_pools([query], retrievers, n_per_retriever=10)
        assert passages[0].id not in pool_negatives(pools, "q1")
        assert pools.size("q1")

    def test_pool_bound_and_dedup(self):
        passages, retrievers = self.make_world()
        query = Query("q1", passages[3].body, source_passage_id=passages[3].id)
        negatives = pool_negatives(
            mine_pools([query], retrievers, n_per_retriever=10), "q1")
        assert len(negatives) <= 20
        assert len(negatives) == len(set(negatives))
        assert negatives == sorted(negatives)

    def test_identical_retrievers_collapse(self):
        passages, retrievers = self.make_world()
        query = Query("q1", passages[5].body, source_passage_id=passages[5].id)
        pools = mine_pools([query], [retrievers[0], retrievers[0]],
                           n_per_retriever=10)
        assert pools.size("q1") <= 10

    def test_pools_list_every_configured_retriever(self):
        passages, retrievers = self.make_world()
        query = Query("q1", passages[2].body, source_passage_id=passages[2].id)
        pools = mine_pools([query], retrievers, n_per_retriever=5)
        assert pools.retrievers == ["bm25", "dense"]
        assert list(pools.lists(0)) == ["bm25", "dense"]

    def test_retrievers_over_other_passages_rejected(self):
        passages, retrievers = self.make_world()
        query = Query("q1", passages[2].body, source_passage_id=passages[2].id)
        other = BM25Retriever(build_bm25_index(passages[1:]), name="other")
        with pytest.raises(ValueError, match="'other' ranks other passages"):
            mine_pools([query], [retrievers[0], other])

    def test_singleton_corpus_unusable(self):
        passages = [Passage("only", "", "w1 w2")]
        index = build_bm25_index(passages)
        query = Query("q1", "w1", source_passage_id="only")
        pools = mine_pools([query], [BM25Retriever(index)], n_per_retriever=5)
        assert pools.query_ids == ["q1"] and not pools.size("q1")

    def test_query_without_source_rejected(self):
        _, retrievers = self.make_world()
        with pytest.raises(ValueError):
            mine_pools([Query("q1", "w1")], retrievers)

    def test_repeated_query_id_rejected(self):
        passages, retrievers = self.make_world()
        queries = [Query("q1", p.body, source_passage_id=p.id)
                   for p in passages[:2]]
        with pytest.raises(ValueError, match="^query 'q1' has two pools$"):
            mine_pools(queries, retrievers)

    @pytest.mark.parametrize("record", [
        '{"qid": "q1", "neg": {"bm25": ["d2"]}}',
        '{"qid": "q1", "pos": [], "neg": {"bm25": ["d2"]}}',
    ], ids=["no pos", "empty pos"])
    def test_record_without_positive_names_its_location(self, tmp_path, record):
        path = tmp_path / "hard-negatives.jsonl"
        path.write_text('{"qid": "q0", "pos": ["d1"], "neg": {"bm25": []}}\n'
                        + record + "\n")
        with pytest.raises(ParseError, match=f"{path}:2:"):
            read_hard_negatives(path)

    @pytest.mark.parametrize("record", [
        '["q1", ["d1"], {"bm25": ["d2"]}]',
        '{"qid": "q1", "pos": ["d1"], "neg": ["d2"]}',
        '{"qid": "q1", "pos": "d00012", "neg": {"bm25": ["d2"]}}',
        '{"qid": "q1", "pos": ["d1"], "neg": {"bm25": "abc"}}',
        '{"qid": 1, "pos": ["d1"], "neg": {"bm25": ["d2"]}}',
        '{"qid": "q1", "pos": [1], "neg": {"bm25": ["d2"]}}',
        '{"qid": "q1", "pos": ["d1"], "neg": {"bm25": ["d2", 7]}}',
        '{"qid": "q0", "pos": ["d1"], "neg": {"bm25": ["d2"]}}',
    ], ids=["record a list", "neg a list", "pos a string", "neg ids a string",
            "qid not a string", "pos id not a string", "neg id not a string",
            "qid repeated"])
    def test_malformed_record_names_its_location(self, tmp_path, record):
        path = tmp_path / "hard-negatives.jsonl"
        path.write_text('{"qid": "q0", "pos": ["d1"], "neg": {"bm25": []}}\n'
                        + record + "\n")
        with pytest.raises(ParseError, match=f"^{path}:2: "):
            read_hard_negatives(path)

    @pytest.mark.parametrize("neg", [
        '{"dense": ["d2"]}', '{"bm25": [], "dense": ["d2"], "x": ["d3"]}',
    ], ids=["retriever missing", "retriever added"])
    def test_record_with_other_retrievers_names_its_location(self, tmp_path,
                                                             neg):
        """Every record lists the first record's retrievers, no fewer and
        no more."""
        path = tmp_path / "hard-negatives.jsonl"
        path.write_text('{"qid": "q0", "pos": ["d1"], '
                        '"neg": {"bm25": ["d3"], "dense": []}}\n'
                        '{"qid": "q1", "pos": ["d1"], "neg": %s}\n' % neg)
        with pytest.raises(ParseError, match=f"^{path}:2: retrievers"):
            read_hard_negatives(path)

    def test_file_round_trip(self, tmp_path):
        passages, retrievers = self.make_world()
        queries = [Query(f"genQ-{p.id}-1", p.body, source_passage_id=p.id)
                   for p in passages[:5]]
        pools = mine_pools(queries, retrievers, n_per_retriever=8)
        path = tmp_path / "hard-negatives.jsonl"
        write_hard_negatives(pools, path)
        loaded = read_hard_negatives(path)
        assert loaded.query_ids == pools.query_ids == sorted(q.id for q in queries)
        for i, qid in enumerate(pools.query_ids):
            assert pool_negatives(loaded, qid) == pool_negatives(pools, qid)
            assert loaded.lists(i) == pools.lists(i)


class ScoreTable:
    """A retriever whose scores per query text are given: small integers,
    so exact ties are common and straddle the cut."""

    def __init__(self, name, ids, scores):
        self.name, self.ids, self._scores = name, ids, scores
        self.id_rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))

    def scores(self, text):
        return np.asarray(self._scores[text], dtype=np.float64)


IDS = ["d0", "d1", "d10", "d2", "D", "d\u00e9", 'd"q']
NAMES = ["bm25", "dense", "x"]


def check_union(pools: PoolColumns, lists) -> None:
    """Each query's negatives equal the keys of `union_entry`, and each
    retriever's list is the one given."""
    assert pools.query_ids == sorted(lists)
    for i, qid in enumerate(pools.query_ids):
        assert pool_negatives(pools, qid) == list(union_entry(lists[qid][1]))
        assert pools.lists(i) == lists[qid][1]


def written(pools: PoolColumns) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hard-negatives.jsonl"
        write_hard_negatives(pools, path)
        return path.read_text(encoding="utf-8")


def uniform_pools(names):
    """Per-query (source, lists) whose lists come from `names`, each
    query listing every one."""
    return st.dictionaries(
        st.text("qQ09", min_size=1, max_size=3),
        st.tuples(st.sampled_from(IDS), st.fixed_dictionaries(
            {name: st.lists(st.sampled_from(IDS), max_size=5)
             for name in names})),
        max_size=6)


class TestPoolBytes:
    """`hard-negatives.jsonl` bytes are those of per-query dicts written
    with `json.dumps(sort_keys=True)`, and reading them back writes them
    again."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(NAMES), unique=True, max_size=3)
           .flatmap(uniform_pools))
    def test_read_then_write_reproduces_the_file(self, lists):
        text = hard_negatives_text(lists)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "hard-negatives.jsonl"
            path.write_text(text, encoding="utf-8")
            pools = read_hard_negatives(path)
        assert written(pools) == text
        assert written(pack_pools(lists)) == text
        check_union(pools, lists)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mined_pools_write_the_dict_bytes(self, data):
        ids = data.draw(st.permutations(IDS))[:data.draw(st.integers(1, 7))]
        queries = [Query(qid, f"text of {qid}", data.draw(st.sampled_from(ids)))
                   for qid in data.draw(st.permutations(["q2", "q0", "q10",
                                                         "q1"]))]
        names = data.draw(st.lists(st.sampled_from(NAMES), max_size=4))
        retrievers = [ScoreTable(name, ids, {q.text: data.draw(st.lists(
            st.integers(0, 2), min_size=len(ids), max_size=len(ids)))
            for q in queries}) for name in names]
        n = data.draw(st.integers(1, len(ids) + 1))
        lists = mined_lists(queries, retrievers, n)
        pools = mine_pools(queries, iter(retrievers), n_per_retriever=n)
        assert written(pools) == hard_negatives_text(lists)
        check_union(pools, lists)


class TestPoolMemory:
    def test_read_hard_negatives_holds_few_bytes_per_mined_id(self, tmp_path):
        """2,000 queries x 100 mined ids read back hold at most 16 bytes per
        id: an int32 row of each list, the union's int32 row and the id
        tables; per-query dicts held about 200."""
        lists = pool_lists()
        path = tmp_path / "hard-negatives.jsonl"
        path.write_text(hard_negatives_text(lists), encoding="utf-8")
        n_ids = sum(len(ids) for _, per in lists.values()
                    for ids in per.values())
        assert n_ids == 200_000
        del lists
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            pools = read_hard_negatives(path)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(pools) == 2_000
        assert held / n_ids <= POOL_BOUND, held / n_ids


    def test_mine_pools_ranks_into_a_row_column_only(self, monkeypatch):
        """While a retriever ranks 4,000 queries x 50, `mine_pools` holds
        its int32 row column, 4 bytes per query and rank, and no float64
        score column beside it (that would make 12)."""
        words = [f"w{i}" for i in range(50)]
        passages = [Passage(f"p{i:03d}", "", f"w{i % 50} w{i * 7 % 50}")
                    for i in range(120)]
        retriever = DenseRetriever(init_encoder(words, dim=8, seed=0),
                                   passages)
        n_queries, n = 4_000, 50
        queries = [Query(f"q{i:05d}", f"w{i % 50} w{i * 11 % 50}",
                         passages[i % 120].id) for i in range(n_queries)]
        most = [0]
        original = mining.retrieve_top_k

        def traced(retriever, query_text, k):
            most[0] = max(most[0], tracemalloc.get_traced_memory()[0])
            return original(retriever, query_text, k)

        monkeypatch.setattr(mining, "retrieve_top_k", traced)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            mine_pools(queries, [retriever], n_per_retriever=n)
        finally:
            tracemalloc.stop()
        per_slot = (most[0] - start) / (n_queries * n)
        assert 4 <= per_slot <= 5, per_slot


class TestOneRankingLoop:
    """`full_rank` and `mine_pools` rank each query through the module's
    `retrieve_top_k`, the name a tracer rebinds to time each query."""

    def count_calls(self, monkeypatch) -> list[tuple[str, str]]:
        calls = []
        original = mining.retrieve_top_k

        def counted(retriever, query_text, k):
            calls.append((retriever.name, query_text))
            return original(retriever, query_text, k)

        monkeypatch.setattr(mining, "retrieve_top_k", counted)
        return calls

    def test_full_rank_calls_it_once_per_query(self, monkeypatch):
        passages = toy_corpus(20, seed=8)
        queries = [Query(f"q{i}", p.body) for i, p in enumerate(passages[:6])]
        model = init_encoder([f"w{i}" for i in range(30)], dim=8, seed=2)
        calls = self.count_calls(monkeypatch)
        run = full_rank(model, queries, passages, cutoff=5)
        assert calls == [("dense", q.text) for q in queries]
        assert len(run.rows) == 6 * 5

    def test_mine_pools_calls_it_once_per_query_and_retriever(self,
                                                                monkeypatch):
        passages, retrievers = TestMineNegatives().make_world()
        queries = [Query(f"q{i}", p.body, source_passage_id=p.id)
                   for i, p in enumerate(passages[:5])]
        calls = self.count_calls(monkeypatch)
        mine_pools(queries, retrievers, n_per_retriever=4)
        assert calls == [(r.name, q.text) for r in retrievers for q in queries]
