"""Loss values against hand-computed oracles, loss invariants, and the two
fine-tuning loops."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from denseadapt.corpus import Passage, Query
from denseadapt.labeling import GPLDataset
from denseadapt.models import EncoderModel, init_encoder, new_grads
from denseadapt.training import (LossConfig, TrainRunConfig, fit, gpl_train,
                                 margin_mse_loss, mnrl_loss, qgen_train)
from oracles import pack_pools, pack_tuples

TOKENS = [f"w{i}" for i in range(20)]


def count_token_ids(monkeypatch) -> Counter:
    """Count EncoderModel.token_ids calls by the text they were given."""
    calls: Counter = Counter()
    original = EncoderModel.token_ids

    def counted(self, text):
        calls[text] += 1
        return original(self, text)

    monkeypatch.setattr(EncoderModel, "token_ids", counted)
    return calls


class TestMarginMSE:
    def test_zero_when_equal(self):
        loss, grad = margin_mse_loss(np.array([1.0, -2.0, 0.5]),
                                     np.array([1.0, -2.0, 0.5]))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_single_pair(self):
        loss, grad = margin_mse_loss(np.array([2.0]), np.array([5.0]))
        assert loss == pytest.approx(9.0)
        assert grad[0] == pytest.approx(2 * (2.0 - 5.0))

    def test_two_pairs(self):
        loss, _ = margin_mse_loss(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
        assert loss == pytest.approx(2.5)

    def test_gradient_formula(self):
        pred = np.array([0.5, -1.5, 3.0, 0.0])
        target = np.array([1.0, -1.0, 2.0, 0.0])
        _, grad = margin_mse_loss(pred, target)
        np.testing.assert_allclose(grad, 2.0 * (pred - target) / 4)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            loss, _ = margin_mse_loss(rng.normal(size=8), rng.normal(size=8))
            assert loss >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            margin_mse_loss(np.zeros(2), np.zeros(3))

    def test_false_negative_denoising_direction(self):
        # a duplicated positive gives target margin 0; wherever the student
        # margin currently sits, the update moves it toward 0, never to -inf
        for pred in (-2.0, -0.5, 0.5, 3.0):
            _, grad = margin_mse_loss(np.array([pred]), np.array([0.0]))
            assert math.copysign(1, grad[0]) == math.copysign(1, pred)
            assert abs(pred - 0.1 * grad[0]) < abs(pred)


class TestMNRL:
    def test_single_pair_zero(self):
        loss, gq, gp = mnrl_loss(np.array([[1.0, 2.0]]), np.array([[0.5, 1.0]]),
                                 LossConfig(tau=20.0, similarity="dot"))
        assert loss == 0.0
        np.testing.assert_allclose(gq, 0.0, atol=1e-15)
        np.testing.assert_allclose(gp, 0.0, atol=1e-15)

    def test_orthogonal_pairs_hand_value(self):
        embs = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _, _ = mnrl_loss(embs, embs, LossConfig(tau=1.0, similarity="dot"))
        assert loss == pytest.approx(-math.log(math.e / (math.e + 1.0)), abs=1e-9)
        assert loss == pytest.approx(0.31326, abs=1e-5)

    def test_monotone_in_tau_when_diagonal_dominates(self):
        embs = np.array([[1.0, 0.0], [0.0, 1.0]])
        losses = [mnrl_loss(embs, embs, LossConfig(tau=t, similarity="dot"))[0]
                  for t in (1.0, 5.0, 20.0)]
        assert losses[0] > losses[1] > losses[2]

    def test_loss_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = rng.normal(size=(5, 4))
            p = rng.normal(size=(5, 4))
            for sim in ("dot", "cosine"):
                loss, _, _ = mnrl_loss(q, p, LossConfig(tau=5.0, similarity=sim))
                assert loss >= -1e-12

    def test_pair_permutation_invariance(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(6, 4))
        p = rng.normal(size=(6, 4))
        cfg = LossConfig(tau=10.0, similarity="dot")
        loss, _, _ = mnrl_loss(q, p, cfg)
        perm = rng.permutation(6)
        loss_perm, _, _ = mnrl_loss(q[perm], p[perm], cfg)
        assert loss_perm == pytest.approx(loss, abs=1e-12)

    def test_cosine_scale_invariance_per_row(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(4, 5))
        p = rng.normal(size=(4, 5))
        cfg = LossConfig(tau=10.0, similarity="cosine")
        loss, _, _ = mnrl_loss(q, p, cfg)
        p2 = p.copy()
        p2[2] *= 7.5
        loss2, _, _ = mnrl_loss(q, p2, cfg)
        assert loss2 == pytest.approx(loss, abs=1e-12)

    def test_cosine_zero_row_rejected(self):
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            mnrl_loss(q, q, LossConfig(similarity="cosine"))

    def test_extra_candidates_enter_denominator(self):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(3, 4))
        p = rng.normal(size=(3, 4))
        extra = rng.normal(size=(3, 4)) + q  # similar to queries: hard
        cfg = LossConfig(tau=5.0, similarity="dot")
        loss_plain, _, _ = mnrl_loss(q, p, cfg)
        loss_hard, _, _ = mnrl_loss(q, np.vstack([p, extra]), cfg)
        assert loss_hard > loss_plain


class TestFit:
    def test_logged_and_checkpoint_steps(self, tmp_path):
        model = init_encoder(TOKENS, dim=4, seed=0)
        calls = []

        def step_fn(step):
            calls.append(step)
            return float(step), new_grads(model)

        cfg = TrainRunConfig(log_every=4, checkpoint_every=3)
        out, trace = fit(model, step_fn, 10, cfg, checkpoint_dir=tmp_path)
        assert out is model
        assert calls == list(range(1, 11))
        # multiples of log_every, then the last step
        assert trace == [(4, 4.0), (8, 8.0), (10, 10.0)]
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["ckpt-3.json", "ckpt-6.json", "ckpt-9.json"]

    def test_no_checkpoint_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        model = init_encoder(TOKENS, dim=4, seed=0)
        _, trace = fit(model, lambda step: (0.5, new_grads(model)), 4,
                       TrainRunConfig(log_every=2, checkpoint_every=1))
        assert trace == [(2, 0.5), (4, 0.5)]
        assert not list(tmp_path.iterdir())


class TestTrainRunConfig:
    @pytest.mark.parametrize("field, value", [
        ("log_every", 0), ("checkpoint_every", -3), ("steps", 0),
        ("batch_size", 0)])
    def test_bad_schedule_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainRunConfig(**{field: value})


def tuple_dataset(tuples):
    return GPLDataset(pack_tuples(tuples), {"seed": 0})


class TestGplTrain:
    def make_world(self):
        corpus = [Passage("p0", "", "w0 w1"), Passage("p1", "", "w2 w3"),
                  Passage("p2", "", "w4 w5"), Passage("p3", "", "w6 w7"),
                  Passage("dup", "", "w0 w1")]
        queries = [Query("q0", "w0", "p0"), Query("q1", "w2", "p1"),
                   Query("q2", "w4", "p2"), Query("q3", "w6", "p3")]
        return corpus, queries

    def test_zero_margin_identical_texts_stays_zero(self):
        corpus, queries = self.make_world()
        dataset = tuple_dataset([("q0", "p0", "dup", 0.0)])
        model = init_encoder(TOKENS, dim=6, seed=0)
        cfg = TrainRunConfig(steps=20, batch_size=1, seed=0, learning_rate=0.1)
        _, trace = gpl_train(model, dataset, corpus, queries, cfg)
        assert all(loss == 0.0 for _, loss in trace)

    def test_fixed_seed_reproducible(self):
        corpus, queries = self.make_world()
        dataset = tuple_dataset([
            ("q0", "p0", "p1", 2.0),
            ("q1", "p1", "p2", 1.0),
            ("q2", "p2", "p3", -0.5),
            ("q3", "p3", "p0", 3.0),
        ])
        cfg = TrainRunConfig(steps=100, batch_size=2, seed=7, learning_rate=0.05)
        m1 = init_encoder(TOKENS, dim=6, seed=1)
        m2 = init_encoder(TOKENS, dim=6, seed=1)
        m1, _ = gpl_train(m1, dataset, corpus, queries, cfg)
        m2, _ = gpl_train(m2, dataset, corpus, queries, cfg)
        np.testing.assert_array_equal(m1.embedding, m2.embedding)
        np.testing.assert_array_equal(m1.projection, m2.projection)

    def test_loss_decreases_on_learnable_data(self):
        corpus, queries = self.make_world()
        dataset = tuple_dataset([
            ("q0", "p0", "p1", 2.0),
            ("q1", "p1", "p2", 2.0),
            ("q2", "p2", "p3", 2.0),
            ("q3", "p3", "p0", 2.0),
        ])
        model = init_encoder(TOKENS, dim=8, seed=2, init_scale=0.2)
        cfg = TrainRunConfig(steps=300, batch_size=4, seed=0, learning_rate=0.05)
        _, trace = gpl_train(model, dataset, corpus, queries, cfg)
        assert trace[-1][1] < trace[0][1] * 0.2

    def test_requires_dot_similarity(self):
        corpus, queries = self.make_world()
        dataset = tuple_dataset([("q0", "p0", "p1", 1.0)])
        model = init_encoder(TOKENS, dim=4, seed=0, similarity="cosine")
        with pytest.raises(ValueError):
            gpl_train(model, dataset, corpus, queries, TrainRunConfig(steps=1))

    def test_unresolvable_id_raises(self):
        corpus, queries = self.make_world()
        dataset = tuple_dataset([("q0", "p0", "missing", 1.0)])
        model = init_encoder(TOKENS, dim=4, seed=0)
        with pytest.raises(KeyError):
            gpl_train(model, dataset, corpus, queries, TrainRunConfig(steps=1))

    @pytest.mark.parametrize("steps", [1, 40])
    def test_tokenizes_each_distinct_text_once(self, monkeypatch, steps):
        corpus, queries = self.make_world()
        dataset = tuple_dataset([
            ("q0", "p0", "p1", 2.0),
            ("q0", "p0", "p2", 1.0),
            ("q1", "p1", "p0", -0.5),
            ("q1", "p1", "p2", 0.5),
        ] * 3)
        calls = count_token_ids(monkeypatch)
        gpl_train(init_encoder(TOKENS, dim=4, seed=0), dataset, corpus,
                  queries, TrainRunConfig(steps=steps, batch_size=3))
        assert calls == Counter(["w0", "w2", "w0 w1", "w2 w3", "w4 w5"])

    def test_checkpoints_written(self, tmp_path):
        corpus, queries = self.make_world()
        dataset = tuple_dataset([("q0", "p0", "p1", 1.0),
                                 ("q1", "p1", "p2", 1.0)])
        model = init_encoder(TOKENS, dim=4, seed=0)
        cfg = TrainRunConfig(steps=10, batch_size=2, checkpoint_every=5)
        gpl_train(model, dataset, corpus, queries, cfg, checkpoint_dir=tmp_path)
        assert (tmp_path / "ckpt-5.json").exists()
        assert (tmp_path / "ckpt-10.json").exists()


def test_gpl_step_memory_is_row_sparse():
    """One margin step holds and updates the gradient of the rows its batch
    reads: at V = 30k and d = 32 a dense gradient alone is 7.7 MB (the
    step peaked at 1.09x that), and these 32 tuples read about 3.9k rows."""
    rng = np.random.default_rng(0)
    words = [f"t{i}" for i in range(30_000)]
    corpus = [Passage(f"p{i}", "", " ".join(rng.choice(words, size=60)))
              for i in range(64)]
    queries = [Query(f"q{i}", " ".join(rng.choice(words, size=8)), f"p{i}")
               for i in range(32)]
    dataset = tuple_dataset([(f"q{i}", f"p{i}", f"p{i + 32}", 1.0)
                             for i in range(32)])
    model = init_encoder(words, dim=32, seed=0)
    tracemalloc.start()
    try:
        gpl_train(model, dataset, corpus, queries,
                  TrainRunConfig(steps=1, batch_size=32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < model.embedding.nbytes / 3


class TestQgenTrain:
    def make_world(self):
        corpus = [Passage(f"p{i}", "", f"w{2*i} w{2*i+1}") for i in range(5)]
        queries = [Query(f"genQ-p{i}-1", f"w{2*i}", f"p{i}") for i in range(4)]
        return corpus, queries

    def test_requires_cosine(self):
        corpus, queries = self.make_world()
        model = init_encoder(TOKENS, dim=4, seed=0, similarity="dot")
        with pytest.raises(ValueError):
            qgen_train(model, queries, corpus, TrainRunConfig(steps=1,
                                                              batch_size=2))

    def test_batch_of_one_rejected(self):
        corpus, queries = self.make_world()
        model = init_encoder(TOKENS, dim=4, seed=0, similarity="cosine")
        with pytest.raises(ValueError):
            qgen_train(model, queries, corpus, TrainRunConfig(steps=1,
                                                              batch_size=1))

    def test_one_epoch_default_step_count(self):
        corpus, queries = self.make_world()
        model = init_encoder(TOKENS, dim=4, seed=0, similarity="cosine")
        _, trace = qgen_train(model, queries, corpus,
                              TrainRunConfig(steps=None, batch_size=2,
                                             learning_rate=0.01))
        assert trace[-1][0] == 2  # ceil(4 / 2) steps

    def test_reproducible(self):
        corpus, queries = self.make_world()
        cfg = TrainRunConfig(steps=40, batch_size=2, seed=3, learning_rate=0.02)
        m1 = init_encoder(TOKENS, dim=4, seed=1, similarity="cosine")
        m2 = init_encoder(TOKENS, dim=4, seed=1, similarity="cosine")
        m1, _ = qgen_train(m1, queries, corpus, cfg)
        m2, _ = qgen_train(m2, queries, corpus, cfg)
        np.testing.assert_array_equal(m1.embedding, m2.embedding)

    def test_planted_false_negative_gradient_pushes_it_away(self):
        # in hard-negative mode the (near-duplicate) false negative sits in
        # the candidate denominator with label 0; its softmax term gives a
        # positive dL/d(similarity), so descent reduces its similarity to
        # the query: exactly the failure mode margin labels fix
        rng = np.random.default_rng(5)
        q = rng.normal(size=(2, 6))
        pos = rng.normal(size=(2, 6))
        dup = q[0] * 0.95 + rng.normal(scale=0.01, size=6)  # near the query
        other = rng.normal(size=6)
        candidates = np.vstack([pos, dup, other])
        cfg = LossConfig(tau=5.0, similarity="dot")
        loss0, _, grad_c = mnrl_loss(q, candidates, cfg)
        # moving the duplicate along -grad lowers its similarity to query 0
        assert float(q[0] @ grad_c[2]) > 0.0
        shifted = candidates.copy()
        shifted[2] -= 0.01 * grad_c[2]
        assert float(q[0] @ shifted[2]) < float(q[0] @ candidates[2])
        loss1, _, _ = mnrl_loss(q, shifted, cfg)
        assert loss1 < loss0

    def test_checkpoints_written(self, tmp_path):
        corpus, queries = self.make_world()
        model = init_encoder(TOKENS, dim=4, seed=0, similarity="cosine")
        cfg = TrainRunConfig(steps=6, batch_size=2, checkpoint_every=3)
        qgen_train(model, queries, corpus, cfg, checkpoint_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["ckpt-3.json", "ckpt-6.json"]

    @pytest.mark.parametrize("steps", [1, 40])
    @pytest.mark.parametrize("hard", [False, True])
    def test_tokenizes_each_distinct_text_once(self, monkeypatch, steps, hard):
        corpus, queries = self.make_world()
        pools = pack_pools(
            {q.id: (q.source_passage_id, {"bm25": ["p4"]}) for q in queries}
        ) if hard else None
        calls = count_token_ids(monkeypatch)
        qgen_train(init_encoder(TOKENS, dim=4, seed=0, similarity="cosine"),
                   queries, corpus, TrainRunConfig(steps=steps, batch_size=2),
                   negatives=pools)
        want = Counter([q.text for q in queries] +
                       [f"w{2*i} w{2*i+1}" for i in range(5 if hard else 4)])
        assert calls == want

    def test_hard_negative_mode_trains_and_uses_pools(self):
        corpus, queries = self.make_world()
        pools = pack_pools({q.id: (q.source_passage_id, {"bm25": [
            p.id for p in corpus if p.id != q.source_passage_id]})
            for q in queries})
        model = init_encoder(TOKENS, dim=6, seed=2, similarity="cosine",
                             init_scale=0.3)
        cfg = TrainRunConfig(steps=60, batch_size=4, seed=0, learning_rate=0.05)
        model, trace = qgen_train(model, queries, corpus, cfg, negatives=pools)
        assert trace[-1][1] < trace[0][1]
