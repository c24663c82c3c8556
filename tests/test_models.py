"""Reference encoder, similarity, SGD, gradcheck, and checkpoint round-trip."""

import tracemalloc

import numpy as np
import pytest

from denseadapt import (LossConfig, OptimizerState,
                        apply_gradients, encode_batch, finite_diff_gradcheck,
                        init_encoder, lexical_overlap_ce, load_model,
                        margin_mse_loss, mnrl_loss, save_model, similarity)
from denseadapt import models
from denseadapt.models import (OOV_INDEX, encode_backward,
                               encode_ids, new_grads)

TOKENS = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()


@pytest.fixture
def model():
    return init_encoder(TOKENS, dim=8, seed=0, init_scale=0.3)


class TestEncodeBatch:
    def test_single_token_mean_is_projected_embedding(self, model):
        row = model.embedding[model.vocab["alpha"]]
        out = encode_batch(model, ["alpha"])
        np.testing.assert_allclose(out[0], row @ model.projection)

    def test_identical_texts_identical_rows(self, model):
        out = encode_batch(model, ["alpha beta", "alpha beta"])
        np.testing.assert_array_equal(out[0], out[1])

    def test_truncation_to_max_seq_len(self):
        m = init_encoder(TOKENS, dim=4, seed=1, max_seq_len=350)
        long_text = " ".join(TOKENS[i % len(TOKENS)] for i in range(400))
        prefix = " ".join(long_text.split()[:350])
        np.testing.assert_array_equal(encode_batch(m, [long_text]),
                                      encode_batch(m, [prefix]))

    def test_empty_batch(self, model):
        assert encode_batch(model, []).shape == (0, model.dim)

    def test_zero_token_text_maps_to_oov(self, model):
        out = encode_batch(model, ["!!!"])
        np.testing.assert_allclose(out[0],
                                   model.embedding[OOV_INDEX] @ model.projection)

    def test_permutation_equivariance(self, model):
        texts = ["alpha beta", "gamma", "delta epsilon zeta"]
        out = encode_batch(model, texts)
        perm = [2, 0, 1]
        np.testing.assert_array_equal(encode_batch(model, [texts[i] for i in perm]),
                                      out[perm])

    def test_mean_pooling_linearity(self, model):
        base = encode_batch(model, ["alpha beta gamma"])
        model.embedding *= 3.0
        np.testing.assert_allclose(encode_batch(model, ["alpha beta gamma"]),
                                   3.0 * base)

    def test_cls_pooling_uses_first_token(self):
        m = init_encoder(TOKENS, dim=4, seed=2, pooling="cls", init_scale=0.3)
        np.testing.assert_array_equal(encode_batch(m, ["alpha beta gamma"]),
                                      encode_batch(m, ["alpha"]))


def reference_encode_ids(model, id_lists, dropout_mask=None):
    """The encoder's forward pass written one row at a time."""
    pooled = np.zeros((len(id_lists), model.dim))
    for i, ids in enumerate(id_lists):
        rows = model.embedding[list(ids)]
        pooled[i] = rows.mean(axis=0) if model.pooling == "mean" else rows[0]
    if dropout_mask is not None:
        pooled = pooled * dropout_mask
    return pooled @ model.projection, pooled


def reference_encode_backward(model, id_lists, pooled, dropout_mask, d_out,
                              grads):
    """The encoder's backward pass written one row at a time."""
    grads["projection"] += pooled.T @ d_out
    d_pooled = d_out @ model.projection.T
    if dropout_mask is not None:
        d_pooled = d_pooled * dropout_mask
    for i, ids in enumerate(id_lists):
        if model.pooling == "mean":
            np.add.at(grads["embedding"], list(ids), d_pooled[i] / len(ids))
        else:
            grads["embedding"][ids[0]] += d_pooled[i]


def _random_batch(rng, model, lengths):
    return [rng.integers(0, model.vocab_size, size=n).tolist() for n in lengths]


# Rows with repeated ids, one-token rows and OOV-only rows; the last batch
# spans several gather blocks and holds one row longer than a block.
_BATCHES = {
    "mixed": lambda rng, m: [[4, 4, 4, 7], [5], [OOV_INDEX], [OOV_INDEX] * 3,
                             [9, 3, 9, 3, 9]] + _random_batch(rng, m, [2, 7, 1]),
    "one row": lambda rng, m: [[6, 6]],
    "blocks": lambda rng, m: _random_batch(
        rng, m, [*rng.integers(1, 60, size=500), models._GATHER_TOKENS + 5, 3]),
}


@pytest.fixture(params=["mean", "cls"])
def wide_model(request):
    return init_encoder([f"w{i}" for i in range(40)], dim=5, seed=3,
                        pooling=request.param, init_scale=0.3)


class TestEncoderCore:
    """The flat-id core against the row-at-a-time reference above."""

    @pytest.mark.parametrize("batch", sorted(_BATCHES))
    @pytest.mark.parametrize("dropout", [False, True])
    def test_forward_matches_reference(self, wide_model, batch, dropout):
        rng = np.random.default_rng(0)
        wide_model.projection = rng.normal(size=wide_model.projection.shape)
        id_lists = _BATCHES[batch](rng, wide_model)
        mask = (rng.random((len(id_lists), wide_model.dim)) >= 0.3) / 0.7 \
            if dropout else None
        out, cache = encode_ids(wide_model, id_lists, dropout_mask=mask)
        want, pooled = reference_encode_ids(wide_model, id_lists, mask)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache.pooled, pooled, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch", sorted(_BATCHES))
    @pytest.mark.parametrize("dropout", [False, True])
    def test_backward_bit_identical_over_three_calls(self, wide_model, batch,
                                                     dropout):
        rng = np.random.default_rng(1)
        got, want = new_grads(wide_model), new_grads(wide_model)
        for call in range(3):
            id_lists = _BATCHES[batch](rng, wide_model)
            mask = (rng.random((len(id_lists), wide_model.dim)) >= 0.3) / 0.7 \
                if dropout else None
            _, cache = encode_ids(wide_model, id_lists, dropout_mask=mask)
            d_out = rng.normal(size=(len(id_lists), wide_model.dim))
            encode_backward(wide_model, cache, d_out, got)
            reference_encode_backward(wide_model, id_lists, cache.pooled, mask,
                                      d_out, want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    def test_empty_batch(self, wide_model):
        out, cache = encode_ids(wide_model, [])
        assert out.shape == (0, wide_model.dim)
        grads = new_grads(wide_model)
        encode_backward(wide_model, cache, np.zeros((0, wide_model.dim)), grads)
        assert not grads["embedding"].any() and not grads["projection"].any()

    def test_row_without_ids_rejected(self, wide_model):
        with pytest.raises(ValueError):
            encode_ids(wide_model, [[3], []])

    def test_token_ids_of_text_and_of_tokens_agree(self):
        m = init_encoder(TOKENS, dim=4, seed=0, max_seq_len=3)
        text = "alpha omega beta gamma delta"
        assert m.token_ids(text).tolist() == [m.vocab["alpha"], OOV_INDEX,
                                              m.vocab["beta"]]
        assert np.array_equal(m.token_ids(text.split()), m.token_ids(text))
        assert m.token_ids([]).tolist() == m.token_ids("!!!").tolist() \
            == [OOV_INDEX]


def test_corpus_encode_memory_is_bounded():
    """A corpus-wide encode gathers embedding rows one block at a time:
    5,000 texts x 50 tokens at d=32 would need 64 MB gathered at once."""
    rng = np.random.default_rng(0)
    words = [f"t{i}" for i in range(30_000)]
    model = init_encoder(words, dim=32, seed=0)
    texts = [" ".join(words[j] for j in rng.integers(0, len(words), size=50))
             for _ in range(5_000)]
    tracemalloc.start()
    try:
        out = encode_batch(model, texts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (5_000, 32)
    assert peak < 32 * 2**20


class TestSimilarity:
    def test_dot(self, model):
        m = init_encoder(TOKENS, dim=2, seed=0)
        assert similarity(m, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_cosine_self_is_one(self):
        m = init_encoder(TOKENS, dim=3, seed=0, similarity="cosine")
        u = np.array([1.0, 2.0, -1.0])
        assert similarity(m, u, u) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        m = init_encoder(TOKENS, dim=2, seed=0, similarity="cosine")
        assert similarity(m, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_cosine_zero_vector_rejected(self):
        m = init_encoder(TOKENS, dim=2, seed=0, similarity="cosine")
        with pytest.raises(ValueError):
            similarity(m, np.zeros(2), np.array([1.0, 0.0]))


class TestApplyGradients:
    def test_zero_gradients_no_change(self, model):
        before = model.embedding.copy()
        apply_gradients(model, new_grads(model), OptimizerState(0.1))
        np.testing.assert_array_equal(model.embedding, before)

    def test_zero_lr_increments_step_only(self, model):
        grads = new_grads(model)
        grads["embedding"] += 1.0
        before = model.embedding.copy()
        opt = OptimizerState(0.0)
        apply_gradients(model, grads, opt)
        np.testing.assert_array_equal(model.embedding, before)
        assert opt.step_count == 1

    def test_sgd_update_value(self, model):
        grads = new_grads(model)
        grads["embedding"][0, 0] = 2.0
        model.embedding[0, 0] = 1.0
        apply_gradients(model, grads, OptimizerState(0.1))
        assert model.embedding[0, 0] == pytest.approx(0.8)

    def test_shape_mismatch(self, model):
        with pytest.raises(ValueError):
            apply_gradients(model, {"embedding": np.zeros((1, 1))},
                            OptimizerState(0.1))


class TestGradCheck:
    def test_quadratic_loss(self):
        params = {"theta": np.array([3.0])}

        def loss_fn(p):
            return float(p["theta"][0] ** 2), {"theta": 2.0 * p["theta"]}

        report = finite_diff_gradcheck(loss_fn, params, epsilon=1e-4)
        assert report.passed
        assert report.max_rel_err < 1e-6

    def test_wrong_gradient_fails(self):
        params = {"theta": np.array([3.0])}

        def loss_fn(p):
            return float(p["theta"][0] ** 2), {"theta": 3.0 * p["theta"]}

        assert not finite_diff_gradcheck(loss_fn, params).passed

    def test_epsilon_range_enforced(self, model):
        with pytest.raises(ValueError):
            finite_diff_gradcheck(lambda m: (0.0, new_grads(m)), model,
                                  epsilon=1e-2)

    @pytest.mark.parametrize("seed", range(5))
    def test_marginmse_through_encoder(self, seed):
        m = init_encoder(TOKENS, dim=6, seed=seed, init_scale=0.3)
        texts = ["alpha beta", "gamma delta"]
        pos = ["epsilon zeta", "eta theta"]
        neg = ["iota", "kappa alpha"]
        targets = np.array([1.0, -2.0])

        def loss_fn(model_):
            q, qc = encode_ids(model_, [model_.token_ids(t) for t in texts])
            p, pc = encode_ids(model_, [model_.token_ids(t) for t in pos])
            n, nc = encode_ids(model_, [model_.token_ids(t) for t in neg])
            pred = (q * p).sum(1) - (q * n).sum(1)
            loss, d = margin_mse_loss(pred, targets)
            grads = new_grads(model_)
            encode_backward(model_, qc, d[:, None] * (p - n), grads)
            encode_backward(model_, pc, d[:, None] * q, grads)
            encode_backward(model_, nc, -d[:, None] * q, grads)
            return loss, grads

        assert finite_diff_gradcheck(loss_fn, m, tolerance=1e-4).passed

    @pytest.mark.parametrize("seed", range(5))
    def test_mnrl_through_encoder(self, seed):
        m = init_encoder(TOKENS, dim=6, seed=seed, init_scale=0.3)
        texts = ["alpha beta", "gamma", "delta epsilon", "zeta eta"]
        cfg = LossConfig(tau=20.0, similarity="cosine")

        def loss_fn(model_):
            q, qc = encode_ids(model_, [model_.token_ids(t) for t in texts])
            p, pc = encode_ids(model_, [model_.token_ids(t) for t in texts[::-1]])
            loss, gq, gp = mnrl_loss(q, p, cfg)
            grads = new_grads(model_)
            encode_backward(model_, qc, gq, grads)
            encode_backward(model_, pc, gp, grads)
            return loss, grads

        assert finite_diff_gradcheck(loss_fn, m, tolerance=1e-4).passed


class TestCheckpoint:
    def test_round_trip(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab == model.vocab
        assert loaded.pooling == model.pooling
        assert loaded.similarity == model.similarity
        assert loaded.max_seq_len == model.max_seq_len
        np.testing.assert_array_equal(loaded.embedding, model.embedding)
        np.testing.assert_array_equal(loaded.projection, model.projection)

    def test_byte_stable(self, model, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_version_check(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError):
            load_model(path)


class TestLexicalOverlapCE:
    def test_identical_texts_equal_scores(self):
        ce = lexical_overlap_ce()
        assert ce("a b", "x a b y") == ce("a b", "a b x y")

    def test_full_overlap_hits_scale(self):
        ce = lexical_overlap_ce(scale=10.0)
        assert ce("alpha beta", "alpha beta gamma") == pytest.approx(10.0)

    def test_no_overlap_zero(self):
        ce = lexical_overlap_ce()
        assert ce("alpha", "beta gamma") == 0.0

    def test_deterministic(self):
        ce = lexical_overlap_ce()
        assert ce("a b c", "a c d") == ce("a b c", "a c d")
