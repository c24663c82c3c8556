"""Corruption statistics (3-sigma binomial/multinomial checks), per-objective
gradient checks, and degenerate-case guards."""

import math
import tracemalloc

import numpy as np
import pytest

from denseadapt import pretraining
from denseadapt.corpus import Passage
from denseadapt.models import (NUM_RESERVED, EncoderModel, encode_ids,
                               init_encoder, new_grads)
from denseadapt.pretraining import (PRETRAIN_METHODS, PretrainConfig, ct_step,
                                    ict_example, init_condensor_head,
                                    mlm_corrupt, pretrain, simcse_pairs,
                                    simcse_step, split_sentences,
                                    token_cross_entropy, tsdae_corrupt,
                                    tsdae_loss, udalm_step)
from denseadapt.training import LossConfig, TrainRunConfig, mnrl_loss
from denseadapt.util import derive_seed
from gradcheck import as_dense, finite_diff_gradcheck
import oracles
from oracles import condensor_loss, mlm_loss

TOKENS = [f"w{i}" for i in range(24)]


def mlm_item_loss(model, text, mask_ratio, rng):
    """Masked prediction on one text's id row, as `pretrain` scores it."""
    ids = model.token_ids(text)
    corrupted, positions, _ = mlm_corrupt(ids, model.vocab_size, mask_ratio, rng)
    return mlm_loss(model, ids, corrupted, positions)


@pytest.fixture
def model():
    return init_encoder(TOKENS, dim=6, seed=0, init_scale=0.3)


class TestTokenCrossEntropy:
    def test_uniform_logits_cost_log_vocab(self):
        logits = np.zeros((4, 50))
        loss, _ = token_cross_entropy(logits, [1, 2, 3, 4])
        assert loss == pytest.approx(math.log(50))

    def test_oracle_logits_near_zero(self):
        logits = np.full((3, 10), -1000.0)
        targets = [2, 5, 7]
        for i, t in enumerate(targets):
            logits[i, t] = 1000.0
        loss, _ = token_cross_entropy(logits, targets)
        assert loss == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("positions, vocab, scale", [
        (1, 1, 1.0), (1, 20_000, 900.0), (7, 2, 0.01), (33, 17, 900.0),
        (64, 8_400, 30.0), (100, 500, 1.0), (130, 20_000, 1.0),
        (130, 20_000, 900.0)])
    def test_bytes_equal_the_array_by_array_formula(self, positions, vocab,
                                                    scale):
        """At scale 900 exp underflows to 0 for most of a row; half the
        target rows repeat three ids."""
        rng = np.random.default_rng(positions * vocab)
        logits = rng.normal(0.0, scale, size=(positions, vocab))
        targets = np.where(np.arange(positions) % 2,
                           rng.integers(0, vocab, size=positions),
                           rng.integers(0, min(vocab, 3), size=positions))
        want_loss, want_grad = oracles.token_cross_entropy(logits, targets)
        loss, grad = token_cross_entropy(logits, targets)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("targets", [[-1, 2], [0, 5]])
    def test_rejects_target_outside_vocabulary(self, targets):
        with pytest.raises(ValueError, match=r"target ids must be in \[0, 5\)"):
            token_cross_entropy(np.zeros((2, 5)), targets)

    def test_rejects_non_finite_loss(self):
        logits = np.zeros((2, 5))
        logits[1, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            token_cross_entropy(logits, [0, 1])


def test_tsdae_item_holds_one_logits_buffer():
    """One item at 120 positions over 20k tokens (d=32) holds a single
    (positions x V) float64 array besides a few V x d ones; six copies of
    the logits would need about 115 MB."""
    positions, vocab, dim = 120, 20_000, 32
    model = init_encoder([f"t{i}" for i in range(vocab - NUM_RESERVED)],
                         dim=dim, seed=0)
    decoder = init_condensor_head(dim, seed=1)
    ids = np.random.default_rng(2).integers(NUM_RESERVED, vocab, size=positions)
    corrupted = tsdae_corrupt(ids, 0.6, rng=3)
    tracemalloc.start()
    try:
        tsdae_loss(model, decoder, ids, corrupted)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * positions * vocab * 8 + 4 * vocab * dim * 8


STEP_VOCAB, STEP_DIM = 20_000, 8


def tied_output_step_peak(method: str) -> int:
    """Traced peak of one `pretrain` step over four 300-token passages at
    a STEP_VOCAB vocabulary (d = STEP_DIM)."""
    words = [f"t{i}" for i in range(STEP_VOCAB - NUM_RESERVED)]
    model = init_encoder(words, dim=STEP_DIM, seed=0, max_seq_len=300,
                         pooling="cls" if method == "cd" else "mean")
    rng = np.random.default_rng(1)
    passages = [Passage(f"p{i}", "", " ".join(rng.choice(words, size=300)))
                for i in range(4)]
    cfg = PretrainConfig(method=method, steps=1, batch_size=4,
                         learning_rate=0.01, seed=3)
    tracemalloc.start()
    try:
        pretrain(model, passages, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", ["tsdae", "mlm", "cd"])
def test_tied_output_step_holds_one_logits_block(method):
    """One step holds at most 2 MiB of logits besides four V x d arrays;
    one TSDAE item's whole (positions x V) logits would take 300 x 20k x
    8 B, about 46 MiB, and one masked item's 45 positions about 7 MiB."""
    peak = tied_output_step_peak(method)
    assert peak <= 2 * 2**20 + 4 * STEP_VOCAB * STEP_DIM * 8


@pytest.mark.parametrize("method", ["tsdae", "mlm", "cd"])
def test_tied_output_step_holds_one_vocabulary_gradient(method):
    """Besides the 2 MiB logits block, one step holds the V x d embedding
    gradient, one block of its rows and the step's small arrays: at most
    1.75 x V x d x 8 B. A second whole V x d array for each logits block's
    product makes that 2.05-2.49 x."""
    peak = tied_output_step_peak(method)
    unit = STEP_VOCAB * STEP_DIM * 8
    assert peak <= 2 * 2**20 + 1.75 * unit, (peak - 2 * 2**20) / unit


GRAD_ROWS = pretraining._GRAD_BLOCK // 8  # rows of a block at d = 8


def tied_output_items(model, method: str, n_items: int = 3) -> list:
    """A batch of `method`'s items over random 40-token rows, as
    `pretrain` builds them."""
    rng = np.random.default_rng(model.vocab_size)
    items = []
    for j in range(n_items):
        ids = rng.integers(NUM_RESERVED, model.vocab_size, size=40)
        if method == "tsdae":
            items.append(pretraining._tsdae_item(ids, tsdae_corrupt(
                ids, 0.6, rng=j)))
        else:
            items.append(pretraining._masked_item(ids, *mlm_corrupt(
                ids, model.vocab_size, 0.3, rng=j)[:2]))
    return items


def assert_bit_identical(got, want):
    (loss, grads), (want_loss, want_grads) = got, want
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grads.keys() == want_grads.keys()
    for name in grads:
        got_grad, want_grad = grads[name], want_grads[name]
        if name == "embedding":  # (rows, block) pairs over every row
            assert got_grad[0] == want_grad[0] == slice(None)
            got_grad, want_grad = got_grad[1], want_grad[1]
        assert np.array_equal(got_grad, want_grad), name


class TestBlockedVocabularyGradient:
    """The embedding gradient formed a block of vocabulary rows at a time
    is bit-identical to one whole V x d product per logits block."""

    @pytest.mark.parametrize("vocab", [
        1_000, 3 * GRAD_ROWS, 3 * GRAD_ROWS + 1, 3 * GRAD_ROWS + 2,
        GRAD_ROWS + 1])
    @pytest.mark.parametrize("method", ["tsdae", "mlm", "cd"])
    def test_matches_one_product(self, method, vocab):
        model = init_encoder([f"t{i}" for i in range(vocab - NUM_RESERVED)],
                             dim=8, seed=vocab, init_scale=0.3,
                             pooling="cls" if method == "cd" else "mean")
        head = None if method == "mlm" else init_condensor_head(8, seed=1)
        args = (model, tied_output_items(model, method), 0.25, head)
        assert_bit_identical(pretraining._tied_output_loss(*args),
                             oracles.tied_output_loss(*args))

    @pytest.mark.parametrize("method", ["tsdae", "mlm"])
    def test_single_position_logits_blocks(self, method, monkeypatch):
        """A logits block of one position: its product is an outer
        product, blocked or not."""
        monkeypatch.setattr(pretraining, "_LOGIT_BLOCK", 1)
        vocab = 2 * GRAD_ROWS + 1
        model = init_encoder([f"t{i}" for i in range(vocab - NUM_RESERVED)],
                             dim=8, seed=4, init_scale=0.3)
        head = None if method == "mlm" else init_condensor_head(8, seed=1)
        args = (model, tied_output_items(model, method, 2), 0.5, head)
        assert_bit_identical(pretraining._tied_output_loss(*args),
                             oracles.tied_output_loss(*args))

    def test_udalm_step(self, monkeypatch):
        vocab = 3 * GRAD_ROWS + 1
        words = [f"t{i}" for i in range(vocab - NUM_RESERVED)]
        model = init_encoder(words, dim=8, seed=5, init_scale=0.3)
        rng = np.random.default_rng(6)
        texts = [" ".join(rng.choice(words, size=30)) for _ in range(8)]
        source = (model.tokens(texts[:2]), model.tokens(texts[2:4]),
                  model.tokens(texts[4:6]), np.array([1.0, -0.5]))

        def step():
            return udalm_step(model, target_rows(model, texts[6:]), source,
                              mix_weight=0.5, mask_ratio=0.3, rng=7)

        got = step()
        monkeypatch.setattr(pretraining, "_tied_output_loss",
                            oracles.tied_output_loss)
        assert_bit_identical(got, step())


class TestTsdaeCorrupt:
    def test_exact_survivor_count(self):
        tokens = [f"t{i}" for i in range(10)]
        out = tsdae_corrupt(tokens, 0.6, rng=0)
        assert len(out) == 4

    def test_order_preserved(self):
        tokens = [f"t{i}" for i in range(30)]
        out = tsdae_corrupt(tokens, 0.6, rng=1)
        positions = [tokens.index(t) for t in out]
        assert positions == sorted(positions)

    def test_ratio_zero_identity(self):
        tokens = ["a", "b", "c"]
        assert tsdae_corrupt(tokens, 0.0, rng=0) == tokens

    def test_single_token_guard(self):
        assert tsdae_corrupt(["only"], 0.6, rng=0) == ["only"]
        assert tsdae_corrupt(["only"], 1.0, rng=0) == ["only"]

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 17, 100])
    def test_survivor_formula(self, n):
        tokens = [f"t{i}" for i in range(n)]
        out = tsdae_corrupt(tokens, 0.6, rng=3)
        assert len(out) == max(1, n - math.floor(0.6 * n))

    def test_deterministic(self):
        tokens = [f"t{i}" for i in range(20)]
        assert tsdae_corrupt(tokens, 0.6, rng=9) == tsdae_corrupt(tokens, 0.6, rng=9)


class TestTsdaeLoss:
    def test_empty_original_rejected(self, model):
        decoder = init_condensor_head(model.dim, seed=1)
        with pytest.raises(ValueError):
            tsdae_loss(model, decoder, [], [])

    def test_gradcheck(self, model):
        decoder = init_condensor_head(model.dim, seed=1)
        original = model.token_ids("w0 w3 w5 w7 w9 w11")
        corrupted = tsdae_corrupt(original, 0.6, rng=4)
        params = {"embedding": model.embedding, "projection": model.projection,
                  "decoder": decoder}

        def loss_fn(p):
            model.embedding, model.projection = p["embedding"], p["projection"]
            return tsdae_loss(model, p["decoder"], original, corrupted)

        report = finite_diff_gradcheck(loss_fn, params, tolerance=1e-4)
        assert report.passed, report


class TestMlm:
    def test_selection_count_ceiling(self):
        ids = list(range(NUM_RESERVED, NUM_RESERVED + 20))
        _, positions, _ = mlm_corrupt(ids, vocab_size=30, mask_ratio=0.15, rng=0)
        assert len(positions) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mlm_corrupt([], vocab_size=30)

    def test_action_split_multinomial_3sigma(self):
        counts = {"mask": 0, "random": 0, "keep": 0}
        total = 0
        ids = list(range(NUM_RESERVED, NUM_RESERVED + 10))
        draws = 10_000
        for i in range(draws):
            _, _, actions = mlm_corrupt(ids, vocab_size=30, mask_ratio=0.1, rng=i)
            for a in actions:
                counts[a] += 1
                total += 1
        for action, p in (("mask", 0.8), ("random", 0.1), ("keep", 0.1)):
            sigma = math.sqrt(total * p * (1 - p))
            assert abs(counts[action] - total * p) <= 3 * sigma, (action, counts)

    def test_gradcheck(self, model):
        text = "w1 w2 w3 w4 w5 w6 w7 w8"

        def loss_fn(m):
            return mlm_item_loss(m, text, mask_ratio=0.3, rng=11)

        assert finite_diff_gradcheck(loss_fn, model, tolerance=1e-4).passed


class TestIct:
    def test_split_sentences(self):
        text = "First one. Second here! Third? Trailing"
        assert split_sentences(text) == ["First one.", "Second here!",
                                         "Third?", "Trailing"]

    def test_single_sentence_keeps_context(self):
        query, kept = ict_example(["only sentence here."], rng=0)
        context = " ".join(kept)
        assert query == "only sentence here."
        assert context == "only sentence here."

    def test_removal_branch_shrinks_context(self):
        sentences = ["one.", "two.", "three."]
        removed = 0
        for seed in range(200):
            query, kept = ict_example(sentences, mask_prob=1.0, rng=seed)
            context = " ".join(kept)
            assert query not in split_sentences(context)
            assert len(split_sentences(context)) == 2
            removed += 1
        assert removed == 200

    def test_removal_frequency_binomial_3sigma(self):
        sentences = ["alpha one.", "beta two.", "gamma three."]
        draws = 10_000
        removed = 0
        for seed in range(draws):
            _, kept = ict_example(sentences, mask_prob=0.9, rng=seed)
            context = " ".join(kept)
            removed += len(split_sentences(context)) == 2
        sigma = math.sqrt(draws * 0.9 * 0.1)
        assert abs(removed - draws * 0.9) <= 3 * sigma

    def test_no_sentences_rejected(self):
        with pytest.raises(ValueError):
            ict_example([], rng=0)

    def test_gradcheck_through_pair_loss(self, model):
        sentences = ["w0 w1 w2.", "w3 w4.", "w5 w6 w7."]
        pairs = [ict_example(sentences, rng=s) for s in range(3)]
        cfg = LossConfig(tau=10.0, similarity="cosine")

        def loss_fn(m):
            q, qc = encode_ids(m, m.tokens([t for t, _ in pairs]))
            c, cc = encode_ids(m, m.tokens([" ".join(t) for _, t in pairs]))
            loss, gq, gc = mnrl_loss(q, c, cfg)
            grads = new_grads(m)
            from denseadapt.models import encode_backward
            encode_backward(m, qc, gq, grads)
            encode_backward(m, cc, gc, grads)
            return loss, grads

        assert finite_diff_gradcheck(loss_fn, model, tolerance=1e-4).passed


class TestSimcse:
    def test_rate_zero_identical_views(self, model):
        texts = ["w0 w1", "w2 w3"]
        q, p, _, _ = simcse_pairs(model, model.tokens(texts), dropout_rate=0.0,
                                  rng=0)
        np.testing.assert_array_equal(q, p)

    def test_same_seed_identical_pairs(self, model):
        texts = ["w0 w1", "w2 w3", "w4"]
        a = simcse_pairs(model, model.tokens(texts), dropout_rate=0.1, rng=5)
        b = simcse_pairs(model, model.tokens(texts), dropout_rate=0.1, rng=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_invalid_rate_rejected(self, model):
        with pytest.raises(ValueError):
            simcse_pairs(model, model.tokens(["w0"]), dropout_rate=1.0, rng=0)

    def test_regression_anchor_finite_positive(self, model):
        texts = [f"w{i} w{i+1}" for i in range(8)]
        cfg = LossConfig(tau=20.0, similarity="cosine")
        loss, _ = simcse_step(model, model.tokens(texts), cfg,
                              dropout_rate=0.1, rng=7)
        assert np.isfinite(loss) and loss > 0

    def test_gradcheck(self, model):
        cfg = LossConfig(tau=10.0, similarity="cosine")

        def loss_fn(m):
            return simcse_step(m, m.tokens(["w0 w1", "w2 w3", "w4 w5"]), cfg,
                               dropout_rate=0.1, rng=13)

        assert finite_diff_gradcheck(loss_fn, model, tolerance=1e-4).passed


class TestCt:
    def test_equal_encoders_match_simcse_rate_zero(self, model):
        texts = ["w0 w1", "w2 w3", "w4 w5"]
        cfg = LossConfig(tau=10.0, similarity="cosine")
        loss_ct, _, _ = ct_step(model.tokens(texts), model, model, cfg)
        loss_simcse, _ = simcse_step(model, model.tokens(texts), cfg,
                                     dropout_rate=0.0, rng=0)
        assert loss_ct == pytest.approx(loss_simcse, abs=1e-12)

    def test_gradients_flow_to_both(self, model):
        other = init_encoder(TOKENS, dim=6, seed=9, init_scale=0.3)
        tokens = model.tokens(["w0 w1", "w2", "w4 w5"])
        cfg = LossConfig(tau=10.0, similarity="cosine")
        _, grads_a, grads_b = ct_step(tokens, model, other, cfg)
        assert np.any(grads_a["embedding"][1] != 0)
        assert np.any(grads_b["embedding"][1] != 0)

    def test_gradcheck_both_parameter_sets(self, model):
        other = init_encoder(TOKENS, dim=6, seed=9, init_scale=0.3)
        tokens = model.tokens(["w0 w1", "w2 w3", "w4"])
        cfg = LossConfig(tau=10.0, similarity="cosine")
        params = {"a_emb": model.embedding, "a_proj": model.projection,
                  "b_emb": other.embedding, "b_proj": other.projection}

        def loss_fn(p):
            model.embedding, model.projection = p["a_emb"], p["a_proj"]
            other.embedding, other.projection = p["b_emb"], p["b_proj"]
            loss, ga, gb = ct_step(tokens, model, other, cfg)
            return loss, {"a_emb": ga["embedding"], "a_proj": ga["projection"],
                          "b_emb": gb["embedding"], "b_proj": gb["projection"]}

        assert finite_diff_gradcheck(loss_fn, params, tolerance=1e-4).passed


class TestCondensor:
    def test_mean_pooling_rejected(self, model):
        head = init_condensor_head(model.dim, seed=0)
        with pytest.raises(ValueError):
            condensor_loss(model, head, model.token_ids("w0 w1"), rng=0)

    def test_gradcheck(self):
        cls_model = init_encoder(TOKENS, dim=6, seed=3, pooling="cls",
                                 init_scale=0.3)
        head = init_condensor_head(6, seed=4)
        ids = cls_model.token_ids("w0 w2 w4 w6 w8 w10")
        params = {"embedding": cls_model.embedding,
                  "projection": cls_model.projection, "head": head}

        def loss_fn(p):
            cls_model.embedding = p["embedding"]
            cls_model.projection = p["projection"]
            loss, grads = condensor_loss(cls_model, p["head"], ids,
                                         mask_ratio=0.3, rng=21)
            return loss, grads

        assert finite_diff_gradcheck(loss_fn, params, tolerance=1e-4).passed


def target_rows(model, texts):
    """The target texts' token ids as UDALM's masked part takes them."""
    return [model.token_ids(t) for t in texts]


class TestUdalm:
    def source_texts(self):
        return (["w0 w1", "w2"], ["w0 w1 w3", "w2 w4"], ["w5", "w6 w7"],
                [1.0, -0.5])

    def source_batch(self, model):
        q, p, n, margins = self.source_texts()
        return (model.tokens(q), model.tokens(p), model.tokens(n),
                np.asarray(margins))

    def test_mix_weight_validation(self, model):
        with pytest.raises(ValueError):
            udalm_step(model, target_rows(model, ["w0"]),
                       self.source_batch(model), mix_weight=1.5)

    def test_pure_endpoints(self, model):
        from denseadapt.training import margin_mse_loss
        from denseadapt.models import encode_batch

        loss_mse_only, _ = udalm_step(model, target_rows(model, ["w0 w1"]),
                                      self.source_batch(model),
                                      mix_weight=0.0, rng=3)
        q, p, n, margins = self.source_texts()
        q_e = encode_batch(model, q)
        pred = (q_e * encode_batch(model, p)).sum(1) \
            - (q_e * encode_batch(model, n)).sum(1)
        expected, _ = margin_mse_loss(pred, np.asarray(margins))
        assert loss_mse_only == pytest.approx(expected)

        loss_mlm_only, _ = udalm_step(model, target_rows(model, ["w0 w1 w2 w3"]),
                                      self.source_batch(model), mix_weight=1.0,
                                      rng=3)
        loss_mlm_direct, _ = mlm_item_loss(model, "w0 w1 w2 w3", 0.15,
                                           np.random.default_rng(3))
        assert loss_mlm_only == pytest.approx(loss_mlm_direct)

    def test_convex_combination(self, model):
        # with both sub-losses equal, any mix weight returns that value
        target = target_rows(model, ["w0 w1 w2"])
        half, _ = udalm_step(model, target, self.source_batch(model),
                             mix_weight=0.5, rng=5)
        mlm_part, _ = udalm_step(model, target, self.source_batch(model),
                                 mix_weight=1.0, rng=5)
        mse_part, _ = udalm_step(model, target, self.source_batch(model),
                                 mix_weight=0.0, rng=5)
        assert half == pytest.approx(0.5 * mlm_part + 0.5 * mse_part)

    def test_empty_target_text_adds_nothing(self, model):
        # an empty passage has nothing to mask: it adds no loss and no
        # gradient, and the masked part still divides by the batch size
        loss_one, grads_one = udalm_step(model, target_rows(model, ["w0 w1 w2"]),
                                         self.source_batch(model),
                                         mix_weight=1.0, rng=5)
        loss_two, grads_two = udalm_step(model,
                                         target_rows(model, ["w0 w1 w2", ""]),
                                         self.source_batch(model),
                                         mix_weight=1.0, rng=5)
        assert loss_two == pytest.approx(loss_one / 2)
        params = model.parameters()
        for name in grads_one:
            np.testing.assert_allclose(as_dense(params[name], grads_two[name]),
                                       as_dense(params[name], grads_one[name]) / 2)

    def test_gradcheck(self, model):
        def loss_fn(m):
            return udalm_step(m, target_rows(m, ["w0 w1 w2", "w3 w4"]),
                              self.source_batch(m), mix_weight=0.5,
                              mask_ratio=0.3, rng=17)

        assert finite_diff_gradcheck(loss_fn, model, tolerance=1e-4).passed


class TestPretrainLoop:
    def corpus(self):
        return [Passage(f"p{i}", "", f"w{2*i} w{2*i+1} tail. w{(3*i) % 24} end.")
                for i in range(8)]

    @pytest.mark.parametrize("method", ["tsdae", "mlm", "ict", "simcse", "ct"])
    def test_runs_and_returns_model(self, method):
        model = init_encoder(TOKENS, dim=6, seed=1, init_scale=0.2)
        before = model.embedding.copy()
        cfg = PretrainConfig(method=method, steps=5, batch_size=4,
                             learning_rate=0.05, seed=2)
        out, trace = pretrain(model, self.corpus(), cfg)
        assert out is model
        assert [step for step, _ in trace] == list(range(1, 6))
        assert np.any(out.embedding != before)

    def test_cd_requires_cls(self):
        model = init_encoder(TOKENS, dim=6, seed=1)
        cfg = PretrainConfig(method="cd", steps=2, batch_size=2)
        with pytest.raises(ValueError):
            pretrain(model, self.corpus(), cfg)

    def test_cd_runs_with_cls(self):
        model = init_encoder(TOKENS, dim=6, seed=1, pooling="cls",
                             init_scale=0.2)
        cfg = PretrainConfig(method="cd", steps=3, batch_size=4,
                             learning_rate=0.05, seed=2)
        before = model.embedding.copy()
        pretrain(model, self.corpus(), cfg)
        assert np.any(model.embedding != before)

    @pytest.mark.parametrize("method", PRETRAIN_METHODS)
    def test_deterministic(self, method):
        cfg = PretrainConfig(method=method, steps=4, batch_size=4,
                             learning_rate=0.05, seed=8)
        pooling = "cls" if method == "cd" else "mean"
        m1 = init_encoder(TOKENS, dim=6, seed=1, init_scale=0.2, pooling=pooling)
        m2 = init_encoder(TOKENS, dim=6, seed=1, init_scale=0.2, pooling=pooling)
        before = m1.embedding.copy()
        pretrain(m1, self.corpus(), cfg)
        pretrain(m2, self.corpus(), cfg)
        assert np.any(m1.embedding != before)
        np.testing.assert_array_equal(m1.embedding, m2.embedding)
        np.testing.assert_array_equal(m1.projection, m2.projection)

    @pytest.mark.parametrize("steps", [1, 5, 50])
    @pytest.mark.parametrize("method", PRETRAIN_METHODS)
    def test_tokenizes_each_drawn_text_once(self, monkeypatch, method, steps):
        """Each passage the schedule draws is tokenized once (ICT: each of
        its sentences), however many steps run; an undrawn one never."""
        calls = []
        token_ids = EncoderModel.token_ids

        def counted(self, text):
            calls.append(text)
            return token_ids(self, text)

        monkeypatch.setattr(EncoderModel, "token_ids", counted)
        model = init_encoder(TOKENS, dim=6, seed=1, init_scale=0.2,
                             pooling="cls" if method == "cd" else "mean")
        passages = self.corpus()
        pretrain(model, passages, PretrainConfig(
            method=method, steps=steps, batch_size=4, learning_rate=0.05,
            seed=2))
        texts = [p.body for p in passages]
        if method == "ict":  # every passage here has two sentences
            texts = [s for t in texts for s in split_sentences(t)]
        assert len(calls) == len(set(calls)) and set(calls) <= set(texts)
        # One step draws 4 of the 8 passages; by step 5 all have been drawn.
        drawn = 4 if steps == 1 else len(passages)
        assert len(calls) == drawn * len(texts) // len(passages)

    # The loss traces of five steps before the objectives moved to id rows.
    TRACES = {
        ("tsdae", "plain"): [3.296773792937154, 3.29282352660086, 3.2959078039455525, 3.29663456567409, 3.300183037915674],
        ("mlm", "plain"): [3.365294718884588, 3.290277600537666, 3.311383582259862, 3.258835176266321, 3.3015490762983988],
        ("ict", "plain"): [11.364798837480599, 0.9900193974373087, 0.9172328504539609, 1.153659870995603, 0.8989301656187012],
        ("simcse", "plain"): [0.0010834969051500016, 1.4824487571637017, 1.2654251018151115, 0.04634340446300105, 0.8569570254182907],
        ("ct", "plain"): [5.1984024942481355, 2.299115212365349, 2.5669514455756755, 2.192777479915557, 3.0248939251816234],
        ("cd", "plain"): [3.303069142677916, 3.3013194268315957, 3.2970256270110365, 3.304027895834247, 3.294426397905399],
        ("tsdae", "empty"): [3.300655930669157, 2.1939232272287743, 3.2979838324934794, 3.2948884341264075, 3.306716805011956],
        ("mlm", "empty"): [3.281073844755241, 2.195505180832837, 3.314057329695983, 3.278249515700322, 3.291296034484052],
        ("ict", "empty"): [7.155096552094556, 0.5350919381862849, 1.5313102790459965, 1.4981404683925048, 0.8365988664643647],
        ("simcse", "empty"): [0.1902383715471141, 0.6531197121495209, 0.3686142938621204, 0.022626398643183544, 0.021732031780107148],
        ("ct", "empty"): [7.9273847764412695, 3.403749633577974, 2.2149648561659885, 1.2929683928007107, 1.1226908379951652],
        ("cd", "empty"): [3.290407520667012, 2.1968974351276036, 3.2972987193984236, 3.289809559744013, 3.2973688894929025],
    }

    @pytest.mark.parametrize("corpus", ["plain", "empty"])
    @pytest.mark.parametrize("method", PRETRAIN_METHODS)
    def test_loss_trace_pinned(self, method, corpus):
        """Batch size 4, or 3 on a corpus with an empty passage (drawn at
        step 2, where the masked objectives divide its zero by three)."""
        passages = self.corpus()
        if corpus == "empty":
            passages.insert(3, Passage("p-empty", "", ""))
        model = init_encoder(TOKENS, dim=6, seed=1, init_scale=0.2,
                             pooling="cls" if method == "cd" else "mean")
        _, trace = pretrain(model, passages, PretrainConfig(
            method=method, steps=5, batch_size=4 if corpus == "plain" else 3,
            learning_rate=0.05, seed=2))
        assert [loss for _, loss in trace] == pytest.approx(
            self.TRACES[method, corpus], rel=1e-12, abs=0)

    def test_tsdae_deletes_from_the_encoded_row(self, monkeypatch):
        """A text longer than max_seq_len: TSDAE corrupts and reconstructs
        its first max_seq_len ids, the row the encoder sees."""
        seen = []
        corrupt = pretraining.tsdae_corrupt

        def recorded(ids, deletion_ratio, rng):
            corrupted = corrupt(ids, deletion_ratio, rng)
            seen.append((list(ids), list(corrupted)))
            return corrupted

        monkeypatch.setattr(pretraining, "tsdae_corrupt", recorded)
        model = init_encoder(TOKENS, dim=6, seed=1, max_seq_len=4)
        text = " ".join(f"w{i}" for i in range(10))
        cfg = PretrainConfig(method="tsdae", steps=1, batch_size=1, seed=2)
        pretrain(model, [Passage("p0", "", text)], cfg)
        row = [model.vocab[f"w{i}"] for i in range(4)]
        assert seen == [(row, tsdae_corrupt(
            row, 0.6, derive_seed(cfg.seed, "item", 1, 0)))]
        assert len(seen[0][1]) == 2

    @pytest.mark.parametrize("config", [PretrainConfig, TrainRunConfig])
    def test_negative_learning_rate_rejected(self, config):
        with pytest.raises(ValueError, match="learning_rate"):
            config(learning_rate=-0.01)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            PretrainConfig(method="nope")

    @pytest.mark.parametrize("field", ["steps", "batch_size"])
    def test_empty_schedule_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            PretrainConfig(**{field: 0})

    @pytest.mark.parametrize("mask_ratio", [0.0, 1.0])
    def test_mask_ratio_outside_open_interval_rejected(self, mask_ratio):
        """`mlm_corrupt` needs a ratio in (0, 1): the config says so when
        it is made, not at the first masked step."""
        with pytest.raises(ValueError, match="mask_ratio"):
            PretrainConfig(mask_ratio=mask_ratio)
