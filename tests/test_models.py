"""Reference encoder, SGD, gradcheck, and checkpoint round-trip."""

import copy
import json
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from denseadapt import models
from denseadapt.corpus import ParseError, tokenize
from denseadapt.models import (NUM_RESERVED, OOV_INDEX, CrossEncoderScorer,
                               EncoderModel, Tokens, apply_gradients,
                               encode_backward, encode_batch, encode_ids,
                               init_encoder, lexical_overlap_ce, load_model,
                               new_grads, save_model)
from denseadapt.training import LossConfig, margin_mse_loss, mnrl_loss
from gradcheck import as_dense, finite_diff_gradcheck

TOKENS = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()


@pytest.fixture
def model():
    return init_encoder(TOKENS, dim=8, seed=0, init_scale=0.3)


class TestInitEncoder:
    @pytest.mark.parametrize("setting, value, message", [
        ("init_scale", -1.0, r"init_scale must be > 0; got -1\.0"),
        ("init_scale", 0.0, r"init_scale must be > 0; got 0\.0"),
        ("dim", 0, "dim must be >= 1; got 0"),
        ("max_seq_len", 0, "max_seq_len must be >= 1; got 0"),
    ])
    def test_out_of_interval_setting_rejected(self, setting, value, message):
        with pytest.raises(ValueError, match=message):
            init_encoder(TOKENS, **{setting: value})


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


def dense_grads(model):
    """Zero gradients of every parameter as whole arrays, for the reference."""
    return {name: np.zeros(p.shape) for name, p in model.parameters().items()}


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
        out, cache = encode_ids(wide_model, Tokens.of(id_lists),
                                dropout_mask=mask)
        want, pooled = reference_encode_ids(wide_model, id_lists, mask)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache.pooled, pooled, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch", sorted(_BATCHES))
    @pytest.mark.parametrize("dropout", [False, True])
    def test_backward_bit_identical_over_three_calls(self, wide_model, batch,
                                                     dropout):
        rng = np.random.default_rng(1)
        got, want = new_grads(wide_model), dense_grads(wide_model)
        for call in range(3):
            id_lists = _BATCHES[batch](rng, wide_model)
            mask = (rng.random((len(id_lists), wide_model.dim)) >= 0.3) / 0.7 \
                if dropout else None
            _, cache = encode_ids(wide_model, Tokens.of(id_lists),
                                  dropout_mask=mask)
            d_out = rng.normal(size=(len(id_lists), wide_model.dim))
            encode_backward(wide_model, cache, d_out, got)
            reference_encode_backward(wide_model, id_lists, cache.pooled, mask,
                                      d_out, want)
        params = wide_model.parameters()
        for name in want:
            assert np.array_equal(as_dense(params[name], got[name]),
                                  want[name]), name

    def test_empty_batch(self, wide_model):
        out, cache = encode_ids(wide_model, Tokens.of([]))
        assert out.shape == (0, wide_model.dim)
        for grads in (new_grads(wide_model), new_grads(wide_model, Tokens.of([]))):
            encode_backward(wide_model, cache, np.zeros((0, wide_model.dim)),
                            grads)
            _, block = grads["embedding"]
            assert not block.any() and not grads["projection"].any()

    def test_row_without_ids_rejected(self, wide_model):
        with pytest.raises(ValueError):
            Tokens.of([[3], []])

    def test_token_ids_of_a_text(self):
        m = init_encoder(TOKENS, dim=4, seed=0, max_seq_len=3)
        text = "alpha omega beta gamma delta"
        assert m.token_ids(text).tolist() == [m.vocab["alpha"], OOV_INDEX,
                                              m.vocab["beta"]]
        assert m.token_ids("!!!").tolist() == m.token_ids("").tolist() == []
        assert m.tokens(["!!!", text]).ids.tolist() == \
            [OOV_INDEX, *m.token_ids(text)]


# (query, positive, negative) id rows of one step over wide_model's 43-row
# table: ids repeated within a row and across the three, the OOV row, every
# row of the table (as one-token rows, so CLS pooling reads them all too),
# and no rows at all.
_STEPS = {
    "repeats": ([[4, 4, 9], [7, 5, 7]], [[9, 4, 4], [5]],
                [[7, 7, 7], [4, 12, 9]]),
    "oov": ([[OOV_INDEX, 6], [6]], [[OOV_INDEX], [8, OOV_INDEX]],
            [[8, OOV_INDEX, 8], [OOV_INDEX, OOV_INDEX]]),
    "every row": tuple(np.arange(45).reshape(3, 15, 1) % 43),
    "empty": ([], [], []),
}


class TestRowSparseStep:
    """A step's row-sparse gradient and SGD update against the row-at-a-time
    reference backward and a dense SGD step: weights bit-identical."""

    @pytest.mark.parametrize("step", sorted(_STEPS))
    @pytest.mark.parametrize("dropout", [False, True])
    def test_update_bit_identical_to_dense_reference(self, wide_model, step,
                                                     dropout):
        rng = np.random.default_rng(2)
        wide_model.projection = rng.normal(size=wide_model.projection.shape)
        reference = copy.deepcopy(wide_model)
        id_lists = [[list(row) for row in rows] for rows in _STEPS[step]]
        batches = [Tokens.of(rows) for rows in id_lists]
        got, want = new_grads(wide_model, *batches), dense_grads(reference)
        read = {ids[0] if wide_model.pooling == "cls" else i
                for rows in id_lists for ids in rows for i in ids}
        assert got["embedding"][0].tolist() == sorted(read)
        for rows, tokens in zip(id_lists, batches):
            mask = (rng.random((len(rows), wide_model.dim)) >= 0.3) / 0.7 \
                if dropout else None
            _, cache = encode_ids(wide_model, tokens, dropout_mask=mask)
            d_out = rng.normal(size=(len(rows), wide_model.dim))
            encode_backward(wide_model, cache, d_out, got)
            reference_encode_backward(reference, rows, cache.pooled, mask,
                                      d_out, want)
        apply_gradients(wide_model, got, 0.05)
        for name, g in want.items():
            reference.parameters()[name][...] -= 0.05 * g
        assert np.array_equal(wide_model.embedding, reference.embedding)
        assert np.array_equal(wide_model.projection, reference.projection)

    def test_token_outside_the_rows_rejected(self, wide_model):
        grads = new_grads(wide_model, Tokens.of([[3, 4]]))
        _, cache = encode_ids(wide_model, Tokens.of([[5]]))
        with pytest.raises(IndexError):
            encode_backward(wide_model, cache, np.ones((1, wide_model.dim)),
                            grads)


class TestTokensTake:
    """take(rows) against packing the selected id rows afresh."""

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(["mean", "cls"]))
    def test_take_equals_packing_the_rows(self, data, pooling):
        table_rows = data.draw(st.lists(
            st.lists(st.integers(0, 39), min_size=1, max_size=9),
            min_size=1, max_size=12))
        # repeated, shuffled or no rows at all
        picked = data.draw(st.lists(st.integers(0, len(table_rows) - 1),
                                    max_size=20))
        model = init_encoder([f"w{i}" for i in range(37)], dim=5, seed=3,
                             pooling=pooling, init_scale=0.3)
        got = Tokens.of(table_rows).take(picked)
        want = Tokens.of([table_rows[i] for i in picked])
        assert len(got) == len(picked)
        assert got.ids.dtype == want.ids.dtype == np.intp
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.lengths, want.lengths)

        rng = np.random.default_rng(len(picked))
        d_out = rng.normal(size=(len(picked), model.dim))
        grads = []
        for tokens in (got, want):
            out, cache = encode_ids(model, tokens)
            g = new_grads(model)
            encode_backward(model, cache, d_out, g)
            grads.append((out, g))
        (out_got, g_got), (out_want, g_want) = grads
        assert np.array_equal(out_got, out_want)
        params = model.parameters()
        for name in g_want:
            assert np.array_equal(as_dense(params[name], g_got[name]),
                                  as_dense(params[name], g_want[name])), name


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


class TestApplyGradients:
    def test_zero_gradients_no_change(self, model):
        before = model.embedding.copy()
        apply_gradients(model, new_grads(model), 0.1)
        np.testing.assert_array_equal(model.embedding, before)

    def test_zero_lr_leaves_weights(self, model):
        grads = new_grads(model)
        grads["embedding"][1][...] = 1.0
        before = model.embedding.copy()
        apply_gradients(model, grads, 0.0)
        np.testing.assert_array_equal(model.embedding, before)

    def test_sgd_update_value(self, model):
        grads = new_grads(model)
        grads["embedding"][1][0, 0] = 2.0
        model.embedding[0, 0] = 1.0
        apply_gradients(model, grads, 0.1)
        assert model.embedding[0, 0] == pytest.approx(0.8)

    def test_row_sparse_update_touches_only_its_rows(self, model):
        rows = np.array([0, 5])
        grads = {"embedding": (rows, np.full((2, model.dim), 2.0))}
        before = model.embedding.copy()
        apply_gradients(model, grads, 0.1)
        np.testing.assert_array_equal(model.embedding[rows], before[rows] - 0.2)
        others = np.setdiff1d(np.arange(model.vocab_size), rows)
        np.testing.assert_array_equal(model.embedding[others], before[others])

    @pytest.mark.parametrize("grad", [
        (slice(None), np.zeros((1, 1))),
        (np.array([0, 1]), np.zeros((1, 8))),
    ], ids=["dense", "row-sparse"])
    def test_shape_mismatch(self, model, grad):
        with pytest.raises(ValueError):
            apply_gradients(model, {"embedding": grad}, 0.1)


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
            q, qc = encode_ids(model_, model_.tokens(texts))
            p, pc = encode_ids(model_, model_.tokens(pos))
            n, nc = encode_ids(model_, model_.tokens(neg))
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
            q, qc = encode_ids(model_, model_.tokens(texts))
            p, pc = encode_ids(model_, model_.tokens(texts[::-1]))
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


# Tokens a checkpoint must carry through unchanged: quotes, backslashes,
# non-ASCII characters, the writer's slot string, a key-like and a
# base64-like text, and long tokens.
ODD_TOKENS = ['say "hi"', "back\\slash", '\\"', "na\u00efve", "\u65e5\u672c",
              "<payload>", "data", '"data": "QUJD', "QUJD" * 2_500,
              "x" * 10_000]


def checkpoint_model(rows: int, dim: int, tokens, seed: int) -> EncoderModel:
    """rows x dim weights with zeros, signed zeros, NaN and infinities; the
    given tokens first in the vocabulary, then filler up to `rows`."""
    rng = np.random.default_rng(seed)
    embedding = rng.normal(size=(rows, dim))
    embedding.flat[rng.integers(0, embedding.size, size=4)] = \
        [0.0, -0.0, np.nan, -np.inf]
    names = list(dict.fromkeys(tokens)) + \
        [f"w{i}" for i in range(max(0, rows - NUM_RESERVED))]
    vocab = {t: NUM_RESERVED + i
             for i, t in enumerate(names[:max(0, rows - NUM_RESERVED)])}
    return EncoderModel(vocab, embedding, rng.normal(size=(dim, dim)),
                        pooling="cls", similarity="cosine", max_seq_len=17)


def assert_same_model(got: EncoderModel, want: EncoderModel) -> None:
    assert got.vocab == want.vocab
    assert (got.pooling, got.similarity, got.max_seq_len) == \
        (want.pooling, want.similarity, want.max_seq_len)
    for name in ("embedding", "projection"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == np.float64
        assert a.tobytes() == b.tobytes(), name
        assert a.flags.writeable and a.flags.c_contiguous


# 3 << 16 bytes is one write block: 24,576 float64 values.
@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 3_000), dim=st.integers(1, 64),
       tokens=st.lists(st.sampled_from(ODD_TOKENS) | st.text(max_size=12),
                       max_size=12),
       seed=st.integers(0, 2**32 - 1))
@example(rows=768, dim=32, tokens=ODD_TOKENS, seed=0)
@example(rows=769, dim=32, tokens=ODD_TOKENS, seed=1)
@example(rows=1_535, dim=16, tokens=[], seed=2)
@example(rows=3_072, dim=8, tokens=[], seed=3)
@example(rows=30_003, dim=32, tokens=ODD_TOKENS, seed=4)
def test_checkpoint_bytes_equal_the_json_writer_and_round_trip(rows, dim,
                                                                tokens, seed):
    model = checkpoint_model(rows, dim, tokens, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path, want = Path(tmp) / "model.json", Path(tmp) / "oracle.json"
        save_model(model, path)
        oracles.save_checkpoint(model, want)
        assert path.read_bytes() == want.read_bytes()
        assert_same_model(load_model(path), model)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 12), dim=st.integers(1, 5),
       tokens=st.lists(st.sampled_from(ODD_TOKENS[:-2]), max_size=8),
       block=st.integers(1, 80).map(lambda k: 3 * k),
       vocab_block=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip_with_any_block_boundary(rows, dim, tokens,
                                                       block, vocab_block,
                                                       seed):
    """With blocks of a few bytes, block boundaries fall inside keys,
    escapes and payloads; with blocks of a few vocabulary entries, between
    any two entries."""
    model = checkpoint_model(rows, dim, tokens, seed)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(models, "_PAYLOAD_BLOCK", block), \
            mock.patch.object(models, "_VOCAB_BLOCK", vocab_block):
        path, want = Path(tmp) / "model.json", Path(tmp) / "oracle.json"
        save_model(model, path)
        oracles.save_checkpoint(model, want)
        assert path.read_bytes() == want.read_bytes()
        assert_same_model(load_model(path), model)


def reversed_keys(obj):
    if isinstance(obj, dict):
        return {k: reversed_keys(obj[k]) for k in reversed(obj)}
    return obj


@pytest.mark.parametrize("dump", [lambda doc: json.dumps(doc, indent=2),
                                  lambda doc: json.dumps(reversed_keys(doc))],
                         ids=["indent-2", "unsorted-keys"])
def test_checkpoint_reserialized_loads(tmp_path, dump):
    model = checkpoint_model(700, 16, ODD_TOKENS, seed=5)
    path = tmp_path / "model.json"
    oracles.save_checkpoint(model, path)
    path.write_text(dump(json.loads(path.read_text())))
    assert_same_model(load_model(path), model)
    assert_same_model(oracles.load_checkpoint(path), model)


def test_checkpoint_memory_is_bounded(tmp_path):
    """Neither direction holds a whole payload beside the array: the
    JSON/base64 round trip peaked at 4.0x (save) and 4.3x (load) the
    embedding's bytes."""
    model = init_encoder([f"t{i}" for i in range(30_000)], dim=32, seed=0)
    path = tmp_path / "model.json"
    peaks = {}
    for name, call in (("save", lambda: save_model(model, path)),
                       ("load", lambda: load_model(path))):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["save"] <= model.embedding.nbytes
    assert peaks["load"] <= 2 * model.embedding.nbytes


def test_checkpoint_save_holds_no_whole_vocabulary_text(tmp_path):
    """save_model writes the sorted vocabulary a block of entries at a
    time: dumping the whole document at once peaked at 0.76x the
    embedding's bytes at V = 30k, d = 32."""
    model = init_encoder([f"t{i}" for i in range(30_000)], dim=32, seed=0)
    tracemalloc.start()
    try:
        save_model(model, tmp_path / "model.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= model.embedding.nbytes / 8


def _edit(field: str, value):
    def edit(doc):
        *parents, key = field.split(".")
        obj = doc
        for parent in parents:
            obj = obj[parent]
        obj[key] = value(obj[key]) if callable(value) else value
        return json.dumps(doc, sort_keys=True)
    return edit


def _last_bits_set(data: str) -> str:
    """The same base64 with a nonzero bit where padding needs a zero."""
    alphabet = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                "0123456789+/")
    body = data.rstrip("=")
    last = alphabet[alphabet.index(body[-1]) | 1]
    return body[:-1] + last + data[len(body):]


@pytest.mark.parametrize("edit, reason", [
    (_edit("format_version", True), "unsupported checkpoint format version True"),
    (_edit("max_seq_len", "17"), "max_seq_len must be an int"),
    (_edit("max_seq_len", 17.0), "max_seq_len must be an int"),
    (_edit("pooling", "max"), "unknown pooling 'max'"),
    (_edit("similarity", None), "unknown similarity None"),
    (_edit("embedding", [1.0]),
     "embedding must be an object with shape and data"),
    (_edit("embedding.shape", [-1, 4]),
     "embedding.shape must be a list of non-negative ints"),
    (_edit("embedding.shape", [8, 4.0]),
     "embedding.shape must be a list of non-negative ints"),
    (_edit("embedding.shape", [4, 8]),
     "embedding.shape [4, 8] does not match its data (104 bytes)"),
    (_edit("embedding.shape", [13]),
     "embedding table must be (vocab, d) with d > 0"),
    (_edit("projection.shape", [2, 2]),
     "projection.shape [2, 2] does not match its data (8 bytes)"),
    (_edit("projection.shape", [1]), "projection must be (d, d)"),
    (_edit("embedding.data", 7), "embedding.data is not a canonical base64 string"),
    (_edit("embedding.data", lambda d: d.rstrip("=")),
     "embedding.data is not a canonical base64 string"),
    (_edit("embedding.data", _last_bits_set),
     "embedding.data is not a canonical base64 string"),
    (_edit("embedding.data", lambda d: "AA==" + d),
     "embedding.data is not a canonical base64 string"),
    (_edit("embedding.data", lambda d: d[:8] + "\n" + d[8:]),
     "embedding.data is not a canonical base64 string"),
    (_edit("projection.data", lambda d: d[:4] + "*" + d[5:]),
     "projection.data is not a canonical base64 string"),
    (_edit("vocab", ["a"]), "vocab must map tokens to int row ids in [3, 13)"),
    (_edit("vocab", {"a": 13}), "vocab must map tokens to int row ids in [3, 13)"),
    (_edit("vocab", {"a": 2}), "vocab must map tokens to int row ids in [3, 13)"),
    (_edit("vocab", {"a": True}), "vocab must map tokens to int row ids in [3, 13)"),
    (_edit("vocab", {"a": 3.0}), "vocab must map tokens to int row ids in [3, 13)"),
])
def test_malformed_checkpoint_field_raises_parse_error(tmp_path, edit, reason):
    """13 x 1 embedding (104 bytes, padded base64) and a 1 x 1 projection
    (8 bytes)."""
    model = checkpoint_model(13, 1, ["a"], seed=6)
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(edit(json.loads(path.read_text())))
    with pytest.raises(ParseError) as e:
        load_model(path)
    assert str(e.value) == f"{path}: {reason}"


@pytest.mark.parametrize("edit", [
    lambda d: d[:5] + "*" + d[6:],
    lambda d: "AA==" + d[4:],
    lambda d: d[:8] + "\n" + d[9:],
], ids=["foreign-character", "padding", "raw-newline"])
def test_bad_character_in_an_early_block_is_rejected(tmp_path, edit):
    """With 12-byte blocks the payload spans many blocks; a flaw in the
    first one is caught though the rest decodes."""
    path = tmp_path / "model.json"
    save_model(checkpoint_model(13, 2, [], seed=8), path)
    path.write_text(_edit("embedding.data", edit)(json.loads(path.read_text())))
    with mock.patch.object(models, "_PAYLOAD_BLOCK", 12), \
            pytest.raises(ParseError) as e:
        load_model(path)
    assert str(e.value) == \
        f"{path}: embedding.data is not a canonical base64 string"


def _escaped(text: str, at: str) -> str:
    """text with the first character after `at` written as a JSON escape."""
    i = text.index(at) + len(at)
    return text[:i] + f"\\u{ord(text[i]):04x}" + text[i + 1:]


@pytest.mark.parametrize("edit, reason", [
    (lambda t: t[:len(t) // 2], "not a JSON checkpoint (Unterminated string"),
    (lambda t: t + " x", "not a JSON checkpoint (Extra data"),
    (lambda t: _escaped(t, '"projection": {"data": "'),
     "projection.data is not a canonical base64 string"),
    (lambda t: t.replace('"data": "', '"data": "\\/', 1),
     "embedding.data is not a canonical base64 string"),
], ids=["truncated", "trailing-text", "unicode-escape", "escaped-slash"])
def test_checkpoint_with_broken_json_or_escaped_data_is_rejected(
        tmp_path, edit, reason):
    """A payload is plain base64: the writer never escapes one."""
    path = tmp_path / "model.json"
    save_model(checkpoint_model(13, 1, ["a"], seed=6), path)
    path.write_text(edit(path.read_text()))
    with pytest.raises(ParseError) as e:
        load_model(path)
    assert str(e.value).startswith(f"{path}: {reason}")


def test_data_value_outside_the_arrays_is_ignored(tmp_path):
    """A `data` string under another key is decoded or rejected on its own,
    and a key that ends in `"data` is no `data` key; the arrays keep their
    payloads."""
    model = checkpoint_model(13, 2, ODD_TOKENS, seed=7)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["notes"] = {"data": "not base64!", "more": {"data": "QUJD"},
                    'x"data': "QUJD"}
    path.write_text(json.dumps(doc))
    assert_same_model(load_model(path), model)


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

    QUERIES = ["alpha beta", "", "!!! ... --", "alpha alpha beta beta",
               "alpha\u00a0beta\u2003gamma\u3000delta", "Beta, ALPHA.",
               "zeta", "alpha beta"]
    PASSAGES = ["alpha beta gamma", "", "?!", "ALPHA\tbeta\nbeta",
                "gamma\u2003delta\u00a0alpha", "eta theta", "alpha beta",
                "beta; alpha, zeta!"]

    @pytest.mark.parametrize("scale", [10.0, 3.0, 0.1, -2.5, 7])
    def test_batch_equals_per_pair_formula_bit_for_bit(self, scale):
        """Every query against every passage, one pair repeated and one
        text on both sides of the call; the one-pair call agrees too."""
        pairs = [(q, p) for q in self.QUERIES for p in self.PASSAGES]
        pairs += [pairs[9], ("alpha beta", "alpha beta"), pairs[9]]
        queries, passages = map(list, zip(*pairs))
        ce = lexical_overlap_ce(scale)
        got = ce.score_pairs(queries, passages)
        want = np.array([oracles.lexical_overlap_score(q, p, scale)
                         for q, p in pairs])
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert all(ce(q, p) == w for (q, p), w in zip(pairs, want.tolist()))

    def test_batch_over_several_chunks_equals_formula(self):
        rng = np.random.default_rng(4)
        words = [f"t{i}" for i in range(30)] + ["T1,", "t2.", "(t3)", "--"]
        texts = [" ".join(rng.choice(words, size=int(rng.integers(0, 12))))
                 for _ in range(200)]
        n = 2 * 1024 + 7
        queries = [texts[i] for i in rng.integers(0, 200, size=n)]
        passages = [texts[i] for i in rng.integers(0, 200, size=n)]
        want = np.array([oracles.lexical_overlap_score(q, p)
                         for q, p in zip(queries, passages)])
        got = lexical_overlap_ce().score_pairs(queries, passages)
        assert got.tobytes() == want.tobytes()

    def test_empty_call(self):
        got = lexical_overlap_ce().score_pairs([], [])
        assert got.dtype == np.float64 and got.shape == (0,)

    def test_tokenizes_each_distinct_text_once(self, monkeypatch):
        calls = Counter()

        def counting(text):
            calls[text] += 1
            return tokenize(text)

        monkeypatch.setattr(models, "tokenize", counting)
        lexical_overlap_ce().score_pairs(
            ["a b", "a b", "c", "x y", "a b"],
            ["x y", "a z", "x y", "c", "x y"])
        assert calls == Counter(["a b", "c", "x y", "a z"])


class TestCrossEncoderScorer:
    def test_scores_come_back_as_float64(self):
        ce = CrossEncoderScorer(oracles.pairwise(lambda q, p: len(q) - len(p)))
        got = ce.score_pairs(["abc", "a"], ["a", "abcd"])
        assert got.dtype == np.float64
        assert got.tolist() == [2.0, -3.0]
        assert ce("ab", "a") == 1.0

    def test_function_scores_the_lists(self):
        calls = []

        def batch(queries, passages):
            calls.append((list(queries), list(passages)))
            return [len(q) for q in queries]

        ce = CrossEncoderScorer(batch)
        assert ce.score_pairs(["ab", "c"], ["x", "y"]).tolist() == [2.0, 1.0]
        assert ce("abc", "z") == 3.0
        assert calls == [(["ab", "c"], ["x", "y"]), (["abc"], ["z"])]

    def test_unequal_lists_rejected(self):
        ce = CrossEncoderScorer(oracles.pairwise(lambda q, p: 0.0))
        with pytest.raises(ValueError, match="2 query texts for 1 passage"):
            ce.score_pairs(["a", "b"], ["c"])

    def test_batch_of_wrong_shape_rejected(self):
        ce = CrossEncoderScorer(lambda qs, ps: [0.0])
        with pytest.raises(ValueError, match=r"2 pairs scored as shape \(1,\)"):
            ce.score_pairs(["a", "b"], ["c", "d"])
