"""Pre-training objectives on an unlabeled corpus: denoising autoencoding
through the pooled-vector bottleneck, masked-token prediction, inverse cloze
pairs, dropout-based and two-encoder contrastive objectives, CLS-focused
masked prediction, and the multi-task schedule mixing target-corpus masking
with source-domain margin regression."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Passage, passage_text, tokenize
from .models import (BOS_INDEX, MASK_INDEX, NUM_RESERVED, EncoderModel,
                     OptimizerState, apply_gradients, encode_backward,
                     encode_ids, new_grads)
from .training import LossConfig, margin_mse_step, mnrl_loss
from .util import derive_seed

PRETRAIN_METHODS = ("tsdae", "mlm", "ict", "simcse", "ct", "cd")

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


@dataclass(frozen=True)
class PretrainConfig:
    method: str = "tsdae"
    steps: int = 100_000
    batch_size: int = 8
    learning_rate: float = 2e-3
    seed: int = 0
    deletion_ratio: float = 0.6
    mask_ratio: float = 0.15
    ict_mask_prob: float = 0.9
    dropout_rate: float = 0.1
    tau: float = 20.0
    similarity: str = "cosine"

    def __post_init__(self):
        if self.method not in PRETRAIN_METHODS:
            raise ValueError(f"unknown pre-training method {self.method!r}; "
                             f"expected one of {PRETRAIN_METHODS}")
        for name in ("deletion_ratio", "mask_ratio", "ict_mask_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


def token_cross_entropy(logits: np.ndarray, target_ids: Sequence[int]
                        ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over positions; returns (loss, dL/dlogits).

    Uniform logits over a vocabulary of V cost ln(V) per position.
    """
    logits = np.asarray(logits, dtype=float)
    targets = np.asarray(target_ids, dtype=int)
    if logits.ndim != 2 or logits.shape[0] != targets.size or targets.size == 0:
        raise ValueError("logits must be (positions, vocab) matching targets")
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = shift - np.log(denom)
    loss = float(-np.mean(log_probs[np.arange(targets.size), targets]))
    d_logits = exp / denom
    d_logits[np.arange(targets.size), targets] -= 1.0
    return loss, d_logits / targets.size


# --- denoising autoencoder ----------------------------------------------------


def tsdae_corrupt(tokens: Sequence[str], deletion_ratio: float = 0.6,
                  rng=0) -> list[str]:
    """Delete floor(ratio * n) tokens uniformly without replacement.

    Survivor order is preserved and at least one token survives when the
    input is non-empty.
    """
    if not 0.0 <= deletion_ratio <= 1.0:
        raise ValueError("deletion_ratio must be in [0, 1]")
    tokens = list(tokens)
    n = len(tokens)
    if n == 0:
        return []
    rng = np.random.default_rng(rng)
    n_delete = min(math.floor(deletion_ratio * n), n - 1)
    drop = set(rng.choice(n, size=n_delete, replace=False).tolist())
    return [t for i, t in enumerate(tokens) if i not in drop]


@dataclass
class TsdaeDecoder:
    """Linear reconstruction decoder: maps [bottleneck (+) previous-token
    embedding] to a hidden state scored against the tied embedding table."""

    weight: np.ndarray  # (d, 2d)


def init_tsdae_decoder(dim: int, seed: int = 0, scale: float = 0.05) -> TsdaeDecoder:
    rng = np.random.default_rng(seed)
    return TsdaeDecoder(rng.normal(0.0, scale, size=(dim, 2 * dim)))


def tsdae_loss(model: EncoderModel, decoder: TsdaeDecoder,
               original_tokens: Sequence[str], corrupted_tokens: Sequence[str]
               ) -> tuple[float, dict[str, np.ndarray]]:
    """Token-level cross-entropy of reconstructing the original sequence.

    The decoder sees only the pooled bottleneck vector of the corrupted
    input plus the gold previous token (teacher forcing); output logits use
    the tied embedding table. Gradients cover the embedding table (all
    three occurrences), the projection, and the decoder weight.
    """
    original = list(original_tokens)
    if not original:
        raise ValueError("original sequence must be non-empty")
    d = model.dim
    o_ids = model.token_ids(original)
    c_ids = model.token_ids(corrupted_tokens)

    z_mat, cache = encode_ids(model, [c_ids])
    z = z_mat[0]
    prev_ids = np.concatenate([[BOS_INDEX], o_ids[:-1]])
    x = np.concatenate([np.tile(z, (o_ids.size, 1)),
                        model.embedding[prev_ids]], axis=1)
    hidden = x @ decoder.weight.T
    logits = hidden @ model.embedding.T
    loss, d_logits = token_cross_entropy(logits, o_ids)

    grads = new_grads(model)
    grads["decoder"] = np.zeros_like(decoder.weight)
    d_hidden = d_logits @ model.embedding
    grads["embedding"] += d_logits.T @ hidden
    grads["decoder"] += d_hidden.T @ x
    d_x = d_hidden @ decoder.weight
    np.add.at(grads["embedding"], prev_ids, d_x[:, d:])
    encode_backward(model, cache, d_x[:, :d].sum(axis=0, keepdims=True), grads)
    return loss, grads


# --- masked-token prediction --------------------------------------------------


def mlm_corrupt(ids: Sequence[int], vocab_size: int, mask_ratio: float = 0.15,
                rng=0) -> tuple[list[int], list[int], list[str]]:
    """Select ceil(ratio * n) positions; 80% become the mask token, 10% a
    random vocabulary token, 10% stay unchanged.

    Returns (corrupted ids, selected positions, actions per position).
    """
    if not 0.0 < mask_ratio < 1.0:
        raise ValueError("mask_ratio must be in (0, 1)")
    n = len(ids)
    if n == 0:
        raise ValueError("cannot mask an empty sequence")
    if vocab_size <= NUM_RESERVED:
        raise ValueError("vocabulary has no real tokens to sample from")
    rng = np.random.default_rng(rng)
    k = math.ceil(mask_ratio * n)
    positions = sorted(rng.choice(n, size=k, replace=False).tolist())
    corrupted = list(ids)
    actions: list[str] = []
    for pos in positions:
        r = rng.random()
        if r < 0.8:
            corrupted[pos] = MASK_INDEX
            actions.append("mask")
        elif r < 0.9:
            corrupted[pos] = int(rng.integers(NUM_RESERVED, vocab_size))
            actions.append("random")
        else:
            actions.append("keep")
    return corrupted, positions, actions


def mlm_loss(model: EncoderModel, original_ids: Sequence[int],
             corrupted_ids: Sequence[int], positions: Sequence[int]
             ) -> tuple[float, dict[str, np.ndarray]]:
    """Cross-entropy of predicting original tokens at the selected positions
    from per-position encoder states (projected token embeddings), scored
    against the tied embedding table."""
    if not positions:
        raise ValueError("no masked positions")
    original = np.asarray(original_ids, dtype=int)
    corrupted = np.asarray(corrupted_ids, dtype=int)
    sel = np.asarray(positions, dtype=int)
    e_sel = model.embedding[corrupted[sel]]
    h_sel = e_sel @ model.projection
    logits = h_sel @ model.embedding.T
    loss, d_logits = token_cross_entropy(logits, original[sel])

    grads = new_grads(model)
    grads["embedding"] += d_logits.T @ h_sel
    d_h = d_logits @ model.embedding
    grads["projection"] += e_sel.T @ d_h
    np.add.at(grads["embedding"], corrupted[sel], d_h @ model.projection.T)
    return loss, grads


def mlm_corrupt_and_loss(model: EncoderModel, tokens: Sequence[str],
                         mask_ratio: float = 0.15, rng=0
                         ) -> tuple[float, dict[str, np.ndarray]]:
    ids = model.token_ids(tokens)
    if not list(tokens):
        raise ValueError("cannot mask an empty sequence")
    corrupted, positions, _ = mlm_corrupt(ids, model.vocab_size, mask_ratio, rng)
    return mlm_loss(model, ids, corrupted, positions)


# --- inverse cloze ------------------------------------------------------------


def split_sentences(text: str) -> list[str]:
    """Period/question/exclamation-delimited spans, punctuation kept."""
    parts = _SENTENCE_SPLIT.split(text.strip())
    return [p for p in parts if tokenize(p)]


def ict_example(sentences: Sequence[str], mask_prob: float = 0.9,
                rng=0) -> tuple[str, str]:
    """Pick one sentence as the pseudo query; with probability mask_prob
    remove it from the context, else keep the full passage.

    A single-sentence passage keeps the full passage as context regardless
    of the coin (removal would empty it).
    """
    sentences = list(sentences)
    if not sentences:
        raise ValueError("passage has no sentences")
    rng = np.random.default_rng(rng)
    pick = int(rng.integers(len(sentences)))
    remove = rng.random() < mask_prob
    query = sentences[pick]
    if remove and len(sentences) > 1:
        context = " ".join(s for i, s in enumerate(sentences) if i != pick)
    else:
        context = " ".join(sentences)
    return query, context


# --- dropout / two-encoder contrastive ----------------------------------------


def _dropout_mask(shape: tuple[int, int], rate: float,
                  rng: np.random.Generator) -> np.ndarray:
    if rate == 0.0:
        return np.ones(shape)
    keep = (rng.random(shape) >= rate).astype(float)
    return keep / (1.0 - rate)


def simcse_pairs(model: EncoderModel, texts: Sequence[str],
                 dropout_rate: float = 0.1, rng=0):
    """Encode each text twice with independent multiplicative dropout on the
    pooled vector; returns (query embs, passage embs, caches for both)."""
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout_rate must be in [0, 1)")
    rng = np.random.default_rng(rng)
    id_lists = [model.token_ids(t) for t in texts]
    shape = (len(texts), model.dim)
    q_out, q_cache = encode_ids(model, id_lists,
                                dropout_mask=_dropout_mask(shape, dropout_rate, rng))
    p_out, p_cache = encode_ids(model, id_lists,
                                dropout_mask=_dropout_mask(shape, dropout_rate, rng))
    return q_out, p_out, q_cache, p_cache


def simcse_step(model: EncoderModel, texts: Sequence[str], loss_cfg: LossConfig,
                dropout_rate: float = 0.1, rng=0
                ) -> tuple[float, dict[str, np.ndarray]]:
    q_out, p_out, q_cache, p_cache = simcse_pairs(model, texts, dropout_rate, rng)
    loss, grad_q, grad_p = mnrl_loss(q_out, p_out, loss_cfg)
    grads = new_grads(model)
    encode_backward(model, q_cache, grad_q, grads)
    encode_backward(model, p_cache, grad_p, grads)
    return loss, grads


def ct_step(pair_batch: Sequence[tuple[str, str]], model_a: EncoderModel,
            model_b: EncoderModel, loss_cfg: LossConfig
            ) -> tuple[float, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Two-encoder contrastive step: left texts through encoder A, right
    texts through encoder B, in-batch softmax between them. Gradients are
    returned for both parameter sets; by convention encoder A is the one
    retained after pre-training."""
    left = [a for a, _ in pair_batch]
    right = [b for _, b in pair_batch]
    a_out, a_cache = encode_ids(model_a, [model_a.token_ids(t) for t in left])
    b_out, b_cache = encode_ids(model_b, [model_b.token_ids(t) for t in right])
    loss, grad_a, grad_b = mnrl_loss(a_out, b_out, loss_cfg)
    grads_a = new_grads(model_a)
    grads_b = new_grads(model_b)
    encode_backward(model_a, a_cache, grad_a, grads_a)
    encode_backward(model_b, b_cache, grad_b, grads_b)
    return loss, grads_a, grads_b


# --- CLS-focused masked prediction --------------------------------------------


def init_condensor_head(dim: int, seed: int = 0, scale: float = 0.05) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(dim, 2 * dim))


def condensor_loss(model: EncoderModel, head: np.ndarray, tokens: Sequence[str],
                   mask_ratio: float = 0.15, rng=0
                   ) -> tuple[float, dict[str, np.ndarray]]:
    """Masked prediction where the head consumes [final CLS state (+)
    token-embedding state at position i]; requires CLS pooling."""
    if model.pooling != "cls":
        raise ValueError("this objective requires CLS pooling")
    d = model.dim
    ids = model.token_ids(tokens)
    if not list(tokens):
        raise ValueError("cannot mask an empty sequence")
    corrupted, positions, _ = mlm_corrupt(ids, model.vocab_size, mask_ratio, rng)
    original = np.asarray(ids, dtype=int)
    corrupted = np.asarray(corrupted, dtype=int)
    sel = np.asarray(positions, dtype=int)

    cls_mat, cache = encode_ids(model, [corrupted])
    cls_out = cls_mat[0]
    x = np.concatenate([np.tile(cls_out, (sel.size, 1)),
                        model.embedding[corrupted[sel]]], axis=1)
    hidden = x @ head.T
    logits = hidden @ model.embedding.T
    loss, d_logits = token_cross_entropy(logits, original[sel])

    grads = new_grads(model)
    grads["head"] = np.zeros_like(head)
    d_hidden = d_logits @ model.embedding
    grads["embedding"] += d_logits.T @ hidden
    grads["head"] += d_hidden.T @ x
    d_x = d_hidden @ head
    np.add.at(grads["embedding"], corrupted[sel], d_x[:, d:])
    encode_backward(model, cache, d_x[:, :d].sum(axis=0, keepdims=True), grads)
    return loss, grads


# --- multi-task schedule -------------------------------------------------------


def udalm_step(model: EncoderModel, mlm_batch: Sequence[str],
               marginmse_batch: tuple, mix_weight: float = 0.5,
               mask_ratio: float = 0.15, rng=0
               ) -> tuple[float, dict[str, np.ndarray]]:
    """One combined update: mix_weight * masked-prediction loss on target
    texts + (1 - mix_weight) * margin regression on a labeled source batch
    (query texts, positive texts, negative texts, target margins)."""
    if not 0.0 <= mix_weight <= 1.0:
        raise ValueError("mix_weight must be in [0, 1]")
    if not mlm_batch:
        raise ValueError("empty target batch")
    q_texts, pos_texts, neg_texts, margins = marginmse_batch
    if not q_texts:
        raise ValueError("empty source batch")
    rng = np.random.default_rng(rng)

    grads = new_grads(model)
    mlm_total = 0.0
    for text in mlm_batch:
        loss_i, grads_i = mlm_corrupt_and_loss(model, tokenize(text), mask_ratio, rng)
        mlm_total += loss_i
        for name in grads:
            grads[name] += grads_i[name] * (mix_weight / len(mlm_batch))
    mlm_avg = mlm_total / len(mlm_batch)

    scale = 1.0 - mix_weight
    mse_loss = margin_mse_step(model, [model.token_ids(t) for t in q_texts],
                               [model.token_ids(t) for t in pos_texts],
                               [model.token_ids(t) for t in neg_texts],
                               np.asarray(margins, dtype=float), grads, scale)
    return mix_weight * mlm_avg + scale * mse_loss, grads


# --- training loop -------------------------------------------------------------


def _clone_fresh(model: EncoderModel, seed: int) -> EncoderModel:
    rng = np.random.default_rng(seed)
    embedding = rng.normal(0.0, 0.05, size=model.embedding.shape)
    return EncoderModel(dict(model.vocab), embedding, np.eye(model.dim),
                        model.pooling, model.similarity, model.max_seq_len)


def pretrain(model: EncoderModel, passages: Sequence[Passage],
             cfg: PretrainConfig) -> EncoderModel:
    """Run one pre-training objective over the corpus and return the model.

    Stochastic choices are keyed by (seed, step, item) so results are
    independent of scheduling. The two-encoder objective trains a fresh
    peer encoder and retains this one.
    """
    texts = [passage_text(p) for p in passages]
    if not texts:
        raise ValueError("empty corpus")
    loss_cfg = LossConfig(tau=cfg.tau, similarity=cfg.similarity)
    opt = OptimizerState(cfg.learning_rate)

    decoder = head = model_b = opt_b = None
    if cfg.method == "tsdae":
        decoder = init_tsdae_decoder(model.dim, derive_seed(cfg.seed, "decoder"))
    elif cfg.method == "cd":
        if model.pooling != "cls":
            raise ValueError("this objective requires CLS pooling")
        head = init_condensor_head(model.dim, derive_seed(cfg.seed, "head"))
    elif cfg.method == "ct":
        model_b = _clone_fresh(model, derive_seed(cfg.seed, "peer"))
        opt_b = OptimizerState(cfg.learning_rate)

    sentences = None
    if cfg.method == "ict":
        sentences = [split_sentences(t) for t in texts]
        usable = [i for i, s in enumerate(sentences) if s]
        if not usable:
            raise ValueError("no passages with sentences")

    n = len(texts)
    for step in range(1, cfg.steps + 1):
        rng = np.random.default_rng(derive_seed(cfg.seed, "batch", step))
        batch = rng.choice(n, size=min(cfg.batch_size, n), replace=False)

        if cfg.method in ("tsdae", "mlm", "cd"):
            grads = new_grads(model)
            if cfg.method == "tsdae":
                grads["decoder"] = np.zeros_like(decoder.weight)
            elif cfg.method == "cd":
                grads["head"] = np.zeros_like(head)
            for j, i in enumerate(batch):
                tokens = tokenize(texts[i])
                if not tokens:
                    continue
                item_rng = np.random.default_rng(
                    derive_seed(cfg.seed, "item", step, j))
                if cfg.method == "tsdae":
                    corrupted = tsdae_corrupt(tokens, cfg.deletion_ratio, item_rng)
                    _, g = tsdae_loss(model, decoder, tokens, corrupted)
                elif cfg.method == "mlm":
                    _, g = mlm_corrupt_and_loss(model, tokens, cfg.mask_ratio,
                                                item_rng)
                else:
                    _, g = condensor_loss(model, head, tokens, cfg.mask_ratio,
                                          item_rng)
                for name in g:
                    grads[name] += g[name] / len(batch)
            aux = {name: grads.pop(name) for name in ("decoder", "head")
                   if name in grads}
            apply_gradients(model, grads, opt)
            if "decoder" in aux:
                decoder.weight -= cfg.learning_rate * aux["decoder"]
            if "head" in aux:
                head -= cfg.learning_rate * aux["head"]

        elif cfg.method == "ict":
            examples = []
            for j, i in enumerate(batch):
                if not sentences[i]:
                    continue
                item_rng = np.random.default_rng(
                    derive_seed(cfg.seed, "item", step, j))
                examples.append(ict_example(sentences[i], cfg.ict_mask_prob,
                                            item_rng))
            if not examples:
                continue
            q_texts = [q for q, _ in examples]
            c_texts = [c for _, c in examples]
            q_out, q_cache = encode_ids(model, [model.token_ids(t) for t in q_texts])
            c_out, c_cache = encode_ids(model, [model.token_ids(t) for t in c_texts])
            loss, grad_q, grad_c = mnrl_loss(q_out, c_out, loss_cfg)
            grads = new_grads(model)
            encode_backward(model, q_cache, grad_q, grads)
            encode_backward(model, c_cache, grad_c, grads)
            apply_gradients(model, grads, opt)

        elif cfg.method == "simcse":
            step_rng = np.random.default_rng(derive_seed(cfg.seed, "item", step))
            _, grads = simcse_step(model, [texts[i] for i in batch], loss_cfg,
                                   cfg.dropout_rate, step_rng)
            apply_gradients(model, grads, opt)

        elif cfg.method == "ct":
            pairs = [(texts[i], texts[i]) for i in batch]
            _, grads_a, grads_b = ct_step(pairs, model, model_b, loss_cfg)
            apply_gradients(model, grads_a, opt)
            apply_gradients(model_b, grads_b, opt_b)

    return model
