"""Pre-training objectives on an unlabeled corpus: denoising autoencoding
through the pooled-vector bottleneck, masked-token prediction, inverse cloze
pairs, dropout-based and two-encoder contrastive objectives, CLS-focused
masked prediction, and the multi-task schedule mixing target-corpus masking
with source-domain margin regression."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import Passage, Query, passage_text
from .labeling import GPLDataset
from .models import (BOS_INDEX, MASK_INDEX, NUM_RESERVED, EncoderModel,
                     Tokens, apply_gradients, encode_backward, encode_ids,
                     new_grads)
from .training import (LossConfig, TrainRunConfig, fit, margin_mse_step,
                       mnrl_loss, mnrl_step, tuple_batches)
from .util import check_interval, derive_seed

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

    def __post_init__(self):
        if self.method not in PRETRAIN_METHODS:
            raise ValueError(f"unknown pre-training method {self.method!r}; "
                             f"expected one of {PRETRAIN_METHODS}")
        for name in ("steps", "batch_size", "learning_rate", "deletion_ratio",
                     "mask_ratio", "ict_mask_prob", "dropout_rate", "tau"):
            check_interval(name, getattr(self, name))


def token_cross_entropy(logits: np.ndarray, target_ids: Sequence[int],
                        weights: np.ndarray | None = None
                        ) -> tuple[float, np.ndarray]:
    """Mean (or `weights`-weighted sum) of cross-entropy over positions;
    returns (loss, dL/dlogits).

    Uniform logits over a vocabulary of V cost ln(V) per position. The
    (positions, V) logits are worked on in place, and a float64 array
    becomes the returned gradient: pass one the caller no longer reads.
    """
    out = np.asarray(logits, dtype=float)
    targets = np.asarray(target_ids, dtype=int)
    if out.ndim != 2 or out.shape[0] != targets.size or targets.size == 0:
        raise ValueError("logits must be (positions, vocab) matching targets")
    if targets.min() < 0 or targets.max() >= out.shape[1]:
        raise ValueError(f"target ids must be in [0, {out.shape[1]}); got "
                         f"{targets.min()}..{targets.max()}")
    rows = np.arange(targets.size)
    out -= out.max(axis=1, keepdims=True)
    picked = out[rows, targets]
    np.exp(out, out=out)
    denom = out.sum(axis=1, keepdims=True)
    picked -= np.log(denom[:, 0])  # the targets' log-probabilities
    loss = -float(np.mean(picked) if weights is None else weights @ picked)
    if not math.isfinite(loss):
        raise ValueError(f"cross-entropy is {loss} (non-finite logits)")
    out /= denom
    out[rows, targets] -= 1.0
    if weights is None:
        out /= targets.size
    else:
        out *= weights[:, None]
    return loss, out


# Logits held at a time: max(1, _LOGIT_BLOCK // V) positions, at most 2 MiB
# of float64, so memory does not grow with the positions a batch scores.
_LOGIT_BLOCK = 1 << 18

# The embedding gradient's product with a logits block is formed and added
# max(2, _GRAD_BLOCK // d) vocabulary rows at a time, about 256 KiB of
# float64, so a step holds no second V x d array. numpy hands a one-row
# product to gemv, which rounds differently from the whole product's gemm,
# so a last row left alone joins the block before it.
_GRAD_BLOCK = 1 << 15


def _tied_output_loss(model: EncoderModel, items: Sequence[tuple],
                      scale: float, head: np.ndarray | None = None,
                      name: str = "head"
                      ) -> tuple[float, dict[str, np.ndarray]]:
    """Cross-entropy of each (encoded row, input ids, target ids) item's
    targets against the tied embedding table from `head` (d x 2d) applied to
    [pooled vector of the encoded row (+) embedding of each input], or
    without a head the inputs' projected embeddings; an item's n positions
    weigh scale / n each. Gradients cover every embedding occurrence, the
    projection, and `head` under `name`."""
    d = model.dim
    encoded, inputs, targets = zip(*items)
    lengths = np.fromiter(map(len, targets), dtype=np.intp, count=len(items))
    inputs, targets = np.concatenate(inputs), np.concatenate(targets)
    x, weight = model.embedding[inputs], model.projection.T
    if head is not None:
        pooled, cache = encode_ids(model, Tokens.of(encoded))
        x = np.concatenate([np.repeat(pooled, lengths, axis=0), x], axis=1)
        weight = head
    hidden = x @ weight.T
    weights = np.repeat(scale / lengths, lengths)
    grads = new_grads(model)
    _, embedding_grad = grads["embedding"]
    size = max(1, _LOGIT_BLOCK // model.vocab_size)
    logits = np.empty((min(size, targets.size), model.vocab_size))
    rows = max(2, _GRAD_BLOCK // d)
    starts = range(0, model.vocab_size - 1, rows)
    vocab_blocks = list(zip(starts, [*starts[1:], model.vocab_size]))
    buf = np.empty((rows + 1, d))
    d_hidden = np.empty_like(hidden)
    loss = 0.0
    for lo in range(0, targets.size, size):
        h = hidden[lo:lo + size]
        part, d_logits = token_cross_entropy(
            np.matmul(h, model.embedding.T, out=logits[:len(h)]),
            targets[lo:lo + size], weights[lo:lo + size])
        loss += part
        for a, b in vocab_blocks:
            embedding_grad[a:b] += np.matmul(d_logits.T[a:b], h,
                                             out=buf[:b - a])
        np.matmul(d_logits, model.embedding, out=d_hidden[lo:lo + size])
    d_x = d_hidden @ weight
    np.add.at(embedding_grad, inputs, d_x[:, -d:])
    if head is None:
        grads["projection"] += x.T @ d_hidden
        return loss, grads
    grads[name] = d_hidden.T @ x
    encode_backward(model, cache, np.add.reduceat(
        d_x[:, :d], np.cumsum(lengths) - lengths), grads)
    return loss, grads


def init_condensor_head(dim: int, seed: int = 0, scale: float = 0.05) -> np.ndarray:
    """A (d, 2d) head for `_tied_output_loss`: the Condenser head, and
    the linear decoder that reconstructs TSDAE's input."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(dim, 2 * dim))


# --- denoising autoencoder ----------------------------------------------------


def tsdae_corrupt(ids: Sequence, deletion_ratio: float = 0.6,
                  rng=0) -> list:
    """Delete floor(ratio * n) ids (or tokens) uniformly without
    replacement.

    Survivor order is preserved and at least one id survives when the
    input is non-empty.
    """
    check_interval("deletion_ratio", deletion_ratio)
    ids = list(ids)
    n = len(ids)
    if n == 0:
        return []
    rng = np.random.default_rng(rng)
    n_delete = min(math.floor(deletion_ratio * n), n - 1)
    drop = set(rng.choice(n, size=n_delete, replace=False).tolist())
    return [t for i, t in enumerate(ids) if i not in drop]


def tsdae_loss(model: EncoderModel, decoder: np.ndarray,
               original_ids: np.ndarray, corrupted_ids: Sequence[int]
               ) -> tuple[float, dict[str, np.ndarray]]:
    """Token-level cross-entropy of reconstructing the original id row.

    The decoder sees only the pooled bottleneck vector of the corrupted
    row plus the gold previous token (teacher forcing); output logits use
    the tied embedding table. Gradients cover the embedding table (all
    three occurrences), the projection, and the decoder weight.
    """
    if not len(original_ids):
        raise ValueError("original sequence must be non-empty")
    return _tied_output_loss(model, [_tsdae_item(original_ids, corrupted_ids)],
                             1.0, decoder, "decoder")


def _tsdae_item(ids: np.ndarray, corrupted: Sequence[int]) -> tuple:
    shifted = np.roll(ids, 1)  # teacher forcing: BOS, then ids[:-1]
    shifted[0] = BOS_INDEX
    return corrupted, shifted, ids


# --- masked-token prediction --------------------------------------------------


def mlm_corrupt(ids: Sequence[int], vocab_size: int, mask_ratio: float = 0.15,
                rng=0) -> tuple[list[int], list[int], list[str]]:
    """Select ceil(ratio * n) positions; 80% become the mask token, 10% a
    random vocabulary token, 10% stay unchanged.

    Returns (corrupted ids, selected positions, actions per position).
    """
    check_interval("mask_ratio", mask_ratio)
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


def _masked_item(ids: Sequence[int], corrupted: Sequence[int],
                 positions: Sequence[int]) -> tuple:
    """(corrupted row, its ids and the original ids at the positions)."""
    corrupted = np.asarray(corrupted, dtype=np.intp)
    return corrupted, corrupted[positions], np.asarray(ids)[positions]


# --- inverse cloze ------------------------------------------------------------


def split_sentences(text: str) -> list[str]:
    """Period/question/exclamation-delimited spans, punctuation kept (a
    span of punctuation alone holds no token)."""
    return [p for p in _SENTENCE_SPLIT.split(text.strip()) if p]


def ict_example(sentences: Sequence, mask_prob: float = 0.9,
                rng=0) -> tuple[object, list]:
    """Pick one sentence as the pseudo query; with probability mask_prob
    the context is the other sentences, else all of them. Returns (query,
    context sentences); sentences are texts or id rows.

    A single-sentence passage keeps the full passage as context regardless
    of the coin (removal would empty it).
    """
    sentences = list(sentences)
    if not sentences:
        raise ValueError("passage has no sentences")
    rng = np.random.default_rng(rng)
    pick = int(rng.integers(len(sentences)))
    remove = rng.random() < mask_prob
    if remove and len(sentences) > 1:
        return sentences[pick], sentences[:pick] + sentences[pick + 1:]
    return sentences[pick], sentences


# --- dropout / two-encoder contrastive ----------------------------------------


def _dropout_mask(shape: tuple[int, int], rate: float,
                  rng: np.random.Generator) -> np.ndarray:
    if rate == 0.0:
        return np.ones(shape)
    keep = (rng.random(shape) >= rate).astype(float)
    return keep / (1.0 - rate)


def simcse_pairs(model: EncoderModel, tokens: Tokens,
                 dropout_rate: float = 0.1, rng=0):
    """Encode each row twice with independent multiplicative dropout on the
    pooled vector; returns (query embs, passage embs, caches for both)."""
    check_interval("dropout_rate", dropout_rate)
    rng = np.random.default_rng(rng)
    shape = (len(tokens), model.dim)
    q_out, q_cache = encode_ids(model, tokens,
                                dropout_mask=_dropout_mask(shape, dropout_rate, rng))
    p_out, p_cache = encode_ids(model, tokens,
                                dropout_mask=_dropout_mask(shape, dropout_rate, rng))
    return q_out, p_out, q_cache, p_cache


def simcse_step(model: EncoderModel, tokens: Tokens, loss_cfg: LossConfig,
                dropout_rate: float = 0.1, rng=0
                ) -> tuple[float, dict[str, np.ndarray]]:
    q_out, p_out, q_cache, p_cache = simcse_pairs(model, tokens, dropout_rate, rng)
    loss, grad_q, grad_p = mnrl_loss(q_out, p_out, loss_cfg)
    grads = new_grads(model, tokens)
    encode_backward(model, q_cache, grad_q, grads)
    encode_backward(model, p_cache, grad_p, grads)
    return loss, grads


def ct_step(tokens: Tokens, model_a: EncoderModel, model_b: EncoderModel,
            loss_cfg: LossConfig
            ) -> tuple[float, dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Two-encoder contrastive step: the rows through encoder A and through
    encoder B (the two share a vocabulary), in-batch softmax between them.
    Gradients are returned for both parameter sets; by convention encoder
    A is the one retained after pre-training."""
    a_out, a_cache = encode_ids(model_a, tokens)
    b_out, b_cache = encode_ids(model_b, tokens)
    loss, grad_a, grad_b = mnrl_loss(a_out, b_out, loss_cfg)
    grads_a = new_grads(model_a, tokens)
    grads_b = new_grads(model_b, tokens)
    encode_backward(model_a, a_cache, grad_a, grads_a)
    encode_backward(model_b, b_cache, grad_b, grads_b)
    return loss, grads_a, grads_b


# --- multi-task schedule -------------------------------------------------------


def udalm_step(model: EncoderModel, mlm_batch: Sequence[Sequence[int]],
               marginmse_batch: tuple[Tokens, Tokens, Tokens, np.ndarray],
               mix_weight: float = 0.5, mask_ratio: float = 0.15, rng=0
               ) -> tuple[float, dict[str, np.ndarray]]:
    """One combined update: mix_weight * masked-prediction loss on the token
    ids of target texts (an empty row has nothing to mask but counts in the
    mean) + (1 - mix_weight) * margin regression on a labeled source batch
    (query, positive and negative rows, target margins)."""
    check_interval("mix_weight", mix_weight)
    if not len(mlm_batch):
        raise ValueError("empty target batch")
    q, pos, neg, margins = marginmse_batch
    if not len(q):
        raise ValueError("empty source batch")
    rng = np.random.default_rng(rng)
    items = [_masked_item(ids, *mlm_corrupt(ids, model.vocab_size,
                                            mask_ratio, rng)[:2])
             for ids in mlm_batch if len(ids)]
    mlm_part, grads = (
        _tied_output_loss(model, items, mix_weight / len(mlm_batch))
        if items else (0.0, new_grads(model)))
    scale = 1.0 - mix_weight
    mse_loss = margin_mse_step(model, q, pos, neg,
                               np.asarray(margins, dtype=float), grads, scale)
    return mlm_part + scale * mse_loss, grads


def _drawn_rows(texts: Sequence[str], draws: np.ndarray,
                rows_of: Callable[[str], object]) -> tuple[list, np.ndarray]:
    """`rows_of` of each distinct text the schedule draws, computed once,
    and the place of each draw's rows in that list (shaped like draws)."""
    distinct, place = np.unique(draws, return_inverse=True)
    return [rows_of(texts[i]) for i in distinct], place.reshape(draws.shape)


def udalm_train(model: EncoderModel, target: Sequence[Passage],
                source: GPLDataset, source_corpus: Sequence[Passage],
                source_queries: Sequence[Query], cfg: TrainRunConfig,
                mix_weight: float, mask_ratio: float,
                checkpoint_dir: str | Path | None
                ) -> tuple[EncoderModel, list[tuple[int, float]]]:
    """Multi-task schedule: masked prediction on the target corpus mixed
    with margin regression on labeled source tuples. Each step draws its
    target batch, then its source batch, then its masks from one stream."""
    tuples = source.tuples
    source_batch = tuple_batches(
        model, tuples, {q.id: q.text for q in source_queries},
        {p.id: passage_text(p) for p in source_corpus})
    texts = [passage_text(p) for p in target]

    def draw(n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(n, size=min(cfg.batch_size, n), replace=False)

    rngs = [np.random.default_rng(derive_seed(cfg.seed, "udalm", step))
            for step in range(1, cfg.steps + 1)]
    rows, place = _drawn_rows(
        texts, np.array([draw(len(texts), rng) for rng in rngs]),
        model.token_ids)

    def step_fn(step: int):
        rng = rngs[step - 1]
        return udalm_step(model, [rows[i] for i in place[step - 1]],
                          source_batch(draw(len(tuples), rng)),
                          mix_weight, mask_ratio, rng)

    return fit(model, step_fn, cfg.steps, cfg, checkpoint_dir)


# --- training loop -------------------------------------------------------------

StepFn = Callable[[int], tuple[float, dict[str, np.ndarray]]]


def _clone_fresh(model: EncoderModel, seed: int) -> EncoderModel:
    rng = np.random.default_rng(seed)
    embedding = rng.normal(0.0, 0.05, size=model.embedding.shape)
    return EncoderModel(dict(model.vocab), embedding, np.eye(model.dim),
                        model.pooling, model.similarity, model.max_seq_len)


def _objective_step(model: EncoderModel, texts: Sequence[str],
                    draws: np.ndarray, cfg: PretrainConfig) -> StepFn:
    """The objective's step over the schedule's draws (one row of text
    indices per step): step -> (loss, grads)."""
    if cfg.method == "cd" and model.pooling != "cls":
        raise ValueError("this objective requires CLS pooling")
    loss_cfg = LossConfig(tau=cfg.tau)
    if cfg.method == "ict":
        # A query is one sentence row, a context the kept rows run together
        # and cut at max_seq_len: the ids of the kept sentences' joined text.
        sentences, place = _drawn_rows(texts, draws, lambda text: [
            ids for ids in map(model.token_ids, split_sentences(text))
            if ids.size])
        if not any(sentences):
            raise ValueError("no drawn passage has a sentence")

        def ict_step_fn(step: int):
            examples = [ict_example(sentences[i], cfg.ict_mask_prob,
                                    derive_seed(cfg.seed, "item", step, j))
                        for j, i in enumerate(place[step - 1]) if sentences[i]]
            if not examples:  # no passage of the batch has a sentence
                return 0.0, {}
            return mnrl_step(model, Tokens.of([q for q, _ in examples]), [
                Tokens.of([np.concatenate(kept)[:model.max_seq_len]
                           for _, kept in examples])], loss_cfg)

        return ict_step_fn
    rows, place = _drawn_rows(texts, draws, model.token_ids)
    if cfg.method in ("tsdae", "mlm", "cd"):
        # The batch's texts, each corrupted under its own seed, are scored
        # together; a text without tokens adds nothing to the batch's mean.
        head = None if cfg.method == "mlm" else init_condensor_head(
            model.dim, derive_seed(cfg.seed, "decoder" if cfg.method ==
                                   "tsdae" else "head"))

        def item(ids: np.ndarray, seed: int) -> tuple:
            if cfg.method == "tsdae":
                return _tsdae_item(ids, tsdae_corrupt(ids, cfg.deletion_ratio,
                                                      seed))
            return _masked_item(ids, *mlm_corrupt(ids, model.vocab_size,
                                                  cfg.mask_ratio, seed)[:2])

        def tied_output_step_fn(step: int):
            items = [item(rows[i], derive_seed(cfg.seed, "item", step, j))
                     for j, i in enumerate(place[step - 1]) if rows[i].size]
            if not items:  # no text of the batch has a token
                return 0.0, {}
            loss, grads = _tied_output_loss(model, items, 1 / place.shape[1],
                                            head)
            if head is not None:
                head[...] -= cfg.learning_rate * grads.pop("head")
            return loss, grads

        return tied_output_step_fn
    table = Tokens.of_text_ids(rows)
    if cfg.method == "simcse":
        return lambda step: simcse_step(
            model, table.take(place[step - 1]), loss_cfg, cfg.dropout_rate,
            derive_seed(cfg.seed, "item", step))
    peer = _clone_fresh(model, derive_seed(cfg.seed, "peer"))

    def ct_step_fn(step: int):
        loss, grads, peer_grads = ct_step(table.take(place[step - 1]), model,
                                          peer, loss_cfg)
        apply_gradients(peer, peer_grads, cfg.learning_rate)
        return loss, grads

    return ct_step_fn


def pretrain(model: EncoderModel, passages: Sequence[Passage],
             cfg: PretrainConfig
             ) -> tuple[EncoderModel, list[tuple[int, float]]]:
    """Run one pre-training objective over the corpus; return the model and
    its (step, loss) trace, one entry per step.

    Stochastic choices are keyed by (seed, step, item) so results are
    independent of scheduling. The schedule's batches are drawn first, and
    each text they draw is tokenized once. The two-encoder objective trains
    a fresh peer encoder and retains this one.
    """
    texts = [passage_text(p) for p in passages]
    if not texts:
        raise ValueError("empty corpus")
    size = min(cfg.batch_size, len(texts))
    draws = np.array([
        np.random.default_rng(derive_seed(cfg.seed, "batch", step)).choice(
            len(texts), size=size, replace=False)
        for step in range(1, cfg.steps + 1)])
    return fit(model, _objective_step(model, texts, draws, cfg), cfg.steps,
               TrainRunConfig(learning_rate=cfg.learning_rate))
