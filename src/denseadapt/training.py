"""Distillation and contrastive losses plus the two fine-tuning loops:
margin regression on pseudo-labeled tuples, and in-batch softmax ranking
on generated (query, passage) pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .corpus import Passage, Query, passage_text
from .labeling import GPLDataset
from .mining import PoolEntry
from .models import (EncoderModel, OptimizerState, apply_gradients,
                     encode_backward, encode_ids, new_grads, save_model)
from .util import derive_seed

DEFAULT_TAU = 20.0
DEFAULT_LEARNING_RATE = 2e-3


@dataclass(frozen=True)
class LossConfig:
    """Softmax-ranking loss knobs: sharpness scale tau and similarity."""

    tau: float = DEFAULT_TAU
    similarity: str = "cosine"

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.similarity not in ("dot", "cosine"):
            raise ValueError(f"unknown similarity {self.similarity!r}")


@dataclass(frozen=True)
class TrainRunConfig:
    """Fine-tuning schedule. steps=None means one epoch over the data."""

    steps: int | None = None
    batch_size: int = 32
    seed: int = 0
    learning_rate: float = DEFAULT_LEARNING_RATE
    log_every: int = 1
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.steps is not None and self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def margin_mse_loss(predicted_margins: np.ndarray, target_margins: np.ndarray
                    ) -> tuple[float, np.ndarray]:
    """Mean squared error between student and teacher margins.

    Returns (loss, gradient w.r.t. predicted margins); the gradient of
    (1/M) sum (d_i - t_i)^2 is (2/M)(d_i - t_i).
    """
    pred = np.asarray(predicted_margins, dtype=float)
    target = np.asarray(target_margins, dtype=float)
    if pred.ndim != 1 or pred.shape != target.shape or pred.size == 0:
        raise ValueError("margins must be equal-length non-empty vectors")
    if not (np.isfinite(pred).all() and np.isfinite(target).all()):
        raise ValueError("margins must be finite")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / pred.size


def margin_mse_step(model: EncoderModel, q_ids: Sequence[Sequence[int]],
                    p_ids: Sequence[Sequence[int]],
                    n_ids: Sequence[Sequence[int]], targets: np.ndarray,
                    grads: dict[str, np.ndarray], scale: float) -> float:
    """Margin-MSE of the dot-product margins of one batch of (query,
    positive, negative) token-id lists: adds scale x its gradient into
    `grads` and returns the unscaled loss."""
    q_out, q_cache = encode_ids(model, q_ids)
    p_out, p_cache = encode_ids(model, p_ids)
    n_out, n_cache = encode_ids(model, n_ids)
    predicted = (q_out * p_out).sum(axis=1) - (q_out * n_out).sum(axis=1)
    loss, d_pred = margin_mse_loss(predicted, targets)
    encode_backward(model, q_cache, scale * d_pred[:, None] * (p_out - n_out), grads)
    encode_backward(model, p_cache, scale * d_pred[:, None] * q_out, grads)
    encode_backward(model, n_cache, -scale * d_pred[:, None] * q_out, grads)
    return loss


def mnrl_loss(query_embs: np.ndarray, passage_embs: np.ndarray,
              cfg: LossConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """In-batch softmax ranking loss with scale tau.

    Row i's positive is passage i; every row of passage_embs (which may
    hold extra candidates beyond the first M) acts as a candidate. Returns
    (loss, grad wrt queries, grad wrt passages). Log-sum-exp uses max
    subtraction for stability.
    """
    q = np.asarray(query_embs, dtype=float)
    p = np.asarray(passage_embs, dtype=float)
    if q.ndim != 2 or p.ndim != 2 or q.shape[1] != p.shape[1]:
        raise ValueError("embeddings must be 2-d with matching dimension")
    m, n = q.shape[0], p.shape[0]
    if m < 1 or n < m:
        raise ValueError("need at least one query and a candidate per query")

    if cfg.similarity == "dot":
        sims = q @ p.T
    else:
        qn = np.linalg.norm(q, axis=1)
        pn = np.linalg.norm(p, axis=1)
        if np.any(qn == 0.0) or np.any(pn == 0.0):
            raise ValueError("cosine similarity undefined for zero embeddings")
        q_unit = q / qn[:, None]
        p_unit = p / pn[:, None]
        sims = q_unit @ p_unit.T

    scaled = cfg.tau * sims
    shift = scaled - scaled.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = shift - np.log(denom)
    diag = log_probs[np.arange(m), np.arange(m)]
    loss = float(-np.mean(diag))

    softmax = exp / denom
    d_scaled = softmax / m
    d_scaled[np.arange(m), np.arange(m)] -= 1.0 / m
    d_sims = cfg.tau * d_scaled

    if cfg.similarity == "dot":
        grad_q = d_sims @ p
        grad_p = d_sims.T @ q
    else:
        g_qu = d_sims @ p_unit
        g_pu = d_sims.T @ q_unit
        grad_q = (g_qu - (g_qu * q_unit).sum(axis=1, keepdims=True) * q_unit) \
            / qn[:, None]
        grad_p = (g_pu - (g_pu * p_unit).sum(axis=1, keepdims=True) * p_unit) \
            / pn[:, None]
    return loss, grad_q, grad_p


def _epoch_batches(n_items: int, batch_size: int, seed: int) -> Iterator[np.ndarray]:
    """Cyclic batches; indices reshuffled once per epoch with a derived seed."""
    epoch = 0
    while True:
        order = np.random.default_rng(derive_seed(seed, "epoch", epoch)).permutation(n_items)
        for start in range(0, n_items, batch_size):
            yield order[start:start + batch_size]
        epoch += 1


def _texts_by_id(corpus: Sequence[Passage]) -> dict[str, str]:
    return {p.id: passage_text(p) for p in corpus}


def gpl_train(model: EncoderModel, dataset: GPLDataset,
              corpus: Sequence[Passage], queries: Sequence[Query],
              cfg: TrainRunConfig, checkpoint_dir: str | Path | None = None
              ) -> tuple[EncoderModel, list[tuple[int, float]]]:
    """Margin-regression fine-tuning on pseudo-labeled tuples.

    Per step: encode (query, positive, negative), predict the dot-product
    margin, regress it onto the teacher margin, and apply one SGD update.
    Requires dot-product similarity on the model.
    """
    if model.similarity != "dot":
        raise ValueError("margin training requires a dot-product model")
    if not dataset.tuples:
        raise ValueError("empty training dataset")
    steps = cfg.steps if cfg.steps is not None else \
        math.ceil(len(dataset.tuples) / cfg.batch_size)

    passage_texts = _texts_by_id(corpus)
    query_texts = {q.id: q.text for q in queries}
    # Tokenize each distinct text once; a stream repeats queries and passages.
    query_tokens = {qid: model.token_ids(query_texts[qid])
                    for qid in {t.query_id for t in dataset.tuples}}
    passage_tokens = {pid: model.token_ids(passage_texts[pid])
                      for pid in {p for t in dataset.tuples
                                  for p in (t.pos_id, t.neg_id)}}
    q_ids = [query_tokens[t.query_id] for t in dataset.tuples]
    p_ids = [passage_tokens[t.pos_id] for t in dataset.tuples]
    n_ids = [passage_tokens[t.neg_id] for t in dataset.tuples]
    targets = np.asarray([t.margin for t in dataset.tuples], dtype=float)

    opt = OptimizerState(cfg.learning_rate)
    trace: list[tuple[int, float]] = []
    batches = _epoch_batches(len(dataset.tuples), cfg.batch_size, cfg.seed)
    for step in range(1, steps + 1):
        batch = next(batches)
        grads = new_grads(model)
        loss = margin_mse_step(model, [q_ids[i] for i in batch],
                               [p_ids[i] for i in batch],
                               [n_ids[i] for i in batch], targets[batch],
                               grads, 1.0)
        apply_gradients(model, grads, opt)

        if step % cfg.log_every == 0 or step == steps:
            trace.append((step, loss))
        if checkpoint_dir and cfg.checkpoint_every and \
                step % cfg.checkpoint_every == 0:
            save_model(model, Path(checkpoint_dir) / f"ckpt-{step}.json")
    return model, trace


def qgen_train(model: EncoderModel, queries: Sequence[Query],
               corpus: Sequence[Passage], cfg: TrainRunConfig,
               negatives: Mapping[str, PoolEntry] | None = None,
               loss_cfg: LossConfig | None = None
               ) -> tuple[EncoderModel, list[tuple[int, float]]]:
    """In-batch softmax fine-tuning on (generated query, source passage) pairs.

    With `negatives`, each batch row also contributes one mined hard
    negative to the candidate set (labels stay 1/0: the source passage is
    the only positive). Requires cosine similarity on the model; one epoch
    by default.
    """
    if model.similarity != "cosine":
        raise ValueError("in-batch ranking training requires a cosine model")
    if cfg.batch_size < 2:
        raise ValueError("batch_size must be >= 2: a single-pair batch has "
                         "zero loss by construction")
    loss_cfg = loss_cfg or LossConfig(similarity="cosine")

    passage_texts = _texts_by_id(corpus)
    usable = [q for q in queries if q.source_passage_id is not None]
    if negatives is not None:
        usable = [q for q in usable
                  if negatives.get(q.id) is not None and negatives[q.id].usable]
    if not usable:
        raise ValueError("no usable training queries")

    neg_ids = []
    if negatives is not None:
        from .labeling import sample_tuple  # local import avoids a cycle
        neg_ids = [sample_tuple(q, negatives[q.id], cfg.seed)[1] for q in usable]
    # Tokenize each distinct passage once; queries share source passages.
    passage_tokens = {pid: model.token_ids(passage_texts[pid]) for pid in
                      {q.source_passage_id for q in usable} | set(neg_ids)}
    q_ids = [model.token_ids(q.text) for q in usable]
    p_ids = [passage_tokens[q.source_passage_id] for q in usable]
    n_ids = [passage_tokens[pid] for pid in neg_ids]

    steps = cfg.steps if cfg.steps is not None else \
        math.ceil(len(usable) / cfg.batch_size)
    opt = OptimizerState(cfg.learning_rate)
    trace: list[tuple[int, float]] = []
    batches = _epoch_batches(len(usable), cfg.batch_size, cfg.seed)
    for step in range(1, steps + 1):
        batch = next(batches)
        q_out, q_cache = encode_ids(model, [q_ids[i] for i in batch])
        p_out, p_cache = encode_ids(model, [p_ids[i] for i in batch])
        if negatives is not None:
            n_out, n_cache = encode_ids(model, [n_ids[i] for i in batch])
            candidates = np.vstack([p_out, n_out])
            loss, grad_q, grad_c = mnrl_loss(q_out, candidates, loss_cfg)
            grads = new_grads(model)
            encode_backward(model, q_cache, grad_q, grads)
            encode_backward(model, p_cache, grad_c[: len(batch)], grads)
            encode_backward(model, n_cache, grad_c[len(batch):], grads)
        else:
            loss, grad_q, grad_p = mnrl_loss(q_out, p_out, loss_cfg)
            grads = new_grads(model)
            encode_backward(model, q_cache, grad_q, grads)
            encode_backward(model, p_cache, grad_p, grads)
        apply_gradients(model, grads, opt)
        if step % cfg.log_every == 0 or step == steps:
            trace.append((step, loss))
    return model, trace


def write_loss_trace(trace: Sequence[tuple[int, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("step,loss\n")
        for step, loss in trace:
            f.write(f"{step},{loss:.17g}\n")
