"""Distillation and contrastive losses, their batch steps, and the one
training loop `fit` that every trainer runs: margin regression on
pseudo-labeled tuples, in-batch softmax ranking on generated (query,
passage) pairs, and (in `pretraining`) the pre-training objectives."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import Passage, Query, passage_text
from .labeling import GPLDataset, TupleColumns, sample_tuple
from .mining import PoolColumns
from .models import (EncoderModel, Tokens, apply_gradients, encode_backward,
                     encode_ids, new_grads, save_model)
from .util import check_interval, derive_seed


@dataclass(frozen=True)
class LossConfig:
    """Softmax-ranking loss knobs: sharpness scale tau and similarity."""

    tau: float = 20.0
    similarity: str = "cosine"

    def __post_init__(self):
        check_interval("tau", self.tau)
        if self.similarity not in ("dot", "cosine"):
            raise ValueError(f"unknown similarity {self.similarity!r}")


@dataclass(frozen=True)
class TrainRunConfig:
    """Fine-tuning schedule. steps=None means one epoch over the data."""

    steps: int | None = None
    batch_size: int = 32
    seed: int = 0
    learning_rate: float = 2e-3
    log_every: int = 1
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.steps is not None:
            check_interval("steps", self.steps)
        for name in ("batch_size", "learning_rate", "log_every",
                     "checkpoint_every"):
            check_interval(name, getattr(self, name))


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


def margin_mse_step(model: EncoderModel, q: Tokens, pos: Tokens, neg: Tokens,
                    targets: np.ndarray, grads: dict[str, np.ndarray],
                    scale: float) -> float:
    """Margin-MSE of the dot-product margins of one batch of (query,
    positive, negative) rows: adds scale x its gradient into `grads` and
    returns the unscaled loss."""
    q_out, q_cache = encode_ids(model, q)
    p_out, p_cache = encode_ids(model, pos)
    n_out, n_cache = encode_ids(model, neg)
    predicted = (q_out * p_out).sum(axis=1) - (q_out * n_out).sum(axis=1)
    loss, d_pred = margin_mse_loss(predicted, targets)
    encode_backward(model, q_cache, scale * d_pred[:, None] * (p_out - n_out), grads)
    encode_backward(model, p_cache, scale * d_pred[:, None] * q_out, grads)
    encode_backward(model, n_cache, -scale * d_pred[:, None] * q_out, grads)
    return loss


def mnrl_step(model: EncoderModel, q: Tokens, groups: Sequence[Tokens],
              loss_cfg: LossConfig) -> tuple[float, dict[str, np.ndarray]]:
    """In-batch ranking loss of one batch of query rows against the
    candidates of every group, stacked in order; each group holds one
    candidate per query, and group 0 holds the positives. Returns (loss,
    gradients)."""
    q_out, q_cache = encode_ids(model, q)
    outs, caches = zip(*(encode_ids(model, group) for group in groups))
    loss, grad_q, grad_c = mnrl_loss(q_out, np.vstack(outs), loss_cfg)
    grads = new_grads(model, q, *groups)
    encode_backward(model, q_cache, grad_q, grads)
    for cache, grad in zip(caches, np.split(grad_c, len(groups))):
        encode_backward(model, cache, grad, grads)
    return loss, grads


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

    q_in, p_in = q, p
    if cfg.similarity == "cosine":
        qn = np.linalg.norm(q, axis=1)
        pn = np.linalg.norm(p, axis=1)
        if np.any(qn == 0.0) or np.any(pn == 0.0):
            raise ValueError("cosine similarity undefined for zero embeddings")
        q_in, p_in = q / qn[:, None], p / pn[:, None]
    sims = q_in @ p_in.T

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

    grad_q, grad_p = d_sims @ p_in, d_sims.T @ q_in
    if cfg.similarity == "cosine":  # project out each unit vector's direction
        grad_q = (grad_q - (grad_q * q_in).sum(axis=1, keepdims=True) * q_in) \
            / qn[:, None]
        grad_p = (grad_p - (grad_p * p_in).sum(axis=1, keepdims=True) * p_in) \
            / pn[:, None]
    return loss, grad_q, grad_p


def fit(model: EncoderModel,
        step_fn: Callable[[int], tuple[float, dict[str, np.ndarray]]],
        steps: int, cfg: TrainRunConfig,
        checkpoint_dir: str | Path | None = None
        ) -> tuple[EncoderModel, list[tuple[int, float]]]:
    """The training loop: for step 1..steps, `step_fn(step)` returns
    (loss, gradients) and one SGD update applies them. Logs (step, loss)
    at multiples of log_every and at the last step, and writes
    ckpt-<step>.json into checkpoint_dir at multiples of checkpoint_every."""
    trace: list[tuple[int, float]] = []
    for step in range(1, steps + 1):
        loss, grads = step_fn(step)
        apply_gradients(model, grads, cfg.learning_rate)
        del grads  # free them before the next step allocates its own
        if step % cfg.log_every == 0 or step == steps:
            trace.append((step, loss))
        if checkpoint_dir and cfg.checkpoint_every and \
                step % cfg.checkpoint_every == 0:
            save_model(model, Path(checkpoint_dir) / f"ckpt-{step}.json")
    return model, trace


def _epoch_batches(n_items: int, batch_size: int, seed: int) -> Iterator[np.ndarray]:
    """Cyclic batches; indices reshuffled once per epoch with a derived seed."""
    epoch = 0
    while True:
        order = np.random.default_rng(derive_seed(seed, "epoch", epoch)).permutation(n_items)
        for start in range(0, n_items, batch_size):
            yield order[start:start + batch_size]
        epoch += 1


def _table(model: EncoderModel, keys: Sequence[str],
           texts: Mapping[str, str]) -> tuple[Tokens, np.ndarray]:
    """One row per distinct key, its text tokenized once, and each key's row."""
    row_of: dict[str, int] = {}
    rows = np.fromiter((row_of.setdefault(k, len(row_of)) for k in keys),
                       dtype=np.intp, count=len(keys))
    return model.tokens([texts[k] for k in row_of]), rows


def tuple_batches(model: EncoderModel, tuples: TupleColumns,
                  query_texts: Mapping[str, str],
                  passage_texts: Mapping[str, str]) -> Callable:
    """Tokenize each distinct query and passage of the tuples once; return
    a function giving the (query, positive, negative, margin) batch of an
    array of tuple indices, gathered from those tables by row."""
    q_table = model.tokens([query_texts[q] for q in tuples.query_ids])
    p_table = model.tokens([passage_texts[p] for p in tuples.passage_ids])
    return lambda i: (q_table.take(tuples.query[i]), p_table.take(tuples.pos[i]),
                      p_table.take(tuples.neg[i]), tuples.margin[i])


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

    batch_of = tuple_batches(model, dataset.tuples,
                             {q.id: q.text for q in queries},
                             {p.id: passage_text(p) for p in corpus})
    batches = _epoch_batches(len(dataset.tuples), cfg.batch_size, cfg.seed)

    def step_fn(step: int) -> tuple[float, dict[str, np.ndarray]]:
        q, pos, neg, margins = batch_of(next(batches))
        grads = new_grads(model, q, pos, neg)
        return margin_mse_step(model, q, pos, neg, margins, grads, 1.0), grads

    return fit(model, step_fn, steps, cfg, checkpoint_dir)


def qgen_train(model: EncoderModel, queries: Sequence[Query],
               corpus: Sequence[Passage], cfg: TrainRunConfig,
               negatives: PoolColumns | None = None,
               loss_cfg: LossConfig | None = None,
               checkpoint_dir: str | Path | None = None
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
    loss_cfg = loss_cfg or LossConfig()

    passage_texts = {p.id: passage_text(p) for p in corpus}
    usable = [q for q in queries if q.source_passage_id is not None]
    if negatives is not None:
        usable = [q for q in usable if negatives.size(q.id)]
    if not usable:
        raise ValueError("no usable training queries")

    candidates = [q.source_passage_id for q in usable]
    if negatives is not None:
        candidates += [sample_tuple(q, negatives, cfg.seed)[1]
                       for q in usable]
    # Group 0 holds the positives' rows, group 1 the sampled negatives'.
    p_table, rows = _table(model, candidates, passage_texts)
    groups = rows.reshape(-1, len(usable))
    q_table = model.tokens([q.text for q in usable])

    steps = cfg.steps if cfg.steps is not None else \
        math.ceil(len(usable) / cfg.batch_size)
    batches = _epoch_batches(len(usable), cfg.batch_size, cfg.seed)

    def step_fn(step: int) -> tuple[float, dict[str, np.ndarray]]:
        batch = next(batches)
        return mnrl_step(model, q_table.take(batch),
                         [p_table.take(group[batch]) for group in groups],
                         loss_cfg)

    return fit(model, step_fn, steps, cfg, checkpoint_dir)


def write_loss_trace(trace: Sequence[tuple[int, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("step,loss\n")
        for step, loss in trace:
            f.write(f"{step},{loss:.17g}\n")
