"""Synthetic query generation: budget rule, nucleus sampling, decoding loop,
and a deterministic mock generator for desk-scale runs."""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Passage, Query, passage_text, tokenize
from .models import QueryGenerator
from .util import check_interval, derive_seed

logger = logging.getLogger(__name__)

DEFAULT_TOTAL_BUDGET = 250_000
MIN_QUERIES_PER_PASSAGE = 3
PLACEHOLDER_TOKEN = "placeholder"

NOISE_VOCAB = tuple(f"noise{i:03d}" for i in range(200))
EOS_TOKEN = "</s>"


@dataclass(frozen=True)
class SamplerConfig:
    """Nucleus-sampling knobs: temperature, top-k, top-p, seed, length cap."""

    temperature: float = 1.0
    top_k: int = 25
    top_p: float = 0.95
    seed: int = 0
    max_query_len: int = 12

    def __post_init__(self):
        for name in ("temperature", "top_k", "top_p", "max_query_len"):
            check_interval(name, getattr(self, name))


@dataclass(frozen=True)
class GenerationBudget:
    """How many queries to generate per passage to hit a fixed total.

    In the down-sampling branch the floor division can undershoot the total
    by at most (total_budget mod 3) queries.
    """

    total_budget: int
    qpp: int
    effective_corpus_size: int

    def __post_init__(self):
        if self.qpp < MIN_QUERIES_PER_PASSAGE:
            raise ValueError(f"qpp must be >= {MIN_QUERIES_PER_PASSAGE}")
        if self.effective_corpus_size < 1:
            raise ValueError("effective_corpus_size must be >= 1")
        if self.qpp * self.effective_corpus_size < self.total_budget - 2:
            raise ValueError("qpp x effective_corpus_size falls short of the budget")


def compute_budget(corpus_size: int, total_budget: int = DEFAULT_TOTAL_BUDGET
                   ) -> GenerationBudget:
    """Queries-per-passage rule for a fixed generation total.

    If 3 queries per passage would exceed the total, the corpus is
    down-sampled to floor(total/3) passages and qpp stays at 3; otherwise
    the whole corpus is kept and qpp = ceil(total / corpus_size).
    """
    if corpus_size < 1:
        raise ValueError("corpus_size must be >= 1")
    check_interval("total_budget", total_budget)
    if MIN_QUERIES_PER_PASSAGE * corpus_size > total_budget:
        effective = total_budget // MIN_QUERIES_PER_PASSAGE
        qpp = MIN_QUERIES_PER_PASSAGE
    else:
        effective = corpus_size
        qpp = math.ceil(total_budget / effective)
    return GenerationBudget(total_budget, qpp, effective)


def nucleus_filter(logits: np.ndarray, cfg: SamplerConfig) -> np.ndarray:
    """Temperature -> softmax -> top-k -> top-p -> renormalized distribution.

    Within the top-k set, the smallest prefix (in descending probability)
    whose cumulative mass reaches top_p survives; if the set's total mass
    stays below top_p, the whole set survives. Ties break by ascending
    token index.

    Exact: the output is bit-for-bit that of a dense softmax, a stable
    full-vocabulary argsort cut at top_k and a dense renormalization.
    Only finite logits are exponentiated (exp(-inf) is 0) and only they
    are ranked, on the k-th largest probability and every entry tied with
    it; both sums stay over the dense vector, because numpy's pairwise
    summation rounds by element position. A finite logit that overflows
    when divided by the temperature is rejected, where the dense softmax
    gave NaN.
    """
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 1 or logits.size == 0:
        raise ValueError("logits must be a non-empty vector")
    top = np.max(logits)  # NaN if any entry is NaN
    if np.isnan(top) or top == np.inf:
        raise ValueError("logits must not contain NaN or +inf")
    if top == -np.inf:
        raise ValueError("all logits are -inf")

    # Division rounds monotonically, so this is the largest scaled logit.
    scaled_top = float(top) / cfg.temperature
    if scaled_top == math.inf:
        raise ValueError("logits / temperature overflows to +inf")

    finite = np.flatnonzero(logits > -np.inf)
    probs = np.zeros(len(logits))
    probs[finite] = np.exp(logits[finite] / cfg.temperature - scaled_top)
    probs[finite] /= probs.sum()

    # Top-k among the finite entries; the rest have probability 0, rank
    # after every positive entry and add nothing to the cumulative mass.
    p = probs[finite]
    candidates = finite
    if cfg.top_k < len(p):
        kth = np.partition(p, len(p) - cfg.top_k)[len(p) - cfg.top_k]
        candidates = finite[p >= kth]
    # `candidates` ascend, so a stable sort on descending probability
    # breaks ties by ascending index.
    order = candidates[np.argsort(-probs[candidates], kind="stable")[: cfg.top_k]]
    cumulative = np.cumsum(probs[order])
    cut = int(np.searchsorted(cumulative, cfg.top_p - 1e-12)) + 1
    keep = order[: min(cut, len(order))]

    # The output reuses the dense buffer: zero all but the kept entries.
    kept = probs[keep]
    probs[finite] = 0.0
    probs[keep] = kept
    probs[keep] /= probs.sum()
    return probs


def _decode(gen: QueryGenerator, source_text: str, cfg: SamplerConfig,
            rng: np.random.Generator, limit: int) -> list[str]:
    """Sample up to `limit` tokens, stopping at eos.

    Each token is exactly `rng.choice(len(probs), p=probs)`: one double
    from the stream against the cumulative sum of the filtered
    distribution, searched on the right. The sum runs over the non-zero
    entries only; a zero adds exactly, so their cdf values are the
    full-vector ones.
    """
    tokens: list[str] = []
    while len(tokens) < limit:
        logits = gen.next_token_logits(source_text, tuple(tokens))
        probs = nucleus_filter(logits, cfg)
        support = np.flatnonzero(probs > 0)
        cdf = np.cumsum(probs[support])
        cdf /= cdf[-1]
        idx = int(support[np.searchsorted(cdf, rng.random(), side="right")])
        token = gen.vocab[idx]
        if token == gen.eos_token:
            break
        tokens.append(token)
    return tokens


def generate_queries(gen: QueryGenerator, passages: Sequence[Passage],
                     budget: GenerationBudget, cfg: SamplerConfig) -> list[Query]:
    """Decode budget.qpp queries per passage, deterministic per
    (seed, passage id, query number).

    An empty generation (eos first) is retried once on the same stream,
    then kept as a single placeholder token.
    """
    if budget.effective_corpus_size != len(passages):
        raise ValueError(
            f"budget was computed for {budget.effective_corpus_size} passages, "
            f"got {len(passages)}")
    queries: list[Query] = []
    for p in passages:
        source_text = passage_text(p)
        for n in range(1, budget.qpp + 1):
            rng = np.random.default_rng(derive_seed(cfg.seed, "genq", p.id, n))
            tokens = _decode(gen, source_text, cfg, rng, cfg.max_query_len)
            if not tokens:
                tokens = _decode(gen, source_text, cfg, rng, cfg.max_query_len)
            if not tokens:
                logger.warning("empty generation for passage %s (#%d); "
                               "keeping placeholder", p.id, n)
                tokens = [PLACEHOLDER_TOKEN]
            queries.append(Query(f"genQ-{p.id}-{n}", " ".join(tokens), p.id))
    return queries


def mock_generator(passages: Iterable[Passage], content_logit: float = 8.0,
                   noise_logit: float = 0.0, eos_logit: float = 6.0,
                   noise_vocab: tuple[str, ...] = NOISE_VOCAB) -> QueryGenerator:
    """Test double for a trained query generator.

    Vocabulary = corpus content tokens + a fixed noise vocabulary + eos.
    For a given passage, its content tokens get high frequency-weighted
    logits, every other noise-vocabulary token a low uniform logit, and
    anything else -inf, so temperature trades passage terms against noise.
    The noise vocabulary may overlap corpus tokens (e.g. to model badly
    generated queries that mention plausible but unrelated terms); the
    passage's own tokens always take the content logit.
    """
    content = sorted({t for p in passages for t in tokenize(passage_text(p))})
    content_set = set(content)
    extra = [t for t in dict.fromkeys(noise_vocab) if t not in content_set]
    vocab = tuple(content) + tuple(extra) + (EOS_TOKEN,)
    index = {t: i for i, t in enumerate(vocab)}
    noise_idx = np.array(sorted(index[t] for t in dict.fromkeys(noise_vocab)),
                         dtype=int)
    base = np.full(len(vocab), -np.inf)
    base[noise_idx] = noise_logit
    base[index[EOS_TOKEN]] = eos_logit
    # The last source text's content indices and logits: `generate_queries`
    # decodes a passage's queries in a row.
    last: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def next_token_logits(source_text: str, prefix: tuple[str, ...]) -> np.ndarray:
        if source_text not in last:
            counts = [(index[token], content_logit + math.log(count))
                      for token, count in Counter(tokenize(source_text)).items()
                      if token in index]
            last.clear()
            last[source_text] = (np.array([i for i, _ in counts], dtype=np.intp),
                                 np.array([v for _, v in counts], dtype=float))
        content_idx, content_logits = last[source_text]
        logits = base.copy()
        logits[content_idx] = content_logits
        return logits

    return QueryGenerator(vocab, next_token_logits, EOS_TOKEN)


def write_gen_qrels(queries: Iterable[Query], path: str | Path) -> None:
    """TSV mapping each generated query to its source passage with grade 1."""
    with open(path, "w", encoding="utf-8") as f:
        for q in queries:
            if q.source_passage_id is None:
                raise ValueError(f"query {q.id} has no source passage")
            f.write(f"{q.id}\t{q.source_passage_id}\t1\n")
