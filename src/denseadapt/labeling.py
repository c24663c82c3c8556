"""Cross-encoder pseudo-labeling: score margins for (query, positive,
negative) tuples and assemble the training dataset."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import ParseError, Passage, Query, passage_text
from .mining import PoolEntry
from .models import CrossEncoderScorer
from .util import derive_seed


@dataclass(frozen=True)
class TrainingTuple:
    query_id: str
    pos_id: str
    neg_id: str
    margin: float

    def __post_init__(self):
        if self.pos_id == self.neg_id:
            raise ValueError(f"pos_id == neg_id ({self.pos_id!r}) for "
                             f"query {self.query_id!r}")
        if not math.isfinite(self.margin):
            raise ValueError(f"non-finite margin for query {self.query_id!r}")


@dataclass
class GPLDataset:
    tuples: list[TrainingTuple]
    manifest: dict = field(default_factory=dict)


def sample_tuple(query: Query, pool: PoolEntry, seed: int,
                 draw: int = 0) -> tuple[str, str]:
    """Pick (positive, negative) ids for one query.

    The positive is the query's source passage; the negative is drawn
    uniformly from the pool, deterministic per (seed, query id, draw).
    Draw 0 keys on (seed, query id) alone.
    """
    if not pool.usable or not pool.negative_ids:
        raise ValueError(f"query {query.id} has an empty negative pool")
    if query.source_passage_id is None:
        raise ValueError(f"query {query.id} has no source passage")
    key = (seed, "negsample", query.id) + ((draw,) if draw else ())
    rng = np.random.default_rng(derive_seed(*key))
    neg_id = pool.negative_ids[int(rng.integers(len(pool.negative_ids)))]
    return query.source_passage_id, neg_id


def build_dataset(queries: Sequence[Query], pools: Mapping[str, PoolEntry],
                  corpus: Sequence[Passage], ce: CrossEncoderScorer,
                  seed: int, n_tuples: int | None = None) -> GPLDataset:
    """Pseudo-labeled (query, positive, negative) stream.

    Tuple i belongs to usable query i mod U (usable queries in id order,
    U of them) and is that query's draw i // U, so every draw takes a
    fresh negative from the query's pool. n_tuples=None labels one tuple
    per usable query. Queries whose pool is missing, unusable, or empty
    are skipped; with no usable query the dataset is empty. Each distinct
    (query, passage) pair is scored by the cross-encoder once. The build
    is a pure function of (queries, pools, corpus, ce, seed, n_tuples).
    """
    if n_tuples is not None and n_tuples < 0:
        raise ValueError("n_tuples must be >= 0")
    usable = [q for q in sorted(queries, key=lambda q: q.id)
              if q.id in pools and pools[q.id].usable
              and pools[q.id].negative_ids]
    if n_tuples is None or not usable:
        n_tuples = len(usable)
    texts = {p.id: passage_text(p) for p in corpus}
    scores: dict[tuple[str, str], float] = {}

    def score(query: Query, pid: str) -> float:
        key = (query.id, pid)
        if key not in scores:
            value = ce(query.text, texts[pid])
            if not math.isfinite(value):
                raise ValueError("cross-encoder produced a non-finite score")
            scores[key] = value
        return scores[key]

    tuples: list[TrainingTuple] = []
    for i in range(n_tuples):
        query = usable[i % len(usable)]
        pos_id, neg_id = sample_tuple(query, pools[query.id], seed,
                                      draw=i // len(usable))
        margin = score(query, pos_id) - score(query, neg_id)
        tuples.append(TrainingTuple(query.id, pos_id, neg_id, margin))
    retrievers = sorted({name for pool in pools.values()
                         for name in pool.per_retriever})
    manifest = {
        "seed": seed,
        "cross_encoder": ce.name,
        "retrievers": retrievers,
        "n_queries": len(queries),
        "n_tuples": len(tuples),
        "n_skipped": len(queries) - len(usable),
    }
    return GPLDataset(tuples, manifest)


def write_dataset(dataset: GPLDataset, path: str | Path) -> None:
    """TSV `qid <TAB> pos <TAB> neg <TAB> margin` with margins at 17
    significant digits (exact float64 round-trip); manifest as a JSON
    sidecar next to the file."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as f:
        for t in dataset.tuples:
            f.write(f"{t.query_id}\t{t.pos_id}\t{t.neg_id}\t{t.margin:.17g}\n")
    with open(path.with_suffix(path.suffix + ".manifest.json"), "w",
              encoding="utf-8") as f:
        json.dump(dataset.manifest, f, sort_keys=True, indent=2)


def read_dataset(path: str | Path) -> GPLDataset:
    path = Path(path)
    tuples: list[TrainingTuple] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 tab-separated fields")
            qid, pos_id, neg_id, margin_str = parts
            try:
                margin = float(margin_str)
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: bad margin {margin_str!r}") from e
            try:
                tuples.append(TrainingTuple(qid, pos_id, neg_id, margin))
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
    manifest_path = path.with_suffix(path.suffix + ".manifest.json")
    manifest = {}
    if manifest_path.exists():
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    return GPLDataset(tuples, manifest)
