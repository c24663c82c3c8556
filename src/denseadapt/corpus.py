"""Corpus, query, and relevance-judgment I/O for BeIR-style datasets.

File conventions: corpus.jsonl and queries.jsonl hold one JSON record per
line (`_id`, optional `title`, `text`); qrels are 3-column TSV with no
header (query-id, passage-id, integer grade).
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

_PUNCT = string.punctuation


class ParseError(ValueError):
    """An input file line could not be parsed."""


class DuplicateIdError(ValueError):
    """A corpus or query file repeats an id."""


@dataclass(frozen=True)
class Passage:
    id: str
    title: str
    body: str


@dataclass(frozen=True)
class Query:
    id: str
    text: str
    source_passage_id: str | None = None


@dataclass
class Qrels:
    """Graded relevance judgments: query-id -> {passage-id -> grade >= 0}."""

    judgments: dict[str, dict[str, int]] = field(default_factory=dict)

    def grades_for(self, query_id: str) -> dict[str, int]:
        return self.judgments.get(query_id, {})


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation.

    Empty tokens are dropped. Truncation to a maximum sequence length is
    the caller's job.
    """
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_PUNCT)
        if tok:
            out.append(tok)
    return out


def passage_text(p: Passage) -> str:
    """Title and body joined by a single space; body alone if no title."""
    if p.title:
        return f"{p.title} {p.body}" if p.body else p.title
    return p.body


def load_corpus(path: str | Path, drop_missing_body: bool = False) -> list[Passage]:
    """Read corpus.jsonl into Passage records, preserving file order.

    Missing titles become empty strings. With drop_missing_body=True,
    passages whose body is empty or whitespace-only are skipped.
    """
    passages: list[Passage] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
            if "_id" not in record or "text" not in record:
                raise ParseError(f"{path}:{lineno}: record needs '_id' and 'text'")
            pid = str(record["_id"])
            if not pid:
                raise ParseError(f"{path}:{lineno}: empty '_id'")
            if pid in seen:
                raise DuplicateIdError(f"{path}:{lineno}: duplicate passage id {pid!r}")
            seen.add(pid)
            body = str(record["text"])
            if drop_missing_body and not body.strip():
                continue
            passages.append(Passage(pid, str(record.get("title", "")), body))
    return passages


def save_corpus(passages: Iterable[Passage], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for p in passages:
            f.write(json.dumps({"_id": p.id, "title": p.title, "text": p.body},
                               sort_keys=True) + "\n")


def load_queries(path: str | Path) -> list[Query]:
    """Read queries.jsonl; generated queries may carry source_passage_id."""
    queries: list[Query] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
            if "_id" not in record or "text" not in record:
                raise ParseError(f"{path}:{lineno}: record needs '_id' and 'text'")
            qid = str(record["_id"])
            if qid in seen:
                raise DuplicateIdError(f"{path}:{lineno}: duplicate query id {qid!r}")
            seen.add(qid)
            src = record.get("source_passage_id")
            queries.append(Query(qid, str(record["text"]),
                                 None if src is None else str(src)))
    return queries


def save_queries(queries: Iterable[Query], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for q in queries:
            record = {"_id": q.id, "text": q.text}
            if q.source_passage_id is not None:
                record["source_passage_id"] = q.source_passage_id
            f.write(json.dumps(record, sort_keys=True) + "\n")


def load_qrels(path: str | Path) -> Qrels:
    """Read 3-column TSV qrels. Repeated (query, passage) pairs keep the last value."""
    qrels = Qrels()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields")
            qid, pid, grade_str = parts
            try:
                grade = int(grade_str)
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: non-integer grade {grade_str!r}") from e
            if grade < 0:
                raise ParseError(f"{path}:{lineno}: negative grade {grade}")
            qrels.judgments.setdefault(qid, {})[pid] = grade
    return qrels


def save_qrels(qrels: Qrels, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for qid in sorted(qrels.judgments):
            for pid in sorted(qrels.judgments[qid]):
                f.write(f"{qid}\t{pid}\t{qrels.judgments[qid][pid]}\n")


def downsample_corpus(passages: Sequence[Passage], target_size: int,
                      seed: int) -> list[Passage]:
    """Uniform sample without replacement, preserving original order.

    Deterministic per seed; raises if target_size is out of range.
    """
    n = len(passages)
    if not 0 < target_size <= n:
        raise ValueError(f"target_size {target_size} out of range for corpus of {n}")
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(n, size=target_size, replace=False))
    return [passages[i] for i in keep]

