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
from typing import Iterable, Iterator, Sequence

import numpy as np

_PUNCT = string.punctuation


class ParseError(ValueError):
    """An input file line could not be parsed."""


class DuplicateIdError(ParseError):
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


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(number, text without its newline) of each non-blank line of a text
    file, split as `open` splits it, so `\r\n` ends a line too. A line
    that is not UTF-8 is a ParseError naming `path:line`."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                try:  # a byte that is not UTF-8 reads as a lone surrogate
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(f"{path}:{lineno}: not UTF-8") from None
            if line.strip():
                yield lineno, line.rstrip("\n")


def _id_text(value, key: str, path: str | Path, lineno: int) -> str:
    """An id's text: a JSON string, or a number's text; else a ParseError."""
    if type(value) not in (str, int, float):  # a bool is not an id
        raise ParseError(f"{path}:{lineno}: {key!r} must be a string or a "
                         f"number; got {value!r}")
    return str(value)


def _records(path: str | Path, kind: str
             ) -> Iterator[tuple[dict, int, str, str, str]]:
    """(record, line number, id, title, text) of each non-blank line of a
    corpus or query file. A missing or null title is "". A line that is
    not a JSON object with `_id` and a string `text`, a title that is not
    a string, or an `_id` that is not a string or a number, is empty,
    holds whitespace or repeats (`DuplicateIdError`) is a ParseError
    naming `path:line`."""
    seen: set[str] = set()
    for lineno, line in read_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
        if not isinstance(record, dict) or "_id" not in record \
                or "text" not in record:
            raise ParseError(f"{path}:{lineno}: record is not a JSON "
                             "object with '_id' and 'text'")
        rid, text = _id_text(record["_id"], "_id", path, lineno), record["text"]
        title = "" if record.get("title") is None else record["title"]
        if not (isinstance(text, str) and isinstance(title, str)):
            key = "title" if isinstance(text, str) else "text"
            raise ParseError(f"{path}:{lineno}: {key!r} must be a string; got "
                             f"{record[key]!r}")
        # Run files split their lines on whitespace.
        if rid.split() != [rid]:
            raise ParseError(f"{path}:{lineno}: '_id' must be non-empty "
                             f"and hold no whitespace; got {rid!r}")
        if rid in seen:
            raise DuplicateIdError(f"{path}:{lineno}: duplicate {kind} id {rid!r}")
        seen.add(rid)
        yield record, lineno, rid, title, text


def load_corpus(path: str | Path, drop_missing_body: bool = False) -> list[Passage]:
    """Read corpus.jsonl into Passage records, preserving file order and
    checking each as `_records` does. With drop_missing_body=True, passages
    whose body is empty or whitespace-only are skipped."""
    return [Passage(pid, title, body)
            for _, _, pid, title, body in _records(path, "passage")
            if body.strip() or not drop_missing_body]


def save_corpus(passages: Iterable[Passage], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for p in passages:
            f.write(json.dumps({"_id": p.id, "title": p.title, "text": p.body},
                               sort_keys=True) + "\n")


def load_queries(path: str | Path) -> list[Query]:
    """Read queries.jsonl, checking each record as `_records` does;
    generated queries may carry source_passage_id, an id as `_id` is, or
    null for none."""
    queries: list[Query] = []
    for record, lineno, qid, _, text in _records(path, "query"):
        src = record.get("source_passage_id")
        queries.append(Query(qid, text, None if src is None else
                             _id_text(src, "source_passage_id", path, lineno)))
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
    for lineno, line in read_lines(path):
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

