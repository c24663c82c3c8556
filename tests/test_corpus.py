"""Corpus loading, tokenization, down-sampling, and qrels parsing."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denseadapt.corpus import (DuplicateIdError, ParseError, Passage, Query,
                               downsample_corpus, load_corpus, load_qrels,
                               load_queries, passage_text, save_corpus,
                               save_queries, tokenize)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCorpus:
    def test_field_mapping(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"_id": "d1", "title": "T", "text": "B"})])
        assert load_corpus(path) == [Passage("d1", "T", "B")]

    def test_missing_title_defaults_empty(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"_id": "d2", "text": "B"})])
        assert load_corpus(path) == [Passage("d2", "", "B")]

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"_id": "d1", "text": "a"}),
                           json.dumps({"_id": "d1", "text": "b"})])
        with pytest.raises(DuplicateIdError):
            load_corpus(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"_id": "d1", "text": "a"}), "{nope"])
        with pytest.raises(ParseError, match=":2:"):
            load_corpus(path)

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"_id": f"d{i}", "text": f"t{i}"})
                           for i in range(10)])
        assert [p.id for p in load_corpus(path)] == [f"d{i}" for i in range(10)]

    def test_round_trip_identity(self, tmp_path):
        original = [Passage("d1", "T", "body one"), Passage("d2", "", "body two")]
        path = tmp_path / "corpus.jsonl"
        save_corpus(original, path)
        assert load_corpus(path) == original

    def test_missing_body_filter(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"_id": "d1", "text": "   "}),
                           json.dumps({"_id": "d2", "text": "kept"})])
        assert [p.id for p in load_corpus(path, drop_missing_body=True)] == ["d2"]
        assert len(load_corpus(path)) == 2


class TestQueriesIO:
    def test_round_trip_with_source(self, tmp_path):
        queries = [Query("q1", "what is it"), Query("genQ-d1-1", "gen", "d1")]
        path = tmp_path / "queries.jsonl"
        save_queries(queries, path)
        assert load_queries(path) == queries


LOADERS = pytest.mark.parametrize("load", [load_corpus, load_queries],
                                  ids=["corpus", "queries"])


class TestRecordRules:
    """load_corpus and load_queries check each record alike."""

    def check_refused(self, load, tmp_path, line, message):
        path = tmp_path / "records.jsonl"
        write_lines(path, [json.dumps({"_id": "a1", "text": "x"}), line])
        with pytest.raises(ParseError,
                           match=f"^{re.escape(f'{path}:2: {message}')}$") as e:
            load(path)
        return e.type

    @LOADERS
    @pytest.mark.parametrize("line", ["5", "[]", '"text"', "null"])
    def test_record_not_an_object_refused(self, load, tmp_path, line):
        self.check_refused(load, tmp_path, line,
                           "record is not a JSON object with '_id' and 'text'")

    @LOADERS
    def test_missing_or_null_title_is_empty(self, load, tmp_path):
        path = tmp_path / "records.jsonl"
        write_lines(path, [json.dumps({"_id": "a1", "title": None, "text": "x"}),
                           json.dumps({"_id": "a2", "text": "y"})])
        records = load(path)
        assert [r.id for r in records] == ["a1", "a2"]
        if load is load_corpus:
            assert records == [Passage("a1", "", "x"), Passage("a2", "", "y")]

    @LOADERS
    @pytest.mark.parametrize("record, message", [
        ({"_id": "a2", "text": None}, "'text' must be a string; got None"),
        ({"_id": "a2", "text": 5}, "'text' must be a string; got 5"),
        ({"_id": "a2", "title": 5, "text": "y"},
         "'title' must be a string; got 5"),
        ({"_id": "a2", "title": ["t"], "text": "y"},
         "'title' must be a string; got ['t']"),
        ({"_id": "a2", "title": False, "text": "y"},
         "'title' must be a string; got False"),
    ], ids=["null-text", "int-text", "int-title", "list-title", "bool-title"])
    def test_non_string_title_or_text_refused(self, load, tmp_path, record,
                                              message):
        self.check_refused(load, tmp_path, json.dumps(record), message)

    @LOADERS
    @pytest.mark.parametrize("rid", ["", "p 1", " p1", "p1\t", "p\u00a01"])
    def test_empty_or_whitespace_id_refused(self, load, tmp_path, rid):
        self.check_refused(load, tmp_path, json.dumps({"_id": rid, "text": "y"}),
                           f"'_id' must be non-empty and hold no whitespace; "
                           f"got {rid!r}")

    @LOADERS
    def test_duplicate_id_is_a_parse_error(self, load, tmp_path):
        kind = "passage" if load is load_corpus else "query"
        assert self.check_refused(load, tmp_path,
                                  json.dumps({"_id": "a1", "text": "z"}),
                                  f"duplicate {kind} id 'a1'") is DuplicateIdError


class TestLoadQrels:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        write_lines(path, ["q1\td1\t2"])
        assert load_qrels(path).judgments == {"q1": {"d1": 2}}

    def test_last_write_wins(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        write_lines(path, ["q1\td1\t1", "q1\td1\t0"])
        assert load_qrels(path).judgments == {"q1": {"d1": 0}}

    def test_non_integer_grade(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        write_lines(path, ["q1\td1\tx"])
        with pytest.raises(ParseError):
            load_qrels(path)


class TestPassageText:
    def test_title_and_body(self):
        assert passage_text(Passage("p", "T", "B")) == "T B"

    def test_body_only(self):
        assert passage_text(Passage("p", "", "B")) == "B"

    def test_title_only_degenerate(self):
        assert passage_text(Passage("p", "T", "")) == "T"

    @given(st.text(max_size=40), st.text(max_size=40))
    def test_never_introduces_new_tokens(self, title, body):
        combined = set(tokenize(passage_text(Passage("p", title, body))))
        assert combined <= set(tokenize(title)) | set(tokenize(body))


class TestTokenize:
    def test_punctuation_stripped(self):
        assert tokenize("Futures Contract!") == ["futures", "contract"]

    def test_empty(self):
        assert tokenize("") == []

    def test_repeated_whitespace(self):
        assert tokenize("a  b") == ["a", "b"]

    @given(st.text(max_size=80))
    def test_tokens_lowercase_nonempty(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert token


class TestDownsample:
    def make(self, n):
        return [Passage(f"d{i:05d}", "", f"body {i}") for i in range(n)]

    def test_exact_size(self):
        passages = self.make(500)
        assert len(downsample_corpus(passages, 123, seed=0)) == 123

    def test_identity_at_full_size(self):
        passages = self.make(50)
        assert downsample_corpus(passages, 50, seed=1) == passages

    def test_deterministic(self):
        passages = self.make(200)
        a = downsample_corpus(passages, 60, seed=7)
        b = downsample_corpus(passages, 60, seed=7)
        assert a == b

    def test_subset_and_order(self):
        passages = self.make(300)
        sample = downsample_corpus(passages, 40, seed=3)
        ids = [p.id for p in sample]
        assert set(ids) <= {p.id for p in passages}
        assert ids == sorted(ids)

    def test_range_error(self):
        with pytest.raises(ValueError):
            downsample_corpus(self.make(10), 11, seed=0)
        with pytest.raises(ValueError):
            downsample_corpus(self.make(10), 0, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**31), st.integers(0, 2**31))
    def test_distinct_seeds_usually_differ(self, target, seed_a, seed_b):
        # only subset + size + determinism are asserted; equality of two
        # seeds' samples is allowed
        passages = self.make(60)
        sample = downsample_corpus(passages, target, seed_a)
        assert len(sample) == target
        assert downsample_corpus(passages, target, seed_a) == sample

