import json

import pytest

from sdc.corpus import (
    MAX_EVAL_CHARS,
    Column,
    Corpus,
    corpus_from_lists,
    filter_columns,
    is_numeric_dominant,
    load_corpus,
    normalize_raw,
    parses_as_number,
    sample_columns,
    save_corpus,
)
from sdc.errors import DataFormatError


class TestNormalize:
    def test_trim_and_casefold(self):
        assert normalize_raw("  Foo Bar ") == "foo bar"
        assert normalize_raw("STRASSE") == "strasse"
        # casefold, not lower: sharp s expands
        assert normalize_raw("straße") == "strasse"

    def test_truncation(self):
        long = "x" * (MAX_EVAL_CHARS + 100)
        assert len(normalize_raw(long)) == MAX_EVAL_CHARS

    def test_idempotent(self):
        for raw in ["  A b ", "x" * 600, "\tmixed CASE\n"]:
            once = normalize_raw(raw)
            assert normalize_raw(once) == once


class TestColumn:
    def test_basic(self):
        col = Column(id="c1", values=("A", "b"), header="h")
        assert len(col) == 2
        assert col.normalized() == ["a", "b"]
        assert col.header == "h"

    def test_list_coerced_to_tuple(self):
        col = Column(id="c1", values=["a"])
        assert isinstance(col.values, tuple)

    def test_empty_rejected(self):
        with pytest.raises(DataFormatError):
            Column(id="c1", values=())


class TestCorpus:
    def test_duplicate_ids_rejected(self):
        cols = [Column(id="x", values=("a",)), Column(id="x", values=("b",))]
        with pytest.raises(DataFormatError):
            Corpus(cols)

    def test_lookup_and_iteration(self):
        corpus = corpus_from_lists({"a": ["1"], "b": ["2"]})
        assert len(corpus) == 2
        assert corpus.ids() == ["a", "b"]
        assert corpus.column_by_id("b").values == ("2",)
        with pytest.raises(KeyError):
            corpus.column_by_id("missing")


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        corpus = corpus_from_lists({"a": ["x", "y"], "b": ["1", "2", "3"]})
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, str(path), meta={"note": "test"})
        loaded = load_corpus(str(path))
        assert loaded == corpus

    def test_meta_line_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [
            json.dumps({"kind": "corpus-meta", "seed": 3}),
            json.dumps({"id": "a", "values": ["x"]}),
        ]
        path.write_text("\n".join(lines) + "\n")
        assert load_corpus(str(path)).ids() == ["a"]

    def test_header_preserved(self, tmp_path):
        corpus = Corpus([Column(id="a", values=("x",), header="City")])
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, str(path))
        assert load_corpus(str(path))[0].header == "City"

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "values": ["x"]}\n{oops\n')
        with pytest.raises(DataFormatError, match="line 2"):
            load_corpus(str(path))

    def test_bad_record_shapes(self, tmp_path):
        for rec in [
            {"values": ["x"]},
            {"id": "a"},
            {"id": "a", "values": []},
            {"id": "a", "values": ["x", 3]},
            {"id": 7, "values": ["x"]},
        ]:
            path = tmp_path / "bad.jsonl"
            path.write_text(json.dumps(rec) + "\n")
            with pytest.raises(DataFormatError):
                load_corpus(str(path))

    def test_missing_path(self):
        with pytest.raises(DataFormatError):
            load_corpus("/no/such/file.jsonl")

    def test_unicode_round_trip(self, tmp_path):
        corpus = corpus_from_lists({"a": ["café", "日本"]})
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, str(path))
        assert load_corpus(str(path)) == corpus


class TestCsvDir:
    def test_columns_per_file(self, tmp_path):
        (tmp_path / "b.csv").write_text("1,2\n3,4\n")
        (tmp_path / "a.csv").write_text('x,"y,z"\nu,v\n')
        corpus = load_corpus(str(tmp_path))
        # sorted file order, then column index
        assert corpus.ids() == ["a.csv:0", "a.csv:1", "b.csv:0", "b.csv:1"]
        assert corpus.column_by_id("a.csv:1").values == ("y,z", "v")

    def test_header_row(self, tmp_path):
        (tmp_path / "a.csv").write_text("name,age\nbob,3\n")
        corpus = load_corpus(str(tmp_path), header_row=True)
        col = corpus.column_by_id("a.csv:0")
        assert col.header == "name"
        assert col.values == ("bob",)

    def test_ragged_rows(self, tmp_path):
        (tmp_path / "a.csv").write_text("a,b\nc\n")
        corpus = load_corpus(str(tmp_path))
        assert corpus.column_by_id("a.csv:0").values == ("a", "c")
        assert corpus.column_by_id("a.csv:1").values == ("b",)


class TestSampleColumns:
    def test_split_properties(self):
        corpus = corpus_from_lists({f"c{i}": [str(i)] for i in range(30)})
        train, held = sample_columns(corpus, 10, seed=5)
        assert len(train) == 20 and len(held) == 10
        assert set(train.ids()) | set(held.ids()) == set(corpus.ids())
        assert set(train.ids()) & set(held.ids()) == set()
        # both preserve corpus order
        order = {cid: i for i, cid in enumerate(corpus.ids())}
        assert train.ids() == sorted(train.ids(), key=order.get)
        assert held.ids() == sorted(held.ids(), key=order.get)

    def test_deterministic(self):
        corpus = corpus_from_lists({f"c{i}": [str(i)] for i in range(30)})
        a = sample_columns(corpus, 7, seed=1)[1].ids()
        b = sample_columns(corpus, 7, seed=1)[1].ids()
        c = sample_columns(corpus, 7, seed=2)[1].ids()
        assert a == b
        assert a != c

    def test_out_of_range(self):
        corpus = corpus_from_lists({"a": ["1"]})
        with pytest.raises(ValueError):
            sample_columns(corpus, 2, seed=0)
        with pytest.raises(ValueError):
            sample_columns(corpus, -1, seed=0)


class TestNumericFiltering:
    @pytest.mark.parametrize(
        "value", ["3", "-4", "+4.5", ".5", "6e-3", "1E+4", " 7 ", "0.0"]
    )
    def test_numbers(self, value):
        assert parses_as_number(value)

    @pytest.mark.parametrize(
        "value", ["", "nan", "inf", "1/2", "1,000", "v2", "3.4.5", "1e400", "0x1f"]
    )
    def test_non_numbers(self, value):
        assert not parses_as_number(value)

    def test_dominance_threshold(self):
        col = Column(id="c", values=("1", "2", "3", "4", "5", "6", "7", "8", "9", "x"))
        assert is_numeric_dominant(col, threshold=0.9)
        assert not is_numeric_dominant(col, threshold=0.95)

    def test_filter(self):
        corpus = corpus_from_lists(
            {"num": ["1", "2", "3"], "mixed": ["1", "a", "b"], "words": ["a", "b"]}
        )
        kept = filter_columns(corpus)
        assert kept.ids() == ["mixed", "words"]
        assert filter_columns(corpus, skip_numeric=False).ids() == corpus.ids()
