import json

import pytest

from sdc.corpus import (
    MAX_EVAL_CHARS,
    Column,
    Corpus,
    filter_columns,
    is_numeric_dominant,
    load_corpus,
    normalize_raw,
    parses_as_number,
    read_json,
    read_records,
    sample_columns,
    save_corpus,
    write_json,
)
from sdc.errors import DataFormatError, json_int, json_ints, json_number, json_str

from oracles import column_by_id, corpus_from_lists


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

    def test_unchanged_value_is_the_same_object(self):
        raw = "".join(["already", " normalized"])
        assert normalize_raw(raw) is raw
        assert normalize_raw(" " + raw) == raw


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
        assert corpus[1].values == ("2",)
        assert [col.id for col in corpus] == ["a", "b"]


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

    def test_bad_record_messages_name_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for rec, message in [
            ([1], "expected an object, got list"),
            ({"values": ["x"]}, "missing or non-string 'id'"),
            ({"id": "a", "values": ["x", 3]}, "'values' must be a list of strings"),
            ({"id": "a", "values": []}, "empty column 'a'"),
            ({"id": "a", "values": ["x"], "header": 1}, "'header' must be a string when present"),
            ({"id": "a", "values": ["y"]}, "duplicate column id 'a'"),
        ]:
            path.write_text('{"id": "a", "values": ["x"]}\n\n' + json.dumps(rec) + "\n")
            with pytest.raises(DataFormatError) as err:
                load_corpus(str(path))
            assert str(err.value) == f"{path} line 3: {message}"

    def test_equal_values_are_one_object(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "values": ["x y", "z", "x y"]}\n'
                        '{"id": "b", "values": ["z", "x y"]}\n')
        a, b = load_corpus(str(path))
        assert a.values[0] is a.values[2] is b.values[1]
        assert a.values[1] is b.values[0]

    def test_missing_path(self):
        with pytest.raises(DataFormatError):
            load_corpus("/no/such/file.jsonl")

    def test_unicode_round_trip(self, tmp_path):
        corpus = corpus_from_lists({"a": ["café", "日本"]})
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, str(path))
        assert load_corpus(str(path)) == corpus


class TestJsonReaders:
    def test_write_json_round_trips(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(str(path), {"b": [1, 2.5], "a": {"x": None}})
        assert path.read_text() == '{\n "a": {\n  "x": null\n },\n "b": [\n  1,\n  2.5\n ]\n}\n'
        assert read_json(str(path), "doc") == {"a": {"x": None}, "b": [1, 2.5]}

    @pytest.mark.parametrize("contents", [b"[]", b"{not json", b'{"k": "caf\xe9"}'])
    def test_read_json_names_what_and_the_file(self, tmp_path, contents):
        path = tmp_path / "doc.json"
        path.write_bytes(contents)
        with pytest.raises(DataFormatError, match="registry") as err:
            read_json(str(path), "registry")
        assert str(path) in str(err.value)

    def test_read_json_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read store"):
            read_json(str(tmp_path / "nope.json"), "store")

    def test_read_records_skips_blank_and_skipped_lines(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        path.write_text('{"kind": "meta"}\n\n{"n": 1}\n  \n{"n": 2}\n')
        parsed = read_records(str(path), lambda rec: json_int(rec, "n"), lambda rec: "kind" in rec)
        assert parsed == [1, 2]

    @pytest.mark.parametrize("line, message", [
        ("[1]", "line 2: expected an object, got list"),
        ("{not json", "line 2: invalid JSON"),
        ('{"n": 2.5}', "line 2: bad record"),
        ("{}", "line 2: bad record"),
    ])
    def test_read_records_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "recs.jsonl"
        path.write_text('{"n": 1}\n' + line + "\n")
        with pytest.raises(DataFormatError, match=message) as err:
            read_records(str(path), lambda rec: json_int(rec, "n"))
        assert str(err.value).startswith(f"{path} line 2: ")

    def test_typed_values(self):
        rec = {"i": 3, "f": 0.5, "b": True, "s": "x", "nan": float("nan"), "big": 10**400,
               "ints": [1, 2], "mixed": [1, True]}
        assert json_int(rec, "i") == 3
        assert json_number(rec, "i") == 3.0 and json_number(rec, "f") == 0.5
        assert json_number(rec, "nan", finite=False) != json_number(rec, "nan", finite=False)
        assert json_str(rec, "s") == "x" and json_ints(rec, "ints") == [1, 2]
        for reader, key in [(json_int, "f"), (json_int, "b"), (json_int, "gone"),
                            (json_number, "b"), (json_number, "s"), (json_number, "nan"),
                            (json_number, "big"), (json_number, "gone"), (json_str, "i"),
                            (json_str, "gone"), (json_ints, "mixed"), (json_ints, "i")]:
            with pytest.raises(ValueError, match=key):
                reader(rec, key)


class TestCsvDir:
    def test_columns_per_file(self, tmp_path):
        (tmp_path / "b.csv").write_text("1,2\n3,4\n")
        (tmp_path / "a.csv").write_text('x,"y,z"\nu,v\n')
        corpus = load_corpus(str(tmp_path))
        # sorted file order, then column index
        assert corpus.ids() == ["a.csv:0", "a.csv:1", "b.csv:0", "b.csv:1"]
        assert column_by_id(corpus, "a.csv:1").values == ("y,z", "v")

    def test_first_row_holds_values(self, tmp_path):
        (tmp_path / "a.csv").write_text("name,age\nbob,3\n")
        col = column_by_id(load_corpus(str(tmp_path)), "a.csv:0")
        assert col.header is None
        assert col.values == ("name", "bob")

    def test_ragged_rows(self, tmp_path):
        (tmp_path / "a.csv").write_text("a,b\nc\n")
        corpus = load_corpus(str(tmp_path))
        assert column_by_id(corpus, "a.csv:0").values == ("a", "c")
        assert column_by_id(corpus, "a.csv:1").values == ("b",)


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
