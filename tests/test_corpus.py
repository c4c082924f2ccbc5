import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdc.corpus import (
    MAX_EVAL_CHARS,
    Column,
    Corpus,
    filter_columns,
    load_corpus,
    normalize_raw,
    parses_as_number,
    read_json,
    read_records,
    sample_columns,
    save_corpus,
    write_json,
)
from sdc.domain_fns import (
    EmbeddingSpace,
    Registry,
    ValueIndex,
    builtin_validators,
    make_embedding_fn,
    make_pattern_fn,
    make_score_table_fn,
)
from sdc.errors import DataFormatError, json_int, json_ints, json_number, json_str
from sdc.infer import compile_ruleset, detect_corpus

import oracles
from oracles import column_by_id, constraint, corpus_from_lists, detect_errors_naive


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
    def test_duplicate_ids_rejected(self, tmp_path):
        # The JSONL reader is where ids are checked, so the message names
        # the file and the line.
        cols = [Column(id="x", values=("a",)), Column(id="x", values=("b",))]
        path = tmp_path / "c.jsonl"
        save_corpus(Corpus(cols), str(path))
        with pytest.raises(DataFormatError) as err:
            load_corpus(str(path))
        assert str(err.value) == f"{path} line 2: duplicate column id 'x'"

    def test_lookup_and_iteration(self):
        corpus = corpus_from_lists({"a": ["1"], "b": ["2"]})
        assert len(corpus) == 2
        assert corpus.ids == ["a", "b"]
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
        assert load_corpus(str(path)).ids == ["a"]

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


# Raw cells of every kind the reader must code as the per-cell
# reference does: case changes, surrounding tabs and newlines, values
# over MAX_EVAL_CHARS (two raw values then normalize to one when they
# differ only past it), non-ASCII text, and several tokens joined by a
# space or a tab.
READER_WORDS = ["red", "crimson", "blue", "café", "日本", "straße", "zzz", "12-34", "a@b.io", ""]


def raw_cell(words: list[str], case: str, joiner: str, tail: str, pad: tuple[str, str]) -> str:
    cell = joiner.join(words) + tail
    return pad[0] + {"as-is": cell, "upper": cell.upper(), "title": cell.title()}[case] + pad[1]


RAW_CELL = st.builds(
    raw_cell,
    st.lists(st.sampled_from(READER_WORDS), min_size=1, max_size=3),
    st.sampled_from(["as-is", "upper", "title"]),
    st.sampled_from([" ", "\t"]),
    st.sampled_from(["", "q" * (MAX_EVAL_CHARS + 8), "q" * (MAX_EVAL_CHARS + 8) + "z"]),
    st.tuples(*[st.sampled_from(["", " ", "\t", "\n", " \t\n"])] * 2),
)
# Each column's cells and header; 0- and 1-column corpora included.
READER_COLUMNS = st.lists(
    st.tuples(st.lists(RAW_CELL, min_size=1, max_size=6), st.none() | st.sampled_from(["", "City"])),
    max_size=4,
)


def read_back(columns: list[Column], ensure_ascii: bool) -> Corpus:
    """``load_corpus`` of the columns written as JSONL behind a metadata
    line and a blank line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scan.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "corpus-meta"}) + "\n\n")
            for col in columns:
                rec = {"id": col.id, "values": list(col.values)}
                if col.header is not None:
                    rec["header"] = col.header
                fh.write(json.dumps(rec, ensure_ascii=ensure_ascii) + "\n")
        return load_corpus(path)


def as_columns(records) -> list[Column]:
    return [Column(id=f"c{j}", values=tuple(values), header=header)
            for j, (values, header) in enumerate(records)]


def reader_registry() -> Registry:
    space = EmbeddingSpace(dimension=2, id="toy2d", vectors={
        "red": [0.0, 0.0], "crimson": [0.0, 1.0], "blue": [10.0, 0.0], "café": [1.0, 1.0],
        "日本": [9.0, 1.0]})
    reg = Registry()
    reg.add_space(space)
    reg.add_all([make_embedding_fn(space, "red"), make_embedding_fn(space, "blue"),
                 make_score_table_fn("reds", {"red": 1.0, "crimson": 0.9, "café": 0.5}),
                 make_pattern_fn("[a-zA-Z]+"), *builtin_validators()])
    return reg


READER_CONSTRAINTS = [
    constraint(fn_id, d_in, d_out, m)
    for fn_id, pairs in [("emb:toy2d:red", [(0.5, 2.0), (1.5, 9.0)]),
                         ("emb:toy2d:blue", [(1.5, 2.0)]),
                         ("score:reds", [(0.1, 0.5), (0.5, 0.95)]),
                         ("pattern:[a-zA-Z]+", [(0.0, 0.0)]),
                         ("validator:email", [(0.0, 0.0)])]
    for d_in, d_out in pairs
    for m in (0.5, 1.0)
]


class TestReaderCodes:
    """``load_corpus`` codes each cell as it reads it; the index over
    that table must equal the per-cell reference and the index of the
    same ``Column``s, and detection over it the naive loop."""

    @given(READER_COLUMNS, st.booleans())
    @settings(max_examples=150, deadline=None)
    @example([], False)
    @example([(["Red"], "City")], True)
    @example([(["Oslo", " oslo", "Oslo"], None), (["oslo", "Oslo\t"], "")], False)
    def test_index_of_the_reader_equals_the_index_of_columns(self, records, ensure_ascii):
        columns = as_columns(records)
        corpus = read_back(columns, ensure_ascii)
        index = ValueIndex(corpus)
        values, codes = oracles.value_index_codes(columns)
        assert index.values == values
        assert index.codes.dtype == np.intp and index.codes.tolist() == codes
        assert index.ids == [col.id for col in columns]
        assert index.corpus.headers == [col.header for col in columns]
        assert index.lengths.tolist() == [len(col) for col in columns]
        cells = [v for col in columns for v in col.values]
        assert [index.corpus.raw[c] for c in index.corpus.raw_codes.tolist()] == cells
        # The Columns, built only now, share the table's strings: equal raw
        # values are one object, and a normalized value whose first cell
        # normalization leaves unchanged is that cell's own string.
        assert "columns" not in vars(corpus)
        assert corpus.columns == columns and list(index) == columns
        shared: dict[str, str] = {}
        first_cell: dict[int, str] = {}
        for code, raw in zip(codes, (v for col in corpus for v in col.values)):
            assert shared.setdefault(raw, raw) is raw
            first_cell.setdefault(code, raw)
        for code, raw in first_cell.items():
            if normalize_raw(raw) == raw:
                assert index.values[code] is raw
        from_columns = ValueIndex(columns)
        assert from_columns.values == values and from_columns.codes.tolist() == codes

    @given(READER_COLUMNS, st.lists(st.sampled_from(READER_CONSTRAINTS), max_size=8),
           st.sampled_from([None, 0.8, 0.9]))
    @settings(max_examples=150, deadline=None)
    @example([], READER_CONSTRAINTS, None)
    @example([(["red", "red\tcrimson", "zzz"], None)], READER_CONSTRAINTS[:1], 0.9)
    def test_detection_over_the_reader_equals_naive(self, records, sdcs, confidence):
        columns = as_columns(records)
        sdcs = [replace(s, confidence=confidence) for s in sdcs]
        reg = reader_registry()
        got = detect_corpus(compile_ruleset(sdcs), ValueIndex(read_back(columns, False)), reg)
        assert got == [d for col in columns for d in detect_errors_naive(sdcs, col, reg)]


# Cells for the numeric filter: numbers as parses_as_number reads them
# (signs, exponents, padding, leading zeros, non-ASCII digits) and
# strings it refuses though float() takes some of them.
NUMBER_CELLS = ["3", "-4", "+4.5", ".5", "6e-3", "1E+4", " 7 ", "007", "\t12\n", "٣٤", "１２"]
WORD_CELLS = ["nan", "NaN", "inf", "-Infinity", "1e400", "1,000", "v2", "", "Red", " red", "RED\t"]


def ninety_percent(numbers: list[str], word: str, at: int) -> list[str]:
    return numbers[:at] + [word] + numbers[at:]


FILTER_COLUMNS = st.lists(
    st.tuples(
        st.one_of(
            st.lists(st.sampled_from(NUMBER_CELLS + WORD_CELLS) | RAW_CELL, min_size=1, max_size=12),
            # Exactly 90% numbers: the filter drops these.
            st.builds(ninety_percent, st.lists(st.sampled_from(NUMBER_CELLS), min_size=9,
                                               max_size=9),
                      st.sampled_from(WORD_CELLS), st.integers(0, 9)),
        ),
        st.none() | st.sampled_from(["", "n"]),
    ),
    max_size=6,
)


def assert_index_of(index: ValueIndex, columns: list[Column]) -> None:
    """``index`` equals the index of ``columns`` made directly."""
    direct = ValueIndex(columns)
    assert index.values == direct.values
    assert index.codes.tolist() == direct.codes.tolist()
    assert index.ids == direct.ids == [col.id for col in columns]
    assert index.corpus.headers == [col.header for col in columns]
    assert index.offsets.tolist() == direct.offsets.tolist()
    assert index.corpus.raw == direct.corpus.raw
    assert index.corpus.raw_codes.dtype == direct.corpus.raw_codes.dtype
    cells = [v for col in columns for v in col.values]
    assert [index.corpus.raw[c] for c in index.corpus.raw_codes.tolist()] == cells


class TestCodedCorpus:
    """The numeric filter and the held-out split keep columns on their
    codes (``Corpus.take``); what they keep must equal the per-cell
    references, and its index the index of the same ``Column``s."""

    @given(FILTER_COLUMNS, st.booleans())
    @settings(max_examples=150, deadline=None)
    @example([], False)
    @example([(["1"], None)], False)
    @example([(["1", "2", "3", "4", "5", "6", "7", "8", "9", "x"], "n"), (["x"], None)], True)
    def test_filter_keeps_what_the_reference_keeps(self, records, ensure_ascii):
        columns = as_columns(records)
        expected = [col for col in columns if not oracles.is_numeric_dominant(col)]
        for corpus in (read_back(columns, ensure_ascii), Corpus(columns)):
            kept = filter_columns(corpus)
            assert "columns" not in vars(kept)
            assert kept.columns == expected
            assert_index_of(ValueIndex(kept), expected)

    def test_columns_are_coded_on_first_use(self):
        # A corpus made from columns is coded only when its codes are
        # read: its length, iteration and list() leave it uncoded.
        columns = as_columns([(["Red", "red"], "a"), (["blue"], None)])
        corpus = Corpus(columns)
        assert len(corpus) == 2 and list(corpus) == columns and corpus.ids == ["c0", "c1"]
        assert "raw" not in vars(corpus)
        assert corpus.headers == ["a", None] and corpus.raw == ["Red", "red", "blue"]
        assert corpus.raw_codes.tolist() == [0, 1, 2] and corpus.offsets.tolist() == [0, 2, 3]

    @given(READER_COLUMNS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_index_of_a_taken_corpus_equals_the_index_of_its_columns(self, records, data):
        columns = as_columns(records)
        positions = data.draw(st.lists(st.sampled_from(range(len(columns))), unique=True)
                              if columns else st.just([]))
        taken = read_back(columns, False).take(positions)
        assert_index_of(ValueIndex(taken), [columns[j] for j in positions])

    @given(FILTER_COLUMNS, st.data(), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_split_equals_the_loop(self, records, data, seed):
        columns = as_columns(records)
        n = data.draw(st.integers(0, len(columns)))
        train, held = sample_columns(read_back(columns, False), n, seed)
        ref_train, ref_held = oracles.sample_columns_loop(columns, n, seed)
        assert train.columns == ref_train and held.columns == ref_held
        assert_index_of(ValueIndex(train), ref_train)
        assert_index_of(ValueIndex(held), ref_held)


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
        assert corpus.ids == ["a.csv:0", "a.csv:1", "b.csv:0", "b.csv:1"]
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
        assert set(train.ids) | set(held.ids) == set(corpus.ids)
        assert set(train.ids) & set(held.ids) == set()
        # both preserve corpus order
        order = {cid: i for i, cid in enumerate(corpus.ids)}
        assert train.ids == sorted(train.ids, key=order.get)
        assert held.ids == sorted(held.ids, key=order.get)

    def test_deterministic(self):
        corpus = corpus_from_lists({f"c{i}": [str(i)] for i in range(30)})
        a = sample_columns(corpus, 7, seed=1)[1].ids
        b = sample_columns(corpus, 7, seed=1)[1].ids
        c = sample_columns(corpus, 7, seed=2)[1].ids
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
        assert oracles.is_numeric_dominant(col, threshold=0.9)
        assert not oracles.is_numeric_dominant(col, threshold=0.95)

    def test_filter(self):
        corpus = corpus_from_lists(
            {"num": ["1", "2", "3"], "mixed": ["1", "a", "b"], "words": ["a", "b"]}
        )
        kept = filter_columns(corpus)
        assert kept.ids == ["mixed", "words"]
        assert filter_columns(corpus, skip_numeric=False).ids == corpus.ids
