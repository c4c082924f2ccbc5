import math
import random
import re
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdc import domain_fns
from sdc.candidates import Candidate
from sdc.corpus import Column
from sdc.datagen import generate_corpus
from sdc.domain_fns import (
    INFINITE_DISTANCE,
    EmbeddingSpace,
    Registry,
    ValueIndex,
    builtin_validators,
    embed_value,
    eval_distance,
    infer_patterns,
    load_embedding_space,
    load_score_table,
    make_embedding_fn,
    make_pattern_fn,
    make_random_hash_fn,
    make_score_table_fn,
    pattern_to_regex,
    sample_centroids,
    value_shape,
    _validate_date,
)
from sdc.errors import DataFormatError

import oracles


# ---------------------------------------------------------------------------
# score_table


class TestScoreTable:
    def test_distance_is_one_minus_score(self):
        fn = make_score_table_fn("t", {"a": 0.9, "b": 0.3})
        assert fn.distance("a") == pytest.approx(1.0 - 0.9)
        assert fn.distance("b") == pytest.approx(1.0 - 0.3)

    def test_absent_value_uses_default(self):
        assert make_score_table_fn("t", {"a": 0.9}).distance("zz") == 1.0
        assert make_score_table_fn("t", {"a": 0.9}, default_score=0.25).distance("zz") == 0.75

    def test_keys_normalized(self):
        fn = make_score_table_fn("t", {" Red ": 0.8})
        assert fn.distance("red") == pytest.approx(0.2)

    def test_score_range_checked(self):
        with pytest.raises(DataFormatError):
            make_score_table_fn("t", {"a": 1.5})
        with pytest.raises(DataFormatError):
            make_score_table_fn("t", {"a": 0.5}, default_score=-0.1)

    def test_load_jsonl(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"value": "LAX", "score": 0.95}\n\n{"value": "jfk", "score": 0.9}\n')
        fn = load_score_table(str(path), "airport")
        assert fn.id == "score:airport"
        assert fn.distance("lax") == pytest.approx(0.05)
        assert fn.distance("jfk") == pytest.approx(0.1)
        assert fn.path == str(path)

    def test_load_rejects_bad_lines(self, tmp_path):
        for body in ['{"value": "a"}', '{"value": "a", "score": 2}', "nonsense"]:
            path = tmp_path / "bad.jsonl"
            path.write_text(body + "\n")
            with pytest.raises(DataFormatError, match="line 1"):
                load_score_table(str(path), "t")


# ---------------------------------------------------------------------------
# embedding


class TestEmbedding:
    def test_exact_distances(self, space2d):
        fn = make_embedding_fn(space2d, "red")
        assert fn.distance("red") == 0.0
        assert fn.distance("crimson") == pytest.approx(1.0)
        assert fn.distance("blue") == pytest.approx(10.0)
        assert fn.distance("navy") == pytest.approx(math.sqrt(101.0))

    def test_oov_value_infinite(self, space2d):
        fn = make_embedding_fn(space2d, "red")
        assert fn.distance("zzz") == INFINITE_DISTANCE

    def test_multi_token_mean(self, space2d):
        fn = make_embedding_fn(space2d, "red")
        # mean of red (0,0) and crimson (0,1) is (0, 0.5)
        assert fn.distance("red crimson") == pytest.approx(0.5)
        # unknown tokens are ignored as long as one is known
        assert fn.distance("red zzz") == pytest.approx(0.0)

    def test_multi_token_centroid(self, space2d):
        fn = make_embedding_fn(space2d, "red crimson")
        assert fn.distance("red") == pytest.approx(0.5)

    def test_oov_centroid_rejected(self, space2d):
        with pytest.raises(DataFormatError):
            make_embedding_fn(space2d, "zzz")

    def test_centroid_normalized(self, space2d):
        fn = make_embedding_fn(space2d, "  RED ")
        assert fn.centroid == "red"
        assert fn.id == "emb:toy2d:red"

    def test_space_of_lists_matches_the_index(self):
        space = EmbeddingSpace(2, {"red": [0, 0], "crimson": [0.0, 1.0], "navy": (10, 1)}, id="l")
        assert all(v.dtype == np.float64 for v in space.vectors.values())
        fn = make_embedding_fn(space, "red")
        values = ("red", "crimson", "navy", "red navy", "zzz")
        got = ValueIndex([Column(id="c", values=values)]).distances(fn)
        assert got.tobytes() == np.asarray([fn.distance(v) for v in values]).tobytes()
        assert got[:3].tolist() == [0.0, 1.0, math.sqrt(101.0)]

    def test_embed_value_exact_beats_tokenization(self, space2d):
        # single-token lookup must not fall into the split path
        assert np.allclose(embed_value(space2d, "navy"), [10.0, 1.0])
        assert embed_value(space2d, "zzz qqq") is None


class TestEmbeddingSpaceIO:
    def test_load(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("red 0 0\nblue 10 0\n\ncrimson 0 1\n")
        space = load_embedding_space(str(path))
        assert space.dimension == 2
        assert space.id == "vecs"
        assert np.allclose(space.vectors["blue"], [10.0, 0.0])

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("red 0 0\nblue 1 2 3\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_embedding_space(str(path))

    def test_duplicate_token_warns_keeps_last(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("red 0 0\nred 5 5\n")
        with pytest.warns(UserWarning, match="duplicate token"):
            space = load_embedding_space(str(path))
        assert np.allclose(space.vectors["red"], [5.0, 5.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_embedding_space(str(path))

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("red 0 oops\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_embedding_space(str(path))

    def test_explicit_space_id(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("red 0 0\n")
        assert load_embedding_space(str(path), space_id="mine").id == "mine"


class TestSampleCentroids:
    def test_deterministic_and_embeddable(self, space2d, word_corpus):
        fns_a = sample_centroids(word_corpus, space2d, 3, seed=9)
        fns_b = sample_centroids(word_corpus, space2d, 3, seed=9)
        assert [f.id for f in fns_a] == [f.id for f in fns_b]
        assert len({f.id for f in fns_a}) == 3
        for fn in fns_a:
            assert fn.distance(fn.centroid) == 0.0

    def test_pool_too_small(self, space2d):
        corpus = oracles.corpus_from_lists({"a": ["red", "qqq"], "b": ["blue", "qqq"]})
        with pytest.raises(ValueError):
            sample_centroids(corpus, space2d, 5, seed=0)

    @pytest.mark.parametrize("prebuilt", [False, True])
    def test_pool_equals_per_value_embedding(self, space2d, prebuilt):
        """The pool read off the index's space matrix is the sorted
        distinct non-empty values that ``embed_value`` embeds one at a
        time, so every draw picks the same centroids."""
        ds = generate_corpus(200, seed=11)
        cases = [
            (ds.corpus, ds.space),
            (oracles.corpus_from_lists(
                {"a": ["red", "Red Navy", "red zzz", "  ", "qqq"], "b": ["BLUE ", "zzz"]}), space2d),
        ]
        for corpus, space in cases:
            values = {nv for col in corpus for nv in col.normalized()}
            pool = sorted(nv for nv in values if nv and embed_value(space, nv) is not None)
            source = ValueIndex(corpus) if prebuilt else corpus
            for seed in (0, 3):
                got = [fn.centroid for fn in sample_centroids(source, space, len(pool), seed)]
                assert got == random.Random(seed).sample(pool, len(pool))


# ---------------------------------------------------------------------------
# pattern


class TestPattern:
    def test_fullmatch_binary(self):
        fn = make_pattern_fn("\\d+-\\d+")
        assert fn.distance("12-345") == 0.0
        assert fn.distance("12-345x") == 1.0
        assert fn.distance("12345") == 1.0

    def test_literal_punctuation_escaped(self):
        fn = make_pattern_fn("\\d+.\\d+")
        assert fn.distance("1.2") == 0.0
        # "." is literal, not a wildcard
        assert fn.distance("1x2") == 1.0

    def test_ascii_only_classes(self):
        fn = make_pattern_fn("\\d+")
        assert fn.distance("123") == 0.0
        # Arabic-Indic digits are not ASCII digits
        assert fn.distance("١٢") == 1.0
        letters = make_pattern_fn("[a-zA-Z]+")
        assert letters.distance("abc") == 0.0
        assert letters.distance("café") == 1.0

    def test_space_token(self):
        fn = make_pattern_fn("\\d+ [a-zA-Z]+")
        assert fn.distance("34 kg") == 0.0
        assert fn.distance("34kg") == 1.0

    def test_regex_special_chars_in_pattern(self):
        fn = make_pattern_fn("(\\d+)")
        assert fn.distance("(12)") == 0.0
        assert fn.distance("12") == 1.0


class TestGeneralize:
    """A value's shape keeps its whitespace; the patterns
    ``infer_patterns`` generates collapse each whitespace run to one
    space."""

    @staticmethod
    def generated(value):
        return infer_patterns([Column(id="c", values=(value,))], 1)[0].pattern

    def test_basic_runs(self):
        assert value_shape("ab12-c") == "[a-zA-Z]+\\d+-[a-zA-Z]+"
        assert value_shape("555-123-4567") == "\\d+-\\d+-\\d+"
        assert value_shape("tt0371746") == "[a-zA-Z]+\\d+"

    def test_whitespace_collapsed(self):
        assert self.generated("a  \t b") == "[a-zA-Z]+ [a-zA-Z]+"
        assert value_shape("a  \t b") == "[a-zA-Z]+  \t [a-zA-Z]+"
        assert value_shape("a b") == "[a-zA-Z]+ [a-zA-Z]+"

    def test_non_ascii_stays_literal(self):
        assert value_shape("café") == "[a-zA-Z]+é"
        assert self.generated("café") == "[a-zA-Z]+é"

    @given(
        st.text(
            alphabet=string.ascii_letters + string.digits + ".-_/:@ ",
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=200)
    def test_generated_pattern_matches_its_value(self, value):
        """generalize then compile: the (normalized, whitespace-collapsed)
        source value must fully match its own generated pattern."""
        collapsed = re.sub(r"\s+", " ", value.strip().casefold())
        assert pattern_to_regex(self.generated(value)).fullmatch(collapsed)

    @given(
        st.text(alphabet=string.ascii_lowercase + string.digits + "-.", min_size=1, max_size=20),
        st.text(alphabet=string.ascii_lowercase + string.digits + "-.", min_size=1, max_size=20),
    )
    @settings(max_examples=200)
    def test_match_iff_same_shape(self, a, b):
        """A value matches a maximal-run generated pattern iff its own
        shape is that same pattern string."""
        pattern = value_shape(a)
        matches = bool(pattern_to_regex(pattern).fullmatch(b))
        assert matches == (value_shape(b) == pattern)


class TestInferPatterns:
    def test_counts_columns_not_values(self):
        corpus = oracles.corpus_from_lists(
            {
                "p1": ["555-123-4567", "555-000-1111", "555-222-3333"],
                "p2": ["111-222-3333", "444-555-6666"],
                "w1": ["alpha", "beta"],
            }
        )
        fns = infer_patterns(corpus, top_k=2)
        assert fns[0].pattern == "\\d+-\\d+-\\d+"
        assert fns[1].pattern == "[a-zA-Z]+"

    def test_half_column_threshold(self):
        # pattern must cover at least half a column's values to count
        corpus = oracles.corpus_from_lists(
            {
                "a": ["x1", "y2", "word", "word2x"],  # no shape reaches half
                "b": ["x1", "y2", "z3"],
            }
        )
        fns = infer_patterns(corpus, top_k=10)
        by_pattern = {f.pattern: f for f in fns}
        assert "[a-zA-Z]+\\d+" in by_pattern

    def test_tie_breaks_lexicographic(self):
        corpus = oracles.corpus_from_lists({"a": ["abc"], "b": ["123"]})
        fns = infer_patterns(corpus, top_k=2)
        assert [f.pattern for f in fns] == sorted([f.pattern for f in fns])

    def test_top_k_bounds(self):
        corpus = oracles.corpus_from_lists({"a": ["abc"]})
        assert len(infer_patterns(corpus, top_k=5)) == 1
        with pytest.raises(ValueError):
            infer_patterns(corpus, top_k=0)


# ---------------------------------------------------------------------------
# validators


def luhn_reference(digits: str) -> bool:
    """Textbook Luhn: double every second digit from the right, sum the
    digit sums, check divisibility by ten. Coded independently of the
    library (digit-sum via divmod instead of the subtract-9 trick)."""
    total = 0
    for pos, ch in enumerate(reversed([int(c) for c in digits]), start=1):
        if pos % 2 == 0:
            q, r = divmod(ch * 2, 10)
            total += q + r
        else:
            total += ch
    return total % 10 == 0


# ASCII digits, an Arabic-Indic digit, the separators, space and letters;
# the second strategy joins three short digit fields like a date.
# ASCII digits and Unicode ones (Arabic-Indic, Devanagari, fullwidth),
# which strptime's \d takes as well.
DATE_DIGITS = "0123456789\u0663\u0967\uff11"
DATE_ALPHABET = DATE_DIGITS + "/-. ab"
DATE_FIELD = st.tuples(
    st.sampled_from(["", " ", "  "]), st.text(alphabet=DATE_DIGITS, min_size=1, max_size=5)
).map("".join)
DATE_SEP = st.sampled_from("/-.")

# The zeros of the decimal digits of several scripts: ASCII,
# Arabic-Indic, Devanagari, fullwidth and mathematical bold. str.isdecimal
# and int() take each of them.
DIGIT_ZEROS = "0\u0660\u0966\uff10\U0001d7ce"
# Digits to str.isdigit, but not decimal digits; int() rejects them.
SUPERSCRIPTS = "\u2070\u00b9\u00b2\u00b3\u2074\u2075\u2076\u2077\u2078\u2079"


def in_scripts(text: str):
    """Pairs (text, text with each ASCII digit written in a script drawn
    from DIGIT_ZEROS)."""
    return st.lists(st.sampled_from(DIGIT_ZEROS), min_size=len(text), max_size=len(text)).map(
        lambda zeros: (text, "".join(chr(ord(z) + int(c)) if c in string.digits else c
                                     for c, z in zip(text, zeros))))


CARD_NUMBERS = st.text(alphabet=string.digits, min_size=13, max_size=19).flatmap(in_scripts)
UPC_NUMBERS = st.text(alphabet=string.digits, min_size=12, max_size=12).flatmap(in_scripts)
IPV4_ADDRESSES = st.lists(
    st.text(alphabet=string.digits, min_size=1, max_size=4), min_size=3, max_size=5
).map(".".join).flatmap(in_scripts)


class TestValidators:
    @pytest.fixture(autouse=True)
    def _fns(self):
        self.v = {fn.name: fn for fn in builtin_validators()}

    def accepts(self, name, value):
        return self.v[name].distance(value) == 0.0

    def test_ids_and_count(self):
        fns = builtin_validators()
        assert len(fns) == 8
        assert all(fn.id == f"validator:{fn.name}" for fn in fns)

    @pytest.mark.parametrize(
        "value", ["12/3/2020", "03/04/2021", "2021-12-31", "2021/12/31", "12-31-2021", "3.4.1999"]
    )
    def test_dates_valid(self, value):
        assert self.accepts("date", value)

    @pytest.mark.parametrize("value", ["2021-02-30", "13/13/2020", "yesterday", "2021", ""])
    def test_dates_invalid(self, value):
        assert not self.accepts("date", value)

    @given(st.one_of(
        st.text(alphabet=DATE_ALPHABET, max_size=14),
        st.tuples(DATE_FIELD, DATE_SEP, DATE_FIELD, DATE_SEP, DATE_FIELD).map("".join),
    ))
    # A day may start with a space, and a year's digits may be any
    # Unicode digits (strptime's \d); the filter must let both through.
    @example(" 1/ 5/2020")
    @example("1/ 5/2020")
    @example("2020-01- 5")
    @example(" 5/01/2020")
    @example("١٢/٠٥/٢٠٢٠")
    @example("1/5/٢٠٢٠")
    @example("12345")
    @example("555-123-4567")
    @example("396-522-4299")
    @example("2020-001-05")
    @example("١/٥/٢٠٢٠")
    @example("\uff11/\uff15/2020")
    @example("")
    @settings(max_examples=1000)
    def test_date_shape_filter_matches_reference(self, value):
        assert _validate_date(value) == oracles.validate_date(value)

    @pytest.mark.parametrize(
        "value",
        [
            "2021-03-04t05:06:07",
            "2021-03-04 05:06:07",
            "2021-03-04t05:06:07z",
            "2021-03-04t05:06:07+02:00",
        ],
    )
    def test_timestamps_valid(self, value):
        assert self.accepts("iso-timestamp", value)

    @pytest.mark.parametrize("value", ["2021-03-04", "05:06:07", "not a time", "2021-03-04t99:00:00"])
    def test_timestamps_invalid(self, value):
        assert not self.accepts("iso-timestamp", value)

    @pytest.mark.parametrize(
        "value", ["http://example.com", "https://a.b.c/path?q=1", "ftp://files.example.org/x"]
    )
    def test_urls_valid(self, value):
        assert self.accepts("url", value)

    @pytest.mark.parametrize(
        "value", ["example.com", "http://nodot", "http://a b.com", "mailto:x@y.z"]
    )
    def test_urls_invalid(self, value):
        assert not self.accepts("url", value)

    @pytest.mark.parametrize("value", ["bob@example.com", "a.b+c@mail.co.uk", "x_1@y-z.io"])
    def test_emails_valid(self, value):
        assert self.accepts("email", value)

    @pytest.mark.parametrize("value", ["bob@", "@x.com", "bob@example", "bob @x.com", "b@@x.com"])
    def test_emails_invalid(self, value):
        assert not self.accepts("email", value)

    @pytest.mark.parametrize("value", ["0.0.0.0", "192.168.1.1", "255.255.255.255"])
    def test_ipv4_valid(self, value):
        assert self.accepts("ipv4", value)

    @pytest.mark.parametrize(
        "value",
        ["256.1.1.1", "1.2.3", "1.2.3.4.5", "a.b.c.d", "01.2.3.4567", "1.2.3.-4", "1.2.3.\u00b2"],
    )
    def test_ipv4_invalid(self, value):
        assert not self.accepts("ipv4", value)

    def test_uuid(self):
        assert self.accepts("uuid", "123e4567-e89b-12d3-a456-426614174000")
        assert not self.accepts("uuid", "123e4567e89b12d3a456426614174000")
        assert not self.accepts("uuid", "123e4567-e89b-12d3-a456-42661417400g")

    def test_credit_card_known_numbers(self):
        # classic test numbers, all Luhn-valid
        assert self.accepts("credit-card", "4111111111111111")
        assert self.accepts("credit-card", "4111 1111 1111 1111")
        assert self.accepts("credit-card", "5500-0000-0000-0004")
        assert not self.accepts("credit-card", "4111111111111112")
        assert not self.accepts("credit-card", "411111111111")  # too short
        assert not self.accepts("credit-card", "41111111111111111111")  # too long

    @given(CARD_NUMBERS)
    @settings(max_examples=300)
    def test_credit_card_agrees_with_reference_luhn(self, pair):
        ascii_digits, digits = pair
        assert self.accepts("credit-card", digits) == luhn_reference(ascii_digits)

    def test_upc_a_known(self):
        assert self.accepts("upc-a", "036000291452")
        assert not self.accepts("upc-a", "036000291453")
        assert not self.accepts("upc-a", "03600029145")  # 11 digits

    @given(UPC_NUMBERS)
    @settings(max_examples=300)
    def test_upc_a_agrees_with_reference(self, pair):
        ascii_digits, digits = pair
        d = [int(c) for c in ascii_digits]
        odd = sum(d[i] for i in range(0, 11, 2))
        even = sum(d[i] for i in range(1, 11, 2))
        expected = (3 * odd + even + d[11]) % 10 == 0
        assert self.accepts("upc-a", digits) == expected

    @given(IPV4_ADDRESSES)
    @settings(max_examples=300)
    def test_ipv4_agrees_with_reference(self, pair):
        ascii_address, address = pair
        parts = ascii_address.split(".")
        expected = len(parts) == 4 and all(len(p) <= 3 and int(p) <= 255 for p in parts)
        assert self.accepts("ipv4", address) == expected

    @pytest.mark.parametrize("name, numbers", [
        ("credit-card", CARD_NUMBERS), ("upc-a", UPC_NUMBERS), ("ipv4", IPV4_ADDRESSES)])
    @given(data=st.data())
    @settings(max_examples=200)
    def test_superscript_digit_is_rejected(self, name, numbers, data):
        _, value = data.draw(numbers)
        k = data.draw(st.sampled_from([i for i, ch in enumerate(value) if ch != "."]))
        value = value[:k] + data.draw(st.sampled_from(SUPERSCRIPTS)) + value[k + 1:]
        assert not self.accepts(name, value)

    def test_unknown_validator_rejected(self):
        from sdc.domain_fns import ValidatorFn

        with pytest.raises(ValueError):
            ValidatorFn(id="validator:nope", name="nope")


# ---------------------------------------------------------------------------
# random hash


class TestRandomHash:
    def test_deterministic_and_bounded(self):
        fn = make_random_hash_fn(42)
        vals = [fn.distance(f"v{i}") for i in range(500)]
        assert vals == [fn.distance(f"v{i}") for i in range(500)]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_seed_changes_everything(self):
        a = make_random_hash_fn(1)
        b = make_random_hash_fn(2)
        assert a.distance("x") != b.distance("x")
        assert a.id != b.id

    def test_roughly_uniform(self):
        fn = make_random_hash_fn(7)
        vals = [fn.distance(f"v{i}") for i in range(2000)]
        assert 0.45 < sum(vals) / len(vals) < 0.55

    @given(st.lists(st.text(max_size=600), max_size=20), st.integers(0, 10**6))
    @example([], 3)
    @example([""], 3)
    @example(["é", "東京", "x" * 513, "𝔘" * 600], 3)
    @settings(max_examples=300)
    def test_batch_equals_per_value(self, values, seed):
        fn = make_random_hash_fn(seed)
        want = np.asarray([fn.distance(v) for v in values], dtype=np.float64)
        got = fn.distances_of_digests(domain_fns.value_digests(values))
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# shared plumbing


class TestEvalDistance:
    def test_normalizes_raw_strings(self):
        fn = make_score_table_fn("t", {"red": 1.0})
        assert eval_distance(fn, " RED ") == 0.0


class TestRegistry:
    def test_duplicate_rejected(self):
        reg = Registry()
        reg.add(make_pattern_fn("\\d+"))
        with pytest.raises(DataFormatError):
            reg.add(make_pattern_fn("\\d+"))

    def test_lookup(self):
        reg = Registry()
        fn = make_pattern_fn("\\d+")
        reg.add(fn)
        assert reg.get(fn.id) is fn
        assert fn.id in reg
        with pytest.raises(KeyError):
            reg.get("nope")

    def test_functions_sorted_by_id(self):
        reg = Registry()
        reg.add(make_pattern_fn("zz"))
        reg.add(make_pattern_fn("aa"))
        assert [f.id for f in reg.functions()] == sorted(reg.ids())

    def test_manifest_round_trip(self, tmp_path, space2d):
        space_path = tmp_path / "space.txt"
        lines = [
            f"{tok} {' '.join(str(x) for x in vec)}" for tok, vec in space2d.vectors.items()
        ]
        space_path.write_text("\n".join(lines) + "\n")
        score_path = tmp_path / "scores.jsonl"
        score_path.write_text('{"value": "lax", "score": 0.9}\n')

        reg = Registry()
        space = load_embedding_space(str(space_path), space_id="toy2d")
        reg.add_space(space, str(space_path))
        reg.add(make_embedding_fn(space, "red"))
        reg.add(make_pattern_fn("\\d+"))
        reg.add(make_random_hash_fn(3))
        reg.add(make_score_table_fn("inline", {"aa": 0.5}))
        reg.add(load_score_table(str(score_path), "airport"))
        from sdc.domain_fns import ValidatorFn

        reg.add(ValidatorFn(id="validator:ipv4", name="ipv4"))

        manifest = reg.to_manifest()
        rebuilt = Registry.from_manifest(manifest)
        assert rebuilt.ids() == reg.ids()
        probes = ["red", "crimson", "123", "1.2.3.4", "lax", "aa", "zzz"]
        for fid in reg.ids():
            for probe in probes:
                assert reg.get(fid).distance(probe) == rebuilt.get(fid).distance(probe)

    def test_manifest_subset(self, space2d):
        reg = Registry()
        reg.add(make_pattern_fn("\\d+"))
        reg.add(make_pattern_fn("[a-zA-Z]+"))
        manifest = reg.to_manifest(fn_ids=["pattern:\\d+"])
        assert [e["id"] for e in manifest["functions"]] == ["pattern:\\d+"]

    def test_manifest_missing_space_path_fails(self, space2d):
        reg = Registry()
        reg.add_space(space2d)  # no path recorded
        reg.add(make_embedding_fn(space2d, "red"))
        manifest = reg.to_manifest()
        with pytest.raises(DataFormatError):
            Registry.from_manifest(manifest)


# Words of every kind ``ValueIndex`` must evaluate exactly as ``distance``
# does: in vocabulary (ASCII and not), out of vocabulary, and the shapes
# the pattern and validator families accept.
INDEX_VOCAB = {
    "red": [0.1, 0.7, -1.3],
    "crimson": [0.3, 0.2, -0.9],
    "blue": [5.5, -2.25, 0.125],
    "café": [1e-3, 2.5, 7.0],
    "日本": [-4.0, 0.3, 0.3],
}
INDEX_WORDS = list(INDEX_VOCAB) + [
    "zzz", "straße", "naïve", "12-34", "2021-02-03", "a@b.io", "10.0.0.1", "",
]


def index_cell(words: list[str], upper: bool, pad: tuple[str, str], joiner: str) -> str:
    cell = pad[0] + joiner.join(words) + pad[1]
    return cell.upper() if upper else cell


# Words join by a space or a tab: both make a multi-token value.
INDEX_CELL = st.builds(
    index_cell,
    st.lists(st.sampled_from(INDEX_WORDS), min_size=1, max_size=3),
    st.booleans(),
    st.tuples(*[st.sampled_from(["", " ", "\t", "  \n"])] * 2),
    st.sampled_from([" ", "\t"]),
)


def index_space() -> EmbeddingSpace:
    return EmbeddingSpace(
        dimension=3, vectors={w: np.asarray(v) for w, v in INDEX_VOCAB.items()}, id="idx3"
    )


EVALUATE_FN_IDS = ["emb:idx3:red", "emb:idx3:café", "score:t", "hash:3"]


class TestValueIndex:
    @given(st.lists(st.lists(INDEX_CELL, min_size=1, max_size=6), max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_distances_bit_identical_per_cell(self, cells_by_column):
        space = index_space()
        columns = [Column(id=f"c{j}", values=tuple(v)) for j, v in enumerate(cells_by_column)]
        fns = (
            [make_embedding_fn(space, w) for w in ("red", "café", "blue 日本")]
            + [make_score_table_fn("t", {"red": 0.9, "Café": 0.25, "zzz": 1.0})]
            + [make_pattern_fn(p) for p in ("[a-zA-Z]+", "\\d+-\\d+", "[a-zA-Z]+ [a-zA-Z]+")]
            + builtin_validators()
            + [make_random_hash_fn(3)]
        )
        index = ValueIndex(columns)
        values, codes = oracles.value_index_codes(columns)
        assert index.values == values
        assert index.codes.dtype == np.intp and index.codes.tolist() == codes
        normalized = [nv for col in columns for nv in col.normalized()]
        for fn in fns:
            want = np.asarray([fn.distance(nv) for nv in normalized], dtype=np.float64)
            assert index.distances(fn).tobytes() == want.tobytes(), fn.id

    def test_matrix_rows_are_the_embeddable_values(self):
        space = index_space()
        index = ValueIndex([Column(id="c", values=("Red", "zzz", "red zzz", "日本", "qq rr", "RED"))])
        rows, mat = index._space_matrix(space)
        assert index.values == ["red", "zzz", "red zzz", "日本", "qq rr"]
        embeddable = [i for i, v in enumerate(index.values) if embed_value(space, v) is not None]
        assert rows.tolist() == embeddable == [0, 2, 3]
        assert mat.shape == (len(embeddable), space.dimension)
        assert mat.tobytes() == np.stack([embed_value(space, index.values[i]) for i in rows]).tobytes()

    def test_no_value_embeds(self):
        space = index_space()
        index = ValueIndex([Column(id="c", values=("zzz", "qq rr")), Column(id="d", values=("zzz",))])
        rows, mat = index._space_matrix(space)
        assert rows.shape == (0,) and mat.shape == (0, space.dimension)
        got = index.distances(make_embedding_fn(space, "red"))
        assert got.shape == (3,) and np.all(np.isinf(got))

    def test_values_share_the_cell_strings(self):
        cells = ["already normalized", "Not Yet", "already normalized"]
        index = ValueIndex([Column(id="c", values=tuple(cells))])
        assert index.values == ["already normalized", "not yet"]
        assert index.values[0] is cells[0]

    def test_matches_direct_eval(self, space2d, word_corpus):
        index = ValueIndex(word_corpus)
        fns = [
            make_embedding_fn(space2d, "red"),
            make_score_table_fn("t", {"red": 0.9}),
            make_pattern_fn("[a-zA-Z]+"),
            make_random_hash_fn(5),
        ]
        want_cells = [nv for col in word_corpus for nv in col.normalized()]
        for fn in fns:
            got = index.distances(fn)
            assert np.array_equal(got, np.asarray([fn.distance(nv) for nv in want_cells]))

    def test_all_families_bit_identical_in_16d_space(self):
        ds = generate_corpus(200, seed=11)
        corpus = ds.corpus
        fns = (
            sample_centroids(corpus, ds.space, 20, 3)
            + list(ds.score_fns)
            + infer_patterns(corpus, 10)
            + builtin_validators()
            + [make_random_hash_fn(9)]
        )
        assert ds.space.dimension == 16
        assert {fn.family for fn in fns} == {
            "embedding", "score_table", "pattern", "validator", "random_hash"
        }
        index = ValueIndex(corpus)
        cells = [nv for col in corpus for nv in col.normalized()]
        for fn in fns:
            got = index.distances(fn)
            want = np.asarray([fn.distance(nv) for nv in cells])
            # bit for bit, infinities included
            assert got.tobytes() == want.tobytes(), fn.id

    def test_infinite_for_oov(self, space2d):
        index = ValueIndex([Column(id="c", values=("red", "zzz"))])
        got = index.distances(make_embedding_fn(space2d, "red"))
        assert got[0] == 0.0 and math.isinf(got[1])

    def test_embedding_matrix_shared_across_centroids(self, space2d, word_corpus):
        index = ValueIndex(word_corpus)
        index.distances(make_embedding_fn(space2d, "red"))
        index.distances(make_embedding_fn(space2d, "blue"))
        # one distinct-value matrix per space, not per function or column
        assert len(index._spaces) == 1

    def test_memoized(self, space2d, word_corpus):
        index = ValueIndex(word_corpus)
        index.distances(make_embedding_fn(space2d, "red"))
        first = index._spaces[id(space2d)]
        index.distances(make_embedding_fn(space2d, "blue"))
        assert index._spaces[id(space2d)] is first

    def test_interning_and_offsets(self):
        cols = [Column(id="a", values=("X", " x", "y")), Column(id="b", values=("y",))]
        index = ValueIndex(cols)
        assert index.values == ["x", "y"]
        assert index.codes.tolist() == [0, 0, 1, 1]
        assert index.offsets.tolist() == [0, 3, 4]
        assert len(index) == 2 and list(index) == cols

    def test_column_reductions(self):
        fn = make_score_table_fn("t", {"a": 1.0, "b": 0.5})
        index = ValueIndex([Column(id="c0", values=("a", "b", "z")),
                            Column(id="c1", values=("b", "b"))])
        dists = index.distances(fn)  # 0, 0.5, 1 | 0.5, 0.5
        # Inside-counts per column at d_in = 0.0 and 0.5: c0 has 1 and
        # 2 of 3, c1 has 0 and 2 of 2. A count k of n holds at m = k/n
        # and fails just above it.
        for d_in, counts in ((0.0, [1, 0]), (0.5, [2, 2])):
            for j, (k, n) in enumerate(zip(counts, index.lengths.tolist())):
                masks, row_of = index.preconditions(dists, [(d_in, k / n), (d_in, k / n + 1e-9)])
                assert masks[row_of[0], j] and not masks[row_of[1], j]
        assert index.column_max(dists).tolist() == [1.0, 0.5]
        # A repeated pair shares its row; rows come in first-seen order.
        masks, row_of = index.preconditions(
            dists, [(0.5, 2 / 3), (0.0, 0.5), (0.5, 2 / 3), (0.5, 1.0)])
        assert row_of.dtype == np.intp and row_of.tolist() == [0, 1, 0, 2]
        assert masks.tolist() == [[True, True], [False, False], [False, True]]

    @given(
        st.lists(st.integers(1, 6), max_size=8).flatmap(lambda lengths: st.tuples(
            st.just(lengths),
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, math.inf, math.nan]),
                     min_size=sum(lengths), max_size=sum(lengths)),
        )),
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.25, 2.0, math.inf]), max_size=6),
        st.sampled_from([1, 4, domain_fns._BLOCK_CELLS]),
    )
    @settings(max_examples=300, deadline=None)
    @example(([1], [math.nan]), [0.5, 0.5], 1)
    @example(([3, 1, 2], [0.5, math.inf, 2.0, 1.0, 1.5, 0.0]), [1.0], 2)
    def test_inside_counts_match_the_dense_mask(self, cells, radii, block):
        lengths, dists = cells
        # Repeated radii are kept: each column of the result is one radius.
        radii = np.sort(np.asarray(radii, dtype=np.float64))
        index = ValueIndex([Column(id=f"c{j}", values=("v",) * n) for j, n in enumerate(lengths)])
        dists = np.asarray(dists, dtype=np.float64)
        with mock.patch.object(domain_fns, "_BLOCK_CELLS", block):
            got = index.inside_counts(dists, radii)
        want = oracles.inside_counts_dense(lengths, dists, radii)
        assert got.dtype == np.intp and got.tolist() == want.tolist()

    def test_empty(self):
        index = ValueIndex([])
        dists = index.distances(make_random_hash_fn(1))
        assert dists.shape == (0,)
        masks, row_of = index.preconditions(dists, [(0.5, 0.5), (0.5, 0.5)])
        assert masks.shape == (1, 0) and row_of.tolist() == [0, 0]
        masks, row_of = index.preconditions(dists, [])
        assert masks.shape == (0, 0) and row_of.shape == (0,)
        assert index.column_max(dists).shape == (0,)
        space = index_space()
        rows, mat = index._space_matrix(space)
        assert rows.shape == (0,) and mat.shape == (0, space.dimension)
        assert index.distances(make_embedding_fn(space, "red")).shape == (0,)

    @given(
        st.lists(st.lists(INDEX_CELL, min_size=1, max_size=6), min_size=1, max_size=5),
        st.lists(st.builds(
            Candidate,
            st.sampled_from(EVALUATE_FN_IDS),
            st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, math.inf]),
            st.sampled_from([0.0, 0.5, 3.0, math.inf]),
            st.sampled_from([0.25, 0.5, 0.8, 0.95, 1.0]),
        ), max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    # A function named at non-adjacent positions, a duplicate, and no
    # constraint at all.
    @example([["red", "zzz", "café"], ["crimson"]],
             [Candidate("hash:3", 0.5, 0.5, 0.5), Candidate("emb:idx3:red", 1.0, 3.0, 0.5),
              Candidate("hash:3", 0.5, 0.5, 0.5), Candidate("emb:idx3:red", math.inf, 3.0, 1.0)])
    @example([["red"]], [])
    def test_evaluate_matches_the_oracle(self, cells_by_column, constraints):
        reg = Registry()
        space = index_space()
        reg.add_space(space)
        reg.add_all([make_embedding_fn(space, "red"), make_embedding_fn(space, "café"),
                     make_score_table_fn("t", {"red": 0.9, "zzz": 0.25}), make_random_hash_fn(3)])
        assert set(EVALUATE_FN_IDS) == set(reg.ids())
        columns = [Column(id=f"c{j}", values=tuple(v)) for j, v in enumerate(cells_by_column)]
        index = ValueIndex(columns)
        seen: list[int] = []
        fn_ids = []
        for fn, pos, dists, holds, d_out in index.evaluate(reg, constraints):
            fn_ids.append(fn.id)
            assert pos.dtype == np.intp and pos.tolist() == sorted(pos.tolist())
            seen += pos.tolist()
            group = [constraints[i] for i in pos.tolist()]
            assert all(c.fn_id == fn.id for c in group)
            want = np.concatenate([oracles.column_distances(fn, col) for col in columns])
            assert dists.tobytes() == want.tobytes()
            assert holds.shape == (len(group), len(columns))
            assert holds.tolist() == [[oracles.eval_precondition(c, col, reg) for col in columns]
                                      for c in group]
            assert d_out.shape == (len(group), 1)
            assert d_out[:, 0].tolist() == [c.d_out for c in group]
        assert fn_ids == sorted({c.fn_id for c in constraints})
        assert sorted(seen) == list(range(len(constraints)))


# ---------------------------------------------------------------------------
# Family kernels against the per-value path

# Letters, ASCII and other digits, whitespace runs and the characters
# that pattern sources and regexes treat specially.
KERNEL_CHARS = "ab09Zé٣日 \t\n_\\[]+-.:"
PATTERN_PIECES = ["\\d+", "[a-zA-Z]+", " ", "  ", "\t", "_", "\\", "[", "]", "+", "-", "é",
                  "٣", "a", "7"]


# make_random_hash_fn(1000).distance("abc"). SplitMix64's first output
# from seed 0 is 0xe220a8397b1dcdaf, which pins the key derivation too.
HASH_1000_ABC = 0.20284234841537407


def kernel_columns(cells_by_column):
    return [Column(id=f"c{j}", values=tuple(v)) for j, v in enumerate(cells_by_column)]


class TestFamilyKernels:
    @given(
        st.lists(st.lists(st.text(max_size=600), min_size=1, max_size=5), max_size=4),
        st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    @example([["", "é", "東京", "x" * 513, "𝔘" * 600, " X "]], [0, 1000, -1, 2**64 + 5])
    def test_hash_kernel_equals_distance(self, cells_by_column, seeds):
        columns = kernel_columns(cells_by_column)
        index = ValueIndex(columns)
        raw = [v for col in columns for v in col.values]
        for seed in seeds:
            fn = make_random_hash_fn(seed)
            want = np.asarray([eval_distance(fn, v) for v in raw], dtype=np.float64)
            assert index.distances(fn).tobytes() == want.tobytes()
            assert np.all((want >= 0.0) & (want < 1.0))

    def test_hash_definition_pinned(self):
        # The unkeyed digest of "abc", its key for seed 1000 and the
        # finalizer give this value; a change renames every hash:N.
        assert make_random_hash_fn(1000).distance("abc") == HASH_1000_ABC
        assert make_random_hash_fn(1001).distance("abc") != HASH_1000_ABC
        assert make_random_hash_fn(0)._key == 0xE220A8397B1DCDAF

    @given(
        st.lists(st.lists(st.text(alphabet=KERNEL_CHARS, max_size=12), min_size=1, max_size=6),
                 max_size=4),
        st.lists(st.lists(st.sampled_from(PATTERN_PIECES), max_size=5).map("".join),
                 max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    @example([["a1", "a 1", "a  1", "a\t1", "ab_12", "\\7", "[x]+"]],
             ["[a-zA-Z]+\\d+", "[a-zA-Z]+ \\d+", "\\d+\\d+", "a\\d+", "7", "\\\\d+", "[[a-zA-Z]+]+"])
    def test_shape_kernel_equals_regex(self, cells_by_column, written):
        columns = kernel_columns(cells_by_column)
        index = ValueIndex(columns)
        generated = [oracles.generalize_value(v) for v in index.values]
        cells = [nv for col in columns for nv in col.normalized()]
        for pattern in generated + written:
            fn = make_pattern_fn(pattern)
            want = np.asarray([fn.distance(nv) for nv in cells], dtype=np.float64)
            assert index.distances(fn).tobytes() == want.tobytes(), pattern
        assert all(make_pattern_fn(p).canonical for p in generated)

    def test_regex_is_compiled_on_first_distance(self):
        fn = make_pattern_fn("\\d+-\\d+")
        assert fn.canonical
        index = ValueIndex([Column(id="c", values=("12-34", "ab"))])
        assert index.distances(fn).tolist() == [0.0, 1.0]
        assert "_regex" not in vars(fn)
        assert fn.distance("12-34") == 0.0 and "_regex" in vars(fn)

    @pytest.mark.parametrize("pattern", ["\\d+\\d+", "[a-zA-Z]+[a-zA-Z]+", "a", "\\d+7", "x-\\d+"])
    def test_non_canonical_patterns_keep_their_regex(self, pattern):
        fn = make_pattern_fn(pattern)
        assert not fn.canonical
        index = ValueIndex([Column(id="c", values=("12", "ab", "a", "17", "x-1", "a7"))])
        want = [fn.distance(v) for v in index.values]
        assert index.distances(fn).tolist() == want
        assert 0.0 in want

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=500)
    @example("a  \t b\n\n1", "a b 1")
    @example("٣x_\\[é", "  ")
    def test_generalize_equals_reference(self, value, other):
        """``value_shape`` is the reference generalization without
        collapsing, and ``infer_patterns`` generates and ranks the
        reference's collapsed patterns."""
        assert value_shape(value) == oracles.generalize_value(value, collapse_whitespace=False)
        corpus = [Column(id="a", values=(value,)), Column(id="b", values=(value, other, other))]
        got = [fn.pattern for fn in infer_patterns(corpus, 3)]
        assert got == oracles.infer_patterns(corpus, 3)

    @given(
        st.lists(st.lists(st.text(alphabet=KERNEL_CHARS, max_size=8), min_size=1, max_size=6),
                 max_size=6),
        st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_infer_patterns_equals_reference(self, cells_by_column, top_k):
        columns = kernel_columns(cells_by_column)
        want = oracles.infer_patterns(columns, top_k)
        assert [fn.pattern for fn in infer_patterns(columns, top_k)] == want
        assert [fn.pattern for fn in infer_patterns(ValueIndex(columns), top_k)] == want

    @given(st.one_of(
        st.text(alphabet="0123456789٣۴t z:-./+\x00\x01\x1f", max_size=30),
        st.builds("".join, st.lists(st.sampled_from(
            ["2021", "٢٠٢١", "-03-04", "t", " ", "05:06:07", ".123", "z", "+01:00", "\x00",
             "\x1f", "2021-03-04t05:06:07z"]), max_size=5)),
    ))
    @settings(max_examples=500)
    @example("2021-03-04t05:06:07z")
    @example("٢٠٢١-03-04t05:06:07")
    def test_iso_timestamp_prefilter_is_exact(self, value):
        accept = domain_fns._VALIDATORS["iso-timestamp"]
        assert accept(value) == oracles.validate_iso_timestamp(value)

    @given(st.one_of(
        st.text(alphabet="htpsf:/.ab٣ \x00\x1f[]@", max_size=30),
        st.builds("".join, st.lists(st.sampled_from(
            ["http", "https", "ftp", ":", "//", "a.b", "[", "]", "/x", "\x00", "\x1f", "z",
             "٣"]), max_size=6)),
    ))
    @settings(max_examples=500)
    @example("http://a.b")
    @example("//[a.b")
    def test_url_prefilter_is_exact(self, value):
        assert domain_fns._VALIDATORS["url"](value) == oracles.validate_url(value)
