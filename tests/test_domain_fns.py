import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdc.corpus import Column, corpus_from_lists
from sdc.datagen import generate_corpus
from sdc.domain_fns import (
    INFINITE_DISTANCE,
    EmbeddingSpace,
    Registry,
    ValueIndex,
    builtin_validators,
    embed_value,
    eval_distance,
    generalize_value,
    infer_patterns,
    load_embedding_space,
    load_score_table,
    make_embedding_fn,
    make_pattern_fn,
    make_random_hash_fn,
    make_score_table_fn,
    pattern_to_regex,
    sample_centroids,
)
from sdc.errors import DataFormatError


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
        corpus = corpus_from_lists({"a": ["red", "qqq"], "b": ["blue", "qqq"]})
        with pytest.raises(ValueError):
            sample_centroids(corpus, space2d, 5, seed=0)


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
    def test_basic_runs(self):
        assert generalize_value("ab12-c") == "[a-zA-Z]+\\d+-[a-zA-Z]+"
        assert generalize_value("555-123-4567") == "\\d+-\\d+-\\d+"
        assert generalize_value("tt0371746") == "[a-zA-Z]+\\d+"

    def test_whitespace_collapsed(self):
        assert generalize_value("a  \t b") == "[a-zA-Z]+ [a-zA-Z]+"
        assert generalize_value("a b", collapse_whitespace=False) == "[a-zA-Z]+ [a-zA-Z]+"

    def test_non_ascii_stays_literal(self):
        assert generalize_value("café") == "[a-zA-Z]+é"

    @given(
        st.text(
            alphabet=string.ascii_letters + string.digits + ".-_/:@ ",
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=200)
    def test_generated_pattern_matches_its_value(self, value):
        """generalize then compile: the (whitespace-collapsed) source
        value must fully match its own generated pattern."""
        import re

        collapsed = re.sub(r"\s+", " ", value)
        pattern = generalize_value(value)
        assert pattern_to_regex(pattern).fullmatch(collapsed)

    @given(
        st.text(alphabet=string.ascii_lowercase + string.digits + "-.", min_size=1, max_size=20),
        st.text(alphabet=string.ascii_lowercase + string.digits + "-.", min_size=1, max_size=20),
    )
    @settings(max_examples=200)
    def test_match_iff_same_shape(self, a, b):
        """A value matches a maximal-run generated pattern iff its own
        generalization is that same pattern string."""
        pattern = generalize_value(a)
        matches = bool(pattern_to_regex(pattern).fullmatch(b))
        assert matches == (generalize_value(b) == pattern)


class TestInferPatterns:
    def test_counts_columns_not_values(self):
        corpus = corpus_from_lists(
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
        corpus = corpus_from_lists(
            {
                "a": ["x1", "y2", "word", "word2x"],  # no shape reaches half
                "b": ["x1", "y2", "z3"],
            }
        )
        fns = infer_patterns(corpus, top_k=10)
        by_pattern = {f.pattern: f for f in fns}
        assert "[a-zA-Z]+\\d+" in by_pattern

    def test_tie_breaks_lexicographic(self):
        corpus = corpus_from_lists({"a": ["abc"], "b": ["123"]})
        fns = infer_patterns(corpus, top_k=2)
        assert [f.pattern for f in fns] == sorted([f.pattern for f in fns])

    def test_top_k_bounds(self):
        corpus = corpus_from_lists({"a": ["abc"]})
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
        "value", ["256.1.1.1", "1.2.3", "1.2.3.4.5", "a.b.c.d", "01.2.3.4567", "1.2.3.-4"]
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

    @given(st.text(alphabet=string.digits, min_size=13, max_size=19))
    @settings(max_examples=300)
    def test_credit_card_agrees_with_reference_luhn(self, digits):
        assert self.accepts("credit-card", digits) == luhn_reference(digits)

    def test_upc_a_known(self):
        assert self.accepts("upc-a", "036000291452")
        assert not self.accepts("upc-a", "036000291453")
        assert not self.accepts("upc-a", "03600029145")  # 11 digits

    @given(st.text(alphabet=string.digits, min_size=12, max_size=12))
    @settings(max_examples=300)
    def test_upc_a_agrees_with_reference(self, digits):
        d = [int(c) for c in digits]
        odd = sum(d[i] for i in range(0, 11, 2))
        even = sum(d[i] for i in range(1, 11, 2))
        expected = (3 * odd + even + d[11]) % 10 == 0
        assert self.accepts("upc-a", digits) == expected

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


class TestValueIndex:
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
        covered = index.precondition(dists, [0.5, 0.0, 0.5])
        # Inside-counts per column at d_in = 0.0 and 0.5: c0 has 1 and
        # 2 of 3, c1 has 0 and 2 of 2. A count k of n holds at m = k/n
        # and fails just above it.
        for d_in, counts in ((0.0, [1, 0]), (0.5, [2, 2])):
            for j, (k, n) in enumerate(zip(counts, index.lengths.tolist())):
                assert covered(d_in, k / n)[j]
                assert not covered(d_in, k / n + 1e-9)[j]
        assert index.column_max(dists).tolist() == [1.0, 0.5]
        assert covered(0.5, 2 / 3).tolist() == [True, True]
        assert covered(0.0, 0.5).tolist() == [False, False]

    def test_empty(self):
        index = ValueIndex([])
        dists = index.distances(make_random_hash_fn(1))
        assert dists.shape == (0,)
        assert index.precondition(dists, [0.5])(0.5, 0.5).shape == (0,)
        assert index.column_max(dists).shape == (0,)
