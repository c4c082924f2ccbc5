import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdc.candidates import (
    Candidate,
    GridSpec,
    Sdc,
    candidate_count,
    candidate_id,
    dead_candidate_count,
    enumerate_candidates,
)
from sdc.domain_fns import (
    builtin_validators,
    make_embedding_fn,
    make_pattern_fn,
    make_random_hash_fn,
    make_score_table_fn,
)


GRID_FIELDS = ["m_values", "embedding_d_in", "embedding_d_out_offsets", "score_d_in",
               "score_d_out", "hash_d_in", "hash_d_out"]


class TestSdc:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            Sdc(id="x", fn_id="f", d_in=2.0, d_out=1.0, m=0.9)

    def test_equal_radii_allowed(self):
        Sdc(id="x", fn_id="f", d_in=1.0, d_out=1.0, m=0.9)

    @pytest.mark.parametrize("m", [0.0, -0.1, 1.1])
    def test_m_range(self, m):
        with pytest.raises(ValueError):
            Sdc(id="x", fn_id="f", d_in=0.0, d_out=1.0, m=m)

    def test_id_is_stable_content_hash(self):
        # pinned so stored rulesets stay valid across releases
        assert candidate_id("emb:toy:red", 1.5, 2.0, 0.9) == "sdc-5ee85d25e3733b4c"
        assert candidate_id("emb:toy:red", 1.5, 2.0, 0.9) == Candidate(
            "emb:toy:red", 1.5, 2.0, 0.9
        ).id

    def test_id_distinguishes_parameters(self):
        base = candidate_id("f", 1.0, 2.0, 0.9)
        assert candidate_id("g", 1.0, 2.0, 0.9) != base
        assert candidate_id("f", 1.5, 2.0, 0.9) != base
        assert candidate_id("f", 1.0, 2.5, 0.9) != base
        assert candidate_id("f", 1.0, 2.0, 0.8) != base


class TestGridSpec:
    def test_defaults(self):
        grid = GridSpec()
        # m = 1 can never fire, so the default grid leaves it out.
        assert grid.m_values == [0.95, 0.9, 0.85, 0.8]
        assert grid.embedding_d_in[0] == 0.5
        assert grid.embedding_d_in[-1] == 8.0
        assert len(grid.embedding_d_in) == 16
        assert grid.score_d_in == [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]

    def test_binary_families_single_pair(self):
        grid = GridSpec()
        assert grid.pairs_for_family("pattern") == [(0.0, 1.0)]
        assert grid.pairs_for_family("validator") == [(0.0, 1.0)]

    def test_embedding_pairs_are_offsets(self):
        grid = GridSpec(embedding_d_in=[4.0], embedding_d_out_offsets=[1.5, 3.5])
        assert grid.pairs_for_family("embedding") == [(4.0, 5.5), (4.0, 7.5)]

    def test_score_pairs_require_strict_order(self):
        grid = GridSpec(score_d_in=[0.5], score_d_out=[0.2, 0.5, 0.9])
        assert grid.pairs_for_family("score_table") == [(0.5, 0.9)]

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            GridSpec().pairs_for_family("nope")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(m_values=[])
        with pytest.raises(ValueError):
            GridSpec(m_values=[0.0, 0.9])

    def test_json_round_trip(self):
        grid = GridSpec(m_values=[0.9, 0.8], score_d_in=[0.2], score_d_out=[0.9])
        assert GridSpec.from_json(json.loads(json.dumps(asdict(grid)))) == grid

    @given(st.fixed_dictionaries({
        key: st.lists(
            st.floats(0.0, 1.0, exclude_min=True) if key == "m_values"
            else st.integers(-5, 5) | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1, max_size=4,
        )
        for key in GRID_FIELDS
    }))
    @settings(max_examples=200)
    def test_json_round_trip_property(self, data):
        """Every field survives asdict and from_json, as floats, and
        asdict writes the fields in declaration order."""
        grid = GridSpec.from_json(data)
        text = json.dumps(asdict(grid))
        assert list(json.loads(text)) == GRID_FIELDS
        assert GridSpec.from_json(json.loads(text)) == grid
        assert asdict(grid) == {k: [float(x) for x in v] for k, v in data.items()}

    def test_partial_json_keeps_defaults(self):
        grid = GridSpec.from_json({"m_values": [0.9]})
        assert grid.m_values == [0.9]
        assert grid.embedding_d_in == GridSpec().embedding_d_in


class TestEnumeration:
    def test_four_candidates_from_small_embedding_grid(self, space2d):
        fn = make_embedding_fn(space2d, "red")
        grid = GridSpec(
            m_values=[0.8, 0.85],
            embedding_d_in=[4.0],
            embedding_d_out_offsets=[1.5, 3.5],
        )
        cands = list(enumerate_candidates([fn], grid))
        assert len(cands) == 4
        assert {(c.d_in, c.d_out, c.m) for c in cands} == {
            (4.0, 5.5, 0.8),
            (4.0, 5.5, 0.85),
            (4.0, 7.5, 0.8),
            (4.0, 7.5, 0.85),
        }

    def test_inverted_radii_yield_nothing(self):
        fn = make_score_table_fn("t", {"a": 0.5})
        grid = GridSpec(score_d_in=[0.5], score_d_out=[0.2, 0.3])
        assert list(enumerate_candidates([fn], grid)) == []

    def test_binary_families(self):
        fns = [make_pattern_fn("\\d+")] + builtin_validators()
        cands = list(enumerate_candidates(fns, GridSpec(m_values=[0.95, 0.9])))
        assert len(cands) == len(fns) * 2
        assert all(c.d_in == 0.0 and c.d_out == 1.0 for c in cands)

    def test_order_is_fn_id_then_grid(self, space2d):
        fns = [make_pattern_fn("zz"), make_pattern_fn("aa")]
        grid = GridSpec(m_values=[0.95, 0.9])
        cands = list(enumerate_candidates(fns, grid))
        assert [(c.fn_id, c.m) for c in cands] == [
            ("pattern:aa", 0.95),
            ("pattern:aa", 0.9),
            ("pattern:zz", 0.95),
            ("pattern:zz", 0.9),
        ]

    def test_m_of_one_is_skipped_and_counted(self, space2d):
        fns = [make_embedding_fn(space2d, "red"), make_pattern_fn("aa")]
        grid = GridSpec(m_values=[1.0, 0.9], embedding_d_in=[1.0],
                        embedding_d_out_offsets=[0.5, 1.0])
        cands = list(enumerate_candidates(fns, grid))
        assert [(c.fn_id, c.d_out, c.m) for c in cands] == [
            ("emb:toy2d:red", 1.5, 0.9), ("emb:toy2d:red", 2.0, 0.9), ("pattern:aa", 1.0, 0.9)]
        assert candidate_count(fns, grid) == 3
        assert dead_candidate_count(fns, grid) == 3
        assert dead_candidate_count(fns, GridSpec()) == 0
        # A grid of only m = 1 still loads; it yields nothing.
        only_dead = GridSpec.from_json({"m_values": [1.0]})
        assert list(enumerate_candidates(fns, only_dead)) == []
        assert dead_candidate_count(fns, only_dead) == candidate_count(fns, GridSpec()) // 4

    def test_candidate_id_is_the_content_hash(self):
        c = Candidate("emb:toy:red", 1.5, 2.0, 0.9)
        assert c.id == candidate_id("emb:toy:red", 1.5, 2.0, 0.9) == "sdc-5ee85d25e3733b4c"
        assert (c.fn_id, c.d_in, c.d_out, c.m) == ("emb:toy:red", 1.5, 2.0, 0.9)

    def test_streaming_matches_count(self, space2d):
        fns = [
            make_embedding_fn(space2d, "red"),
            make_score_table_fn("t", {"a": 0.5}),
            make_pattern_fn("\\d+"),
            make_random_hash_fn(0),
        ] + builtin_validators()
        grid = GridSpec()
        cands = list(enumerate_candidates(fns, grid))
        assert len(cands) == candidate_count(fns, grid)
        assert len({c.id for c in cands}) == len(cands)

    def test_default_grid_used_when_none(self, space2d):
        fn = make_embedding_fn(space2d, "red")
        n = len(list(enumerate_candidates([fn])))
        assert n == 16 * 4 * 4

    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50)
    def test_count_formula_property(self, m_values, n_d_in, n_off):
        grid = GridSpec(
            m_values=m_values,
            embedding_d_in=[0.5 * i for i in range(1, n_d_in + 1)],
            embedding_d_out_offsets=[0.5 * i for i in range(1, n_off + 1)],
        )

        class FakeEmb:
            id = "emb:x"
            family = "embedding"

        cands = list(enumerate_candidates([FakeEmb()], grid))
        live = sum(1 for m in m_values if m < 1.0)
        assert len(cands) == n_d_in * n_off * live
        assert len(cands) == candidate_count([FakeEmb()], grid)
        assert dead_candidate_count([FakeEmb()], grid) == n_d_in * n_off * (len(m_values) - live)
