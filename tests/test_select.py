"""LP-based constraint selection against a brute-force reference."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sdc.domain_fns import Registry, make_pattern_fn, make_score_table_fn
from sdc.errors import DataFormatError
from sdc.select import (
    IlpProblem,
    LpSolution,
    SelectionConfig,
    _enforce_budgets,
    _lp_matrix,
    _solve_highs,
    build_ilp,
    coverage_objective,
    randomized_round,
    read_store,
    run_selection,
    solve_lp_relaxation,
    write_store,
)
from sdc.synth import CandidateStats


def stat(sdc_id, detected, fpr=0.0, conf=0.95):
    return CandidateStats(sdc_id, frozenset(detected), fpr, conf)


def ids(n):
    return [f"s{j}" for j in range(n)]


def no_picks(n):
    return np.zeros(n, dtype=bool)


def ids_off(problem, chosen):
    """The ids of the candidates a selection mask picks."""
    return {problem.candidate_ids[i] for i in np.flatnonzero(chosen)}


def coarse(**kwargs):
    return SelectionConfig(strategy="coarse", **kwargs)


def random_instance(rng, n_cands=8, n_synth=12, fpr_scale=0.02):
    synth_ids = ids(n_synth)
    stats = []
    for i in range(n_cands):
        detected = frozenset(j for j in range(n_synth) if rng.random() < 0.3)
        stats.append(
            CandidateStats(
                sdc_id=f"cand-{i:02d}",
                detected=detected,
                fpr=round(rng.random() * fpr_scale, 4),
                confidence=round(0.9 + rng.random() * 0.1, 4),
            )
        )
    return stats, synth_ids


class TestSelectionConfig:
    def test_defaults(self):
        cfg = SelectionConfig()
        assert cfg.b_size == 500
        assert cfg.b_fpr == 0.1
        assert cfg.delta == 1e-3
        assert cfg.strategy == "fine"
        assert cfg.enforce_budgets is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"b_size": -1},
            {"b_fpr": -0.1},
            {"delta": 0.0},
            {"delta": 1.5},
            {"strategy": "greedy"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SelectionConfig(**kwargs)

    def test_json_roundtrip(self):
        cfg = SelectionConfig(b_size=7, b_fpr=0.03, delta=0.5, strategy="coarse",
                              enforce_budgets=True)
        assert SelectionConfig.from_json(cfg.to_json()) == cfg

    def test_from_json_ignores_seed(self):
        # The rounding seed derives from the config's top-level seed.
        assert SelectionConfig.from_json({"seed": 9}) == SelectionConfig()

    def test_from_json_defaults(self):
        assert SelectionConfig.from_json({}) == SelectionConfig()

    def test_enforce_budgets_takes_only_json_booleans(self):
        for flag in (True, False):
            assert SelectionConfig.from_json({"enforce_budgets": flag}).enforce_budgets is flag
        for value in ("false", "true", 0, 1, None):
            with pytest.raises(ValueError, match="enforce_budgets must be true or false"):
                SelectionConfig.from_json({"enforce_budgets": value})


class TestProblemConstruction:
    def test_css_cover_sets(self):
        stats = [
            stat("a", {0, 1}),
            stat("b", {1}),
            stat("c", set()),
        ]
        prob = build_ilp(stats, coarse(), synth_ids=["s0", "s1", "s2"])
        assert prob.candidate_ids == ["a", "b", "c"]
        assert prob.synth_ids == ["s0", "s1", "s2"]
        assert prob.cover_sets == [frozenset({0}), frozenset({0, 1}), frozenset()]
        assert prob.cover_rows.tolist() == [0, 1, 1]
        assert prob.cover_members.tolist() == [0, 0, 1]

    @pytest.mark.parametrize("strategy", ["fine", "coarse"])
    @pytest.mark.parametrize("position", [2, 7, -1])
    def test_detected_position_outside_synth_ids_raises(self, strategy, position):
        stats = [stat("a", {0}), stat("b", {1, position})]
        with pytest.raises(ValueError):
            build_ilp(stats, SelectionConfig(strategy=strategy), ids(2))

    def test_invalid_cover_index_rejected(self):
        with pytest.raises(ValueError):
            IlpProblem(
                candidate_ids=["a"],
                synth_ids=["s0"],
                cover_rows=np.array([0], dtype=np.intp),
                cover_members=np.array([3], dtype=np.intp),
                fprs=[0.0],
                b_size=1,
                b_fpr=1.0,
            )

    @pytest.mark.parametrize("row", [1, -1])
    def test_invalid_cover_row_rejected(self, row):
        with pytest.raises(ValueError):
            IlpProblem(
                candidate_ids=["a"],
                synth_ids=["s0"],
                cover_rows=np.array([row], dtype=np.intp),
                cover_members=np.array([0], dtype=np.intp),
                fprs=[0.0],
                b_size=1,
                b_fpr=1.0,
            )

    def test_conf_over_all(self):
        stats = [
            stat("a", {0, 1}, conf=0.91),
            stat("b", {1}, conf=0.97),
        ]
        best = oracles.conf_over_all(stats, synth_ids=["s0", "s1", "s2"])
        assert best == {0: 0.91, 1: 0.97, 2: 0.0}

    def test_fss_keeps_only_near_best_detectors(self):
        stats = [
            stat("weak", {0}, conf=0.90),
            stat("strong", {0}, conf=0.95),
        ]
        tight = build_ilp(stats, SelectionConfig(delta=0.01), ids(1))
        loose = build_ilp(stats, SelectionConfig(delta=0.2), ids(1))
        assert tight.cover_sets == [frozenset({1})]
        assert loose.cover_sets == [frozenset({0, 1})]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_delta_one_fss_equals_css(self, seed):
        rng = random.Random(seed)
        stats, synth_ids = random_instance(rng)
        fss = build_ilp(stats, SelectionConfig(delta=1.0), synth_ids)
        css = build_ilp(stats, coarse(), synth_ids)
        assert_same_problem(fss, css)


@st.composite
def selection_inputs(draw):
    """Small instances with the edge cases of the array code: repeated
    synthetic ids, candidates that detect nothing, empty ``stats``,
    ``delta = 1``, negative confidences and confidences exactly at
    best - delta."""
    delta = draw(st.sampled_from([1e-3, 0.05, 1.0]))
    pool = [0.9, 0.95, 0.999, 1.0]
    pool += [c - delta for c in pool]
    synth_ids = draw(st.lists(st.sampled_from(ids(8) + ["s99"]), max_size=10))
    positions = (
        st.lists(st.sampled_from(range(len(synth_ids))), max_size=6) if synth_ids else st.just([])
    )
    stats = [
        CandidateStats(
            sdc_id=f"c{i:02d}",
            detected=frozenset(draw(positions)),
            fpr=draw(st.sampled_from([0.0, 0.01, 0.03, 0.05])),
            confidence=draw(st.sampled_from(pool)),
        )
        for i in range(draw(st.integers(0, 10)))
    ]
    cfg = SelectionConfig(
        b_size=draw(st.integers(0, 6)),
        b_fpr=draw(st.sampled_from([0.0, 0.02, 0.05, 0.1])),
        delta=delta,
        strategy=draw(st.sampled_from(["fine", "coarse"])),
    )
    chosen = np.array([draw(st.booleans()) for _ in stats], dtype=bool)
    return stats, synth_ids, cfg, chosen


def oracle_problem(stats, cfg, synth_ids):
    if cfg.strategy == "coarse":
        return oracles.build_css_ilp(stats, cfg, synth_ids)
    return oracles.build_fss_ilp(stats, oracles.conf_over_all(stats, synth_ids), cfg, synth_ids)


def assert_same_problem(got, want):
    for name in ("cover_rows", "cover_members"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.intp
        assert np.array_equal(a, b)
    for name in ("candidate_ids", "synth_ids", "fprs", "b_size", "b_fpr"):
        assert getattr(got, name) == getattr(want, name), name


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestAgainstOracles:
    @given(selection_inputs())
    @settings(max_examples=300, deadline=None)
    def test_problems_match_loop_versions(self, inputs):
        stats, synth_ids, cfg, _ = inputs
        assert_same_problem(build_ilp(stats, cfg, synth_ids), oracle_problem(stats, cfg, synth_ids))

    @given(selection_inputs())
    @example(([], ids(2), SelectionConfig(), no_picks(0)))
    @example(([], ids(2), coarse(), no_picks(0)))
    @example(([stat("a", set()), stat("b", {1}, conf=0.5)], ids(3), SelectionConfig(), no_picks(2)))
    @example(([stat("a", set()), stat("b", {1}, conf=-0.5)], ids(3), coarse(), no_picks(2)))
    @settings(max_examples=300, deadline=None)
    def test_cover_sets_match_loop_versions(self, inputs):
        stats, synth_ids, cfg, _ = inputs
        for strategy in ("fine", "coarse"):
            each = dataclasses.replace(cfg, strategy=strategy)
            want = oracle_problem(stats, each, synth_ids)
            # K_j read off the oracle's entries one row mask at a time,
            # not through the property under test.
            rows, members = want.cover_rows, want.cover_members
            sets = [frozenset(members[rows == j].tolist()) for j in range(len(synth_ids))]
            assert build_ilp(stats, each, synth_ids).cover_sets == sets

    @given(selection_inputs())
    @settings(max_examples=300, deadline=None)
    def test_selection_helpers_match_loop_versions(self, inputs):
        stats, synth_ids, cfg, chosen = inputs
        prob = build_ilp(stats, cfg, synth_ids)
        selected = ids_off(prob, chosen)
        assert coverage_objective(prob, chosen) == oracles.coverage_objective(prob, selected)
        kept = _enforce_budgets(prob, chosen)
        assert kept.dtype == bool and kept.shape == chosen.shape
        assert ids_off(prob, kept) == oracles.enforce_budgets(prob, selected)
        assert_same_csr(_lp_matrix(prob), oracles.lp_matrix(prob))

    def test_confidence_at_floor_is_kept(self):
        delta = 0.01
        stats = [stat("best", {0}, conf=0.95), stat("edge", {0}, conf=0.95 - delta)]
        prob = build_ilp(stats, SelectionConfig(delta=delta), ids(1))
        assert prob.cover_sets == [frozenset({0, 1})]

    def test_lp_matrix_large_instance(self):
        rng = np.random.default_rng(3)
        synth_ids = [f"s{j:03d}" for j in range(100)]
        incidence = rng.random((500, 100)) < 0.1
        stats = [
            CandidateStats(
                sdc_id=f"c{i:03d}",
                detected=frozenset(np.flatnonzero(row).tolist()),
                fpr=float(rng.choice([0.0, rng.random() * 0.05])),
                confidence=float(rng.random()),
            )
            for i, row in enumerate(incidence)
        ]
        prob = build_ilp(stats, coarse(), synth_ids)
        assert_same_csr(_lp_matrix(prob), oracles.lp_matrix(prob))


@st.composite
def survivor_stats(draw):
    """Per-survivor stats drawn from a few detection classes: members of
    a class share their detected set, FPR and confidence, and a class
    may detect nothing."""
    synth_ids = ids(draw(st.integers(1, 10)))
    protos = draw(st.lists(
        st.tuples(
            st.frozensets(st.integers(0, len(synth_ids) - 1), max_size=5),
            st.sampled_from([0.0, 0.01, 0.03]),
            st.sampled_from([0.9, 0.95, 0.999]),
        ),
        min_size=1, max_size=5,
    ))
    picks = draw(st.lists(st.integers(0, len(protos) - 1), max_size=14))
    stats = [CandidateStats(f"c{i:02d}", *protos[k]) for i, k in enumerate(picks)]
    cfg = SelectionConfig(
        b_size=draw(st.integers(0, 6)),
        b_fpr=draw(st.sampled_from([0.0, 0.02, 0.05, 0.1])),
        delta=draw(st.sampled_from([1e-3, 0.05, 1.0])),
        strategy=draw(st.sampled_from(["fine", "coarse"])),
        seed=draw(st.integers(0, 3)),
        enforce_budgets=draw(st.booleans()),
    )
    return stats, synth_ids, cfg


class TestDetectionClasses:
    @given(survivor_stats())
    @settings(max_examples=200, deadline=None)
    def test_selection_over_classes_matches_selection_over_survivors(self, inputs):
        stats, synth_ids, cfg = inputs
        got = run_selection(oracles.detection_classes(stats), cfg, synth_ids)
        want = run_selection(stats, cfg, synth_ids)
        # Members of a class are interchangeable, so the LP optimum is
        # the same (up to HiGHS's tolerance when HiGHS solves both).
        assert got.lp_objective == pytest.approx(want.lp_objective, abs=1e-6)
        assert got.solution.method == want.solution.method
        if got.solution.method == "cover":
            # The greedy cover ties to the larger index, which is each
            # class's representative.
            assert got.selected_ids == want.selected_ids
            assert got.rounded_objective == want.rounded_objective
            assert got.sum_fpr == want.sum_fpr


class TestLpRelaxation:
    def test_empty_problem(self):
        sol = solve_lp_relaxation(build_ilp([], coarse(), []))
        assert sol.objective == 0.0
        assert sol.x.size == 0

    def test_zero_budget_forces_zero(self):
        stats = [stat("a", {0})]
        prob = build_ilp(stats, coarse(b_size=0), ids(1))
        sol = solve_lp_relaxation(prob)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-9)

    def test_known_optimum(self):
        # two disjoint single-column covers, room for only one pick: the
        # cover is one pick over b_size, so HiGHS solves it
        stats = [stat("a", {0}), stat("b", {1})]
        prob = build_ilp(stats, coarse(b_size=1), ids(2))
        sol = solve_lp_relaxation(prob)
        assert sol.method == "highs"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        wider = solve_lp_relaxation(build_ilp(stats, coarse(b_size=2), ids(2)))
        assert (wider.method, wider.objective) == ("cover", 2.0)

    def test_fpr_budget_binds(self):
        # both candidates needed for both columns, but fpr allows one
        stats = [stat("a", {0}, fpr=0.1), stat("b", {1}, fpr=0.1)]
        prob = build_ilp(stats, coarse(b_size=10, b_fpr=0.1), ids(2))
        sol = solve_lp_relaxation(prob)
        assert sol.method == "highs"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert float(np.dot(prob.fprs, sol.x)) <= 0.1 + 1e-9

    def test_solution_within_bounds_and_budgets(self):
        rng = random.Random(42)
        stats, synth_ids = random_instance(rng, n_cands=15, n_synth=25)
        prob = build_ilp(stats, coarse(b_size=4, b_fpr=0.05), synth_ids)
        sol = solve_lp_relaxation(prob)
        assert np.all(sol.x >= 0.0) and np.all(sol.x <= 1.0)
        assert float(sol.x.sum()) <= 4 + 1e-9
        assert float(np.dot(prob.fprs, sol.x)) <= 0.05 + 1e-9

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_lp_upper_bounds_ilp(self, seed):
        rng = random.Random(seed)
        stats, synth_ids = random_instance(
            rng, n_cands=rng.randint(1, 8), n_synth=rng.randint(1, 12)
        )
        cfg = coarse(b_size=rng.randint(0, 6), b_fpr=rng.random() * 0.08)
        prob = build_ilp(stats, cfg, synth_ids)
        lp = solve_lp_relaxation(prob)
        ilp_obj, _ = oracles.brute_force_ilp(prob)
        assert lp.objective >= ilp_obj - 1e-7


@st.composite
def lp_instances(draw):
    """Stats and budgets on both sides of the cover certificate: b_size
    from 0 to n, tight and slack b_fpr, zero FPRs, empty ``stats``,
    candidates that detect nothing and duplicate candidates."""
    m = draw(st.integers(0, 8))
    positions = st.frozensets(st.integers(0, m - 1), max_size=m) if m else st.just(frozenset())
    stats = [
        CandidateStats(
            sdc_id=f"c{i:02d}",
            detected=draw(positions),
            fpr=draw(st.sampled_from([0.0, 0.0, 0.01, 0.03, 0.05])),
            confidence=draw(st.sampled_from([-0.5, 0.9, 0.95, 1.0])),
        )
        for i in range(draw(st.integers(0, 10)))
    ]
    b_size = draw(st.integers(0, len(stats)))
    b_fpr = draw(st.sampled_from([0.0, 0.01, 0.04, 0.1, 1.0]))
    return stats, ids(m), b_size, b_fpr


class TestCoverCertificate:
    @given(lp_instances())
    @settings(max_examples=300, deadline=None)
    def test_matches_highs_and_is_feasible(self, inputs):
        stats, synth_ids, b_size, b_fpr = inputs
        for strategy in ("fine", "coarse"):
            cfg = SelectionConfig(b_size=b_size, b_fpr=b_fpr, strategy=strategy)
            prob = build_ilp(stats, cfg, synth_ids)
            sol = solve_lp_relaxation(prob)
            assert sol.objective == pytest.approx(_solve_highs(prob).objective, abs=1e-7)
            assert np.all(sol.x >= 0.0) and np.all(sol.x <= 1.0)
            assert float(sol.x.sum()) <= b_size + 1e-9
            assert float(np.dot(prob.fprs, sol.x)) <= b_fpr + 1e-9

    def test_fpr_sum_equal_to_b_fpr_is_accepted(self):
        stats = [stat("a", {0}, fpr=0.1), stat("b", {1}, fpr=0.2)]
        prob = build_ilp(stats, coarse(b_size=2, b_fpr=0.1 + 0.2), ids(2))
        sol = solve_lp_relaxation(prob)
        assert sol.method == "cover"
        assert sol.objective == 2.0
        assert sol.x.tolist() == [1.0, 1.0]

    def test_duplicate_candidates_pick_the_larger_index(self):
        stats = [stat("a", {0, 1}), stat("b", {0, 1}), stat("c", {1})]
        prob = build_ilp(stats, coarse(b_size=1), ids(3))
        sol = solve_lp_relaxation(prob)
        assert sol.method == "cover"
        assert sol.x.tolist() == [0.0, 1.0, 0.0]
        assert sol.objective == 2.0
        # Rounding an integral solution returns the cover itself.
        assert all(randomized_round(sol, seed).tolist() == [False, True, False]
                   for seed in range(20))

    def test_greedy_takes_the_largest_gain_first(self):
        stats = [stat("a", {0}), stat("b", {0, 1, 2}), stat("c", {3})]
        prob = build_ilp(stats, coarse(b_size=2), ids(5))
        sol = solve_lp_relaxation(prob)
        assert (sol.method, sol.x.tolist(), sol.objective) == ("cover", [0.0, 1.0, 1.0], 4.0)


class TestRounding:
    def test_deterministic_per_seed(self):
        stats = [stat(f"c{i}", {i}) for i in range(10)]
        prob = build_ilp(stats, coarse(b_size=5), ids(10))
        sol = solve_lp_relaxation(prob)
        assert np.array_equal(randomized_round(sol, seed=1), randomized_round(sol, seed=1))

    def test_one_draw_per_candidate_in_index_order(self):
        sol = LpSolution(x=np.array([0.2, 0.5, 0.0, 0.9, 1.0]), objective=0.0)
        for seed in range(30):
            rng = random.Random(seed)
            want = [rng.random() < x for x in sol.x.tolist()]
            assert randomized_round(sol, seed).tolist() == want

    def test_integral_endpoints(self):
        prob = build_ilp([stat("a", {0}), stat("b", {1})], coarse(), ids(2))
        sol_ones = type(solve_lp_relaxation(prob))(x=np.array([1.0, 0.0]), objective=1.0)
        for seed in range(50):
            assert randomized_round(sol_ones, seed).tolist() == [True, False]

    def test_mean_size_tracks_lp_mass(self):
        stats = [stat(f"c{i}", {i}) for i in range(8)]
        prob = build_ilp(stats, coarse(b_size=4), ids(8))
        sol = solve_lp_relaxation(prob)
        mass = float(sol.x.sum())
        sizes = [int(randomized_round(sol, s).sum()) for s in range(4000)]
        assert np.mean(sizes) == pytest.approx(mass, abs=0.15)


class TestBruteForce:
    def test_refuses_large_instances(self):
        stats = [stat(f"c{i:02d}", {0}) for i in range(21)]
        with pytest.raises(ValueError):
            oracles.brute_force_ilp(build_ilp(stats, coarse(), ids(1)))

    def test_hand_instance(self):
        # c0 covers two columns on its own; c1+c2 also cover two but
        # cost two picks. With b_size=1 the optimum is c0.
        stats = [
            stat("c0", {0, 1}),
            stat("c1", {0}),
            stat("c2", {1}),
        ]
        prob = build_ilp(stats, coarse(b_size=1), ids(2))
        obj, picked = oracles.brute_force_ilp(prob)
        assert obj == 2
        assert picked == frozenset({"c0"})

    def test_fpr_budget_respected(self):
        stats = [
            stat("cheap", {0}, fpr=0.01),
            stat("pricey", {0, 1}, fpr=0.5),
        ]
        prob = build_ilp(stats, coarse(b_size=5, b_fpr=0.1), ids(2))
        obj, picked = oracles.brute_force_ilp(prob)
        assert obj == 1
        assert picked == frozenset({"cheap"})

    def test_tie_breaks_lexicographically(self):
        stats = [stat("zz", {0}), stat("aa", {0})]
        prob = build_ilp(stats, coarse(b_size=1), ids(1))
        _, picked = oracles.brute_force_ilp(prob)
        assert picked == frozenset({"aa"})

    def test_empty_selection_feasible(self):
        stats = [stat("a", {0}, fpr=1.0)]
        prob = build_ilp(stats, coarse(b_size=5, b_fpr=0.0), ids(1))
        obj, picked = oracles.brute_force_ilp(prob)
        assert (obj, picked) == (0, frozenset())


class TestHelpers:
    def test_coverage_objective(self):
        stats = [stat("a", {0, 1}), stat("b", {1, 2})]
        prob = build_ilp(stats, coarse(), ids(3))
        assert coverage_objective(prob, np.array([False, False])) == 0
        assert coverage_objective(prob, np.array([True, False])) == 2
        assert coverage_objective(prob, np.array([True, True])) == 3
        assert coverage_objective(prob, np.array([False, True])) == 2

    def test_conf_of_column(self):
        stats = [stat("a", {0}, conf=0.91), stat("b", {0}, conf=0.99)]
        assert oracles.conf_of_column(0, {"a"}, stats) == 0.91
        assert oracles.conf_of_column(0, {"a", "b"}, stats) == 0.99
        assert oracles.conf_of_column(0, set(), stats) == 0.0
        assert oracles.conf_of_column(9, {"a"}, stats) == 0.0


class TestRunSelection:
    def test_outcome_is_consistent(self):
        rng = random.Random(7)
        stats, synth_ids = random_instance(rng, n_cands=12, n_synth=20)
        cfg = SelectionConfig(b_size=6, b_fpr=0.05, seed=3)
        out = run_selection(stats, cfg, synth_ids)
        assert out.selected_ids == sorted(out.selected_ids)
        chosen = np.isin(out.problem.candidate_ids, out.selected_ids)
        assert out.rounded_objective == coverage_objective(out.problem, chosen)
        fpr_by_id = {st.sdc_id: st.fpr for st in stats}
        assert out.sum_fpr == math.fsum(fpr_by_id[c] for c in out.selected_ids)
        again = run_selection(stats, cfg, synth_ids)
        assert again.selected_ids == out.selected_ids

    def test_delta_one_matches_coarse(self):
        rng = random.Random(11)
        stats, synth_ids = random_instance(rng)
        fine = run_selection(stats, SelectionConfig(delta=1.0, seed=2), synth_ids)
        rough = run_selection(stats, coarse(seed=2), synth_ids)
        assert fine.problem.cover_sets == rough.problem.cover_sets
        assert fine.selected_ids == rough.selected_ids

    def test_sum_fpr_does_not_depend_on_the_hash_seed(self):
        # Six classes, each the only detector of its own column: the
        # cover takes all six, whose FPRs summed in different orders
        # round differently. Each run is a fresh interpreter, so string
        # hashing (and with it any set order of ids) differs per seed.
        fprs = [0.1, 0.2, 0.3, 0.07, 0.013, 0.0011]
        code = (
            "from sdc.select import SelectionConfig, run_selection\n"
            "from sdc.synth import CandidateStats\n"
            f"fprs = {fprs!r}\n"
            "stats = [CandidateStats(f'sdc-{i}', frozenset({i}), f, 0.9)"
            " for i, f in enumerate(fprs)]\n"
            "out = run_selection(stats, SelectionConfig(b_fpr=10.0), [f's{i}' for i in range(6)])\n"
            "print(len(out.selected_ids), repr(out.sum_fpr))\n"
        )
        path = os.pathsep.join(p for p in sys.path if p)
        seen = {
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)),
                           timeout=120).stdout
            for seed in range(8)
        }
        assert seen == {f"6 {math.fsum(fprs)!r}\n"}

    def test_enforce_budgets_caps_selection(self):
        stats = [stat(f"c{i}", {i}, fpr=0.04) for i in range(10)]
        cfg = SelectionConfig(b_size=3, b_fpr=0.09, seed=0, enforce_budgets=True)
        out = run_selection(stats, cfg, ids(10))
        assert len(out.selected_ids) <= 3
        assert out.sum_fpr <= 0.09 + 1e-12


class TestStore:
    def make_registry(self):
        reg = Registry()
        reg.add(make_score_table_fn("reds", {"red": 1.0, "crimson": 0.9}))
        reg.add(make_pattern_fn("tt\\d+"))
        return reg

    def test_roundtrip(self, tmp_path):
        reg = self.make_registry()
        fns = reg.functions()
        sdcs = [
            oracles.constraint(fns[0].id, 0.2, 0.5, 0.9, 0.93),
            oracles.constraint(fns[1].id, 0.0, 1.0, 0.8, 0.91),
        ]
        path = str(tmp_path / "store.json")
        write_store(path, sdcs, reg, selection={"strategy": "fine"}, config_hash="abc123")
        loaded, loaded_reg = read_store(path)
        assert loaded == sorted(sdcs, key=lambda s: s.id)
        for fn, probe in ((fns[0], "crimson"), (fns[1], "tt123")):
            assert loaded_reg.get(fn.id).distance(probe) == fn.distance(probe)

    def test_store_bytes_are_stable(self, tmp_path):
        reg = self.make_registry()
        sdcs = [oracles.constraint(reg.functions()[0].id, 0.2, 0.5, 0.9, 0.93)]
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_store(p1, sdcs, reg, selection={"seed": 5})
        write_store(p2, sdcs, reg, selection={"seed": 5})
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_rejects_wrong_kind(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": "other"}, fh)
        with pytest.raises(DataFormatError):
            read_store(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            read_store(str(tmp_path / "nope.json"))

    def test_bad_record(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": "sdc-store", "registry": {}, "sdcs": [{"id": "x"}]}, fh)
        with pytest.raises(DataFormatError):
            read_store(path)
