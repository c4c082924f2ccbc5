"""LP-based constraint selection against a brute-force reference."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sdc.candidates import make_sdc
from sdc.domain_fns import Registry, make_pattern_fn, make_score_table_fn
from sdc.errors import DataFormatError
from sdc.select import (
    IlpProblem,
    SelectionConfig,
    _enforce_budgets,
    _lp_matrix,
    build_css_ilp,
    build_fss_ilp,
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


def random_instance(rng, n_cands=8, n_synth=12, fpr_scale=0.02):
    synth_ids = [f"s{j}" for j in range(n_synth)]
    stats = []
    for i in range(n_cands):
        detected = frozenset(s for s in synth_ids if rng.random() < 0.3)
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
        cfg = SelectionConfig(b_size=7, b_fpr=0.03, delta=0.5, strategy="coarse", seed=9)
        assert SelectionConfig.from_json(cfg.to_json()) == cfg

    def test_from_json_defaults(self):
        assert SelectionConfig.from_json({}) == SelectionConfig()


class TestProblemConstruction:
    def test_css_cover_sets(self):
        stats = [
            stat("a", {"s0", "s1"}),
            stat("b", {"s1"}),
            stat("c", set()),
        ]
        prob = build_css_ilp(stats, SelectionConfig(), synth_ids=["s0", "s1", "s2"])
        assert prob.candidate_ids == ["a", "b", "c"]
        assert prob.synth_ids == ["s0", "s1", "s2"]
        assert prob.cover_sets == [frozenset({0}), frozenset({0, 1}), frozenset()]

    def test_universe_defaults_to_sorted_union(self):
        stats = [stat("a", {"s2"}), stat("b", {"s0"})]
        prob = build_css_ilp(stats, SelectionConfig())
        assert prob.synth_ids == ["s0", "s2"]

    def test_invalid_cover_index_rejected(self):
        with pytest.raises(ValueError):
            IlpProblem(
                candidate_ids=["a"],
                synth_ids=["s0"],
                cover_sets=[frozenset({3})],
                fprs=[0.0],
                b_size=1,
                b_fpr=1.0,
            )

    def test_conf_over_all(self):
        stats = [
            stat("a", {"s0", "s1"}, conf=0.91),
            stat("b", {"s1"}, conf=0.97),
        ]
        best = oracles.conf_over_all(stats, synth_ids=["s0", "s1", "s2"])
        assert best == {"s0": 0.91, "s1": 0.97, "s2": 0.0}

    def test_fss_keeps_only_near_best_detectors(self):
        stats = [
            stat("weak", {"s0"}, conf=0.90),
            stat("strong", {"s0"}, conf=0.95),
        ]
        tight = build_fss_ilp(stats, SelectionConfig(delta=0.01))
        loose = build_fss_ilp(stats, SelectionConfig(delta=0.2))
        assert tight.cover_sets == [frozenset({1})]
        assert loose.cover_sets == [frozenset({0, 1})]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_delta_one_fss_equals_css(self, seed):
        rng = random.Random(seed)
        stats, synth_ids = random_instance(rng)
        cfg = SelectionConfig(delta=1.0)
        fss = build_fss_ilp(stats, cfg, synth_ids)
        css = build_css_ilp(stats, cfg, synth_ids)
        assert fss.cover_sets == css.cover_sets
        assert fss.candidate_ids == css.candidate_ids
        assert fss.synth_ids == css.synth_ids


@st.composite
def selection_inputs(draw):
    """Small instances with the edge cases of the array code: detected
    ids outside the synthetic-id list, ``synth_ids=None``, repeated
    synthetic ids, candidates that detect nothing, empty ``stats``,
    ``delta = 1`` and confidences exactly at best - delta."""
    delta = draw(st.sampled_from([1e-3, 0.05, 1.0]))
    pool = [0.9, 0.95, 0.999, 1.0]
    pool += [c - delta for c in pool]
    universe = [f"s{j}" for j in range(draw(st.integers(0, 8)))]
    detectable = universe + ["x0", "x1"]
    stats = [
        CandidateStats(
            sdc_id=f"c{i:02d}",
            detected=frozenset(draw(st.lists(st.sampled_from(detectable), max_size=6))),
            fpr=draw(st.sampled_from([0.0, 0.01, 0.03, 0.05])),
            confidence=draw(st.sampled_from(pool)),
        )
        for i in range(draw(st.integers(0, 10)))
    ]
    synth_ids = draw(
        st.one_of(st.none(), st.lists(st.sampled_from(universe + ["s99"]), max_size=10))
    )
    cfg = SelectionConfig(
        b_size=draw(st.integers(0, 6)),
        b_fpr=draw(st.sampled_from([0.0, 0.02, 0.05, 0.1])),
        delta=delta,
    )
    selected = {st_.sdc_id for st_ in stats if draw(st.booleans())}
    return stats, synth_ids, cfg, selected


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
        assert build_fss_ilp(stats, cfg, synth_ids) == oracles.build_fss_ilp(
            stats, oracles.conf_over_all(stats, synth_ids), cfg, synth_ids
        )
        assert build_css_ilp(stats, cfg, synth_ids) == oracles.build_css_ilp(
            stats, cfg, synth_ids
        )

    @given(selection_inputs())
    @settings(max_examples=300, deadline=None)
    def test_selection_helpers_match_loop_versions(self, inputs):
        stats, synth_ids, cfg, selected = inputs
        prob = build_fss_ilp(stats, cfg, synth_ids)
        assert coverage_objective(prob, selected | {"missing"}) == (
            oracles.coverage_objective(prob, selected | {"missing"})
        )
        assert _enforce_budgets(prob, selected) == oracles.enforce_budgets(prob, selected)
        assert_same_csr(_lp_matrix(prob), oracles.lp_matrix(prob))

    def test_confidence_at_floor_is_kept(self):
        delta = 0.01
        stats = [stat("best", {"s0"}, conf=0.95), stat("edge", {"s0"}, conf=0.95 - delta)]
        prob = build_fss_ilp(stats, SelectionConfig(delta=delta))
        assert prob.cover_sets == [frozenset({0, 1})]

    def test_lp_matrix_large_instance(self):
        rng = np.random.default_rng(3)
        synth_ids = [f"s{j:03d}" for j in range(100)]
        incidence = rng.random((500, 100)) < 0.1
        stats = [
            CandidateStats(
                sdc_id=f"c{i:03d}",
                detected=frozenset(synth_ids[j] for j in np.flatnonzero(row)),
                fpr=float(rng.choice([0.0, rng.random() * 0.05])),
                confidence=float(rng.random()),
            )
            for i, row in enumerate(incidence)
        ]
        prob = build_css_ilp(stats, SelectionConfig(), synth_ids)
        assert_same_csr(_lp_matrix(prob), oracles.lp_matrix(prob))


class TestLpRelaxation:
    def test_empty_problem(self):
        sol = solve_lp_relaxation(build_css_ilp([], SelectionConfig()))
        assert sol.objective == 0.0
        assert sol.x.size == 0

    def test_zero_budget_forces_zero(self):
        stats = [stat("a", {"s0"})]
        prob = build_css_ilp(stats, SelectionConfig(b_size=0))
        sol = solve_lp_relaxation(prob)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-9)

    def test_known_optimum(self):
        # two disjoint single-column covers, room for only one pick
        stats = [stat("a", {"s0"}), stat("b", {"s1"})]
        prob = build_css_ilp(stats, SelectionConfig(b_size=1))
        sol = solve_lp_relaxation(prob)
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_fpr_budget_binds(self):
        # both candidates needed for both columns, but fpr allows one
        stats = [stat("a", {"s0"}, fpr=0.1), stat("b", {"s1"}, fpr=0.1)]
        prob = build_css_ilp(stats, SelectionConfig(b_size=10, b_fpr=0.1))
        sol = solve_lp_relaxation(prob)
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert float(np.dot(prob.fprs, sol.x)) <= 0.1 + 1e-9

    def test_solution_within_bounds_and_budgets(self):
        rng = random.Random(42)
        stats, synth_ids = random_instance(rng, n_cands=15, n_synth=25)
        prob = build_css_ilp(stats, SelectionConfig(b_size=4, b_fpr=0.05), synth_ids)
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
        cfg = SelectionConfig(b_size=rng.randint(0, 6), b_fpr=rng.random() * 0.08)
        prob = build_css_ilp(stats, cfg, synth_ids)
        lp = solve_lp_relaxation(prob)
        ilp_obj, _ = oracles.brute_force_ilp(prob)
        assert lp.objective >= ilp_obj - 1e-7


class TestRounding:
    def test_deterministic_per_seed(self):
        stats = [stat(f"c{i}", {f"s{i}"}) for i in range(10)]
        prob = build_css_ilp(stats, SelectionConfig(b_size=5))
        sol = solve_lp_relaxation(prob)
        assert randomized_round(sol, prob, seed=1) == randomized_round(sol, prob, seed=1)

    def test_integral_endpoints(self):
        prob = build_css_ilp([stat("a", {"s0"}), stat("b", {"s1"})], SelectionConfig())
        sol_ones = type(solve_lp_relaxation(prob))(x=np.array([1.0, 0.0]), objective=1.0)
        for seed in range(50):
            assert randomized_round(sol_ones, prob, seed) == {"a"}

    def test_mean_size_tracks_lp_mass(self):
        stats = [stat(f"c{i}", {f"s{i}"}) for i in range(8)]
        prob = build_css_ilp(stats, SelectionConfig(b_size=4))
        sol = solve_lp_relaxation(prob)
        mass = float(sol.x.sum())
        sizes = [len(randomized_round(sol, prob, s)) for s in range(4000)]
        assert np.mean(sizes) == pytest.approx(mass, abs=0.15)


class TestBruteForce:
    def test_refuses_large_instances(self):
        stats = [stat(f"c{i:02d}", {"s0"}) for i in range(21)]
        with pytest.raises(ValueError):
            oracles.brute_force_ilp(build_css_ilp(stats, SelectionConfig()))

    def test_hand_instance(self):
        # c0 covers two columns on its own; c1+c2 also cover two but
        # cost two picks. With b_size=1 the optimum is c0.
        stats = [
            stat("c0", {"s0", "s1"}),
            stat("c1", {"s0"}),
            stat("c2", {"s1"}),
        ]
        prob = build_css_ilp(stats, SelectionConfig(b_size=1))
        obj, picked = oracles.brute_force_ilp(prob)
        assert obj == 2
        assert picked == frozenset({"c0"})

    def test_fpr_budget_respected(self):
        stats = [
            stat("cheap", {"s0"}, fpr=0.01),
            stat("pricey", {"s0", "s1"}, fpr=0.5),
        ]
        prob = build_css_ilp(stats, SelectionConfig(b_size=5, b_fpr=0.1))
        obj, picked = oracles.brute_force_ilp(prob)
        assert obj == 1
        assert picked == frozenset({"cheap"})

    def test_tie_breaks_lexicographically(self):
        stats = [stat("zz", {"s0"}), stat("aa", {"s0"})]
        prob = build_css_ilp(stats, SelectionConfig(b_size=1))
        _, picked = oracles.brute_force_ilp(prob)
        assert picked == frozenset({"aa"})

    def test_empty_selection_feasible(self):
        stats = [stat("a", {"s0"}, fpr=1.0)]
        prob = build_css_ilp(stats, SelectionConfig(b_size=5, b_fpr=0.0))
        obj, picked = oracles.brute_force_ilp(prob)
        assert (obj, picked) == (0, frozenset())


class TestHelpers:
    def test_coverage_objective(self):
        stats = [stat("a", {"s0", "s1"}), stat("b", {"s1", "s2"})]
        prob = build_css_ilp(stats, SelectionConfig())
        assert coverage_objective(prob, set()) == 0
        assert coverage_objective(prob, {"a"}) == 2
        assert coverage_objective(prob, {"a", "b"}) == 3
        assert coverage_objective(prob, {"missing"}) == 0

    def test_conf_of_column(self):
        stats = [stat("a", {"s0"}, conf=0.91), stat("b", {"s0"}, conf=0.99)]
        assert oracles.conf_of_column("s0", {"a"}, stats) == 0.91
        assert oracles.conf_of_column("s0", {"a", "b"}, stats) == 0.99
        assert oracles.conf_of_column("s0", set(), stats) == 0.0
        assert oracles.conf_of_column("s9", {"a"}, stats) == 0.0


class TestRunSelection:
    def test_outcome_is_consistent(self):
        rng = random.Random(7)
        stats, synth_ids = random_instance(rng, n_cands=12, n_synth=20)
        cfg = SelectionConfig(b_size=6, b_fpr=0.05, seed=3)
        out = run_selection(stats, cfg, synth_ids)
        assert out.selected_ids == sorted(out.selected_ids)
        assert out.rounded_objective == coverage_objective(out.problem, set(out.selected_ids))
        fpr_by_id = {st.sdc_id: st.fpr for st in stats}
        assert out.sum_fpr == pytest.approx(sum(fpr_by_id[c] for c in out.selected_ids))
        again = run_selection(stats, cfg, synth_ids)
        assert again.selected_ids == out.selected_ids

    def test_delta_one_matches_coarse(self):
        rng = random.Random(11)
        stats, synth_ids = random_instance(rng)
        fine = run_selection(stats, SelectionConfig(delta=1.0, seed=2), synth_ids)
        coarse = run_selection(stats, SelectionConfig(strategy="coarse", seed=2), synth_ids)
        assert fine.problem.cover_sets == coarse.problem.cover_sets
        assert fine.selected_ids == coarse.selected_ids

    def test_enforce_budgets_caps_selection(self):
        stats = [stat(f"c{i}", {f"s{i}"}, fpr=0.04) for i in range(10)]
        cfg = SelectionConfig(b_size=3, b_fpr=0.09, seed=0, enforce_budgets=True)
        out = run_selection(stats, cfg)
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
            make_sdc(fns[0].id, 0.2, 0.5, 0.9).with_confidence(0.93),
            make_sdc(fns[1].id, 0.0, 1.0, 0.8).with_confidence(0.91),
        ]
        path = str(tmp_path / "store.json")
        write_store(path, sdcs, reg, selection={"strategy": "fine"}, config_hash="abc123")
        loaded, loaded_reg = read_store(path)
        assert loaded == sorted(sdcs, key=lambda s: s.id)
        for fn, probe in ((fns[0], "crimson"), (fns[1], "tt123")):
            assert loaded_reg.get(fn.id).distance(probe) == fn.distance(probe)

    def test_store_bytes_are_stable(self, tmp_path):
        reg = self.make_registry()
        sdcs = [make_sdc(reg.functions()[0].id, 0.2, 0.5, 0.9).with_confidence(0.93)]
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
