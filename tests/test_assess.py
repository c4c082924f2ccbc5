import json
import math
import random

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdc.assess import (
    AssessConfig,
    AssessedSdc,
    ContingencyTable,
    assess_all,
    chi_squared_p,
    cohens_h,
    confidence_upper_bound,
    load_assessed,
    min_coverage_for,
    save_assessed,
    wilson_lower_confidence,
)
from sdc.candidates import Candidate, GridSpec, enumerate_candidates
from sdc.corpus import Column, Corpus
from sdc.domain_fns import Registry, make_random_hash_fn, make_score_table_fn
from sdc.errors import DataFormatError

from conftest import table
from oracles import (
    assess_loop,
    build_contingency,
    constraint,
    eval_postcondition,
    eval_precondition,
    survivor,
)


# ---------------------------------------------------------------------------
# independent statistical oracles


def wilson_oracle(n_ct: int, n_c: int, z: float) -> float:
    """Independent derivation: one minus the textbook Wilson upper
    bound on the trigger proportion, written in the p-hat form."""
    p_hat = n_ct / n_c
    upper = (
        p_hat
        + z * z / (2.0 * n_c)
        + z * math.sqrt(p_hat * (1.0 - p_hat) / n_c + z * z / (4.0 * n_c * n_c))
    ) / (1.0 + z * z / n_c)
    return 1.0 - upper


nonneg = st.integers(min_value=0, max_value=500)


class TestContingencyTable:
    def test_derived_counts(self):
        t = table(1, 2, 3, 4)
        assert t.total == 10
        assert t.coverage == 3
        assert t.not_coverage == 7
        assert t.rho == pytest.approx(1 / 3)
        assert t.rho_bar == pytest.approx(3 / 7)
        assert t == (1, 2, 3, 4)

    def test_zero_denominators(self):
        with pytest.raises(ValueError):
            table(0, 0, 1, 1).rho
        with pytest.raises(ValueError):
            table(1, 1, 0, 0).rho_bar


class TestCohensH:
    def test_worked_example(self):
        # (10, 990) covered vs (160000, 40000) uncovered:
        # rho = 0.01, rho-bar = 0.8
        h = cohens_h(table(10, 990, 160000, 40000))
        assert h == pytest.approx(2.0139625932650613, rel=1e-12)
        assert h == pytest.approx(2.01, abs=0.01)

    def test_against_transform_oracle(self):
        def phi(p: float) -> float:
            # variance-stabilizing arcsine transform
            return 2.0 * math.asin(math.sqrt(p))

        for a, b, c, d in [(10, 990, 160000, 40000), (5, 5, 9, 1), (0, 10, 10, 0)]:
            t = table(a, b, c, d)
            assert cohens_h(t) == pytest.approx(abs(phi(t.rho) - phi(t.rho_bar)), rel=1e-12)

    def test_symmetric_in_direction(self):
        assert cohens_h(table(1, 9, 9, 1)) == pytest.approx(cohens_h(table(9, 1, 1, 9)))

    def test_zero_when_rates_equal(self):
        assert cohens_h(table(5, 5, 50, 50)) == 0.0


class TestChiSquared:
    @given(nonneg, nonneg, nonneg, nonneg)
    @settings(max_examples=300)
    def test_matches_scipy(self, a, b, c, d):
        t = table(a, b, c, d)
        p = chi_squared_p(t)
        degenerate = (
            t.total == 0
            or t.coverage == 0
            or t.not_coverage == 0
            or a + c == 0
            or b + d == 0
        )
        if degenerate:
            assert p == 1.0
            return
        stat, p_ref = scipy.stats.chi2_contingency(
            [[a, b], [c, d]], correction=False
        )[:2]
        assert p == pytest.approx(p_ref, rel=1e-9, abs=1e-12)

    def test_worked_example_significant(self):
        assert chi_squared_p(table(10, 990, 160000, 40000)) < 1e-100

    def test_independent_table_not_significant(self):
        # identical rates: statistic is exactly zero
        assert chi_squared_p(table(5, 5, 50, 50)) == pytest.approx(1.0)


class TestWilson:
    def test_worked_example(self):
        c = wilson_lower_confidence(table(10, 990, 1, 1), z=1.65)
        assert c == pytest.approx(0.9833170702866996, abs=1e-12)
        assert c == pytest.approx(wilson_oracle(10, 1000, 1.65), abs=1e-12)

    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=400),
        st.floats(min_value=0.5, max_value=3.0),
    )
    @settings(max_examples=300)
    def test_matches_independent_derivation(self, n_ct, n_ctbar, z):
        if n_ct + n_ctbar == 0:
            return
        t = table(n_ct, n_ctbar, 0, 0)
        assert wilson_lower_confidence(t, z) == pytest.approx(
            wilson_oracle(n_ct, n_ct + n_ctbar, z), abs=1e-9
        )

    def test_matches_statsmodels(self):
        sp = pytest.importorskip("statsmodels.stats.proportion")
        z = 1.65
        alpha = 2.0 * (1.0 - scipy.stats.norm.cdf(z))
        for n_ct, n_c in [(10, 1000), (0, 25), (3, 40), (250, 500)]:
            _, hi = sp.proportion_confint(n_ct, n_c, alpha=alpha, method="wilson")
            got = wilson_lower_confidence(table(n_ct, n_c - n_ct, 0, 0), z)
            assert got == pytest.approx(1.0 - hi, abs=1e-9)

    def test_zero_triggers_equals_upper_bound(self):
        for n_c in [1, 10, 25, 100, 10000]:
            got = wilson_lower_confidence(table(0, n_c, 0, 0), z=1.65)
            assert got == confidence_upper_bound(n_c, z=1.65)

    def test_zero_coverage_undefined(self):
        with pytest.raises(ValueError):
            wilson_lower_confidence(table(0, 0, 1, 1))

    def test_decreasing_in_triggers(self):
        vals = [wilson_lower_confidence(table(k, 100 - k, 0, 0)) for k in range(0, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestCoverageBound:
    def test_analytic_minimum(self):
        assert min_coverage_for(0.9, z=1.65) == 25

    def test_minimum_is_tight(self):
        for c_thres, z in [(0.9, 1.65), (0.8, 1.65), (0.9, 1.96), (0.5, 1.0), (0.0, 1.65)]:
            n = min_coverage_for(c_thres, z)
            assert confidence_upper_bound(n, z) >= c_thres
            if n > 0:
                assert confidence_upper_bound(n - 1, z) < c_thres

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300)
    def test_upper_bound_monotone(self, n1, n2):
        lo, hi = sorted((n1, n2))
        assert confidence_upper_bound(lo) <= confidence_upper_bound(hi)

    def test_upper_bound_range(self):
        assert confidence_upper_bound(0) == 0.0
        assert confidence_upper_bound(10**9) < 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            confidence_upper_bound(-1)
        with pytest.raises(ValueError):
            min_coverage_for(1.0)


class TestAssessConfig:
    def test_defaults(self):
        cfg = AssessConfig()
        assert (cfg.z, cfg.h_min, cfg.p_max, cfg.c_thres) == (1.65, 0.8, 0.05, 0.9)

    def test_round_trip(self):
        cfg = AssessConfig(z=1.96, h_min=0.5, p_max=0.01, c_thres=0.8)
        assert AssessConfig.from_json(cfg.to_json()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            AssessConfig(z=0.0)
        with pytest.raises(ValueError):
            AssessConfig(c_thres=1.0)
        with pytest.raises(ValueError):
            AssessConfig(p_max=1.5)


# ---------------------------------------------------------------------------
# pre/post-condition semantics


@pytest.fixture
def boundary_registry():
    # distances: a -> 0.2, b -> 0.5, c -> 0.8, absent -> 1.0
    reg = Registry()
    reg.add(make_score_table_fn("t", {"a": 0.8, "b": 0.5, "c": 0.2}))
    return reg


class TestPrePost:
    def test_inner_ball_inclusive(self, boundary_registry):
        col = Column(id="c", values=("a", "b"))  # distances 0.2, 0.5
        sdc = constraint("score:t", 0.5, 1.0, 1.0)
        # b sits exactly on d_in and still counts as inside
        assert eval_precondition(sdc, col, boundary_registry)
        tighter = constraint("score:t", 0.49, 1.0, 1.0)
        assert not eval_precondition(tighter, col, boundary_registry)

    def test_matching_fraction_non_strict(self, boundary_registry):
        col = Column(id="c", values=("a", "a", "a", "c"))  # 3 of 4 inside 0.3
        sdc = constraint("score:t", 0.3, 1.0, 0.75)
        assert eval_precondition(sdc, col, boundary_registry)
        sdc_tight = constraint("score:t", 0.3, 1.0, 0.76)
        assert not eval_precondition(sdc_tight, col, boundary_registry)

    def test_outer_ball_strict(self, boundary_registry):
        col = Column(id="c", values=("a", "c", "zz"))  # distances 0.2, 0.8, 1.0
        sdc = constraint("score:t", 0.2, 0.8, 0.1)
        # c is exactly at d_out = 0.8: not flagged; zz at 1.0: flagged
        flagged = eval_postcondition(sdc, col, boundary_registry)
        assert flagged == {(2, "zz")}

    def test_postcondition_reports_raw_values(self, boundary_registry):
        col = Column(id="c", values=("a", " ZZ "))
        sdc = constraint("score:t", 0.2, 0.9, 0.1)
        assert eval_postcondition(sdc, col, boundary_registry) == {(1, " ZZ ")}

    def test_infinite_outer_radius_never_triggers(self, boundary_registry):
        col = Column(id="c", values=("a", "zz"))
        sdc = constraint("score:t", 0.2, math.inf, 0.1)
        assert eval_postcondition(sdc, col, boundary_registry) == set()

    def test_build_contingency_matches_manual(self, boundary_registry):
        cols = [
            Column(id="c1", values=("a", "a", "zz")),   # covered, triggered
            Column(id="c2", values=("a", "b")),         # covered, not triggered
            Column(id="c3", values=("zz", "zz", "zz")), # not covered, triggered
            Column(id="c4", values=("c", "c")),         # not covered (0.8 > d_in)
        ]
        corpus = Corpus(cols)
        sdc = constraint("score:t", 0.5, 0.9, 0.6)
        t = build_contingency(sdc, corpus, boundary_registry)
        assert t == (1, 1, 1, 1)

    def test_triggering_evaluated_on_uncovered_columns(self, boundary_registry):
        # the uncovered-and-triggered cell must be populated
        corpus = Corpus([Column(id="c", values=("zz", "zz"))])
        sdc = constraint("score:t", 0.2, 0.9, 0.9)
        t = build_contingency(sdc, corpus, boundary_registry)
        assert t.notcovered_triggered == 1


# ---------------------------------------------------------------------------
# full assessment


# Score-table distances 0, 0.1, 0.5 and 0.9; anything else is at 1.
SCREEN_VOCAB = ["a", "b", "c", "d", "zz", "tok-1"]


def hash_corpus(n_cols: int, seed: int, min_len: int = 5, max_len: int = 40) -> Corpus:
    """Columns of arbitrary distinct tokens; hash functions see uniform
    distances, score functions see their table hits."""
    rng = random.Random(seed)
    cols = []
    for i in range(n_cols):
        n = rng.randint(min_len, max_len)
        cols.append(
            Column(id=f"c{i}", values=tuple(f"tok-{rng.randrange(10**6)}" for _ in range(n)))
        )
    return Corpus(cols)


def small_registry(seed: int) -> Registry:
    reg = Registry()
    reg.add(make_random_hash_fn(seed))
    reg.add(make_random_hash_fn(seed + 1))
    reg.add(make_score_table_fn("t", {f"tok-{i}": 0.9 for i in range(100)}))
    return reg


class TestAssessAll:
    def test_known_good_constraint_survives(self):
        # 60 columns of table values plus 40 outlier-bearing columns:
        # the score constraint covers the clean ones and triggers only
        # on the planted outlier column.
        rng = random.Random(0)
        cols = []
        for i in range(60):
            vals = tuple(f"tok-{rng.randrange(100)}" for _ in range(20))
            cols.append(Column(id=f"good{i}", values=vals))
        for i in range(40):
            vals = tuple(f"other-{rng.randrange(10**6)}" for _ in range(20))
            cols.append(Column(id=f"noise{i}", values=vals))
        corpus = Corpus(cols)
        reg = small_registry(0)
        cand = Candidate("score:t", 0.1, 0.99, 0.9)
        kept = assess_all([cand], corpus, reg)
        assert len(kept) == 1
        a = kept[0]
        assert a.table.covered_triggered == 0
        assert a.table.coverage == 60
        assert a.confidence > 0.9
        assert a.id == cand.id

    def test_gates_reject_uninformative_candidates(self):
        corpus = hash_corpus(80, seed=1)
        reg = small_registry(1)
        cands = list(enumerate_candidates(reg.functions(), GridSpec()))
        gate_counts = {}
        kept = assess_all(cands, corpus, reg, gate_counts=gate_counts)
        # hash distances carry no signal; nothing should survive
        assert kept == []
        assert gate_counts["total"] == len(cands)

    @pytest.mark.parametrize("seed", range(6))
    def test_pruned_equals_unpruned(self, seed):
        # The array screen evaluates every candidate (nothing is pruned) and
        # must keep exactly what the per-candidate loop keeps, gate by gate.
        corpus = hash_corpus(random.Random(seed).randint(30, 120), seed=seed)
        reg = small_registry(seed)
        cands = list(enumerate_candidates(reg.functions(), GridSpec()))
        gate_counts = {}
        kept = assess_all(cands, corpus, reg, gate_counts=gate_counts)
        want, want_counts = assess_loop(cands, corpus, reg)
        assert kept == want
        assert gate_counts == want_counts
        assert gate_counts["pruned_skips"] == 0
        assert gate_counts["evaluated"] == gate_counts["total"] == len(cands)

    @given(
        st.lists(st.lists(st.sampled_from(SCREEN_VOCAB), min_size=1, max_size=6),
                 min_size=1, max_size=40),
        st.lists(st.tuples(st.sampled_from(["score:s", "hash:3", "hash:4"]),
                           st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
                           st.sampled_from([0.0, 0.05, 0.5]),
                           st.sampled_from([0.1, 0.5, 0.8, 1.0])),
                 min_size=1, max_size=40),
        # Minimum coverage 0, 1, 3 and 25.
        st.sampled_from([0.0, 0.2, 0.5, 0.9]),
        st.sampled_from([0.01, 0.8]),
        st.sampled_from([0.05, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    # Every value within d_in = 1 of the table: no column is uncovered.
    @example([["a"], ["zz", "b"], ["c"]], [("score:s", 1.0, 0.0, 0.5)], 0.0, 0.01, 1.0)
    def test_array_screen_matches_the_loop(self, columns, specs, c_thres, h_min, p_max):
        corpus = Corpus([Column(id=f"c{j}", values=tuple(v)) for j, v in enumerate(columns)])
        reg = Registry()
        reg.add(make_score_table_fn("s", {"a": 1.0, "b": 0.9, "c": 0.5, "d": 0.1}))
        reg.add(make_random_hash_fn(3))
        reg.add(make_random_hash_fn(4))
        cands = [Candidate(fn_id, d_in, d_in + off, m) for fn_id, d_in, off, m in specs]
        cfg = AssessConfig(h_min=h_min, p_max=p_max, c_thres=c_thres)
        gate_counts = {}
        kept = assess_all(cands, corpus, reg, cfg, gate_counts=gate_counts)
        want, want_counts = assess_loop(cands, corpus, reg, cfg)
        assert kept == want
        assert gate_counts == want_counts
        assert gate_counts["evaluated"] == gate_counts["total"] == len(cands)
        assert gate_counts["pruned_skips"] == 0

    def test_output_sorted_by_id(self):
        corpus = hash_corpus(60, seed=4)
        reg = small_registry(4)
        cands = list(enumerate_candidates(reg.functions(), GridSpec()))
        kept = assess_all(cands, corpus, reg, cfg=AssessConfig(h_min=0.01, c_thres=0.0, p_max=1.0))
        ids = [a.id for a in kept]
        assert ids == sorted(ids)

    def test_directional_gate(self):
        # candidate triggering MORE on covered columns must be rejected
        # even with a huge effect size
        reg = Registry()
        reg.add(make_score_table_fn("t", {"in": 1.0}))
        cols = []
        # covered columns contain an outlier (trigger), uncovered do not
        for i in range(40):
            cols.append(Column(id=f"cov{i}", values=("in",) * 9 + ("out",)))
        for i in range(40):
            cols.append(Column(id=f"unc{i}", values=("half-in", "half-out")))
        # uncovered columns: distance 1 for both values -> triggered too.
        # make them untriggered instead by using in-table values only.
        corpus = Corpus(cols[:40] + [
            Column(id=f"unc{i}", values=("in", "in")) for i in range(40, 80)
        ])
        cand = Candidate("score:t", 0.0, 0.99, 0.9)
        assert assess_all([cand], corpus, reg) == []


# Survivors as tuples (fn_id, d_in, d_out - d_in, m, confidence, table,
# h, p), with values that stress the number formatting.
RULE_ROWS = st.lists(st.tuples(
    st.text(max_size=12),
    st.floats(min_value=0.0, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=True),
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(),
    st.tuples(*[st.integers(0, 10**6)] * 4),
    st.floats(),
    st.floats(),
), max_size=5)
RULE_ROWS_EXAMPLE = [("pattern:\\d+\"é", 0.0, math.inf, 0.95, 1e-300, (1, 2, 3, 4), math.nan, -0.0)]


def rule_rows(records) -> list[AssessedSdc]:
    return [survivor(fn_id, d_in, d_in + abs(extra), m, conf, table(*tab), h, p)
            for fn_id, d_in, extra, m, conf, tab, h, p in records]


class TestAssessedIO:
    def test_round_trip(self, tmp_path):
        item = survivor("score:t", 0.1, 0.9, 0.95, 0.91, table(0, 30, 5, 65), 1.2, 0.001)
        path = tmp_path / "rules.jsonl"
        save_assessed([item], str(path), meta={"config_hash": "abc"})
        assert load_assessed(str(path)) == [item]

    @given(RULE_ROWS)
    @settings(max_examples=200, deadline=None)
    @example(RULE_ROWS_EXAMPLE)
    def test_lines_are_json_dumps_bytes(self, tmp_path_factory, records):
        items = rule_rows(records)
        path = tmp_path_factory.mktemp("rules") / "rules.jsonl"
        save_assessed(items, str(path), meta={"config_hash": "abc"})
        want = json.dumps({"kind": "assessed-meta", "config_hash": "abc"}, sort_keys=True) + "\n"
        want += "".join(json.dumps(item._asdict()) + "\n" for item in items)
        assert path.read_bytes() == want.encode("utf-8")

    @given(RULE_ROWS)
    @settings(max_examples=200, deadline=None)
    @example(RULE_ROWS_EXAMPLE)
    def test_load_then_save_reproduces_the_file(self, tmp_path_factory, records):
        # The file is written by json.dumps, not by save_assessed.
        lines = [json.dumps({"kind": "assessed-meta", "config_hash": "abc"}, sort_keys=True)]
        lines += [json.dumps(item._asdict()) for item in rule_rows(records)]
        folder = tmp_path_factory.mktemp("rules")
        (folder / "in.jsonl").write_text("".join(line + "\n" for line in lines))
        save_assessed(load_assessed(str(folder / "in.jsonl")), str(folder / "out.jsonl"),
                      meta={"config_hash": "abc"})
        assert (folder / "out.jsonl").read_bytes() == (folder / "in.jsonl").read_bytes()

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text('{"kind": "assessed-meta"}\n{"id": "x"}\n')
        with pytest.raises(DataFormatError, match="line 2"):
            load_assessed(str(path))
