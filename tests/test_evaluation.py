"""PR metrics on hand-checked instances, injection, z-score baselines."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdc.corpus import Column, Corpus, normalize_raw
from sdc.domain_fns import (
    EmbeddingSpace,
    Registry,
    make_embedding_fn,
    make_score_table_fn,
)
from sdc.errors import DataFormatError
from sdc.evaluation import (
    PrPoint,
    _auc,
    _curve,
    best_zscore_baseline,
    f1_at_precision,
    inject_errors,
    load_truth,
    metrics_summary,
    pr_auc,
    pr_curve,
    save_truth,
    total_errors,
)
from sdc.infer import Detection

from oracles import (
    column_by_id,
    corpus_from_lists,
    pr_auc_loop,
    pr_curve_loop,
    zscore_baseline,
    zscore_report,
)


def det(cid, idx, conf, value="v"):
    return Detection(cid, idx, value, conf, "sdc-x", "")


# Three true errors; four detections sweeping TP, TP, FP, TP.
HAND_TRUTH = {"c0": {0, 2}, "c1": {1}}
HAND_REPORT = [
    det("c0", 0, 0.95),
    det("c0", 2, 0.90),
    det("c0", 4, 0.85),  # false positive
    det("c1", 1, 0.80),
]
HAND_POINTS = [
    PrPoint(0.95, 1.0, 1 / 3),
    PrPoint(0.90, 1.0, 2 / 3),
    PrPoint(0.85, 2 / 3, 2 / 3),
    PrPoint(0.80, 3 / 4, 1.0),
]


class TestPrCurve:
    def test_hand_instance(self):
        pts = pr_curve(HAND_REPORT, HAND_TRUTH)
        assert len(pts) == 4
        for got, want in zip(pts, HAND_POINTS):
            assert got.threshold == want.threshold
            assert got.precision == pytest.approx(want.precision, abs=1e-12)
            assert got.recall == pytest.approx(want.recall, abs=1e-12)

    def test_empty_report(self):
        assert pr_curve([], HAND_TRUTH) == []

    def test_duplicate_cells_use_max_confidence(self):
        doubled = HAND_REPORT + [det("c0", 0, 0.5), det("c0", 4, 0.1)]
        assert pr_curve(doubled, HAND_TRUTH) == pr_curve(HAND_REPORT, HAND_TRUTH)

    def test_equal_thresholds_grouped(self):
        report = [det("c0", 0, 0.9), det("c0", 4, 0.9)]
        pts = pr_curve(report, HAND_TRUTH)
        assert len(pts) == 1
        assert pts[0] == PrPoint(0.9, 0.5, 1 / 3)

    def test_no_true_errors_gives_zero_recall(self):
        pts = pr_curve([det("c0", 0, 0.9)], {})
        assert pts == [PrPoint(0.9, 0.0, 0.0)]

    @settings(max_examples=200, deadline=None)
    @given(
        report=st.lists(
            st.tuples(
                st.sampled_from(["c0", "c1", "c2"]),
                st.integers(0, 4),
                st.one_of(st.sampled_from([0.0, -0.0, 0.5, 0.9]), st.floats(-3, 3)),
            ),
            max_size=30,
        ),
        truth=st.dictionaries(
            st.sampled_from(["c0", "c1", "c3"]), st.sets(st.integers(0, 6)), max_size=3
        ),
    )
    def test_matches_loop(self, report, truth):
        # Duplicate cells, tied confidences, signed zeros, empty
        # reports and empty truths.
        dets = [det(cid, idx, conf) for cid, idx, conf in report]
        assert bits(pr_curve(dets, truth)) == bits(pr_curve_loop(dets, truth))


def bits(points):
    return [tuple(float.hex(x) for x in (p.threshold, p.precision, p.recall)) for p in points]


class TestPrAuc:
    def test_hand_instance(self):
        assert pr_auc(pr_curve(HAND_REPORT, HAND_TRUTH)) == pytest.approx(65 / 72, abs=1e-12)

    def test_perfect_report(self):
        report = [det("c0", 0, 0.9), det("c0", 2, 0.8), det("c1", 1, 0.7)]
        pts = pr_curve(report, HAND_TRUTH)
        assert pr_auc(pts) == pytest.approx(1.0, abs=1e-12)

    def test_empty(self):
        assert pr_auc([]) == 0.0

    def test_single_point(self):
        assert pr_auc([PrPoint(0.9, 1.0, 0.4)]) == pytest.approx(0.4)

    def test_insensitive_to_point_order(self):
        pts = pr_curve(HAND_REPORT, HAND_TRUTH)
        assert pr_auc(list(reversed(pts))) == pytest.approx(pr_auc(pts))


    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.one_of(st.sampled_from([0.5, 0.9, 2.0]), st.floats(0.0, 5.0)),
                      st.booleans()),
            max_size=40,
        ),
        missed=st.integers(0, 5),
    )
    def test_array_auc_matches_loop(self, cells, missed):
        # Tied confidences, no cells, and no errors at all when nothing
        # is missed or hit.
        conf = np.array([c for c, _ in cells], dtype=np.float64)
        hit = np.array([h for _, h in cells], dtype=bool)
        n_errors = int(hit.sum()) + missed
        threshold, precision, recall = _curve(conf, hit, n_errors)
        points = [PrPoint(*p) for p in zip(threshold.tolist(), precision.tolist(), recall.tolist())]
        want = pr_auc_loop(points)
        assert _auc(precision, recall).hex() == want.hex()
        assert pr_auc(points).hex() == want.hex()


class TestF1AtPrecision:
    def test_hand_instance_at_08(self):
        # qualifying points have precision 1.0; best recall is 2/3
        pts = pr_curve(HAND_REPORT, HAND_TRUTH)
        assert f1_at_precision(pts, 0.8) == pytest.approx(0.8, abs=1e-12)

    def test_hand_instance_at_07(self):
        # the (0.75, 1.0) point now qualifies and has higher recall
        pts = pr_curve(HAND_REPORT, HAND_TRUTH)
        assert f1_at_precision(pts, 0.7) == pytest.approx(2 * 0.75 * 1.0 / 1.75, abs=1e-12)

    def test_zero_when_no_point_qualifies(self):
        report = [det("c0", 4, 0.9), det("c0", 5, 0.8)]  # all false
        pts = pr_curve(report, HAND_TRUTH)
        assert f1_at_precision(pts, 0.8) == 0.0

    def test_empty_curve(self):
        assert f1_at_precision([], 0.8) == 0.0

    def test_degenerate_qualifying_point(self):
        assert f1_at_precision([PrPoint(0.5, 0.9, 0.0)], 0.8) == pytest.approx(0.0)


class TestMetricsSummary:
    def test_fields(self):
        pts = pr_curve(HAND_REPORT, HAND_TRUTH)
        summary = metrics_summary(pts)
        assert summary["pr_auc"] == pytest.approx(65 / 72)
        assert summary["f1_at_p08"] == pytest.approx(0.8)
        assert len(summary["points"]) == 4
        assert summary["points"][0] == {
            "threshold": 0.95,
            "precision": 1.0,
            "recall": pytest.approx(1 / 3),
        }


class TestInjectErrors:
    def corpus(self, n=20, length=6):
        cols = [
            Column(id=f"c{i}", values=tuple(f"tok-{i}-{j}" for j in range(length)))
            for i in range(n)
        ]
        return Corpus(cols)

    def test_exact_injection_count(self):
        corpus = self.corpus()
        noisy, truth = inject_errors(corpus, {}, rate=0.25, seed=1)
        assert total_errors(truth) == 5  # floor(0.25 * 20)
        assert len(noisy) == len(corpus)
        longer = [c.id for c in noisy if len(c) == 7]
        assert sorted(longer) == sorted(truth.keys())

    def test_rate_zero_is_identity(self):
        corpus = self.corpus()
        noisy, truth = inject_errors(corpus, {"c0": {1}}, rate=0.0, seed=0)
        assert noisy is corpus
        assert truth == {"c0": {1}}

    def test_floor_semantics(self):
        corpus = self.corpus(n=7)
        _, truth = inject_errors(corpus, {}, rate=0.1, seed=0)
        assert total_errors(truth) == 0  # floor(0.7) = 0

    def test_deterministic(self):
        corpus = self.corpus()
        a = inject_errors(corpus, {}, rate=0.5, seed=9)
        b = inject_errors(corpus, {}, rate=0.5, seed=9)
        c = inject_errors(corpus, {}, rate=0.5, seed=10)
        assert a[0] == b[0] and a[1] == b[1]
        assert a[1] != c[1] or a[0] != c[0]

    def test_existing_labels_remapped(self):
        corpus = self.corpus(n=2, length=4)
        # mark a sentinel cell in every column, then inject into both
        truth = {"c0": {2}, "c1": {0}}
        sentinel = {"c0": "tok-0-2", "c1": "tok-1-0"}
        noisy, new_truth = inject_errors(corpus, truth, rate=1.0, seed=3)
        for col in noisy:
            assert len(col) == 5
            marks = new_truth[col.id]
            assert len(marks) == 2  # old label + injected cell
            old = [i for i in marks if col.values[i] == sentinel[col.id]]
            assert len(old) == 1

    def test_validation(self):
        corpus = self.corpus()
        with pytest.raises(ValueError):
            inject_errors(corpus, {}, rate=1.5, seed=0)
        lonely = Corpus([Column(id="c0", values=("a", "b"))])
        with pytest.raises(DataFormatError):
            inject_errors(lonely, {}, rate=1.0, seed=0)

    def test_no_fresh_donor_labels_nothing(self):
        # every donor value is already in the target column
        corpus = corpus_from_lists({"c0": ["a", "b"], "c1": ["b", "a"]})
        noisy, truth = inject_errors(corpus, {}, 1.0, 0)
        assert noisy == corpus
        assert truth == {}

    @settings(max_examples=60, deadline=None)
    @given(
        columns=st.lists(
            st.lists(st.sampled_from(["a", "A ", "b", "c", "d"]), min_size=1, max_size=5),
            min_size=2,
            max_size=6,
        ),
        seed=st.integers(0, 1000),
    )
    def test_labels_point_to_values_absent_from_rest_of_column(self, columns, seed):
        corpus = corpus_from_lists({f"c{i}": vals for i, vals in enumerate(columns)})
        noisy, truth = inject_errors(corpus, {}, 1.0, seed)
        for cid, idxs in truth.items():
            values = column_by_id(noisy, cid).values
            for idx in idxs:
                rest = {normalize_raw(v) for i, v in enumerate(values) if i != idx}
                assert normalize_raw(values[idx]) not in rest

    def test_indices_in_range(self):
        corpus = self.corpus()
        noisy, truth = inject_errors(corpus, {}, rate=1.0, seed=4)
        by_id = {c.id: c for c in noisy}
        for cid, idxs in truth.items():
            for idx in idxs:
                assert 0 <= idx < len(by_id[cid])


class TestTruthIO:
    def test_roundtrip(self, tmp_path):
        truth = {"c2": {5, 1}, "c0": {0}, "empty": set()}
        path = str(tmp_path / "truth.jsonl")
        save_truth(truth, path)
        loaded = load_truth(path)
        assert loaded == {"c2": {1, 5}, "c0": {0}}

    def test_meta_line_skipped(self, tmp_path):
        path = str(tmp_path / "truth.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"kind": "truth-meta", "note": "x"}\n')
            fh.write('{"id": "c0", "error_indices": [3]}\n')
        assert load_truth(path) == {"c0": {3}}

    def test_bad_json(self, tmp_path):
        path = str(tmp_path / "truth.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("nope\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_truth(path)


def one_hot_fn():
    # "good" at distance 0, everything else at distance 1
    return make_score_table_fn("onehot", {"good": 1.0})


class TestZscoreBaseline:
    def test_single_outlier_z_is_sqrt_n_minus_1(self):
        fn = one_hot_fn()
        col = Column(id="c0", values=("good",) * 99 + ("bad",))
        dets = zscore_baseline(fn, col)
        assert len(dets) == 1
        assert dets[0].value_index == 99
        assert dets[0].confidence == pytest.approx(math.sqrt(99), abs=1e-9)
        assert dets[0].sdc_id == f"zscore:{fn.id}"

    def test_zero_variance_flags_nothing(self):
        fn = one_hot_fn()
        col = Column(id="c0", values=("good",) * 10)
        assert zscore_baseline(fn, col) == []

    def test_needs_two_values(self):
        fn = one_hot_fn()
        with pytest.raises(ValueError):
            zscore_baseline(fn, Column(id="c0", values=("good",)))

    def test_infinite_distances_clamped(self):
        space = EmbeddingSpace(
            dimension=2,
            vectors={"red": np.array([0.0, 0.0]), "blue": np.array([10.0, 0.0])},
            id="mini",
        )
        fn = make_embedding_fn(space, "red")
        col = Column(id="c0", values=("red", "red", "red", "mystery"))
        dets = zscore_baseline(fn, col)
        assert len(dets) == 1
        assert dets[0].value == "mystery"
        assert math.isfinite(dets[0].confidence)

    def test_sorted_output(self):
        fn = one_hot_fn()
        col = Column(id="c0", values=("bad", "good", "good", "worse", "good", "good"))
        dets = zscore_baseline(fn, col)
        assert [d.value_index for d in dets] == [0, 3]
        assert dets[0].confidence == dets[1].confidence


class TestZscoreReport:
    def test_skips_short_columns(self):
        fn = one_hot_fn()
        corpus = Corpus(
            [
                Column(id="short", values=("bad",)),
                Column(id="c0", values=("good",) * 9 + ("bad",)),
            ]
        )
        dets = zscore_report(fn, corpus)
        assert [d.column_id for d in dets] == ["c0"]


ZSCORE_VOCAB = ["red", "crimson", "scarlet", "blue", "navy", "mystery", "zzz"]


def zscore_fns():
    # Irregular coordinates, so means and deviations are inexact sums;
    # "mystery" and "zzz" are out of vocabulary (infinite distance).
    rng = np.random.default_rng(3)
    space = EmbeddingSpace(
        dimension=3, vectors={t: rng.normal(size=3) for t in ZSCORE_VOCAB[:5]}, id="z3"
    )
    return [
        make_embedding_fn(space, "red"),
        make_embedding_fn(space, "blue"),
        # few levels: tied z-scores and zero-variance columns
        make_score_table_fn("reds", {"red": 1.0, "crimson": 0.9, "scarlet": 0.9}),
    ]


@st.composite
def zscore_cases(draw):
    lengths = draw(st.lists(st.sampled_from([1, 2, 3, 5, 9, 9, 13]), min_size=1, max_size=8))
    columns = [
        draw(st.lists(st.sampled_from(ZSCORE_VOCAB), min_size=n, max_size=n)) for n in lengths
    ]
    # Labels may name one-value columns, indices past a column's end and
    # columns absent from the corpus.
    labels = draw(
        st.lists(st.tuples(st.integers(0, len(lengths) + 1), st.integers(0, 13)), max_size=10)
    )
    truth = {}
    for j, idx in labels:
        truth.setdefault(f"c{j}", set()).add(idx)
    return corpus_from_lists({f"c{j}": vals for j, vals in enumerate(columns)}), truth


class TestBestZscoreBaseline:
    @settings(max_examples=150, deadline=None)
    @given(case=zscore_cases())
    # Two 9-value columns whose capped z-scores tie only when each
    # column's mean is summed the way ``ndarray.mean`` sums it alone.
    @example(
        case=(
            corpus_from_lists({
                "c0": ["mystery"] * 2 + ["red"] * 7,
                "c1": ["red"] * 5 + ["blue", "navy"] + ["mystery"] * 2,
            }),
            {"c0": {0}},
        )
    )
    def test_matches_report_oracle(self, case):
        corpus, truth = case
        fns = zscore_fns()
        _, _, aucs = best_zscore_baseline(fns, corpus, truth)
        for fn in fns:
            want = pr_auc_loop(pr_curve_loop(zscore_report(fn, corpus), truth))
            assert aucs[fn.id].hex() == want.hex(), fn.id

    def test_picks_higher_auc(self):
        space = EmbeddingSpace(
            dimension=2,
            vectors={"red": [0.0, 0.0], "crimson": [0.0, 1.0], "blue": [10.0, 0.0]},
            id="mini",
        )
        good = make_embedding_fn(space, "red")
        # inverted scores: flags the in-domain values first
        bad = make_score_table_fn("inverted", {"blue": 1.0})
        corpus = Corpus(
            [Column(id="c0", values=("red", "crimson", "red", "blue"))]
        )
        truth = {"c0": {3}}
        best_id, best_auc, aucs = best_zscore_baseline([good, bad], corpus, truth)
        assert best_id == good.id
        assert best_auc == pytest.approx(1.0)
        assert set(aucs) == {good.id, bad.id}
        assert aucs[bad.id] < 1.0

    def test_empty_function_list(self):
        corpus = Corpus([Column(id="c0", values=("a", "b"))])
        assert best_zscore_baseline([], corpus, {}) == (None, 0.0, {})

    def test_tie_breaks_on_smallest_id(self):
        fn_a = make_score_table_fn("aa", {"good": 1.0})
        fn_b = make_score_table_fn("bb", {"good": 1.0})
        corpus = Corpus([Column(id="c0", values=("good", "good", "bad"))])
        truth = {"c0": {2}}
        best_id, _, aucs = best_zscore_baseline([fn_b, fn_a], corpus, truth)
        assert aucs["score:aa"] == aucs["score:bb"]
        assert best_id == "score:aa"
