"""Ten end-to-end guarantees, one test per guarantee.

Each test states its tolerance inline and prints a one-line PASS
summary (visible with ``pytest -s``). These are the checks the rest of
the suite hangs off: statistical gates, pruning soundness, LP bounds,
rounding guarantees, robustness to noise functions, inference
equivalence, and the desk-scale benchmark.
"""

import dataclasses
import math
import random
import time
from collections import Counter
from itertools import islice

import numpy as np
import pytest

from sdc.assess import (
    AssessConfig,
    ContingencyTable,
    assess_all,
    cohens_h,
    confidence_upper_bound,
    min_coverage_for,
    save_assessed,
    wilson_lower_confidence,
)
from sdc.candidates import GridSpec, enumerate_candidates, make_sdc
from sdc.corpus import Column, filter_columns, sample_columns
from sdc.datagen import (
    DOMAINS,
    HIGH_CARDINALITY_DOMAINS,
    WORD_CATEGORIES,
    generate_corpus,
    generate_random_string_corpus,
)
from sdc.domain_fns import (
    EmbeddingSpace,
    Registry,
    builtin_validators,
    infer_patterns,
    make_embedding_fn,
    make_random_hash_fn,
    make_score_table_fn,
    sample_centroids,
)
from sdc.evaluation import (
    best_zscore_baseline,
    f1_at_precision,
    inject_errors,
    pr_auc,
    pr_curve,
)
from sdc.infer import (
    Detection,
    compile_ruleset,
    detect_corpus,
    detect_errors,
    save_report,
)
from sdc.select import (
    CandidateStats,
    SelectionConfig,
    build_css_ilp,
    build_fss_ilp,
    coverage_objective,
    randomized_round,
    run_selection,
    solve_lp_relaxation,
)
from sdc.synth import build_candidate_stats, build_synthetic_corpus

from oracles import brute_force_ilp, detect_errors_naive


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# 1. Effect size on the worked four-cell example


def test_criterion_01_effect_size_worked_example():
    table = ContingencyTable(10, 990, 160000, 40000)
    h = cohens_h(table)
    # independent recomputation of the arcsine transform
    ref = 2 * math.asin(math.sqrt(10 / 1000)) - 2 * math.asin(math.sqrt(160000 / 200000))
    assert abs(h) == pytest.approx(abs(ref), abs=1e-12)
    assert abs(abs(h) - 2.01) <= 0.01
    reps = 2000
    t0 = time.perf_counter()
    for _ in range(reps):
        cohens_h(table)
    per_call = (time.perf_counter() - t0) / reps
    assert per_call < 1e-3
    print(f"PASS criterion 1: |h| = {abs(h):.10f} (2.01 +/- 0.01), "
          f"{per_call * 1e6:.1f}us per call", flush=True)


# ---------------------------------------------------------------------------
# 2. Confidence lower bound vs an independent closed form


def wilson_reference(n_c: int, n_ct: int, z: float) -> float:
    """Score-interval lower bound, written out from the quadratic."""
    n = n_c
    p = (n_c - n_ct) / n_c
    centre = p + z * z / (2 * n)
    radius = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n))
    return (centre - radius) / (1.0 + z * z / n)


def test_criterion_02_confidence_bound_matches_reference():
    worst = 0.0
    cases = 0
    for n_c in (1, 2, 3, 7, 25, 100, 990, 1000, 54321):
        for frac in (0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.9, 1.0):
            n_ct = min(n_c, round(frac * n_c))
            for z in (1.0, 1.65, 1.96, 2.576):
                got = wilson_lower_confidence(
                    ContingencyTable(n_ct, n_c - n_ct, 0, 0), z
                )
                worst = max(worst, abs(got - wilson_reference(n_c, n_ct, z)))
                cases += 1
                if n_ct == 0:
                    # zero triggers: must equal the coverage-only bound bit for bit
                    assert got == confidence_upper_bound(n_c, z)
    assert worst <= 1e-9
    frozen = wilson_lower_confidence(ContingencyTable(10, 990, 0, 0), 1.65)
    assert frozen == pytest.approx(0.9833170702866996, abs=1e-12)
    print(f"PASS criterion 2: {cases} cases within {worst:.2e} of the closed "
          f"form; zero-trigger bound exact", flush=True)


# ---------------------------------------------------------------------------
# 3. Coverage pruning: threshold value, monotone bound, identical output


def test_criterion_03_pruning_is_sound(tmp_path):
    assert min_coverage_for(0.9, 1.65) == 25

    prev = -1.0
    for n in range(0, 1_000_001):
        ub = confidence_upper_bound(n)
        assert ub >= prev, f"upper bound decreased at n={n}"
        prev = ub

    rng = random.Random(303)
    survivors = 0
    for i in range(50):
        n_cols = rng.randint(20, 120)
        # at least two word domains so the centroid pool is never empty
        doms = rng.sample(sorted(WORD_CATEGORIES), 2)
        doms += rng.sample(DOMAINS, rng.randint(1, 6))
        doms = list(dict.fromkeys(doms))
        ds = generate_corpus(n_cols, seed=1000 + i, domains=doms)
        corpus = filter_columns(ds.corpus)
        reg = Registry()
        reg.add_all(builtin_validators())
        reg.add_all(infer_patterns(corpus, 5))
        reg.add_space(ds.space)
        for fn in sample_centroids(corpus, ds.space, 8, i):
            if fn.id not in reg:
                reg.add(fn)
        for fn in ds.score_fns:
            reg.add(fn)
        reg.add(make_random_hash_fn(i))
        reg.add(make_random_hash_fn(500 + i))
        cands = list(islice(enumerate_candidates(reg.functions(), GridSpec()), 500))
        kept_pruned = assess_all(cands, corpus, reg, prune=True)
        kept_full = assess_all(cands, corpus, reg, prune=False)
        assert kept_pruned == kept_full
        p_path = tmp_path / f"pruned-{i}.jsonl"
        f_path = tmp_path / f"full-{i}.jsonl"
        save_assessed(kept_pruned, str(p_path), meta={"case": i})
        save_assessed(kept_full, str(f_path), meta={"case": i})
        assert read_bytes(p_path) == read_bytes(f_path)
        survivors += len(kept_pruned)
    print(f"PASS criterion 3: min coverage 25, bound monotone on [0, 1e6], "
          f"pruned output byte-identical on 50 corpora ({survivors} survivors)",
          flush=True)


# ---------------------------------------------------------------------------
# 4. LP relaxation dominates the ILP; rounding meets its guarantees


def random_problem(rng, n_cands, n_synth, b_size, b_fpr):
    synth_ids = [f"s{k:02d}" for k in range(n_synth)]
    stats = []
    for j in range(n_cands):
        k = rng.randint(2, max(2, n_synth // 3))
        stats.append(CandidateStats(
            sdc_id=f"c{j:02d}",
            detected=frozenset(rng.sample(synth_ids, k)),
            fpr=rng.uniform(0.005, 0.03),
            confidence=rng.uniform(0.9, 0.99),
        ))
    cfg = SelectionConfig(b_size=b_size, b_fpr=b_fpr)
    return build_css_ilp(stats, cfg, synth_ids=synth_ids), stats


def test_criterion_04_lp_bound_and_rounding_guarantees():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for _ in range(20):
        problem, _ = random_problem(
            rng,
            n_cands=rng.randint(6, 12),
            n_synth=rng.randint(10, 30),
            b_size=rng.randint(2, 5),
            b_fpr=rng.uniform(0.04, 0.1),
        )
        lp = solve_lp_relaxation(problem)
        opt, _ = brute_force_ilp(problem)
        assert lp.objective >= opt - 1e-9

    problem, _ = random_problem(rng, n_cands=12, n_synth=30, b_size=4, b_fpr=0.05)
    lp = solve_lp_relaxation(problem)
    opt, _ = brute_force_ilp(problem)
    n_seeds = 20000
    objs = np.empty(n_seeds)
    sizes = np.empty(n_seeds)
    fprs = np.empty(n_seeds)
    fpr_of = dict(zip(problem.candidate_ids, problem.fprs))
    for s in range(n_seeds):
        picked = randomized_round(lp, problem, seed=s)
        objs[s] = coverage_objective(problem, picked)
        sizes[s] = len(picked)
        fprs[s] = sum(fpr_of[c] for c in picked)

    def sem(a):
        return a.std(ddof=1) / math.sqrt(len(a))

    floor = (1 - 1 / math.e) * opt - 3 * sem(objs)
    assert objs.mean() >= floor
    assert sizes.mean() <= problem.b_size + 3 * sem(sizes)
    assert fprs.mean() <= problem.b_fpr + 3 * sem(fprs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"PASS criterion 4: LP >= ILP on 20 instances; over {n_seeds} seeds "
          f"mean objective {objs.mean():.3f} >= {floor:.3f} "
          f"((1-1/e)*OPT - 3 SEM, OPT={opt}), mean size "
          f"{sizes.mean():.3f} <= {problem.b_size}+3 SEM, mean FPR "
          f"{fprs.mean():.4f} <= {problem.b_fpr}+3 SEM ({elapsed:.1f}s)",
          flush=True)


# ---------------------------------------------------------------------------
# 5. At delta = 1 the near-best filter keeps everything


def test_criterion_05_delta_one_reduces_to_coarse_cover_sets():
    rng = random.Random(55)
    for _ in range(50):
        problem, stats = random_problem(
            rng,
            n_cands=rng.randint(3, 15),
            n_synth=rng.randint(5, 40),
            b_size=rng.randint(2, 8),
            b_fpr=rng.uniform(0.02, 0.2),
        )
        synth_ids = problem.synth_ids
        cfg = SelectionConfig(delta=1.0)
        fss = build_fss_ilp(stats, cfg, synth_ids)
        css = build_css_ilp(stats, cfg, synth_ids)
        assert fss.candidate_ids == css.candidate_ids
        assert fss.synth_ids == css.synth_ids
        assert fss.cover_sets == css.cover_sets
        assert fss.fprs == css.fprs
    print("PASS criterion 5: delta=1 cover sets identical to the coarse "
          "formulation on 50 random instances", flush=True)


# ---------------------------------------------------------------------------
# 6. One hundred random hash functions change nothing


def test_criterion_06_random_hash_functions_are_inert(tmp_path):
    seed = 11
    ds = generate_corpus(600, seed=seed, domains=HIGH_CARDINALITY_DOMAINS)
    corpus = ds.corpus

    def base_registry():
        reg = Registry()
        reg.add_all(builtin_validators())
        reg.add_all(infer_patterns(corpus, 25))
        reg.add_space(ds.space)
        for fn in sample_centroids(corpus, ds.space, 25, seed + 1):
            if fn.id not in reg:
                reg.add(fn)
        for fn in ds.score_fns:
            reg.add(fn)
        return reg

    reg0 = base_registry()
    reg1 = base_registry()
    for i in range(100):
        reg1.add(make_random_hash_fn(1000 + i))

    kept0 = assess_all(list(enumerate_candidates(reg0.functions(), GridSpec())),
                       corpus, reg0)
    kept1 = assess_all(list(enumerate_candidates(reg1.functions(), GridSpec())),
                       corpus, reg1)
    assert not any(a.sdc.fn_id.startswith("hash:") for a in kept1)
    assert [a.sdc for a in kept0] == [a.sdc for a in kept1]

    synth = build_synthetic_corpus(corpus, seed=seed + 2)
    synth_ids = [sc.id for sc in synth]
    sel = SelectionConfig(seed=seed + 3)
    noisy, _ = inject_errors(corpus, {}, 0.10, seed + 4)
    reports = []
    for kept, reg in ((kept0, reg0), (kept1, reg1)):
        stats = build_candidate_stats(kept, synth, len(corpus), reg)
        outcome = run_selection(stats, sel, synth_ids=synth_ids)
        chosen = set(outcome.selected_ids)
        ruleset = compile_ruleset([a.sdc for a in kept if a.sdc.id in chosen])
        dets = detect_corpus(ruleset, noisy, reg)
        path = tmp_path / f"report-{len(reports)}.jsonl"
        save_report(dets, str(path), meta={"experiment": "hash-robustness"})
        reports.append(path)
    assert read_bytes(reports[0]) == read_bytes(reports[1])
    print(f"PASS criterion 6: 100 hash functions left all {len(kept0)} "
          f"survivors and the detection report byte-identical", flush=True)


# ---------------------------------------------------------------------------
# 7. Compiled inference is exact and saves precondition work


ACC_VOCAB = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]


def acceptance_registry():
    coords = {
        "alpha": (0, 0), "bravo": (1, 0), "charlie": (0, 1), "delta": (3, 3),
        "echo": (4, 3), "foxtrot": (3, 4), "golf": (8, 8), "hotel": (9, 8),
    }
    space = EmbeddingSpace(
        2, {t: np.array(xy, dtype=float) for t, xy in coords.items()}, id="acc2d"
    )
    reg = Registry()
    reg.add_space(space)
    reg.add(make_embedding_fn(space, "alpha"))
    reg.add(make_embedding_fn(space, "golf"))
    reg.add(make_score_table_fn("acc", {
        "alpha": 1.0, "bravo": 0.9, "charlie": 0.8, "delta": 0.5,
        "echo": 0.4, "foxtrot": 0.3, "golf": 0.1, "hotel": 0.05,
    }))
    reg.add(make_random_hash_fn(77))
    return reg


def test_criterion_07_compiled_inference_is_exact_and_cheaper(precondition_counts):
    reg = acceptance_registry()
    fn_ids = [fn.id for fn in reg.functions()]
    rng = random.Random(707)
    merged_pairs = 0
    for i in range(1000):
        sdcs = []
        for _ in range(rng.randint(1, 8)):
            d_in = rng.choice([0.3, 0.5, 1.0, 1.5, 2.0])
            s = make_sdc(
                rng.choice(fn_ids),
                d_in,
                d_in + rng.choice([0.0, 0.5, 1.0, 2.0]),
                rng.choice([0.5, 0.7, 0.9, 1.0]),
            )
            sdcs.append(dataclasses.replace(s, confidence=round(rng.uniform(0.5, 0.99), 6)))
        column = Column(
            id=f"acc-{i:04d}",
            values=tuple(rng.choices(ACC_VOCAB + ["zulu", "yankee", "xx-1"],
                                     k=rng.randint(1, 12))),
        )
        ruleset = compile_ruleset(sdcs)
        precondition_counts.clear()
        c_naive = Counter()
        got = detect_errors(ruleset, column, reg)
        want = detect_errors_naive(sdcs, column, reg, counts=c_naive)
        assert got == want
        if len(ruleset.precondition_groups) < len(sdcs):
            assert precondition_counts["preconditions"] < c_naive["preconditions"]
            merged_pairs += 1
        else:
            assert precondition_counts["preconditions"] == c_naive["preconditions"]
    assert merged_pairs > 0
    print(f"PASS criterion 7: compiled == naive on 1000 rulesets; strictly "
          f"fewer precondition evaluations on the {merged_pairs} with shared "
          f"groups", flush=True)


# ---------------------------------------------------------------------------
# 8. Desk-scale benchmark beats the z-score baseline


def test_criterion_08_benchmark_beats_zscore_baseline():
    t0 = time.perf_counter()
    seed = 5
    ds = generate_corpus(2000, seed=seed)
    train, held = sample_columns(ds.corpus, 400, seed)

    reg = Registry()
    reg.add_all(builtin_validators())
    reg.add_all(infer_patterns(train, 25))
    reg.add_space(ds.space)
    for fn in sample_centroids(train, ds.space, 300, seed + 1):
        if fn.id not in reg:
            reg.add(fn)
    for fn in ds.score_fns:
        reg.add(fn)

    kept = assess_all(list(enumerate_candidates(reg.functions(), GridSpec())),
                      train, reg)
    synth = build_synthetic_corpus(train, seed=seed + 2)
    stats = build_candidate_stats(kept, synth, len(train), reg)
    outcome = run_selection(stats, SelectionConfig(seed=seed + 3),
                            synth_ids=[sc.id for sc in synth])
    chosen = set(outcome.selected_ids)
    ruleset = compile_ruleset([a.sdc for a in kept if a.sdc.id in chosen])

    noisy, truth = inject_errors(held, {}, rate=0.10, seed=seed + 4)
    dets = detect_corpus(ruleset, noisy, reg)
    points = pr_curve(dets, truth)
    auc = pr_auc(points)
    _, best_auc, _ = best_zscore_baseline(reg.functions(), noisy, truth)
    elapsed = time.perf_counter() - t0

    assert points, "no detections at all"
    assert points[0].precision >= 0.8 and points[0].recall > 0
    assert auc > best_auc
    assert elapsed < 900
    print(f"PASS criterion 8: PR-AUC {auc:.4f} > best z-score baseline "
          f"{best_auc:.4f} (margin {auc - best_auc:+.4f}); top band precision "
          f"{points[0].precision:.3f} at recall {points[0].recall:.3f}; "
          f"{len(chosen)} constraints selected; {elapsed:.0f}s", flush=True)


# ---------------------------------------------------------------------------
# 9. Scoring arithmetic on hand-checked instances


def det(column_id, index, conf):
    return Detection(column_id=column_id, value_index=index, value="v",
                     confidence=conf, sdc_id="sdc-x", explanation="")


def test_criterion_09_scoring_matches_hand_computation():
    # perfect report: every detection is a true error, all errors found
    truth = {"c0": {0, 2}}
    perfect = [det("c0", 0, 0.9), det("c0", 2, 0.8)]
    assert pr_auc(pr_curve(perfect, truth)) == 1.0

    # no point reaches the precision floor
    junk = [det("c0", 1, 0.9), det("c0", 3, 0.8)]
    assert f1_at_precision(pr_curve(junk, truth), 0.8) == 0.0

    # four detections, three true, worked by hand
    truth = {"c0": {0, 2}, "c1": {1}}
    report = [det("c0", 0, 0.95), det("c0", 2, 0.90),
              det("c0", 4, 0.85), det("c1", 1, 0.80)]
    points = pr_curve(report, truth)
    expect = [(0.95, 1.0, 1 / 3), (0.90, 1.0, 2 / 3),
              (0.85, 2 / 3, 2 / 3), (0.80, 3 / 4, 1.0)]
    assert len(points) == 4
    for got, (thr, prec, rec) in zip(points, expect):
        assert got.threshold == pytest.approx(thr, abs=1e-9)
        assert got.precision == pytest.approx(prec, abs=1e-9)
        assert got.recall == pytest.approx(rec, abs=1e-9)
    assert pr_auc(points) == pytest.approx(65 / 72, abs=1e-9)
    assert f1_at_precision(points, 0.8) == pytest.approx(0.8, abs=1e-9)
    assert f1_at_precision(points, 0.7) == pytest.approx(2 * 0.75 / 1.75, abs=1e-9)
    print("PASS criterion 9: perfect AUC = 1, empty band f1 = 0, hand "
          "instance reproduced to 1e-9 (AUC 65/72)", flush=True)


# ---------------------------------------------------------------------------
# 10. A 500-constraint store stays fast at detection time


def test_criterion_10_store_detection_speed(tmp_path):
    from sdc.select import read_store, write_store

    reg = Registry()
    for i in range(125):
        reg.add(make_random_hash_fn(2000 + i))
    sdcs = []
    combos = [(0.8, 0.9, 0.6), (0.8, 0.95, 0.8), (0.9, 0.95, 0.5), (0.9, 0.99, 0.7)]
    for j, fn in enumerate(reg.functions()):
        for d_in, d_out, m in combos:
            s = make_sdc(fn.id, d_in, d_out, m)
            sdcs.append(dataclasses.replace(s, confidence=0.9 + (j % 10) * 1e-4))
    assert len(sdcs) == 500
    store_path = tmp_path / "store.json"
    write_store(str(store_path), sdcs, reg)
    loaded, loaded_reg = read_store(str(store_path))
    assert len(loaded) == 500

    corpus = generate_random_string_corpus(100, seed=42)
    ruleset = compile_ruleset(loaded)
    t0 = time.perf_counter()
    report = detect_corpus(ruleset, corpus, loaded_reg)
    per_column = (time.perf_counter() - t0) / len(corpus)
    assert per_column < 0.2
    print(f"PASS criterion 10: 500-constraint store, {per_column * 1e3:.1f}ms "
          f"per column ({len(report)} detections over {len(corpus)} columns)",
          flush=True)
