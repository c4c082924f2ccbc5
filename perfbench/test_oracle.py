"""The benchmark's output checks accept the program's real outputs and
reject deliberately corrupted ones."""

import copy
import random

import pytest

import oracle
from inputs import normalize, plant_errors
from sdc.assess import assess_all
from sdc.candidates import GridSpec, Sdc, enumerate_candidates
from sdc.corpus import Column, Corpus
from sdc.domain_fns import Registry, builtin_validators, make_random_hash_fn, make_score_table_fn
from sdc.evaluation import pr_auc, pr_curve
from sdc.infer import Detection, compile_ruleset, detect_corpus

FRUITS = ["apple", "pear", "plum", "fig", "lime"]
OTHER = ["car", "bus", "tram", "ship", "bike"]
CFG = {"z": 1.65, "h_min": 0.8, "p_max": 0.05, "c_thres": 0.9}


def _columns(seed: int = 0):
    """30 fruit columns the score table covers and 30 it does not."""
    rng = random.Random(seed)
    cols = [(f"f{i:02d}", [rng.choice(FRUITS) for _ in range(10)]) for i in range(30)]
    cols += [(f"o{i:02d}", [rng.choice(OTHER) for _ in range(10)]) for i in range(30)]
    return cols


@pytest.fixture(scope="module")
def learned():
    registry = Registry()
    registry.add(make_score_table_fn("fruit", {v: 1.0 for v in FRUITS}))
    registry.add_all(builtin_validators()[:2])
    columns = _columns()
    corpus = Corpus([Column(id=cid, values=tuple(vals)) for cid, vals in columns])
    gates: dict = {}
    kept = assess_all(enumerate_candidates(registry.functions(), GridSpec()), corpus, registry,
                      gate_counts=gates)
    candidates = [(c.id, c.fn_id, c.d_in, c.d_out, c.m)
                  for c in enumerate_candidates(registry.functions(), GridSpec())]
    rules = [a.to_record() for a in kept]
    stats = {"gates": gates, "surviving": len(kept)}
    return registry, columns, candidates, rules, stats


def _screen(learned, rules):
    registry, columns, candidates, _, _ = learned
    return oracle.check_screening(rules, candidates, columns, registry, CFG, random.Random(0),
                                  n_fns=10, per_fn=10_000)


def test_screening_accepts_program_output(learned):
    rules = learned[3]
    assert rules, "the fixture must have survivors"
    assert _screen(learned, rules) == len(learned[2])


def test_screening_rejects_altered_table_count(learned):
    rules = copy.deepcopy(learned[3])
    rules[0]["table"][1] -= 1
    rules[0]["table"][3] += 1
    with pytest.raises(oracle.CheckFailed, match="recorded table"):
        _screen(learned, rules)


def test_screening_rejects_altered_confidence(learned):
    rules = copy.deepcopy(learned[3])
    rules[-1]["confidence"] += 1e-6
    with pytest.raises(oracle.CheckFailed, match="Wilson"):
        _screen(learned, rules)


def test_screening_rejects_a_dropped_survivor(learned):
    with pytest.raises(oracle.CheckFailed, match="passes every gate"):
        _screen(learned, learned[3][1:])


def test_funnel(learned):
    stats, n_rules = learned[4], len(learned[3])
    oracle.check_funnel(stats, n_rules)
    with pytest.raises(oracle.CheckFailed, match="rules.jsonl has"):
        oracle.check_funnel(stats, n_rules - 1)
    bad = copy.deepcopy(stats)
    bad["gates"]["passed_effect"] = bad["gates"]["passed_coverage"] + 1
    with pytest.raises(oracle.CheckFailed, match="increases"):
        oracle.check_funnel(bad, n_rules)


def _store(learned, k=4):
    registry, _, _, rules, _ = learned
    sdcs = [{key: r[key] for key in ("id", "fn_id", "d_in", "d_out", "m", "confidence")}
            for r in rules[:k]]
    return {"sdcs": sdcs, "registry": registry.to_manifest()}


def test_store_check(learned):
    rules = learned[3]
    store = _store(learned)
    oracle.check_store(store, rules)
    store["sdcs"][0]["d_out"] += 0.01
    with pytest.raises(oracle.CheckFailed, match="d_out differs"):
        oracle.check_store(store, rules)
    store = _store(learned)
    store["sdcs"][0]["id"] = "sdc-unknown"
    with pytest.raises(oracle.CheckFailed, match="not a survivor"):
        oracle.check_store(store, rules)


def test_no_hash_survivor():
    fn = make_random_hash_fn(3)
    manifest = {"functions": [{"id": fn.id, "family": fn.family, "params": {"seed": 3}}]}
    oracle.check_no_hash_survivor([{"fn_id": "score:fruit"}], manifest)
    with pytest.raises(oracle.CheckFailed, match="random-hash"):
        oracle.check_no_hash_survivor([{"fn_id": fn.id}], manifest)


@pytest.fixture(scope="module")
def detected(learned):
    registry = learned[0]
    store = _store(learned, k=len(learned[3]))
    domain_of = {cid: cid[0] for cid, _ in _columns(1)}
    clean = [Column(id=cid, values=tuple(vals)) for cid, vals in _columns(1)]
    dirty, truth = plant_errors(clean, domain_of, 0.5, random.Random(1))
    ruleset = compile_ruleset(Sdc(**s) for s in store["sdcs"])
    report = [d.to_record() for d in detect_corpus(ruleset, Corpus(dirty), registry)]
    assert report
    return store, registry, [(c.id, list(c.values)) for c in dirty], report, truth


def test_report_check_accepts_program_report(detected):
    store, registry, columns, report, _ = detected
    expected = oracle.naive_detections(store["sdcs"], registry, columns)
    oracle.check_report(report, expected, [cid for cid, _ in columns])


def test_report_check_rejects_dropped_and_extra_detections(detected):
    store, registry, columns, report, _ = detected
    expected = oracle.naive_detections(store["sdcs"], registry, columns)
    ids = [cid for cid, _ in columns]
    with pytest.raises(oracle.CheckFailed, match="missing"):
        oracle.check_report(report[:-1], expected, ids)
    extra = dict(report[0], value_index=report[0]["value_index"] + 1)
    with pytest.raises(oracle.CheckFailed, match="extra"):
        oracle.check_report(report + [extra], expected, ids)


def test_pr_auc_matches_program_and_rejects_wrong_value(detected):
    _, _, _, report, truth = detected
    own = oracle.pr_auc_exact(report, truth)
    program = pr_auc(pr_curve([Detection.from_record(r) for r in report],
                              {cid: {i} for cid, i in truth.items()}))
    oracle.check_auc(program, own)
    with pytest.raises(oracle.CheckFailed, match="PR-AUC"):
        oracle.check_auc(program + 1e-6, own)


def test_pr_auc_worked_example():
    # Points (recall, precision): (1/3, 1), (2/3, 1), (2/3, 2/3), (1, 3/4).
    truth = {"c0": 0, "c1": 1, "c2": 2}
    report = [{"column_id": c, "value_index": i, "confidence": p}
              for c, i, p in [("c0", 0, 0.95), ("c2", 2, 0.9), ("c0", 4, 0.85), ("c1", 1, 0.8)]]
    assert oracle.pr_auc_exact(report, truth) == pytest.approx(65 / 72, abs=1e-15)


def test_planted_errors_are_foreign_and_absent():
    columns = [Column(id=cid, values=tuple(vals)) for cid, vals in _columns(2)]
    domain_of = {c.id: c.id[0] for c in columns}
    dirty, truth = plant_errors(columns, domain_of, 1.0, random.Random(2))
    assert len(truth) == len(columns)
    for before, after in zip(columns, dirty):
        pos = truth[after.id]
        planted = after.values[pos]
        assert after.values[:pos] + after.values[pos + 1:] == before.values
        assert normalize(planted) not in {normalize(v) for v in before.values}
        assert (planted in FRUITS) != (after.id[0] == "f")
