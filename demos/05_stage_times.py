# Stage times and peak memory of the desk-scale benchmark.
#
# Runs demo 04's pipeline (2000 columns, seed 5, 300 centroids, the
# same inputs as the test suite's acceptance criterion 8) one stage at
# a time and prints one JSON line: for each stage its wall time and the
# process's peak RSS when it ended (``getrusage``'s high-water mark, so
# a stage that needs no new memory repeats the figure before it). The
# stages are one evaluation of every function over the training
# columns' distinct values, summed per family; screening
# (``assess_all``); the detection-class stats
# (``build_candidate_stats``); cover-set construction (``build_ilp``);
# the LP; rounding; detection over the held-out columns; and the
# z-score baselines. About 5 seconds on a two-core machine.
#
#     PYTHONPATH=src python demos/05_stage_times.py

import json
import resource
import sys
import time
from collections import defaultdict

from sdc.assess import assess_all
from sdc.candidates import GridSpec, enumerate_candidates
from sdc.corpus import sample_columns
from sdc.datagen import generate_corpus
from sdc.domain_fns import (
    Registry,
    ValueIndex,
    builtin_validators,
    infer_patterns,
    sample_centroids,
)
from sdc.evaluation import best_zscore_baseline, inject_errors, pr_auc, pr_curve
from sdc.infer import compile_ruleset, detect_corpus
from sdc.select import SelectionConfig, build_ilp, randomized_round, solve_lp_relaxation
from sdc.synth import build_candidate_stats, build_synthetic_corpus

SEED = 5
stages = {}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    scale = 2**20 if sys.platform == "darwin" else 2**10
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def timed(name, step, *args):
    t0 = time.perf_counter()
    result = step(*args)
    stages[name] = {"wall_s": time.perf_counter() - t0, "peak_rss_mb": peak_rss_mb()}
    return result


def evaluate(index, fns):
    for fn in fns:
        index.distances(fn)


dataset = generate_corpus(2000, seed=SEED)
train, held = sample_columns(dataset.corpus, 400, SEED)
registry = Registry()
registry.add_all(builtin_validators())
registry.add_all(infer_patterns(train, 25))
registry.add_space(dataset.space)
for fn in sample_centroids(train, dataset.space, 300, SEED + 1):
    if fn.id not in registry:
        registry.add(fn)
for fn in dataset.score_fns:
    registry.add(fn)

index = ValueIndex(train)
by_family = defaultdict(list)
for fn in registry.functions():
    by_family[fn.family].append(fn)
for family, fns in sorted(by_family.items()):
    timed(f"evaluate.{family}", evaluate, index, fns)

kept = timed("assess_all", assess_all,
             list(enumerate_candidates(registry.functions(), GridSpec())), train, registry)
synth = build_synthetic_corpus(train, seed=SEED + 2)
stats = timed("build_candidate_stats", build_candidate_stats, kept, synth, len(train), registry)
problem = timed("cover_sets", build_ilp, stats, SelectionConfig(), [sc.id for sc in synth])
solution = timed("lp", solve_lp_relaxation, problem)
chosen = timed("rounding", randomized_round, solution, SEED + 3)
selected = {problem.candidate_ids[i] for i in chosen.nonzero()[0].tolist()}

noisy, truth = inject_errors(held, {}, rate=0.10, seed=SEED + 4)
report = timed("detection", detect_corpus,
               compile_ruleset([a for a in kept if a.id in selected]), noisy, registry)
_, baseline_auc, _ = timed("zscore_baselines", best_zscore_baseline,
                           registry.functions(), noisy, truth)

print(json.dumps({
    "pipeline": {"columns": 2000, "heldout": 400, "seed": SEED, "centroids": 300},
    "survivors": len(kept),
    "detection_classes": len(stats),
    "selected": len(selected),
    "pr_auc": pr_auc(pr_curve(report, truth)),
    "baseline_pr_auc": baseline_auc,
    "stages": stages,
}, sort_keys=True))
