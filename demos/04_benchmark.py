# Desk-scale benchmark against a z-score baseline.
#
# The full pipeline on a 2000-column corpus: learn on 1600 columns,
# select under the default budgets, inject one foreign value into 10%
# of the 400 held-out columns, and compare the ruleset's
# precision-recall curve against the strongest per-function z-score
# outlier detector. Runs in about 10 seconds on a two-core machine.
#
# The z-score baseline gets a generous deal: it may pick, per run,
# whichever domain function produces the best PR-AUC on the *test*
# truth, something a real deployment could not do. Beating it anyway is
# the point.

import time

from sdc.assess import assess_all
from sdc.candidates import GridSpec, enumerate_candidates
from sdc.corpus import sample_columns
from sdc.datagen import generate_corpus
from sdc.domain_fns import (
    Registry,
    builtin_validators,
    infer_patterns,
    sample_centroids,
)
from sdc.evaluation import best_zscore_baseline, inject_errors, pr_auc, pr_curve
from sdc.infer import compile_ruleset, detect_corpus
from sdc.select import SelectionConfig, run_selection
from sdc.synth import build_candidate_stats, build_synthetic_corpus

SEED = 5
t0 = time.perf_counter()

dataset = generate_corpus(2000, seed=SEED)
train, held = sample_columns(dataset.corpus, 400, SEED)
print(f"{len(train)} training columns, {len(held)} held out")

registry = Registry()
registry.add_all(builtin_validators())
registry.add_all(infer_patterns(train, top_k=25))
registry.add_space(dataset.space)
for fn in sample_centroids(train, dataset.space, k=300, seed=SEED + 1):
    if fn.id not in registry:
        registry.add(fn)
for fn in dataset.score_fns:
    registry.add(fn)
print(f"{len(registry)} domain functions")

kept = assess_all(enumerate_candidates(registry.functions(), GridSpec()),
                  train, registry)
print(f"{len(kept)} constraints survived assessment "
      f"({time.perf_counter() - t0:.0f}s)")

synth = build_synthetic_corpus(train, seed=SEED + 2)
stats = build_candidate_stats(kept, synth, len(train), registry)
outcome = run_selection(stats, SelectionConfig(seed=SEED + 3),
                        synth_ids=[sc.id for sc in synth])
chosen = [a for a in kept if a.id in set(outcome.selected_ids)]
print(f"selected {len(chosen)} constraints, LP objective "
      f"{outcome.lp_objective:.0f}, summed FPR {outcome.sum_fpr:.4f} "
      f"({time.perf_counter() - t0:.0f}s)")

noisy, truth = inject_errors(held, {}, rate=0.10, seed=SEED + 4)
report = detect_corpus(compile_ruleset(chosen), noisy, registry)
points = pr_curve(report, truth)
auc = pr_auc(points)

best_fn, best_auc, all_aucs = best_zscore_baseline(
    registry.functions(), noisy, truth)

print(f"\n{sum(len(v) for v in truth.values())} injected errors, "
      f"{len(report)} detections")
print("  threshold  precision  recall")
for p in points[:8]:
    print(f"  {p.threshold:9.4f}  {p.precision:9.3f}  {p.recall:6.3f}")
if len(points) > 8:
    print(f"  ... {len(points) - 8} more bands")

print(f"\nruleset PR-AUC:          {auc:.4f}")
print(f"best z-score baseline:   {best_auc:.4f}  (function {best_fn})")
top = sorted(all_aucs.items(), key=lambda kv: -kv[1])[:3]
for fn_id, a in top:
    print(f"  baseline {fn_id}: {a:.4f}")
print(f"\ntotal {time.perf_counter() - t0:.0f}s")
