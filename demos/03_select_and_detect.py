# Selecting a budgeted ruleset and catching real errors.
#
# Demo 02 ends with ten thousand surviving constraints. Shipping all of
# them would be slow and, worse, their false positives add up. This
# script runs the selection stage: score every survivor against a
# synthetic error corpus, solve an LP relaxation of the budgeted
# maximum-coverage problem, round it, and then turn the chosen
# constraints loose on held-out columns with injected errors.

import time

from sdc.assess import assess_all
from sdc.candidates import GridSpec, enumerate_candidates
from sdc.corpus import filter_columns, sample_columns
from sdc.datagen import generate_corpus
from sdc.domain_fns import (
    Registry,
    builtin_validators,
    infer_patterns,
    sample_centroids,
)
from sdc.evaluation import inject_errors, metrics_summary, pr_curve
from sdc.infer import compile_ruleset, detect_corpus
from sdc.select import SelectionConfig, run_selection
from sdc.synth import build_candidate_stats, build_synthetic_corpus

t0 = time.perf_counter()

# ---------------------------------------------------------------------------
# Learn survivors on a training split, as in demo 02 (condensed).

dataset = generate_corpus(800, seed=3)
corpus = filter_columns(dataset.corpus)
train, held = sample_columns(corpus, 100, seed=1)
print(f"{len(train)} training columns, {len(held)} held out")

registry = Registry()
registry.add_all(builtin_validators())
registry.add_all(infer_patterns(train, top_k=15))
registry.add_space(dataset.space)
for fn in sample_centroids(train, dataset.space, k=40, seed=4):
    if fn.id not in registry:
        registry.add(fn)
for fn in dataset.score_fns:
    registry.add(fn)

kept = assess_all(enumerate_candidates(registry.functions(), GridSpec()),
                  train, registry)
print(f"{len(kept)} constraints survived assessment")

# ---------------------------------------------------------------------------
# Synthetic errors: splice one value from a random donor column into
# each training column. A constraint "detects" a synthetic column when
# it flags the planted value and nothing else; its false-positive rate
# is how often it flags anything in the clean corpus. Constraints that
# detect the same columns with the same FPR and confidence are
# interchangeable in selection, so the stats come one per such
# detection class.

synth = build_synthetic_corpus(train, seed=5)
stats = build_candidate_stats(kept, synth, len(train), registry)
detecting = sum(st.members for st in stats)
print(f"{len(synth)} synthetic error columns; "
      f"{detecting} constraints detect at least one, in {len(stats)} detection classes")

# ---------------------------------------------------------------------------
# Selection: maximize the number of synthetic columns covered subject
# to a size budget and a summed-FPR budget. The LP relaxation gives an
# upper bound and the randomized rounding gives the actual set, with
# the classic (1 - 1/e) guarantee in expectation.

config = SelectionConfig(b_size=500, b_fpr=0.1, delta=0.001, seed=6)
outcome = run_selection(stats, config, synth_ids=[sc.id for sc in synth])
print(f"LP objective {outcome.lp_objective:.1f} (upper bound on coverage); "
      f"rounded set covers {outcome.rounded_objective}")
print(f"selected {len(outcome.selected_ids)} constraints, "
      f"summed FPR {outcome.sum_fpr:.4f} (budget {config.b_fpr})")

chosen = [a for a in kept if a.id in set(outcome.selected_ids)]
for s in chosen[:5]:
    fn = registry.get(s.fn_id)
    print(f"  {s.id} conf={s.confidence:.3f}  {fn.describe()} "
          f"d_in={s.d_in:g} d_out={s.d_out:g} m={s.m:g}")
if len(chosen) > 5:
    print(f"  ... and {len(chosen) - 5} more")

# ---------------------------------------------------------------------------
# Detection on unseen columns. Inject one foreign value into 10% of the
# held-out columns, then ask the compiled ruleset to find them. The
# compiler groups constraints that share (function, d_in, m) so each
# precondition is evaluated once per column.

noisy, truth = inject_errors(held, {}, rate=0.10, seed=7)
ruleset = compile_ruleset(chosen)
report = detect_corpus(ruleset, noisy, registry)
n_injected = sum(len(v) for v in truth.values())
print(f"\ninjected {n_injected} errors into {len(held)} held-out columns; "
      f"{len(report)} detections")

for d in report[:6]:
    hit = d.value_index in truth.get(d.column_id, set())
    print(f"  [{'hit ' if hit else 'miss'}] {d.column_id}[{d.value_index}] "
          f"conf={d.confidence:.3f}")
    print(f"         {d.explanation}")

points = pr_curve(report, truth)
summary = metrics_summary(points)
print(f"\nPR-AUC {summary['pr_auc']:.3f}, best F1 at precision >= 0.8: "
      f"{summary['f1_at_p08']:.3f}")
print("  threshold  precision  recall")
for p in points:
    print(f"  {p.threshold:9.4f}  {p.precision:9.3f}  {p.recall:6.3f}")
print(f"total {time.perf_counter() - t0:.1f}s")
