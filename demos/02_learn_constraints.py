# Learning constraints from a corpus.
#
# A constraint is a triple (precondition, trigger, confidence) built on
# one domain function f with thresholds (d_in, d_out, m):
#
#   precondition  at least a fraction m of the column is within d_in of f
#   trigger       flag any value farther than d_out
#   confidence    a lower bound on the precision of that trigger
#
# The learner enumerates a grid of candidates over every function and
# keeps only those that survive four statistical gates on a corpus of
# clean columns: enough covered columns, a large effect size, a small
# p-value, and a high confidence lower bound. This script runs that
# funnel on a synthetic 800-column corpus and inspects the survivors.

import time

from sdc.assess import assess_all, min_coverage_for
from sdc.candidates import GridSpec, candidate_count, enumerate_candidates
from sdc.corpus import filter_columns
from sdc.datagen import generate_corpus
from sdc.domain_fns import (
    Registry,
    builtin_validators,
    infer_patterns,
    sample_centroids,
)

# ---------------------------------------------------------------------------
# A corpus of 800 typed columns (dates, urls, colors, cities, ...) with
# the numeric ones filtered out, exactly as the pipeline would.

dataset = generate_corpus(800, seed=3)
corpus = filter_columns(dataset.corpus)
print(f"corpus: {len(corpus)} columns "
      f"({len(dataset.corpus) - len(corpus)} numeric columns skipped)")

# The registry holds every domain function the learner may use: the
# built-in validators, patterns inferred from this corpus, embedding
# centroids sampled from it, and the external score table.

registry = Registry()
registry.add_all(builtin_validators())
registry.add_all(infer_patterns(corpus, top_k=15))
registry.add_space(dataset.space)
for fn in sample_centroids(corpus, dataset.space, k=40, seed=4):
    if fn.id not in registry:
        registry.add(fn)
for fn in dataset.score_fns:
    registry.add(fn)

grid = GridSpec()
n_cands = candidate_count(registry.functions(), grid)
print(f"registry: {len(registry)} functions -> {n_cands} candidate constraints")

# ---------------------------------------------------------------------------
# Assess every candidate. The coverage gate alone kills most of them:
# at confidence threshold 0.9 a candidate needs this many covered
# columns before its Wilson lower bound can possibly reach 0.9, so
# anything rarer fails before any statistic is computed.

print(f"minimum coverage for confidence 0.9: {min_coverage_for(0.9)} columns")

gate_counts = {}
t0 = time.perf_counter()
kept = assess_all(
    enumerate_candidates(registry.functions(), grid),
    corpus,
    registry,
    gate_counts=gate_counts,
)
print(f"assessed in {time.perf_counter() - t0:.1f}s; gate funnel:")
for key in ("total", "failed_coverage", "passed_coverage",
            "passed_effect", "passed_significance", "passed_confidence"):
    print(f"  {key:22s} {gate_counts.get(key, 0)}")
print(f"surviving constraints: {len(kept)}")

# ---------------------------------------------------------------------------
# What does a survivor look like? Each one carries its contingency
# table over the corpus: columns split by covered/not and by
# triggered/not. A good constraint covers many columns and triggers in
# almost none of them, while triggering freely outside its domain.

print("\nthree survivors, highest confidence first:")
for a in sorted(kept, key=lambda a: -a.confidence)[:3]:
    fn = registry.get(a.fn_id)
    t = a.table
    print(f"  {a.id}  conf={a.confidence:.3f}")
    print(f"    {fn.describe()}, d_in={a.d_in:g}, d_out={a.d_out:g}, m={a.m:g}")
    print(f"    covered: {t.covered_triggered + t.covered_not_triggered} columns "
          f"({t.covered_triggered} triggered), "
          f"not covered: {t.notcovered_triggered + t.notcovered_not_triggered} "
          f"({t.notcovered_triggered} triggered)")
    print(f"    effect size h={a.h:.2f}, p={a.p:.2e}")

# The random-hash family from demo 01 is worth re-running through this
# funnel: its distances carry no signal about any column, so not one of
# its candidates should appear in `kept`. The acceptance tests add one
# hundred of them and check exactly that.
hash_survivors = [a for a in kept if a.fn_id.startswith("hash:")]
print(f"\nhash-function survivors: {len(hash_survivors)} (registry had none; "
      f"see the robustness test for the adversarial version)")
