# Tour of the domain-function families.
#
# Every constraint in this library is built on a "domain function": a
# map from a cell value to a distance in [0, inf]. Small distance means
# the value looks like it belongs to the function's domain; large
# distance means it does not. This script walks through the five
# families and prints distances for a handful of values, so you can see
# what the learner has to work with.

from sdc.corpus import Column, Corpus
from sdc.datagen import build_toy_space
from sdc.domain_fns import (
    builtin_validators,
    eval_distance,
    infer_patterns,
    make_embedding_fn,
    make_random_hash_fn,
    make_score_table_fn,
)


def show(fn, values):
    print(f"  {fn.id}  ({fn.describe()})")
    for v in values:
        print(f"    {v!r:32s} -> {eval_distance(fn, v):g}")
    print()


# ---------------------------------------------------------------------------
# 1. Validators: hand-written parsers for machine-readable types.
# Distance is binary, 0 when the value parses and 1 when it does not.

print("validators")
validators = {fn.id: fn for fn in builtin_validators()}
show(validators["validator:date"], ["2024-02-29", "29/02/2024", "2024-13-01", "tuesday"])
show(validators["validator:ipv4"], ["10.0.0.1", "256.1.1.1", "10.0.0"])

# ---------------------------------------------------------------------------
# 2. Patterns: regular expressions inferred from a corpus by
# generalizing character classes. Also binary.

corpus = Corpus([
    Column(id="c0", values=("AB-1234", "CD-5678", "ZZ-0001", "QQ-4242")),
    Column(id="c1", values=("AB-1234", "XY-9999", "KL-3141")),
])
patterns = infer_patterns(corpus, top_k=3)
print(f"patterns inferred from {len(corpus)} columns of ticket codes")
for fn in patterns:
    show(fn, ["AB-1234", "AB-12345", "ab-1234"])

# ---------------------------------------------------------------------------
# 3. Embedding centroids: distance from a fixed centroid token in a
# word-vector space. This is the family that captures open vocabularies
# (colors, cities, weekdays...) where no parser exists.

space = build_toy_space()
fn = make_embedding_fn(space, "january")
print(f"embedding space: {len(space.vectors)} tokens, dimension {space.dimension}")
show(fn, ["march", "october", "tuesday", "red", "not-a-word"])

# A second centroid, to show that distances are geometry, not string
# similarity: "june" is close to "january" in the space but far from
# "maroon".
show(make_embedding_fn(space, "maroon"), ["violet", "june", "seattle"])

# ---------------------------------------------------------------------------
# 4. Score tables: an external model's per-value score s in [0, 1],
# turned into the distance 1 - s. Useful when a semantic-type detector
# already ranks values.

scores = make_score_table_fn("airport", {"lax": 0.98, "jfk": 0.97, "ord": 0.95, "xxx": 0.2})
print("score table (distance = 1 - score, unknown values get the default)")
show(scores, ["lax", "XXX", "narnia"])

# ---------------------------------------------------------------------------
# 5. Random hashes: an adversarial control, not a real family. Each
# seed hashes a value to a uniform distance in [0, 1). A sound learner
# must reject every constraint built on one of these; the test suite
# holds it to that.

fn = make_random_hash_fn(0)
print("random hash (deterministic per value, uniform over values)")
show(fn, ["tuesday", "tuesday", "wednesday", "10.0.0.1"])

# All families share one calling convention, so the assessment and
# inference code never special-cases them. Values are normalized
# (trimmed, casefolded) before the distance is computed, which is why
# 'XXX' above scored like 'xxx'.
print("done.")
