"""Semantic-domain constraints: learn per-domain value constraints from
a corpus of table columns and apply them to flag erroneous cells.

The pipeline in one breath: enumerate candidate constraints over a set
of domain distance functions (embeddings, patterns, validators, score
tables), keep the ones that pass statistical screening against the
corpus, pick a budgeted subset by LP over a synthetic error benchmark,
then run the survivors over unseen columns to flag outlying values.

The package namespace holds what the README's library quickstart
uses; everything else lives in the submodules (``sdc.assess``,
``sdc.synth``, ``sdc.select``, ``sdc.infer``, ...).
"""

from .assess import assess_all
from .candidates import GridSpec, enumerate_candidates
from .corpus import filter_columns, load_corpus
from .domain_fns import (
    Registry,
    builtin_validators,
    infer_patterns,
    load_embedding_space,
    sample_centroids,
)
from .infer import compile_ruleset, detect_corpus
from .select import SelectionConfig, run_selection

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "Registry",
    "SelectionConfig",
    "assess_all",
    "builtin_validators",
    "compile_ruleset",
    "detect_corpus",
    "enumerate_candidates",
    "filter_columns",
    "infer_patterns",
    "load_corpus",
    "load_embedding_space",
    "run_selection",
    "sample_centroids",
]
