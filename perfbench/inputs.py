"""Workload definitions and input generation for the benchmark.

Corpora come from ``sdc.datagen``; the split into training and held-out
columns and the planted errors are made here, so the program under test
only ever sees the files written by ``make_inputs``. The learn corpus
and its split are the same in every run; the run's ``--seed`` draws the
planted errors and, on ``lake``, the scanned corpus.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

from sdc.corpus import Column
from sdc.datagen import DOMAINS, HIGH_CARDINALITY_DOMAINS, generate_corpus, write_dataset

# Digest of a fixed canary generation (see ``datagen_digest``). A change
# to ``sdc.datagen`` changes every workload's inputs; the benchmark then
# refuses to run instead of silently measuring a different workload.
DATAGEN_DIGEST = "c5e204c84659a1410ce6fca6fea9baaa97b5ded53f7bfdfa7c082e8b7f4cd225"

# The seed the program itself gets (centroid draw, synthetic corpus,
# rounding). It is fixed: which word categories the centroid draw hits
# decides how many domains are detectable at all, and letting that vary
# with the run seed made PR-AUC swing by a quarter between runs.
PROGRAM_SEED = 0

# Datagen seed of every learn corpus. With the run seed in its place, the
# number of survivors, and with it the size of the selection LP, changed
# from seed to seed, and so did the time of the learning commands.
LEARN_SEED = 1

SCORE_TABLE = {"path": "scores-airport.jsonl", "type_name": "airport", "default_score": 0.0}


@dataclass(frozen=True)
class CorpusSpec:
    """``per_domain`` generated columns for each domain, of which
    ``heldout_per_domain`` are split off for detection."""

    domains: tuple[str, ...]
    per_domain: int
    heldout_per_domain: int = 0
    # Generated column lengths (datagen's defaults are 10 and 40).
    min_len: int = 10
    max_len: int = 40


@dataclass(frozen=True)
class Workload:
    name: str
    learn: CorpusSpec  # corpus the store is learned from
    centroids: int
    random_hashes: int
    # Corpus scanned by the timed ``sdc infer``; None means the learn
    # corpus's held-out split.
    lake: CorpusSpec | None = None
    # Share of scanned columns that receive one planted error.
    error_rate: float = 1.0

    @property
    def timed_learning(self) -> bool:
        """``sdc gen`` and ``sdc select`` are timed unless the workload
        scans a corpus of its own; then they run during set-up."""
        return self.lake is None


WORKLOADS = {
    # Mixed-domain desk corpus with many centroids: selection dominates.
    "desk": Workload(
        name="desk",
        learn=CorpusSpec(tuple(DOMAINS), per_domain=35, heldout_per_domain=7,
                         min_len=5, max_len=10),
        centroids=30,
        random_hashes=0,
    ),
    # High-cardinality domains, few centroids, 100 adversarial hashes:
    # screening and per-value function evaluation dominate.
    "unique": Workload(
        name="unique",
        learn=CorpusSpec(tuple(HIGH_CARDINALITY_DOMAINS), per_domain=35, heldout_per_domain=7,
                         min_len=8, max_len=16),
        centroids=10,
        random_hashes=100,
    ),
    # A store learned during set-up scans a large unseen corpus:
    # detection, corpus loading and start-up dominate.
    "lake": Workload(
        name="lake",
        learn=CorpusSpec(tuple(DOMAINS), per_domain=26, min_len=8, max_len=16),
        centroids=10,
        random_hashes=0,
        lake=CorpusSpec(tuple(DOMAINS), per_domain=400),
        error_rate=0.2,
    ),
}


def normalize(value: str) -> str:
    """The program's documented normalization: trimmed, case-folded,
    truncated to 512 characters."""
    return value.strip().casefold()[:512]


def _write_columns(columns, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for col in columns:
            rec = {"id": col.id, "header": col.header, "values": list(col.values)}
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def plant_errors(columns, domain_of: dict, rate: float, rng: random.Random):
    """Insert one foreign value into ``rate`` of each domain's columns.

    The donor value comes from a column of another domain and is absent
    from the target column after normalization, so every planted error
    is detectable in principle. Returns the dirty columns (same order,
    same ids) and the truth as ``{column id: planted index}``.
    """
    by_domain: dict[str, list[int]] = {}
    for i, col in enumerate(columns):
        by_domain.setdefault(domain_of[col.id], []).append(i)
    targets = set()
    for domain in sorted(by_domain):
        idx = by_domain[domain]
        targets.update(rng.sample(idx, round(rate * len(idx))))
    out = list(columns)
    truth: dict[str, int] = {}
    for i in sorted(targets):
        col = columns[i]
        present = {normalize(v) for v in col.values}
        for _ in range(1000):
            donor = columns[rng.randrange(len(columns))]
            value = donor.values[rng.randrange(len(donor.values))]
            if domain_of[donor.id] != domain_of[col.id] and normalize(value) not in present:
                break
        else:
            raise RuntimeError(f"no foreign value found for column {col.id}")
        pos = rng.randrange(len(col.values) + 1)
        out[i] = Column(id=col.id, values=col.values[:pos] + (value,) + col.values[pos:],
                        header=col.header)
        truth[col.id] = pos
    return out, truth


def _generate(spec: CorpusSpec, seed: int):
    return generate_corpus(spec.per_domain * len(spec.domains), seed=seed,
                           domains=list(spec.domains), min_len=spec.min_len,
                           max_len=spec.max_len)


def _split(dataset, spec: CorpusSpec, rng: random.Random):
    """Stratified split: exactly ``heldout_per_domain`` columns of each
    domain are held out, so every seed has the same domain make-up."""
    by_domain: dict[str, list[str]] = {}
    for col in dataset.corpus:
        by_domain.setdefault(dataset.domain_of[col.id], []).append(col.id)
    held = set()
    for domain in sorted(by_domain):
        held.update(rng.sample(sorted(by_domain[domain]), spec.heldout_per_domain))
    train = [c for c in dataset.corpus if c.id not in held]
    heldout = [c for c in dataset.corpus if c.id in held]
    return train, heldout


def make_inputs(workload: Workload, seed: int, work: str) -> dict:
    """Write the workload's inputs under ``work`` and return their paths
    plus the planted-error truth."""
    rng = random.Random(f"{workload.name}:{seed}")
    dataset = _generate(workload.learn, LEARN_SEED)
    paths = write_dataset(dataset, work)  # embedding space and score table
    train, heldout = _split(dataset, workload.learn, random.Random(f"{workload.name}:split"))
    train_path = os.path.join(work, "train.jsonl")
    _write_columns(train, train_path)
    if workload.lake is None:
        scan, domain_of = heldout, dataset.domain_of
    else:
        lake = _generate(workload.lake, rng.randrange(2**31))
        scan, domain_of = list(lake.corpus), lake.domain_of
    dirty, truth = plant_errors(scan, domain_of, workload.error_rate, rng)
    scan_path = os.path.join(work, "scan.jsonl")
    _write_columns(dirty, scan_path)
    os.remove(paths["corpus"])  # only the split files are inputs
    config = {
        "paths": {
            "corpus": "train.jsonl",
            "embeddings": [{"space_id": "toy", "path": "toy-space.txt",
                            "centroids": workload.centroids}],
            "score_tables": [SCORE_TABLE],
        },
        "functions": {"validators": True, "patterns_top_k": 25,
                      "random_hash_count": workload.random_hashes, "random_hash_seed": 1000},
        "out_dir": "out",
        "workers": 1,
        "seed": PROGRAM_SEED,
    }
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    with open(os.path.join(work, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
    return {
        "config": config_path,
        "train": train_path,
        "scan": scan_path,
        "out": os.path.join(work, "out"),
        "truth": truth,
    }


def files_digest(work: str) -> str:
    """SHA-256 over every input file under ``work`` (not its outputs)."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(work)):
        full = os.path.join(work, name)
        if os.path.isfile(full):
            h.update(name.encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def datagen_digest(work: str) -> str:
    """Digest of a canary generation, written under ``work``, that
    touches every domain, the toy embedding space and the score table."""
    write_dataset(generate_corpus(3 * len(DOMAINS), seed=20250414), work)
    return files_digest(work)
