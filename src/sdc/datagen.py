"""Synthetic typed corpora for benchmarks, demos and tests.

Generates desk-scale corpora over ~20 domains: word vocabularies
backed by a toy embedding space (clustered vectors), id/quantity
patterns, validator-friendly formats (dates, urls, uuids, ...) and a
score-table domain. Everything is seeded and deterministic.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import numpy as np

from .corpus import Column, Corpus, save_corpus
from .domain_fns import EmbeddingSpace, ScoreTableFn, make_score_table_fn

MONTHS = [
    "january", "february", "march", "april", "may", "june",
    "july", "august", "september", "october", "november", "december",
]
WEEKDAYS = ["monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday"]
CITIES = [
    "seattle", "boston", "chicago", "denver", "austin", "portland", "miami",
    "atlanta", "dallas", "houston", "phoenix", "detroit", "memphis", "tucson",
    "oakland", "omaha", "tulsa", "fresno", "new york", "san francisco",
]
COLORS = [
    "red", "blue", "green", "yellow", "purple", "orange", "pink", "brown",
    "black", "white", "gray", "violet", "indigo", "maroon", "teal", "cyan",
]
ANIMALS = [
    "cat", "dog", "horse", "cow", "sheep", "goat", "pig", "duck", "goose",
    "rabbit", "deer", "fox", "wolf", "bear", "lion", "tiger", "zebra",
    "camel", "otter", "mole",
]
FRUITS = [
    "apple", "banana", "cherry", "grape", "lemon", "lime", "mango", "peach",
    "pear", "plum", "kiwi", "melon", "papaya", "apricot", "fig", "date",
]
COUNTRIES = [
    "germany", "france", "spain", "italy", "poland", "norway", "sweden",
    "finland", "austria", "belgium", "portugal", "greece", "ireland",
    "denmark", "hungary", "romania", "croatia", "serbia", "estonia", "latvia",
]
AIRPORTS = [
    "jfk", "lax", "ord", "dfw", "den", "sfo", "sea", "atl", "bos", "mia",
    "phx", "iah", "mco", "ewr", "msp", "dtw", "phl", "lga", "bwi", "slc",
    "san", "tpa", "pdx", "stl", "hnl",
]
QUANTITY_UNITS = ["patients", "oz", "items", "days", "users", "files", "rows", "nodes"]
URL_WORDS = ["docs", "blog", "wiki", "data", "shop", "news", "mail", "code", "img", "api"]
EMAIL_DOMAINS = ["example", "mailbox", "acme", "contoso", "initech"]

# Two high-cardinality vocabularies (~150 tokens each). A random
# function of the value can memorize a 7..25-token vocabulary by luck
# (odds of hashing 80% of v tokens below 0.5 are ~6% at v=7, ~0.6% at
# v=20, per function), so robustness experiments that add many random
# functions need domains where that chance is negligible (~1e-12 at
# v=150).
_DIRECTIONS = ["north", "south", "east", "west", "upper", "lower", "old", "new", "port"]
STATIONS = [f"{d}-{c}" for d in _DIRECTIONS for c in CITIES if " " not in c]
_PRODUCT_ADJ = [
    "big", "small", "fast", "slow", "bright", "dark",
    "heavy", "light", "round", "flat", "soft", "hard",
]
_PRODUCT_NOUN = [
    "chair", "table", "lamp", "desk", "shelf", "stool",
    "bench", "crate", "rack", "cart", "bin", "tray",
]
PRODUCTS = [f"{a}-{n}" for a in _PRODUCT_ADJ for n in _PRODUCT_NOUN]

WORD_CATEGORIES = {
    "months": MONTHS,
    "weekdays": WEEKDAYS,
    "cities": CITIES,
    "colors": COLORS,
    "animals": ANIMALS,
    "fruits": FRUITS,
    "countries": COUNTRIES,
    "stations": STATIONS,
    "products": PRODUCTS,
}

DOMAINS = [
    "months", "weekdays", "cities", "colors", "animals", "fruits", "countries",
    "stations", "products",
    "movie_ids", "quantities", "codes", "phones",
    "dates", "timestamps", "urls", "emails", "ipv4", "uuids",
    "credit_cards", "upcs", "airports",
]

# Domains whose values are (near-)unique strings: formats, identifiers
# and the high-cardinality vocabularies. On these a random hash cannot
# reach the coverage a pre-condition needs, so adversarial functions
# are always screened out.
HIGH_CARDINALITY_DOMAINS = [
    "stations", "products",
    "movie_ids", "quantities", "codes", "phones",
    "dates", "timestamps", "urls", "emails", "ipv4", "uuids",
    "credit_cards", "upcs",
]


def build_toy_space(seed: int = 7, dimension: int = 16, spread: float = 0.25) -> EmbeddingSpace:
    """Word vectors clustered per category: each category sits around a
    far-apart center, tokens scatter tightly around it."""
    rng = np.random.default_rng(seed)
    vectors: dict[str, np.ndarray] = {}
    for name in sorted(WORD_CATEGORIES):
        center = rng.normal(size=dimension)
        center *= 10.0 / np.linalg.norm(center)
        for token in WORD_CATEGORIES[name]:
            for part in token.split():
                if part not in vectors:
                    vectors[part] = center + rng.normal(scale=spread, size=dimension)
    return EmbeddingSpace(dimension=dimension, vectors=vectors, id="toy")


def save_space(space: EmbeddingSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for token in sorted(space.vectors):
            vec = " ".join(f"{x:.6f}" for x in space.vectors[token])
            fh.write(f"{token} {vec}\n")


def _luhn_check_digit(digits: str) -> str:
    total = 0
    for i, ch in enumerate(reversed(digits)):
        d = ord(ch) - 48
        if i % 2 == 0:  # positions counted with the check digit appended
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return str((10 - total % 10) % 10)


def _upc_check_digit(digits: str) -> str:
    d = [ord(c) - 48 for c in digits]
    total = 3 * sum(d[0:11:2]) + sum(d[1:10:2])
    return str((10 - total % 10) % 10)


def make_value(domain: str, rng: random.Random) -> str:
    if domain in WORD_CATEGORIES:
        return rng.choice(WORD_CATEGORIES[domain])
    if domain == "airports":
        return rng.choice(AIRPORTS)
    if domain == "movie_ids":
        return f"tt{rng.randrange(10**7):07d}"
    if domain == "quantities":
        return f"{rng.randint(1, 999)} {rng.choice(QUANTITY_UNITS)}"
    if domain == "codes":
        letters = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))
        return f"{letters}{rng.randrange(10**4):04d}"
    if domain == "phones":
        return f"{rng.randint(200, 999)}-{rng.randint(200, 999)}-{rng.randint(1000, 9999)}"
    if domain == "dates":
        return f"{rng.randint(1, 12)}/{rng.randint(1, 28)}/{rng.randint(1990, 2023)}"
    if domain == "timestamps":
        return (
            f"{rng.randint(1995, 2023):04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
            f"T{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:{rng.randint(0, 59):02d}"
        )
    if domain == "urls":
        tld = rng.choice(["com", "org", "net"])
        return f"https://{rng.choice(URL_WORDS)}.{tld}/{rng.choice(URL_WORDS)}"
    if domain == "emails":
        return f"{rng.choice(URL_WORDS)}{rng.randint(1, 99)}@{rng.choice(EMAIL_DOMAINS)}.com"
    if domain == "ipv4":
        return ".".join(str(rng.randint(0, 255)) for _ in range(4))
    if domain == "uuids":
        return (
            f"{rng.getrandbits(32):08x}-{rng.getrandbits(16):04x}-{rng.getrandbits(16):04x}"
            f"-{rng.getrandbits(16):04x}-{rng.getrandbits(48):012x}"
        )
    if domain == "credit_cards":
        body = "4" + "".join(str(rng.randint(0, 9)) for _ in range(14))
        return body + _luhn_check_digit(body)
    if domain == "upcs":
        body = "".join(str(rng.randint(0, 9)) for _ in range(11))
        return body + _upc_check_digit(body)
    raise ValueError(f"unknown domain {domain!r}")


@dataclass
class DeskDataset:
    corpus: Corpus
    space: EmbeddingSpace
    score_fns: list[ScoreTableFn] = field(default_factory=list)
    domain_of: dict[str, str] = field(default_factory=dict)


def make_airport_score_fn(seed: int = 7) -> ScoreTableFn:
    rng = random.Random(seed)
    scores = {code: round(rng.uniform(0.85, 0.99), 3) for code in AIRPORTS}
    return make_score_table_fn("airport", scores, default_score=0.0)


def generate_corpus(
    n_columns: int,
    seed: int = 0,
    domains: list[str] | None = None,
    min_len: int = 10,
    max_len: int = 40,
) -> DeskDataset:
    """A corpus of ``n_columns`` columns, each drawn from one domain;
    headers carry the domain name."""
    rng = random.Random(seed)
    domains = domains or DOMAINS
    cols: list[Column] = []
    domain_of: dict[str, str] = {}
    for i in range(n_columns):
        domain = domains[i % len(domains)]
        n = rng.randint(min_len, max_len)
        values = tuple(make_value(domain, rng) for _ in range(n))
        cid = f"col-{i:05d}"
        cols.append(Column(id=cid, values=values, header=domain))
        domain_of[cid] = domain
    order = list(range(n_columns))
    rng.shuffle(order)
    cols = [cols[i] for i in order]
    return DeskDataset(
        corpus=Corpus(cols),
        space=build_toy_space(seed=7),
        score_fns=[make_airport_score_fn(seed=7)],
        domain_of=domain_of,
    )


def write_dataset(dataset: DeskDataset, out_dir: str) -> dict[str, str]:
    """Materialize a dataset on disk: corpus JSONL, embedding file and
    score tables. Returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths: dict[str, str] = {}
    corpus_path = os.path.join(out_dir, "corpus.jsonl")
    save_corpus(dataset.corpus, corpus_path)
    paths["corpus"] = corpus_path
    space_path = os.path.join(out_dir, "toy-space.txt")
    save_space(dataset.space, space_path)
    paths["space"] = space_path
    for fn in dataset.score_fns:
        sp = os.path.join(out_dir, f"scores-{fn.type_name}.jsonl")
        with open(sp, "w", encoding="utf-8") as fh:
            for value in sorted(fn.scores):
                fh.write(json.dumps({"value": value, "score": fn.scores[value]}) + "\n")
        paths[f"scores:{fn.type_name}"] = sp
    return paths
