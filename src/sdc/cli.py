"""Command-line pipeline: gen, select, infer, inject, bench.

All stages are driven by one JSON config file; every output embeds a
hash of that config for provenance. Identical config produces
byte-identical outputs.

Exit codes: 0 ok, 1 usage, 2 data error, 3 internal.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import click

from . import evaluation
from .assess import AssessConfig, AssessedSdc, assess_all, load_assessed, save_assessed
from .candidates import GridSpec, Sdc, dead_candidate_count, enumerate_candidates
from .corpus import (
    Corpus,
    filter_columns,
    load_corpus,
    read_json,
    sample_columns,
    save_corpus,
    write_json,
)
from .datagen import generate_corpus, write_dataset
from .domain_fns import (
    Registry,
    ValueIndex,
    builtin_validators,
    infer_patterns,
    load_embedding_space,
    load_score_table,
    make_random_hash_fn,
    sample_centroids,
)
from .errors import NOT_A_SETTING, DataFormatError, SdcError, read_settings
from .infer import compile_ruleset, detect_corpus, save_report
from .select import SelectionConfig, SelectionOutcome, read_store, run_selection, write_store
from .synth import CandidateStats, SynthColumn, build_candidate_stats, build_synthetic_corpus

# Bound on functions.random_hash_count; each hash is screened like any function.
MAX_RANDOM_HASHES = 10_000


# The config's sections and list entries, each read by read_settings;
# README's "Config file" says what every key takes.
@dataclass(frozen=True)
class FunctionsConfig:
    validators: bool = True
    patterns_top_k: int = 25
    random_hash_count: int = 0
    random_hash_seed: int = 0

    def __post_init__(self) -> None:
        if self.random_hash_count > MAX_RANDOM_HASHES:
            raise ValueError(f"random_hash_count exceeds {MAX_RANDOM_HASHES}")


@dataclass
class EmbeddingConfig:
    path: str
    centroids: int = 0
    space_id: Optional[str] = None


@dataclass
class ScoreTableConfig:
    path: str
    type_name: str
    default_score: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.default_score <= 1.0:
            raise ValueError(f"default_score {self.default_score} outside [0, 1]")


@dataclass
class PathsConfig:
    corpus: str
    embeddings: list[EmbeddingConfig] = field(default_factory=list)
    score_tables: list[ScoreTableConfig] = field(default_factory=list)


@dataclass
class PipelineConfig:
    """Everything one pipeline run needs: a JSON file's settings, its
    relative paths resolved against its directory, and the file itself
    (``raw``) for the hash."""

    paths: PathsConfig
    functions: FunctionsConfig = field(default_factory=FunctionsConfig)
    grid: GridSpec = field(default_factory=GridSpec)
    assess: AssessConfig = field(default_factory=AssessConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    out_dir: str = "out"
    seed: int = 0
    skip_numeric_columns: bool = True
    raw: dict = field(default_factory=dict, metadata=NOT_A_SETTING)

    @classmethod
    def load(cls, path: str) -> "PipelineConfig":
        data = read_json(path, "config")
        # make-demo-data writes "version" and the benchmark inputs "workers"; neither sets anything.
        settings = {k: v for k, v in data.items() if k not in ("version", "workers")}
        try:
            cfg = read_settings(cls, settings, "config")
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad config ({exc})") from exc
        base = os.path.dirname(os.path.abspath(path))
        for entry in (*cfg.paths.embeddings, *cfg.paths.score_tables):
            entry.path = os.path.join(base, entry.path)
        cfg.paths.corpus = os.path.join(base, cfg.paths.corpus)
        cfg.out_dir = os.path.join(base, cfg.out_dir)
        cfg.raw = data
        return cfg

    @property
    def corpus_path(self) -> str:
        return self.paths.corpus

    @property
    def skip_numeric(self) -> bool:
        return self.skip_numeric_columns

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def build_registry(cfg: PipelineConfig, corpus: Corpus | ValueIndex, seed: int) -> Registry:
    """Assemble the domain functions named by the config: built-in
    validators, corpus-inferred patterns, sampled embedding centroids,
    score tables and (optionally) adversarial random hashes. A
    ``ValueIndex`` corpus lends its value shapes to later screening."""
    reg = Registry()
    fns = cfg.functions
    if fns.validators:
        reg.add_all(builtin_validators())
    if fns.patterns_top_k > 0:
        reg.add_all(infer_patterns(corpus, fns.patterns_top_k))
    for emb in cfg.paths.embeddings:
        space = load_embedding_space(emb.path, emb.space_id)
        reg.add_space(space, emb.path)
        if emb.centroids > 0:
            for fn in sample_centroids(corpus, space, emb.centroids, seed):
                if fn.id not in reg:
                    reg.add(fn)
    for st in cfg.paths.score_tables:
        reg.add(load_score_table(st.path, st.type_name, st.default_score))
    for i in range(fns.random_hash_count):
        reg.add(make_random_hash_fn(fns.random_hash_seed + i))
    return reg


def _learn(
    cfg: PipelineConfig, corpus: ValueIndex, seed: int
) -> tuple[Registry, list[AssessedSdc], dict]:
    """``gen``'s steps: the registry (its centroids drawn with ``seed``)
    and the candidates that survive screening on ``corpus``, sorted by
    id, with the screening gate counts."""
    registry = build_registry(cfg, corpus, seed)
    gate_counts: dict = {}
    assessed = assess_all(
        enumerate_candidates(registry.functions(), cfg.grid),
        corpus,
        registry,
        cfg.assess,
        gate_counts=gate_counts,
    )
    return registry, assessed, gate_counts


def _select(
    assessed: list[AssessedSdc], corpus: Corpus, registry: Registry, sel: SelectionConfig,
    seed: int,
) -> tuple[list[Sdc], SelectionOutcome, list[SynthColumn], list[CandidateStats]]:
    """``select``'s steps: a synthetic corpus from ``corpus`` (drawn with
    ``seed``), the detection-class stats, the selection under ``sel`` and
    the chosen constraints in ``assessed`` order. Returns the chosen
    constraints, the outcome, the synthetic corpus and the stats."""
    synth = build_synthetic_corpus(corpus, seed=seed)
    stats = build_candidate_stats(assessed, synth, len(corpus), registry)
    outcome = run_selection(stats, sel, synth_ids=[sc.id for sc in synth])
    selected_ids = set(outcome.selected_ids)
    # A row's first six fields are an Sdc's.
    chosen = [Sdc(*a[:6]) for a in assessed if a.id in selected_ids]
    return chosen, outcome, synth, stats


def _load_training_corpus(cfg: PipelineConfig) -> Corpus:
    corpus = load_corpus(cfg.corpus_path)
    return filter_columns(corpus, skip_numeric=cfg.skip_numeric)


# ---------------------------------------------------------------------------
# Commands


@click.group(name="sdc")
def cli() -> None:
    """Learn semantic-domain constraints from a corpus of table columns
    and use them to flag erroneous cells."""


def _common_out(cfg: PipelineConfig, out_dir: Optional[str]) -> str:
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    return out


@cli.command("gen")
@click.option("--config", "config_path", required=True, help="pipeline config JSON")
@click.option("--out-dir", default=None, help="override config out_dir")
def cmd_gen(config_path: str, out_dir: Optional[str]) -> None:
    """Enumerate candidate constraints and keep the statistical
    survivors; writes rules.jsonl, registry.json and gen-stats.json."""
    cfg = PipelineConfig.load(config_path)
    out = _common_out(cfg, out_dir)
    t0 = time.perf_counter()
    corpus = ValueIndex(_load_training_corpus(cfg))
    registry, assessed, gate_counts = _learn(cfg, corpus, cfg.seed)
    config_hash = cfg.config_hash()
    save_assessed(assessed, os.path.join(out, "rules.jsonl"), meta={"config_hash": config_hash})
    write_json(os.path.join(out, "registry.json"), registry.to_manifest())
    write_json(
        os.path.join(out, "gen-stats.json"),
        {
            "config_hash": config_hash,
            "columns": len(corpus),
            "dead_candidates_skipped": dead_candidate_count(registry.functions(), cfg.grid),
            "functions": len(registry),
            "gates": gate_counts,
            "surviving": len(assessed),
        },
    )
    click.echo(
        f"gen: {gate_counts.get('total', 0)} candidates -> {len(assessed)} constraints "
        f"({time.perf_counter() - t0:.1f}s)",
        err=True,
    )


@cli.command("select")
@click.option("--config", "config_path", required=True)
@click.option("--rules", "rules_path", default=None, help="rules.jsonl from gen (default: out_dir)")
@click.option("--registry", "registry_path", default=None, help="registry.json from gen")
@click.option("--out-dir", default=None)
def cmd_select(config_path: str, rules_path: Optional[str], registry_path: Optional[str],
               out_dir: Optional[str]) -> None:
    """Pick a budgeted subset of the surviving constraints against a
    synthetic error corpus; writes store.json."""
    cfg = PipelineConfig.load(config_path)
    out = _common_out(cfg, out_dir)
    # The config seed drives the synthetic corpus; rounding gets its own
    # derived stream.
    sel = replace(cfg.selection, seed=cfg.seed + 1)

    rules_path = rules_path or os.path.join(out, "rules.jsonl")
    registry_path = registry_path or os.path.join(out, "registry.json")
    assessed = load_assessed(rules_path)
    registry = Registry.from_manifest(read_json(registry_path, "registry"), registry_path)
    registry.require((a.fn_id for a in assessed), rules_path)

    chosen, outcome, synth, stats = _select(
        assessed, _load_training_corpus(cfg), registry, sel, cfg.seed
    )
    write_store(
        os.path.join(out, "store.json"),
        chosen,
        registry,
        selection={
            **asdict(sel),
            "lp_objective": outcome.lp_objective,
            "selected_count": len(chosen),
            "sum_fpr": outcome.sum_fpr,
            "rounded_objective": outcome.rounded_objective,
            "synth_columns": len(synth),
        },
        config_hash=cfg.config_hash(),
    )
    idle = len(assessed) - sum(st.members for st in stats)
    click.echo(
        f"select: {len(assessed)} constraints -> {len(stats)} detection classes "
        f"({idle} detect nothing) -> {len(chosen)} selected "
        f"(LP objective {outcome.lp_objective:.1f} by {outcome.solution.method}, "
        f"sum FPR {outcome.sum_fpr:.4f})",
        err=True,
    )


@cli.command("infer")
@click.option("--rules", "store_path", required=True, help="store.json from select")
@click.option("--corpus", "corpus_path", required=True)
@click.option("--min-confidence", type=float, default=0.0)
@click.option("--out", "out_path", default="report.jsonl")
def cmd_infer(store_path: str, corpus_path: str, min_confidence: float, out_path: str) -> None:
    """Apply a constraint store to a corpus; writes a detection report
    (JSONL, one detection per line)."""
    sdcs, registry = read_store(store_path)
    index = ValueIndex(load_corpus(corpus_path))
    ruleset = compile_ruleset(sdcs)
    report = detect_corpus(ruleset, index, registry, min_confidence)
    save_report(report, out_path, meta={"store": os.path.basename(store_path)})
    click.echo(
        f"infer: {len(report)} detections over {len(index)} columns, "
        f"{len(index.values)} distinct values",
        err=True,
    )


@cli.command("inject")
@click.option("--corpus", "corpus_path", required=True)
@click.option("--rate", type=float, default=0.1)
@click.option("--seed", type=int, default=0)
@click.option("--truth", "truth_path", default=None, help="existing ground truth to extend")
@click.option("--out", "out_path", required=True)
@click.option("--truth-out", "truth_out", required=True)
def cmd_inject(corpus_path: str, rate: float, seed: int, truth_path: Optional[str],
               out_path: str, truth_out: str) -> None:
    """Transplant foreign values into a fraction of the columns and
    record the injected cells as ground truth."""
    corpus = load_corpus(corpus_path)
    truth = evaluation.load_truth(truth_path) if truth_path else {}
    dirty, new_truth = evaluation.inject_errors(corpus, truth, rate, seed)
    save_corpus(dirty, out_path)
    evaluation.save_truth(new_truth, truth_out)
    click.echo(
        f"inject: {evaluation.total_errors(new_truth) - evaluation.total_errors(truth)} "
        f"errors into {len(corpus)} columns",
        err=True,
    )


@cli.command("bench")
@click.option("--config", "config_path", required=True)
@click.option("--heldout", type=int, default=200, help="held-out column count")
@click.option("--rate", type=float, default=0.1, help="error injection rate")
@click.option("--out-dir", default=None)
def cmd_bench(config_path: str, heldout: int, rate: float, out_dir: Optional[str]) -> None:
    """End-to-end benchmark: split, learn, select, inject errors into
    the held-out columns, detect, and score against z-score baselines.
    Writes bench-metrics.json and pr-points.csv."""
    cfg = PipelineConfig.load(config_path)
    out = _common_out(cfg, out_dir)
    t0 = time.perf_counter()
    full = _load_training_corpus(cfg)
    if heldout > len(full):
        raise DataFormatError(f"heldout {heldout} exceeds corpus size {len(full)}")
    train, held = sample_columns(full, heldout, cfg.seed)

    registry, assessed, _ = _learn(cfg, ValueIndex(train), cfg.seed + 1)
    sel = replace(cfg.selection, seed=cfg.seed + 3)
    chosen, outcome, _, _ = _select(assessed, train, registry, sel, cfg.seed + 2)

    dirty, truth = evaluation.inject_errors(held, {}, rate, cfg.seed + 4)
    ruleset = compile_ruleset(chosen)
    index = ValueIndex(dirty)
    report = detect_corpus(ruleset, index, registry)
    points = evaluation.pr_curve(report, truth)
    best_id, best_auc, all_aucs = evaluation.best_zscore_baseline(
        registry.functions(), index, truth
    )
    metrics = {
        "config_hash": cfg.config_hash(),
        "train_columns": len(train),
        "heldout_columns": len(held),
        "injected_errors": evaluation.total_errors(truth),
        "constraints_surviving": len(assessed),
        "constraints_selected": len(chosen),
        "lp_objective": outcome.lp_objective,
        "sum_fpr": outcome.sum_fpr,
        "detections": len(report),
        **evaluation.metrics_summary(points),
        "baselines": {
            "best_fn": best_id,
            "best_pr_auc": best_auc,
            "pr_auc_by_fn": all_aucs,
        },
    }
    write_json(os.path.join(out, "bench-metrics.json"), metrics)
    with open(os.path.join(out, "pr-points.csv"), "w", encoding="utf-8") as fh:
        fh.write("threshold,precision,recall\n")
        for p in points:
            fh.write(f"{p.threshold!r},{p.precision!r},{p.recall!r}\n")
    save_report(report, os.path.join(out, "bench-report.jsonl"),
                meta={"config_hash": cfg.config_hash()})
    write_store(os.path.join(out, "bench-store.json"), chosen, registry,
                selection=asdict(sel), config_hash=cfg.config_hash())
    click.echo(
        f"bench: PR-AUC {metrics['pr_auc']:.3f} vs best baseline {best_auc:.3f} "
        f"({time.perf_counter() - t0:.1f}s)",
        err=True,
    )


@cli.command("make-demo-data")
@click.option("--columns", type=int, default=800)
@click.option("--seed", type=int, default=0)
@click.option("--out-dir", required=True)
def cmd_make_demo_data(columns: int, seed: int, out_dir: str) -> None:
    """Generate a synthetic typed corpus plus its embedding space and
    score tables (used by the demos and benchmark walkthroughs)."""
    dataset = generate_corpus(columns, seed=seed)
    paths = write_dataset(dataset, out_dir)
    config = {
        "version": 1,
        "paths": {
            "corpus": os.path.basename(paths["corpus"]),
            "embeddings": [
                {"space_id": "toy", "path": os.path.basename(paths["space"]), "centroids": 25}
            ],
            "score_tables": [
                {
                    "path": os.path.basename(paths["scores:airport"]),
                    "type_name": "airport",
                    "default_score": 0.0,
                }
            ],
        },
        "functions": {"validators": True, "patterns_top_k": 25, "random_hash_count": 0},
        "selection": {"b_size": 500, "b_fpr": 0.1, "delta": 0.001, "strategy": "fine"},
        "out_dir": "out",
        "seed": seed,
    }
    cfg_path = os.path.join(out_dir, "config.json")
    write_json(cfg_path, config)
    click.echo(f"wrote {len(dataset.corpus)} columns and {cfg_path}", err=True)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return rv if isinstance(rv, int) else 0
    except click.ClickException as exc:
        exc.show()
        return 1
    except DataFormatError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except SdcError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
