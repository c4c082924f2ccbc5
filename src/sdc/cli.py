"""Command-line pipeline: gen, select, infer, inject, bench.

All stages are driven by one JSON config file; every output embeds a
hash of that config for provenance. Identical config and seed produce
byte-identical outputs.

Exit codes: 0 ok, 1 usage, 2 data error, 3 internal.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import click

from . import evaluation
from .assess import AssessConfig, assess_all, load_assessed, save_assessed
from .candidates import GridSpec, enumerate_candidates
from .corpus import Corpus, filter_columns, load_corpus, sample_columns, save_corpus
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
from .errors import DataFormatError, SdcError
from .infer import compile_ruleset, detect_corpus, save_report
from .select import SelectionConfig, read_store, run_selection, write_store
from .synth import build_candidate_stats, build_synthetic_corpus


@dataclass
class PipelineConfig:
    """Everything one pipeline run needs, loaded from a JSON file."""

    corpus_path: str
    embeddings: list[dict] = field(default_factory=list)
    score_tables: list[dict] = field(default_factory=list)
    functions: dict = field(default_factory=dict)
    grid: GridSpec = field(default_factory=GridSpec)
    assess: AssessConfig = field(default_factory=AssessConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    out_dir: str = "out"
    seed: int = 0
    skip_numeric: bool = True
    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str) -> "PipelineConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"cannot read config {path}: {exc}") from exc
        paths = data.get("paths", {})
        if "corpus" not in paths:
            raise DataFormatError(f"{path}: config needs paths.corpus")
        base = os.path.dirname(os.path.abspath(path))

        def absolute(p: str) -> str:
            return p if os.path.isabs(p) else os.path.join(base, p)

        try:
            embeddings = [dict(e, path=absolute(e["path"])) for e in paths.get("embeddings", [])]
            score_tables = [dict(s, path=absolute(s["path"])) for s in paths.get("score_tables", [])]
            return cls(
                corpus_path=absolute(paths["corpus"]),
                embeddings=embeddings,
                score_tables=score_tables,
                functions=data.get("functions", {}),
                grid=GridSpec.from_json(data.get("grid", {})),
                assess=AssessConfig.from_json(data.get("assess", {})) if data.get("assess") else AssessConfig(),
                selection=SelectionConfig.from_json(data.get("selection", {})),
                out_dir=absolute(data.get("out_dir", "out")),
                seed=int(data.get("seed", 0)),
                skip_numeric=bool(data.get("skip_numeric_columns", True)),
                raw=data,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: bad config ({exc!r})") from exc

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def build_registry(cfg: PipelineConfig, corpus: Corpus, seed: int) -> Registry:
    """Assemble the domain functions named by the config: built-in
    validators, corpus-inferred patterns, sampled embedding centroids,
    score tables and (optionally) adversarial random hashes."""
    reg = Registry()
    fns_cfg = cfg.functions
    if fns_cfg.get("validators", True):
        reg.add_all(builtin_validators())
    top_k = int(fns_cfg.get("patterns_top_k", 25))
    if top_k > 0:
        reg.add_all(infer_patterns(corpus, top_k))
    for emb in cfg.embeddings:
        space = load_embedding_space(emb["path"], emb.get("space_id"))
        reg.add_space(space, emb["path"])
        k = int(emb.get("centroids", 0))
        if k > 0:
            for fn in sample_centroids(corpus, space, k, seed):
                if fn.id not in reg:
                    reg.add(fn)
    for st in cfg.score_tables:
        reg.add(load_score_table(st["path"], st["type_name"], st.get("default_score", 0.0)))
    n_hash = int(fns_cfg.get("random_hash_count", 0))
    hash_base = int(fns_cfg.get("random_hash_seed", 0))
    for i in range(n_hash):
        reg.add(make_random_hash_fn(hash_base + i))
    return reg


def _load_training_corpus(cfg: PipelineConfig) -> Corpus:
    corpus = load_corpus(cfg.corpus_path)
    return filter_columns(corpus, skip_numeric=cfg.skip_numeric)


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


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
@click.option("--seed", type=int, default=None, help="override config seed")
@click.option("--grid", "grid_path", default=None, help="threshold grid JSON overriding the config")
@click.option("--out-dir", default=None, help="override config out_dir")
def cmd_gen(config_path: str, seed: Optional[int], grid_path: Optional[str],
            out_dir: Optional[str]) -> None:
    """Enumerate candidate constraints and keep the statistical
    survivors; writes rules.jsonl, registry.json and gen-stats.json."""
    cfg = PipelineConfig.load(config_path)
    if seed is not None:
        cfg.seed = seed
    if grid_path is not None:
        cfg.grid = GridSpec.load(grid_path)
    out = _common_out(cfg, out_dir)
    t0 = time.perf_counter()
    corpus = _load_training_corpus(cfg)
    registry = build_registry(cfg, corpus, cfg.seed)
    gate_counts: dict = {}
    assessed = assess_all(
        enumerate_candidates(registry.functions(), cfg.grid),
        corpus,
        registry,
        cfg.assess,
        gate_counts=gate_counts,
    )
    config_hash = cfg.config_hash()
    save_assessed(assessed, os.path.join(out, "rules.jsonl"), meta={"config_hash": config_hash})
    _write_json(os.path.join(out, "registry.json"), registry.to_manifest())
    _write_json(
        os.path.join(out, "gen-stats.json"),
        {
            "config_hash": config_hash,
            "columns": len(corpus),
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
@click.option("--strategy", type=click.Choice(["fine", "coarse"]), default=None)
@click.option("--b-size", type=int, default=None)
@click.option("--b-fpr", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--enforce-budgets", is_flag=True, default=False,
              help="drop members until budgets hold (extension; default keeps "
                   "the expectation guarantees only)")
@click.option("--out-dir", default=None)
def cmd_select(config_path: str, rules_path: Optional[str], registry_path: Optional[str],
               strategy: Optional[str], b_size: Optional[int], b_fpr: Optional[float],
               delta: Optional[float], seed: Optional[int], enforce_budgets: bool,
               out_dir: Optional[str]) -> None:
    """Pick a budgeted subset of the surviving constraints against a
    synthetic error corpus; writes store.json."""
    cfg = PipelineConfig.load(config_path)
    out = _common_out(cfg, out_dir)
    if seed is not None:
        cfg.seed = seed
    sel = cfg.selection
    sel_kwargs = sel.to_json()
    if strategy is not None:
        sel_kwargs["strategy"] = strategy
    if b_size is not None:
        sel_kwargs["b_size"] = b_size
    if b_fpr is not None:
        sel_kwargs["b_fpr"] = b_fpr
    if delta is not None:
        sel_kwargs["delta"] = delta
    if enforce_budgets:
        sel_kwargs["enforce_budgets"] = True
    # The config seed drives the synthetic corpus; rounding gets its own
    # derived stream.
    sel_kwargs["seed"] = cfg.seed + 1
    sel = SelectionConfig.from_json(sel_kwargs)

    rules_path = rules_path or os.path.join(out, "rules.jsonl")
    registry_path = registry_path or os.path.join(out, "registry.json")
    assessed = load_assessed(rules_path)
    try:
        with open(registry_path, "r", encoding="utf-8") as fh:
            registry = Registry.from_manifest(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot read registry {registry_path}: {exc}") from exc

    corpus = _load_training_corpus(cfg)
    synth = build_synthetic_corpus(corpus, seed=cfg.seed)
    stats = build_candidate_stats(assessed, synth, len(corpus), registry)
    outcome = run_selection(stats, sel, synth_ids=[sc.id for sc in synth])
    selected_ids = set(outcome.selected_ids)
    chosen = [a.sdc for a in assessed if a.sdc.id in selected_ids]
    write_store(
        os.path.join(out, "store.json"),
        chosen,
        registry,
        selection={
            **sel.to_json(),
            "lp_objective": outcome.lp_objective,
            "selected_count": len(chosen),
            "sum_fpr": outcome.sum_fpr,
            "rounded_objective": outcome.rounded_objective,
            "synth_columns": len(synth),
        },
        config_hash=cfg.config_hash(),
    )
    click.echo(
        f"select: {len(assessed)} constraints -> {len(chosen)} selected "
        f"(LP objective {outcome.lp_objective:.1f}, sum FPR {outcome.sum_fpr:.4f})",
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
    corpus = load_corpus(corpus_path)
    ruleset = compile_ruleset(sdcs)
    report = detect_corpus(ruleset, corpus, registry, min_confidence)
    save_report(report, out_path, meta={"store": os.path.basename(store_path)})
    click.echo(f"infer: {len(report)} detections over {len(corpus)} columns", err=True)


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
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", default=None)
def cmd_bench(config_path: str, heldout: int, rate: float, seed: Optional[int],
              out_dir: Optional[str]) -> None:
    """End-to-end benchmark: split, learn, select, inject errors into
    the held-out columns, detect, and score against z-score baselines.
    Writes bench-metrics.json and pr-points.csv."""
    cfg = PipelineConfig.load(config_path)
    if seed is not None:
        cfg.seed = seed
    out = _common_out(cfg, out_dir)
    t0 = time.perf_counter()
    full = _load_training_corpus(cfg)
    if heldout > len(full):
        raise DataFormatError(f"heldout {heldout} exceeds corpus size {len(full)}")
    train, held = sample_columns(full, heldout, cfg.seed)

    registry = build_registry(cfg, train, cfg.seed + 1)
    gate_counts: dict = {}
    assessed = assess_all(
        enumerate_candidates(registry.functions(), cfg.grid),
        train,
        registry,
        cfg.assess,
        gate_counts=gate_counts,
    )
    synth = build_synthetic_corpus(train, seed=cfg.seed + 2)
    stats = build_candidate_stats(assessed, synth, len(train), registry)
    sel = SelectionConfig.from_json({**cfg.selection.to_json(), "seed": cfg.seed + 3})
    outcome = run_selection(stats, sel, synth_ids=[sc.id for sc in synth])
    selected_ids = set(outcome.selected_ids)
    chosen = [a.sdc for a in assessed if a.sdc.id in selected_ids]

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
    _write_json(os.path.join(out, "bench-metrics.json"), metrics)
    with open(os.path.join(out, "pr-points.csv"), "w", encoding="utf-8") as fh:
        fh.write("threshold,precision,recall\n")
        for p in points:
            fh.write(f"{p.threshold!r},{p.precision!r},{p.recall!r}\n")
    save_report(report, os.path.join(out, "bench-report.jsonl"),
                meta={"config_hash": cfg.config_hash()})
    write_store(os.path.join(out, "bench-store.json"), chosen, registry,
                selection=sel.to_json(), config_hash=cfg.config_hash())
    click.echo(
        f"bench: PR-AUC {metrics['pr_auc']:.3f} vs best baseline {best_auc:.3f} "
        f"({time.perf_counter() - t0:.1f}s)",
        err=True,
    )


@cli.command("make-demo-data")
@click.option("--columns", type=int, default=400)
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
    _write_json(cfg_path, config)
    click.echo(f"wrote {len(dataset.corpus)} columns and {cfg_path}", err=True)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return rv if isinstance(rv, int) else 0
    except click.UsageError as exc:
        exc.show()
        return 1
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
