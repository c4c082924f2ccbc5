"""End-to-end tests for the command-line pipeline.

Everything goes through ``sdc.cli.main(argv)`` so exit codes and output
files are exercised exactly as a shell user would see them. A small
synthetic dataset is generated once per module and shared.
"""

import json
import os
import subprocess
import sys

import pytest

from sdc.cli import main
from sdc.corpus import filter_columns, load_corpus, save_corpus
from sdc.datagen import generate_random_string_corpus
from sdc.evaluation import load_truth, total_errors
from sdc.infer import load_report
from sdc.select import read_store


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def run(argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """Demo dataset plus a trimmed config that keeps runs fast."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    # The confidence gate needs ~25 covered columns per domain, so the
    # corpus has to be a few hundred columns before anything survives.
    rc = run(["make-demo-data", "--columns", "800", "--seed", "3", "--out-dir", str(data_dir)])
    assert rc == 0
    cfg_path = data_dir / "config.json"
    cfg = json.loads(cfg_path.read_text())
    cfg["functions"]["patterns_top_k"] = 10
    cfg["paths"]["embeddings"][0]["centroids"] = 10
    cfg["seed"] = 5
    small = data_dir / "config-small.json"
    small.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return {"root": root, "data": data_dir, "config": small}


@pytest.fixture(scope="module")
def pipeline(demo):
    """One gen + select run shared by the read-only tests."""
    out = demo["root"] / "out"
    rc = run(["gen", "--config", str(demo["config"]), "--out-dir", str(out)])
    assert rc == 0
    rc = run(["select", "--config", str(demo["config"]), "--out-dir", str(out)])
    assert rc == 0
    return out


def test_import_leaves_scipy_unloaded():
    # scipy is most of the start-up time, and only selection needs it.
    code = "import sys, sdc.cli; sys.exit(int('scipy' in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


# ---------------------------------------------------------------------------
# make-demo-data


def test_make_demo_data_outputs(demo):
    data = demo["data"]
    for name in ("corpus.jsonl", "toy-space.txt", "scores-airport.jsonl", "config.json"):
        assert (data / name).exists(), name
    corpus = load_corpus(str(data / "corpus.jsonl"))
    assert len(corpus) == 800
    cfg = json.loads((data / "config.json").read_text())
    assert cfg["paths"]["corpus"] == "corpus.jsonl"
    assert cfg["selection"]["b_size"] == 500


# ---------------------------------------------------------------------------
# gen


def test_gen_outputs_and_stats(demo, pipeline):
    rules = pipeline / "rules.jsonl"
    stats = json.loads((pipeline / "gen-stats.json").read_text())
    # numeric columns are skipped before assessment
    filtered = filter_columns(load_corpus(str(demo["data"] / "corpus.jsonl")))
    assert stats["columns"] == len(filtered) < 800
    assert stats["surviving"] > 0
    assert stats["gates"]["total"] >= stats["surviving"]
    # meta line plus one record per surviving constraint
    n_lines = len(rules.read_text().splitlines())
    assert n_lines == stats["surviving"] + 1
    registry = json.loads((pipeline / "registry.json").read_text())
    assert stats["functions"] == len(registry["functions"])


def test_gen_rerun_is_byte_identical(demo, pipeline):
    out2 = demo["root"] / "out-rerun"
    rc = run(["gen", "--config", str(demo["config"]), "--out-dir", str(out2)])
    assert rc == 0
    for name in ("rules.jsonl", "registry.json", "gen-stats.json"):
        assert read_bytes(pipeline / name) == read_bytes(out2 / name), name


def test_gen_grid_override_shrinks_enumeration(demo, pipeline):
    grid_path = demo["root"] / "grid.json"
    grid_path.write_text(json.dumps({
        "m_values": [0.8],
        "embedding_d_in": [0.3],
        "embedding_d_out_offsets": [0.7],
        "score_d_in": [0.2],
        "score_d_out": [0.9],
        "hash_d_in": [0.2],
        "hash_d_out": [0.9],
    }))
    out = demo["root"] / "out-grid"
    rc = run(["gen", "--config", str(demo["config"]), "--grid", str(grid_path),
              "--out-dir", str(out)])
    assert rc == 0
    stats = json.loads((out / "gen-stats.json").read_text())
    # one (d_in, d_out) pair and one m per function family
    assert stats["gates"]["total"] == stats["functions"]
    base = json.loads((pipeline / "gen-stats.json").read_text())
    assert stats["gates"]["total"] < base["gates"]["total"]


def test_gen_random_strings_yield_no_constraints(tmp_path):
    corpus = generate_random_string_corpus(60, seed=4)
    corpus_path = tmp_path / "random.jsonl"
    save_corpus(corpus, str(corpus_path))
    cfg = {
        "paths": {"corpus": "random.jsonl"},
        "functions": {"validators": True, "patterns_top_k": 10},
        "seed": 0,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = run(["gen", "--config", str(cfg_path), "--out-dir", str(out)])
    assert rc == 0
    stats = json.loads((out / "gen-stats.json").read_text())
    assert stats["surviving"] == 0


# ---------------------------------------------------------------------------
# select


def test_select_store_is_loadable(pipeline):
    sdcs, registry = read_store(str(pipeline / "store.json"))
    assert len(sdcs) > 0
    assert all(s.fn_id in registry for s in sdcs)
    blob = json.loads((pipeline / "store.json").read_text())
    sel = blob["selection"]
    assert sel["selected_count"] == len(sdcs)
    assert sel["lp_objective"] > 0.0
    assert sel["rounded_objective"] >= 0.0
    assert sel["sum_fpr"] >= 0.0


def test_select_rerun_is_byte_identical(demo, pipeline):
    out2 = demo["root"] / "select-rerun"
    rc = run(["select", "--config", str(demo["config"]),
              "--rules", str(pipeline / "rules.jsonl"),
              "--registry", str(pipeline / "registry.json"),
              "--out-dir", str(out2)])
    assert rc == 0
    assert read_bytes(pipeline / "store.json") == read_bytes(out2 / "store.json")


def test_select_zero_budget_selects_nothing(demo, pipeline):
    out = demo["root"] / "select-zero"
    rc = run(["select", "--config", str(demo["config"]),
              "--rules", str(pipeline / "rules.jsonl"),
              "--registry", str(pipeline / "registry.json"),
              "--b-size", "0", "--out-dir", str(out)])
    assert rc == 0
    sdcs, _ = read_store(str(out / "store.json"))
    assert sdcs == []


# ---------------------------------------------------------------------------
# inject + infer


@pytest.fixture(scope="module")
def injected(demo):
    out = demo["root"] / "inject"
    out.mkdir()
    dirty = out / "dirty.jsonl"
    truth = out / "truth.json"
    rc = run(["inject", "--corpus", str(demo["data"] / "corpus.jsonl"),
              "--rate", "0.2", "--seed", "9",
              "--out", str(dirty), "--truth-out", str(truth)])
    assert rc == 0
    return {"dirty": dirty, "truth": truth}


def test_inject_outputs(demo, injected):
    clean = load_corpus(str(demo["data"] / "corpus.jsonl"))
    dirty = load_corpus(str(injected["dirty"]))
    truth = load_truth(str(injected["truth"]))
    assert dirty.ids() == clean.ids()
    # one injected cell in each of floor(rate * n) columns
    assert total_errors(truth) == int(0.2 * len(clean))
    changed = [
        cid for cid in clean.ids()
        if clean.column_by_id(cid).values != dirty.column_by_id(cid).values
    ]
    assert set(changed) == set(truth)


def test_infer_runs_and_is_worker_invariant(demo, pipeline, injected):
    rep1 = demo["root"] / "report-w1.jsonl"
    rep4 = demo["root"] / "report-w4.jsonl"
    rc = run(["infer", "--rules", str(pipeline / "store.json"),
              "--corpus", str(injected["dirty"]), "--out", str(rep1)])
    assert rc == 0
    rc = run(["infer", "--rules", str(pipeline / "store.json"),
              "--corpus", str(injected["dirty"]), "--out", str(rep4)])
    assert rc == 0
    assert read_bytes(rep1) == read_bytes(rep4)
    report = load_report(str(rep1))
    corpus_ids = set(load_corpus(str(injected["dirty"])).ids())
    assert all(d.column_id in corpus_ids for d in report)


def test_inject_reads_csv_directory(tmp_path):
    tables = tmp_path / "tables"
    tables.mkdir()
    (tables / "a.csv").write_text("red,alpha\ncrimson,bravo\nscarlet,charlie\n")
    (tables / "b.csv").write_text("blue\nnavy\nazure\n")
    dirty, truth = tmp_path / "dirty.jsonl", tmp_path / "truth.json"
    rc = run(["inject", "--corpus", str(tables), "--rate", "1.0", "--seed", "0",
              "--out", str(dirty), "--truth-out", str(truth)])
    assert rc == 0
    clean = load_corpus(str(tables))
    assert load_corpus(str(dirty)).ids() == clean.ids() == ["a.csv:0", "a.csv:1", "b.csv:0"]
    assert total_errors(load_truth(str(truth))) > 0


def test_infer_min_confidence_filters(demo, pipeline, injected):
    rep_all = demo["root"] / "report-all.jsonl"
    rep_hi = demo["root"] / "report-hi.jsonl"
    run(["infer", "--rules", str(pipeline / "store.json"),
         "--corpus", str(injected["dirty"]), "--out", str(rep_all)])
    run(["infer", "--rules", str(pipeline / "store.json"),
         "--corpus", str(injected["dirty"]), "--out", str(rep_hi),
         "--min-confidence", "0.99"])
    low = load_report(str(rep_all))
    high = load_report(str(rep_hi))
    assert len(high) <= len(low)
    assert all(d.confidence >= 0.99 for d in high)


# ---------------------------------------------------------------------------
# bench


def test_bench_end_to_end(demo):
    out = demo["root"] / "bench"
    rc = run(["bench", "--config", str(demo["config"]), "--heldout", "20",
              "--rate", "0.2", "--seed", "11", "--out-dir", str(out)])
    assert rc == 0
    metrics = json.loads((out / "bench-metrics.json").read_text())
    filtered = filter_columns(load_corpus(str(demo["data"] / "corpus.jsonl")))
    assert metrics["train_columns"] == len(filtered) - 20
    assert metrics["heldout_columns"] == 20
    assert metrics["injected_errors"] > 0
    assert 0.0 <= metrics["pr_auc"] <= 1.0
    assert "best_pr_auc" in metrics["baselines"]
    lines = (out / "pr-points.csv").read_text().splitlines()
    assert lines[0] == "threshold,precision,recall"
    assert (out / "bench-report.jsonl").exists()
    sdcs, _ = read_store(str(out / "bench-store.json"))
    assert len(sdcs) == metrics["constraints_selected"]


def test_bench_heldout_too_large_is_data_error(demo):
    rc = run(["bench", "--config", str(demo["config"]), "--heldout", "1000",
              "--out-dir", str(demo["root"] / "bench-bad")])
    assert rc == 2


# ---------------------------------------------------------------------------
# exit codes


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "Usage" in capsys.readouterr().out


def test_no_command_is_usage_error():
    assert run([]) == 1


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == 1


def test_missing_required_option_is_usage_error():
    assert run(["gen"]) == 1


def test_unreadable_config_is_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["gen", "--config", str(bad)]) == 2


def test_config_without_corpus_key_is_data_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths": {}}))
    assert run(["gen", "--config", str(cfg)]) == 2


def test_missing_corpus_file_is_data_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths": {"corpus": "nope.jsonl"}}))
    assert run(["gen", "--config", str(cfg)]) == 2


def test_missing_store_is_data_error(tmp_path, demo):
    rc = run(["infer", "--rules", str(tmp_path / "nope.json"),
              "--corpus", str(demo["data"] / "corpus.jsonl")])
    assert rc == 2


EMBEDDING_WITHOUT_SPACE_ID = {"id": "emb:toy:red", "family": "embedding",
                              "params": {"centroid": "red"}}
INJECT = ["inject", "--out", "{tmp}/dirty.jsonl", "--truth-out", "{tmp}/truth-out.json"]
GEN_GRID = ["gen", "--config", "{config}", "--grid", "{file}", "--out-dir", "{tmp}"]
GEN_CONFIG = ["gen", "--config", "{file}"]

# Each case: the file written, its contents, and the command that reads
# it ({file} is that file, {tmp} a scratch directory).
MALFORMED_INPUTS = {
    "truth-without-error-indices": (
        "truth.json", '{"id": "c0"}\n', INJECT + ["--corpus", "{corpus}", "--truth", "{file}"]),
    "grid-invalid-json": ("grid.json", "{not json", GEN_GRID),
    "grid-empty-m-values": ("grid.json", '{"m_values": []}', GEN_GRID),
    "config-unknown-assess-key": (
        "cfg.json", {"paths": {"corpus": "c.jsonl"}, "assess": {"zz": 1}}, GEN_CONFIG),
    "config-unknown-strategy": (
        "cfg.json", {"paths": {"corpus": "c.jsonl"}, "selection": {"strategy": "greedy"}},
        GEN_CONFIG),
    "config-embedding-without-path": (
        "cfg.json", {"paths": {"corpus": "c.jsonl", "embeddings": [{"space_id": "toy"}]}},
        GEN_CONFIG),
    "config-m-values-not-a-list": (
        "cfg.json", {"paths": {"corpus": "c.jsonl"}, "grid": {"m_values": 0.5}}, GEN_CONFIG),
    "store-embedding-without-space-id": (
        "store.json",
        {"kind": "sdc-store", "registry": {"functions": [EMBEDDING_WITHOUT_SPACE_ID]},
         "sdcs": []},
        ["infer", "--rules", "{file}", "--corpus", "{corpus}", "--out", "{tmp}/report.jsonl"]),
    "registry-embedding-without-space-id": (
        "registry.json", {"functions": [EMBEDDING_WITHOUT_SPACE_ID]},
        ["select", "--config", "{config}", "--rules", "{rules}", "--registry", "{file}",
         "--out-dir", "{tmp}"]),
    "corpus-not-utf8": (
        "corpus.jsonl", b'{"id": "c0", "values": ["caf\xe9"]}\n', INJECT + ["--corpus", "{file}"]),
}


@pytest.mark.parametrize("name", list(MALFORMED_INPUTS))
def test_malformed_input_is_data_error(name, tmp_path, demo, pipeline):
    file_name, contents, argv = MALFORMED_INPUTS[name]
    path = tmp_path / file_name
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    elif isinstance(contents, str):
        path.write_text(contents)
    else:
        path.write_text(json.dumps(contents))
    slots = {"file": path, "tmp": tmp_path, "config": demo["config"],
             "corpus": demo["data"] / "corpus.jsonl", "rules": pipeline / "rules.jsonl"}
    assert run([arg.format(**slots) for arg in argv]) == 2
