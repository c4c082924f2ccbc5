"""End-to-end tests for the command-line pipeline.

Everything goes through ``sdc.cli.main(argv)`` so exit codes and output
files are exercised exactly as a shell user would see them. A small
synthetic dataset is generated once per module and shared.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from sdc.cli import MAX_RANDOM_HASHES, PipelineConfig, cli, main
from sdc.corpus import filter_columns, load_corpus, save_corpus
from sdc.errors import DataFormatError
from sdc.evaluation import load_truth, total_errors
from sdc.select import read_store

from oracles import column_by_id, generate_random_string_corpus, load_report


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
    # The confidence gate needs ~25 covered columns per domain, which
    # make-demo-data's default of 800 columns gives.
    rc = run(["make-demo-data", "--seed", "3", "--out-dir", str(data_dir)])
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


def config_copy(demo, name, **changes):
    """The demo config with ``changes`` (a dict value merges into that
    section), written next to it as ``config-<name>.json``, since its
    paths are relative to its directory."""
    cfg = json.loads(demo["config"].read_text())
    for key, value in changes.items():
        cfg[key] = {**cfg.get(key, {}), **value} if isinstance(value, dict) else value
    path = demo["data"] / f"config-{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def fresh_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))


def test_import_leaves_scipy_unloaded():
    # scipy is most of the start-up time, and only a selection whose
    # budget binds needs it.
    code = "import sys, sdc.cli; sys.exit(int('scipy' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=fresh_env(), timeout=120).returncode == 0


def select_in_fresh_process(config, pipeline, out, module="scipy.optimize"):
    """(``module`` loaded?, stderr, store selection block) of one
    ``sdc select`` in a new interpreter."""
    code = ("import sys; from sdc.cli import main; rc = main(sys.argv[2:]); "
            "print(sys.argv[1] in sys.modules); sys.exit(rc)")
    argv = ["select", "--config", str(config),
            "--rules", str(pipeline / "rules.jsonl"), "--registry", str(pipeline / "registry.json"),
            "--out-dir", str(out)]
    proc = subprocess.run([sys.executable, "-c", code, module, *argv], env=fresh_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    selection = json.loads((out / "store.json").read_text())["selection"]
    return proc.stdout.split()[-1] == "True", proc.stderr, selection


def test_select_loads_scipy_only_when_a_budget_binds(demo, pipeline, tmp_path):
    loaded, log, slack = select_in_fresh_process(demo["config"], pipeline, tmp_path / "slack")
    assert not loaded
    assert "by cover" in log
    tight_config = config_copy(demo, "b-size-1", selection={"b_size": 1})
    loaded, log, tight = select_in_fresh_process(tight_config, pipeline, tmp_path / "tight")
    assert loaded
    assert "by highs" in log
    # The cover's objective is the number of coverable columns; one
    # constraint covers fewer.
    assert tight["lp_objective"] < slack["lp_objective"]


def test_select_on_the_cover_path_leaves_numpy_ma_unloaded(demo, pipeline, tmp_path):
    # numpy.ma loads lazily (np.unique pulls it in); selection counts
    # distinct rows without it.
    loaded, log, _ = select_in_fresh_process(demo["config"], pipeline, tmp_path, module="numpy.ma")
    assert "by cover" in log
    assert not loaded


def test_gen_leaves_numpy_ma_unloaded(demo, tmp_path):
    # Screening finds its distinct radii without np.unique, which loads
    # numpy.ma on first use and adds about 2 MB to the command's peak RSS.
    code = ("import sys; from sdc.cli import main; rc = main(sys.argv[1:]); "
            "print('numpy.ma' in sys.modules); sys.exit(rc)")
    argv = ["gen", "--config", str(demo["config"]), "--out-dir", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=fresh_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"


def test_select_reports_detection_classes(demo, pipeline, tmp_path):
    _, log, _ = select_in_fresh_process(demo["config"], pipeline, tmp_path)
    surviving = json.loads((pipeline / "gen-stats.json").read_text())["surviving"]
    selected = len(read_store(str(tmp_path / "store.json"))[0])
    got = re.search(r"^select: (\d+) constraints -> (\d+) detection classes "
                    r"\((\d+) detect nothing\) -> (\d+) selected \(LP objective ", log, re.M)
    assert got, log
    n, classes, idle, chosen = map(int, got.groups())
    assert (n, chosen) == (surviving, selected)
    assert 0 < classes <= surviving - idle


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
    cfg_path = config_copy(demo, "grid", grid={
        "m_values": [0.8],
        "embedding_d_in": [0.3],
        "embedding_d_out_offsets": [0.7],
        "score_d_in": [0.2],
        "score_d_out": [0.9],
        "hash_d_in": [0.2],
        "hash_d_out": [0.9],
    })
    out = demo["root"] / "out-grid"
    rc = run(["gen", "--config", str(cfg_path), "--out-dir", str(out)])
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
    rc = run(["select", "--config", str(config_copy(demo, "b-size-0", selection={"b_size": 0})),
              "--rules", str(pipeline / "rules.jsonl"),
              "--registry", str(pipeline / "registry.json"),
              "--out-dir", str(out)])
    assert rc == 0
    sdcs, _ = read_store(str(out / "store.json"))
    assert sdcs == []


@pytest.mark.parametrize("option", ["--delta=5", "--b-fpr=nan"])
def test_select_out_of_range_option_is_usage_error(option, tmp_path, demo, capsys):
    # Selection settings are config keys only, so select refuses the
    # old override options whatever their value.
    rc = run(["select", "--config", str(demo["config"]), "--out-dir", str(tmp_path), option])
    assert rc == 1
    assert "No such option" in capsys.readouterr().err


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
        if column_by_id(clean, cid).values != column_by_id(dirty, cid).values
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


def test_infer_stderr_counts_distinct_values(demo, pipeline, injected, capsys):
    report = demo["root"] / "report-counts.jsonl"
    rc = run(["infer", "--rules", str(pipeline / "store.json"),
              "--corpus", str(injected["dirty"]), "--out", str(report)])
    assert rc == 0
    corpus = load_corpus(str(injected["dirty"]))
    distinct = {nv for col in corpus for nv in col.normalized()}
    detections = len(load_report(str(report)))
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"infer: {detections} detections over {len(corpus)} columns, "
        f"{len(distinct)} distinct values"
    )


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
    rc = run(["bench", "--config", str(config_copy(demo, "seed-11", seed=11)), "--heldout", "20",
              "--rate", "0.2", "--out-dir", str(out)])
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


def without_function(registry: dict, fn_id: str) -> dict:
    return dict(registry, functions=[f for f in registry["functions"] if f["id"] != fn_id])


def test_store_naming_an_unknown_function_is_data_error(demo, pipeline, tmp_path, capsys):
    store = json.loads((pipeline / "store.json").read_text())
    fn_id = store["sdcs"][0]["fn_id"]
    store["registry"] = without_function(store["registry"], fn_id)
    path = tmp_path / "store.json"
    path.write_text(json.dumps(store))
    rc = run(["infer", "--rules", str(path), "--corpus", str(demo["data"] / "corpus.jsonl"),
              "--out", str(tmp_path / "report.jsonl")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "report.jsonl").exists()


def test_rules_naming_an_unknown_function_is_data_error(demo, pipeline, tmp_path, capsys):
    rules = [json.loads(line) for line in (pipeline / "rules.jsonl").read_text().splitlines()]
    fn_id = next(r["fn_id"] for r in rules if r.get("kind") != "assessed-meta")
    registry = json.loads((pipeline / "registry.json").read_text())
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(without_function(registry, fn_id)))
    rc = run(["select", "--config", str(demo["config"]), "--rules", str(pipeline / "rules.jsonl"),
              "--registry", str(path), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "store.json").exists()


def test_random_hash_count_bound(tmp_path):
    def load(count):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"paths": {"corpus": "c.jsonl"},
                                    "functions": {"random_hash_count": count}}))
        return PipelineConfig.load(str(path))

    assert load(MAX_RANDOM_HASHES).functions.random_hash_count == MAX_RANDOM_HASHES
    with pytest.raises(DataFormatError, match="random_hash_count"):
        load(MAX_RANDOM_HASHES + 1)


def test_default_score_is_checked_when_the_config_loads(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"paths": {"corpus": "c.jsonl", "score_tables": [
        {"type_name": "airport", "path": "s.jsonl", "default_score": 1.5}]}}))
    with pytest.raises(DataFormatError, match=re.escape(str(path)) + ".*default_score 1.5"):
        PipelineConfig.load(str(path))


def test_config_hash_names_every_setting(tmp_path):
    def config_hash(**settings):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"paths": {"corpus": "c.jsonl"}, **settings}))
        return PipelineConfig.load(str(path)).config_hash()

    # version and workers set nothing, but they load and the hash names them.
    hashes = [config_hash(), config_hash(seed=7), config_hash(grid={"m_values": [0.9]}),
              config_hash(version=1), config_hash(workers=1),
              *(config_hash(selection={key: value}) for key, value in (
                  ("b_size", 1), ("b_fpr", 0.2), ("delta", 0.5), ("strategy", "coarse"),
                  ("enforce_budgets", True)))]
    assert len(set(hashes)) == len(hashes)


@pytest.mark.parametrize("command, options", [
    ("gen", {"--config", "--out-dir"}),
    ("select", {"--config", "--rules", "--registry", "--out-dir"}),
    ("bench", {"--config", "--heldout", "--rate", "--out-dir"}),
])
def test_pipeline_settings_come_only_from_the_config(command, options):
    # Every other setting is a config key, so the config hash names it.
    params = cli.commands[command].params
    assert {opt for p in params for opt in p.opts} == options


EMBEDDING_WITHOUT_SPACE_ID = {"id": "emb:toy:red", "family": "embedding",
                              "params": {"centroid": "red"}}
INJECT = ["inject", "--out", "{tmp}/dirty.jsonl", "--truth-out", "{tmp}/truth-out.json"]
GEN_CONFIG = ["gen", "--config", "{file}"]
GEN_CONFIG_OUT = GEN_CONFIG + ["--out-dir", "{tmp}"]
SELECT_CONFIG = ["select", "--config", "{file}", "--out-dir", "{tmp}"]

# A misspelt key in each config section: the config, and the section
# and key that the error names. The corpus exists, so only the key can
# fail the run.
UNKNOWN_CONFIG_KEYS = {
    "top-level": ({"sede": 4}, "config", "sede"),
    "paths": ({"paths": {"corpus": "{corpus}", "corpora": "x"}}, "config.paths", "corpora"),
    "functions": ({"functions": {"validator": False}}, "config.functions", "validator"),
    "embedding": (
        {"paths": {"corpus": "{corpus}",
                   "embeddings": [{"space_id": "toy", "path": "{space}", "centroid": 3}]}},
        "config.paths.embeddings[0]", "centroid"),
    "score-table": (
        {"paths": {"corpus": "{corpus}",
                   "score_tables": [{"type_name": "airport", "path": "{scores}", "default": 0}]}},
        "config.paths.score_tables[0]", "default"),
    "grid": ({"grid": {"m_value": [0.9]}}, "config.grid", "m_value"),
    "selection": ({"selection": {"b_sise": 1}}, "config.selection", "b_sise"),
}


def unknown_key_config(name):
    config, _, _ = UNKNOWN_CONFIG_KEYS[name]
    return {"paths": {"corpus": "{corpus}"}, **config}


# Each case: the file written, its contents (None: nothing is written),
# and the command that reads it ({file} is that file, {tmp} a scratch
# directory). In JSON contents the strings "{corpus}" and "{space}"
# stand for the paths of the demo corpus and embedding space. Every
# case's directory also holds the SIDE_FILES: LATIN1, a file that is
# not UTF-8, and score tables with one malformed line each.
LATIN1 = "latin1.txt"
SIDE_FILES = {
    LATIN1: b"caf\xe9 1.0 2.0\n",
    "scores-null-value.jsonl": b'{"value": null, "score": 1}\n',
    "scores-number-value.jsonl": b'{"value": 12, "score": 1}\n',
    "scores-boolean-score.jsonl": b'{"value": "jfk", "score": true}\n',
}
SELECT_RULES = ["select", "--config", "{config}", "--rules", "{file}", "--registry", "{registry}",
                "--out-dir", "{tmp}"]
SELECT_REGISTRY = ["select", "--config", "{config}", "--rules", "{rules}", "--registry", "{file}",
                   "--out-dir", "{tmp}"]
INFER_STORE = ["infer", "--rules", "{file}", "--corpus", "{corpus}", "--out", "{tmp}/report.jsonl"]
EMAIL = {"id": "validator:email", "family": "validator", "params": {"name": "email"}}


def store(registry, sdcs=()):
    """A store with this registry manifest and these constraint records."""
    return {"kind": "sdc-store", "registry": registry, "sdcs": list(sdcs)}


# A rules.jsonl line that select accepts (test_good_rule_line_selects);
# each rules- case below breaks one of its fields.
GOOD_RULE = {"id": "sdc-0000000000000000", "fn_id": "validator:email", "d_in": 0.0,
             "d_out": 1.0, "m": 0.9, "confidence": 0.95, "table": [0, 30, 5, 65], "h": 1.2,
             "p": 0.001}
MALFORMED_INPUTS = {
    "truth-without-error-indices": (
        "truth.json", '{"id": "c0"}\n', INJECT + ["--corpus", "{corpus}", "--truth", "{file}"]),
    # The threshold grid is the config's grid section.
    "grid-invalid-json": ("cfg.json", '{"paths": {"corpus": "c.jsonl"}, "grid": {not json',
                          GEN_CONFIG),
    "grid-not-an-object": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "grid": "m_values"}, GEN_CONFIG_OUT),
    "grid-empty-m-values": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "grid": {"m_values": []}}, GEN_CONFIG_OUT),
    "grid-entry-beyond-float-range": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "grid": {"m_values": [10**400]}},
        GEN_CONFIG_OUT),
    **{f"config-unknown-{name}-key": ("cfg.json", unknown_key_config(name), GEN_CONFIG_OUT)
       for name in UNKNOWN_CONFIG_KEYS},
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
    # Config flags take only JSON true/false. The corpus exists, so
    # only the flag can fail the run.
    "config-enforce-budgets-not-a-boolean": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "selection": {"enforce_budgets": "false"}},
        GEN_CONFIG_OUT),
    "config-skip-numeric-columns-not-a-boolean": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "skip_numeric_columns": 0}, GEN_CONFIG_OUT),
    "config-validators-not-a-boolean": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "functions": {"validators": "no"}},
        GEN_CONFIG_OUT),
    # Selection settings out of range.
    **{
        f"config-{name}": ("cfg.json", {"paths": {"corpus": "c.jsonl"}, "selection": change},
                           SELECT_CONFIG)
        for name, change in (
            ("selection-delta-out-of-range", {"delta": 5}),
            ("delta-zero", {"delta": 0}),
            ("b-size-negative", {"b_size": -1}),
            ("b-fpr-negative", {"b_fpr": -1}),
        )
    },
    # A config and each of its sections must be JSON objects, and integer
    # settings JSON integers. The corpus exists, so only the malformed
    # part can fail the run.
    "config-top-level-array": ("cfg.json", [{"paths": {"corpus": "{corpus}"}}], GEN_CONFIG_OUT),
    **{
        f"config-{key}-not-an-object": (
            "cfg.json", {"paths": {"corpus": "{corpus}"}, key: ["x"]}, GEN_CONFIG_OUT)
        for key in ("functions", "selection", "assess")
    },
    "config-paths-not-an-object": ("cfg.json", {"paths": ["corpus"]}, GEN_CONFIG_OUT),
    "config-grid-empty-array": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "grid": []}, GEN_CONFIG_OUT),
    "config-b-size-boolean": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "selection": {"b_size": True}},
        GEN_CONFIG_OUT),
    "config-b-size-fraction": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "selection": {"b_size": 2.7}},
        GEN_CONFIG_OUT),
    "config-seed-fraction": ("cfg.json", {"paths": {"corpus": "{corpus}"}, "seed": 2.5},
                             GEN_CONFIG_OUT),
    # The registry's counts and seeds are JSON integers too, and the
    # selection budgets JSON numbers.
    "config-patterns-top-k-fraction": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "functions": {"patterns_top_k": 2.7}},
        GEN_CONFIG_OUT),
    "config-centroids-boolean": (
        "cfg.json",
        {"paths": {"corpus": "{corpus}",
                   "embeddings": [{"space_id": "toy", "path": "{space}", "centroids": True}]}},
        GEN_CONFIG_OUT),
    "config-random-hash-count-string": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "functions": {"random_hash_count": "3"}},
        GEN_CONFIG_OUT),
    # A count far beyond the bound is refused before any function is built.
    "config-random-hash-count-huge": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "functions": {"random_hash_count": 10**400}},
        GEN_CONFIG_OUT),
    "config-random-hash-seed-fraction": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "functions": {"random_hash_seed": 1.5}},
        GEN_CONFIG_OUT),
    "config-b-fpr-boolean": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "selection": {"b_fpr": True}},
        GEN_CONFIG_OUT),
    "config-delta-string": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "selection": {"delta": "0.01"}},
        GEN_CONFIG_OUT),
    # Python's json reads NaN and Infinity, which are not JSON numbers.
    "config-b-fpr-nan": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "selection": {"b_fpr": float("nan")}},
        GEN_CONFIG_OUT),
    "config-b-fpr-beyond-float-range": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "selection": {"b_fpr": 10**400}},
        GEN_CONFIG_OUT),
    # Assess settings, grid entries and a score table's default score
    # are JSON numbers too.
    "config-assess-z-boolean": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "assess": {"z": True}}, GEN_CONFIG_OUT),
    "config-assess-h-min-string": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "assess": {"h_min": "0.8"}}, GEN_CONFIG_OUT),
    "config-grid-m-values-string-entry": (
        "cfg.json", {"paths": {"corpus": "{corpus}"}, "grid": {"m_values": ["0.9"]}},
        GEN_CONFIG_OUT),
    **{
        f"config-default-score-{kind}": (
            "cfg.json",
            {"paths": {"corpus": "{corpus}", "score_tables": [
                {"type_name": "airport", "path": "{scores}", "default_score": value}]}},
            GEN_CONFIG_OUT)
        for kind, value in (("boolean", True), ("string", "x"), ("out-of-range", 1.5))
    },
    "config-embedding-file-missing": (
        "cfg.json",
        {"paths": {"corpus": "{corpus}", "embeddings": [{"space_id": "toy", "path": "nope.txt"}]}},
        GEN_CONFIG_OUT),
    "config-score-table-file-missing": (
        "cfg.json",
        {"paths": {"corpus": "{corpus}",
                   "score_tables": [{"type_name": "airport", "path": "nope.jsonl"}]}},
        GEN_CONFIG_OUT),
    "store-embedding-without-space-id": (
        "store.json",
        {"kind": "sdc-store", "registry": {"functions": [EMBEDDING_WITHOUT_SPACE_ID]},
         "sdcs": []},
        ["infer", "--rules", "{file}", "--corpus", "{corpus}", "--out", "{tmp}/report.jsonl"]),
    # Constraint ids are compared when detection ranks flaggers.
    "store-id-not-a-string": (
        "store.json",
        {"kind": "sdc-store", "registry": {"functions": []},
         "sdcs": [{"id": ["x"], "fn_id": "f", "d_in": 0.1, "d_out": 0.5, "m": 1.0,
                   "confidence": 0.9}]},
        ["infer", "--rules", "{file}", "--corpus", "{corpus}", "--out", "{tmp}/report.jsonl"]),
    # A recorded default score is a JSON number, as in the config.
    "store-default-score-boolean": (
        "store.json",
        {"kind": "sdc-store", "sdcs": [], "registry": {"functions": [
            {"id": "score:airport", "family": "score_table",
             "params": {"type_name": "airport", "scores": {"jfk": 1.0}, "default_score": True}}]}},
        ["infer", "--rules", "{file}", "--corpus", "{corpus}", "--out", "{tmp}/report.jsonl"]),
    "registry-embedding-without-space-id": (
        "registry.json", {"functions": [EMBEDDING_WITHOUT_SPACE_ID]},
        ["select", "--config", "{config}", "--rules", "{rules}", "--registry", "{file}",
         "--out-dir", "{tmp}"]),
    "corpus-not-utf8": (
        "corpus.jsonl", b'{"id": "c0", "values": ["caf\xe9"]}\n', INJECT + ["--corpus", "{file}"]),
    "config-embedding-not-utf8": (
        "cfg.json",
        {"paths": {"corpus": "{corpus}", "embeddings": [{"space_id": "toy", "path": LATIN1}]}},
        GEN_CONFIG_OUT),
    "config-score-table-not-utf8": (
        "cfg.json",
        {"paths": {"corpus": "{corpus}",
                   "score_tables": [{"type_name": "airport", "path": LATIN1}]}},
        GEN_CONFIG_OUT),
    "config-not-utf8": ("cfg.json", b'{"paths": {"corpus": "caf\xe9"}}', GEN_CONFIG),
    "rules-missing": (
        "rules.jsonl", None,
        ["select", "--config", "{config}", "--rules", "{file}", "--out-dir", "{tmp}"]),
    "rules-not-utf8": (
        "rules.jsonl", b'{"kind": "caf\xe9"}\n',
        ["select", "--config", "{config}", "--rules", "{file}", "--out-dir", "{tmp}"]),
    "registry-not-utf8": (
        "registry.json", b'{"functions": ["caf\xe9"]}',
        ["select", "--config", "{config}", "--rules", "{rules}", "--registry", "{file}",
         "--out-dir", "{tmp}"]),
    "store-not-utf8": (
        "store.json", b'{"kind": "caf\xe9"}',
        ["infer", "--rules", "{file}", "--corpus", "{corpus}", "--out", "{tmp}/report.jsonl"]),
    "truth-missing": ("truth.json", None, INJECT + ["--corpus", "{corpus}", "--truth", "{file}"]),
    "truth-not-utf8": (
        "truth.json", b'{"id": "caf\xe9", "error_indices": []}\n',
        INJECT + ["--corpus", "{corpus}", "--truth", "{file}"]),
    # A score-table value is a JSON string and a score a JSON number,
    # in a score-table file and in a store's inline table alike.
    **{
        f"config-{name[:-len('.jsonl')]}": (
            "cfg.json",
            {"paths": {"corpus": "{corpus}",
                       "score_tables": [{"type_name": "airport", "path": name}]}},
            GEN_CONFIG_OUT)
        for name in SIDE_FILES if name.startswith("scores-")
    },
    "store-inline-score-boolean": (
        "store.json",
        {"kind": "sdc-store", "sdcs": [], "registry": {"functions": [
            {"id": "score:airport", "family": "score_table",
             "params": {"type_name": "airport", "scores": {"jfk": True}}}]}},
        ["infer", "--rules", "{file}", "--corpus", "{corpus}", "--out", "{tmp}/report.jsonl"]),
    # Every check of a rules.jsonl line.
    **{
        f"rules-{name}": ("rules.jsonl", json.dumps({**GOOD_RULE, **change}) + "\n", SELECT_RULES)
        for name, change in (
            ("d-out-below-d-in", {"d_in": 0.5, "d_out": 0.4}),
            ("m-zero", {"m": 0}),
            ("three-count-table", {"table": [0, 30, 5]}),
            ("fn-id-not-a-string", {"fn_id": 7}),
            ("h-not-a-number", {"h": "x"}),
            # The six numbers are JSON numbers and the counts JSON integers.
            ("d-in-string", {"d_in": "0"}),
            ("m-boolean", {"m": True}),
            ("table-counts-not-integers", {"table": [True, 30.9, "5", 65]}),
            ("p-boolean", {"p": False}),
        )
    },
    "store-constraint-not-an-object": ("store.json", store({}, [["sdc-x"]]), INFER_STORE),
    "store-d-in-string": (
        "store.json",
        store({"functions": [EMAIL]}, [{"id": "sdc-x", "fn_id": "validator:email", "d_in": "0.1",
                                        "d_out": 1.0, "m": 0.9, "confidence": 0.9}]),
        INFER_STORE),
    # A manifest is an object whose spaces map ids to paths and whose
    # functions are objects with string ids; a hash seed is a JSON
    # integer and an inline score table an object.
    "store-registry-not-an-object": ("store.json", store([]), INFER_STORE),
    "store-functions-not-a-list": ("store.json", store({"functions": {"x": 1}}), INFER_STORE),
    "store-functions-null": ("store.json", store({"functions": None}), INFER_STORE),
    "store-spaces-not-an-object": ("store.json", store({"spaces": ["x"]}), INFER_STORE),
    "store-space-path-not-a-string": ("store.json", store({"spaces": {"toy": ["x"]}}), INFER_STORE),
    "store-inline-scores-not-an-object": (
        "store.json",
        store({"functions": [{"id": "score:airport", "family": "score_table",
                              "params": {"type_name": "airport", "scores": ["jfk"]}}]}),
        INFER_STORE),
    "registry-not-an-object": ("registry.json", [], SELECT_REGISTRY),
    **{
        f"store-random-hash-seed-{kind}": (
            "store.json",
            store({"functions": [{"id": "hash:7", "family": "random_hash",
                                  "params": {"seed": seed}}]}),
            INFER_STORE)
        for kind, seed in (("fraction", 2.7), ("string", "7"))
    },
    "store-function-id-not-a-string": (
        "store.json", store({"functions": [{**EMAIL, "id": 5}]}), INFER_STORE),
    # The params and config entries that name things are strings.
    "store-centroid-not-a-string": (
        "store.json",
        store({"spaces": {"toy": "{space}"}, "functions": [
            {"id": "emb:toy:red", "family": "embedding",
             "params": {"space_id": "toy", "centroid": 5}}]}),
        INFER_STORE),
    "store-score-table-path-not-a-string": (
        "store.json",
        store({"functions": [{"id": "score:airport", "family": "score_table",
                              "params": {"type_name": "airport", "path": 5}}]}),
        INFER_STORE),
    "config-space-id-not-a-string": (
        "cfg.json",
        {"paths": {"corpus": "{corpus}", "embeddings": [{"space_id": 5, "path": "{space}"}]}},
        GEN_CONFIG_OUT),
    "config-type-name-not-a-string": (
        "cfg.json",
        {"paths": {"corpus": "{corpus}",
                   "score_tables": [{"type_name": ["airport"], "path": "{scores}"}]}},
        GEN_CONFIG_OUT),
    # A truth line has a string id and JSON-integer indices.
    "truth-indices-not-integers": (
        "truth.json", '{"id": "col-00001", "error_indices": [1.7, true, "2"]}\n',
        INJECT + ["--corpus", "{corpus}", "--truth", "{file}"]),
    "truth-id-not-a-string": (
        "truth.json", '{"id": 5, "error_indices": [1]}\n',
        INJECT + ["--corpus", "{corpus}", "--truth", "{file}"]),
}


@pytest.mark.parametrize("name", list(MALFORMED_INPUTS))
def test_malformed_input_is_data_error(name, tmp_path, demo, pipeline):
    file_name, contents, argv = MALFORMED_INPUTS[name]
    path = tmp_path / file_name
    slots = {"file": path, "tmp": tmp_path, "config": demo["config"],
             "corpus": demo["data"] / "corpus.jsonl", "space": demo["data"] / "toy-space.txt",
             "scores": demo["data"] / "scores-airport.jsonl",
             "rules": pipeline / "rules.jsonl", "registry": pipeline / "registry.json"}
    for side, data in SIDE_FILES.items():
        (tmp_path / side).write_bytes(data)
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    elif isinstance(contents, str):
        path.write_text(contents)
    elif contents is not None:
        text = json.dumps(contents)
        for slot in ("corpus", "space", "scores"):
            text = text.replace(f'"{{{slot}}}"', json.dumps(str(slots[slot])))
        path.write_text(text)
    assert run([arg.format(**slots) for arg in argv]) == 2


@pytest.mark.parametrize("name", list(UNKNOWN_CONFIG_KEYS))
def test_unknown_config_key_is_named(name, tmp_path):
    _, section, key = UNKNOWN_CONFIG_KEYS[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(unknown_key_config(name)))
    with pytest.raises(DataFormatError, match=re.escape(f"unknown key {key!r} in {section})")):
        PipelineConfig.load(str(path))


def test_good_rule_line_selects(tmp_path, demo, pipeline):
    # So each rules- case of MALFORMED_INPUTS fails on its broken field.
    path = tmp_path / "rules.jsonl"
    path.write_text(json.dumps(GOOD_RULE) + "\n")
    slots = {"config": demo["config"], "file": path, "registry": pipeline / "registry.json",
             "tmp": tmp_path}
    assert run([arg.format(**slots) for arg in SELECT_RULES]) == 0
    assert json.loads((tmp_path / "store.json").read_text())["kind"] == "sdc-store"
