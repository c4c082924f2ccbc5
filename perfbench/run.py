"""Benchmark of the sdc command-line pipeline.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 35 --trace 0

Run from the repository root. The run generates the workload's inputs
from ``--seed`` (set-up, repeated; see ``SETUP_SECONDS``), then runs the
workload's CLI commands (``sdc gen``, ``sdc select``, ``sdc infer``) in
fresh processes, one at a time, as a single closed-loop client, for as
many whole rounds as fit in ``--seconds`` (at least three). It then checks
the outputs against its own computations and prints one JSON line. With
``--trace 1`` it also replays the commands in-process with a span around
each call and reports the per-layer metrics instead of the end-to-end
ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up runs before the rounds and again after them, each time at least
# once and until SETUP_SECONDS have passed, so that the median spans the
# run rather than one moment of the host's load.
SETUP_SECONDS = 1.0
HOST_REF_REPEATS = 2
# wall_s takes each timed command's mean over the rounds without its
# fastest and slowest round (see ``trimmed_mean``).
MIN_ROUNDS = 3
# Share of the scanned columns the naive detection check re-evaluates on
# the lake workload (all columns on the others).
LAKE_CHECK_SHARE = 0.125
# Every process, this one included, runs with a fixed hash seed and
# single-threaded BLAS/OpenMP.
FIXED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI = [sys.executable, "-c", "import sys; from sdc.cli import main; sys.exit(main())"]
FAMILIES = ("embedding", "pattern", "validator", "score_table", "random_hash")


def host_ref() -> float:
    """A fixed pure-Python loop; its time tracks the machine's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def trimmed_mean(values) -> float:
    """Mean without the smallest and the largest value: the median for
    three or four values, close to the mean for more. Over windows of
    one run's length it spread about a sixth less than the median of the
    same round times, while one slow round still moves it little."""
    values = sorted(values)
    return statistics.mean(values[1:-1] if len(values) > 2 else values)


def sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs CLI commands in fresh processes and times them."""

    def __init__(self, log_path: str) -> None:
        self.env = dict(os.environ, **FIXED_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.log_path = log_path

    def run(self, argv: list[str]) -> tuple[float, float, int]:
        """(wall seconds, peak RSS in MB, exit code) of one command."""
        with open(self.log_path, "a", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(CLI + argv, env=self.env, stdout=log, stderr=log, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: end the command too
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def import_seconds(self) -> float:
        """Time to import sdc.cli in a fresh process."""
        code = ("import time; t = time.perf_counter(); import sdc.cli; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return float(out.stdout)


class Ledger:
    """Counts operations (commands and checks) and their failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def command(self, name: str, code: int) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"FAIL command {name}: exit code {code}", file=sys.stderr)

    def check(self, name: str, fn, *args) -> None:
        from oracle import CheckFailed

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            fn(*args)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            self.failed += 1
            print(f"FAIL check {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        else:
            print(f"check {name}: ok ({time.perf_counter() - t0:.2f}s)", file=sys.stderr)


def learning_commands(paths: dict) -> list[tuple[str, list[str]]]:
    return [("gen", ["gen", "--config", paths["config"]]),
            ("select", ["select", "--config", paths["config"]])]


def timed_commands(workload, paths: dict) -> list[tuple[str, list[str]]]:
    infer = [("infer", ["infer", "--rules", os.path.join(paths["out"], "store.json"),
                        "--corpus", paths["scan"],
                        "--out", os.path.join(paths["out"], "report.jsonl")])]
    return learning_commands(paths) + infer if workload.timed_learning else infer


def set_up(workload, seed: int, work: str, runner: Runner, ledger: Ledger) -> tuple[dict, list]:
    """Make the inputs under ``work`` at least once and for at least
    ``SETUP_SECONDS``; on a workload whose learning is untimed,
    each repetition also learns the store with the CLI. Returns the
    inputs and one record per repetition."""
    from inputs import files_digest, make_inputs

    reps = []
    t_start = time.perf_counter()
    while not reps or time.perf_counter() - t_start < SETUP_SECONDS:
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        t0 = time.perf_counter()
        paths = make_inputs(workload, seed, work)
        cmds = {}
        if not workload.timed_learning:
            for name, argv in learning_commands(paths):
                cmds[name] = runner.run(argv)
                ledger.command(name, cmds[name][2])
        seconds = time.perf_counter() - t0
        digest = files_digest(work)
        if not workload.timed_learning:
            # The learned constraints; the store's manifest names the
            # set-up directory, which differs between repetitions.
            with open(os.path.join(paths["out"], "store.json"), encoding="utf-8") as fh:
                digest += json.dumps(json.load(fh)["sdcs"])
        reps.append({"seconds": seconds, "digest": digest, "commands": cmds})
    print("setup: " + " ".join(f"{r['seconds']:.3f}s" for r in reps), file=sys.stderr)
    return paths, reps


def run_checks(workload, paths: dict, seed: int, ledger: Ledger) -> dict:
    """Check the last round's outputs. Returns ``{"pr_auc": ...}`` as
    computed here, when the PR-AUC check could run."""
    import oracle
    from sdc.assess import AssessConfig
    from sdc.candidates import GridSpec, enumerate_candidates
    from sdc.domain_fns import Registry
    from sdc.evaluation import pr_auc, pr_curve
    from sdc.infer import Detection

    out = paths["out"]
    with open(paths["config"], encoding="utf-8") as fh:
        config = json.load(fh)
    rules = oracle.read_jsonl(os.path.join(out, "rules.jsonl"), "assessed-meta")
    with open(os.path.join(out, "gen-stats.json"), encoding="utf-8") as fh:
        gen_stats = json.load(fh)
    with open(os.path.join(out, "registry.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(out, "store.json"), encoding="utf-8") as fh:
        store = json.load(fh)
    report = oracle.read_jsonl(os.path.join(out, "report.jsonl"), "report-meta")
    truth = paths["truth"]
    rng = random.Random(f"checks:{workload.name}:{seed}")
    result = {}

    def screening() -> None:
        registry = Registry.from_manifest(manifest)
        columns = oracle.drop_numeric(oracle.read_columns(paths["train"]))
        if len(columns) != gen_stats["columns"]:
            raise oracle.CheckFailed(f"gen saw {gen_stats['columns']} training columns, "
                                     f"expected {len(columns)}")
        grid = GridSpec.from_json(config.get("grid", {}))
        candidates = [(c.id, c.fn_id, c.d_in, c.d_out, c.m)
                      for c in enumerate_candidates(registry.functions(), grid)]
        cfg = {**AssessConfig().to_json(), **config.get("assess", {})}
        n = oracle.check_screening(rules, candidates, columns, registry, cfg, rng)
        print(f"screening: {n} candidates re-derived", file=sys.stderr)

    def detection() -> None:
        columns = oracle.read_columns(paths["scan"])
        if workload.lake is not None:
            keep = set(rng.sample(range(len(columns)), round(LAKE_CHECK_SHARE * len(columns))))
            columns = [col for i, col in enumerate(columns) if i in keep]
        registry = Registry.from_manifest(store["registry"])
        expected = oracle.naive_detections(store["sdcs"], registry, columns)
        oracle.check_report(report, expected, [cid for cid, _ in columns])

    def auc() -> None:
        own = oracle.pr_auc_exact(report, truth)
        program = pr_auc(pr_curve([Detection.from_record(r) for r in report],
                                  {cid: {i} for cid, i in truth.items()}))
        oracle.check_auc(program, own)
        result["pr_auc"] = own

    ledger.check("funnel", oracle.check_funnel, gen_stats, len(rules))
    ledger.check("screening", screening)
    ledger.check("store", oracle.check_store, store, rules)
    if workload.random_hashes:
        ledger.check("no_hash_survivor", oracle.check_no_hash_survivor, rules, manifest)
    ledger.check("detection", detection)
    ledger.check("pr_auc", auc)
    return result


def family_ns_per_value(registry, values: list[str]) -> dict[str, float]:
    """Mean ``eval_distance`` time per value for up to three functions of
    each family (a seeded hash function stands in when the workload has
    none)."""
    from sdc.domain_fns import eval_distance, make_random_hash_fn

    out = {}
    for family in FAMILIES:
        fns = [f for f in registry.functions() if f.family == family][:3]
        if not fns and family == "random_hash":
            fns = [make_random_hash_fn(0)]
        t0 = time.perf_counter_ns()
        for fn in fns:
            for v in values:
                eval_distance(fn, v)
        out[family] = (time.perf_counter_ns() - t0) / (len(fns) * len(values))
    return out


def traced_run(workload, paths: dict, work: str, ledger: Ledger) -> Tracer:
    """Replay the commands in-process under the tracer; check that the
    replay exits with 0 and writes the same bytes as the CLI did."""
    from tracing import Tracer, traced_cli

    tr = Tracer()
    replay = os.path.join(work, "replay")
    learn = [argv + ["--out-dir", replay] for _, argv in learning_commands(paths)]
    store = os.path.join(replay if workload.timed_learning else paths["out"], "store.json")
    infer = ["infer", "--rules", store, "--corpus", paths["scan"],
             "--out", os.path.join(replay, "report.jsonl")]
    codes = []
    if not workload.timed_learning:
        with tr.span("setup"):
            codes += [traced_cli(tr, argv) for argv in learn]
    with tr.span("timed"):
        if workload.timed_learning:
            codes += [traced_cli(tr, argv) for argv in learn]
        codes.append(traced_cli(tr, infer))

    def same_bytes() -> None:
        from oracle import CheckFailed

        if any(codes):
            raise CheckFailed(f"traced replay exit codes {codes}")
        for name in ("rules.jsonl", "store.json", "report.jsonl"):
            if sha(os.path.join(replay, name)) != sha(os.path.join(paths["out"], name)):
                raise CheckFailed(f"traced replay wrote a different {name}")

    ledger.check("replay_matches_cli", same_bytes)
    tr.write(os.path.join(work, "spans.json"))
    return tr


def timed_corpus(workload, paths: dict):
    """The corpus the timed commands work on: the training corpus as
    ``sdc gen`` filters it, or the scanned one on ``lake``."""
    from sdc.cli import PipelineConfig
    from sdc.corpus import filter_columns, load_corpus

    if not workload.timed_learning:
        return load_corpus(paths["scan"])
    cfg = PipelineConfig.load(paths["config"])
    return filter_columns(load_corpus(cfg.corpus_path), skip_numeric=cfg.skip_numeric)


def layer_metrics(workload, paths: dict, rounds, reps, tr, runner: Runner,
                  host: list) -> dict:
    from sdc.domain_fns import Registry

    secs = tr.seconds_by_name()
    counts = {}
    for s in tr.spans:
        counts.update({f"{s['name']}.{k}": v for k, v in s["counts"].items()})
    if workload.timed_learning:
        runs = [(name, wall, rss) for rnd in rounds for name, wall, rss, _ in rnd]
    else:
        runs = [(name, wall, rss) for rep in reps
                for name, (wall, rss, _) in rep["commands"].items()]
        runs += [(name, wall, rss) for rnd in rounds for name, wall, rss, _ in rnd]
    metrics = {"cli.import_s": (statistics.median(runner.import_seconds() for _ in range(3)), "s")}
    for cmd in ("gen", "select", "infer"):
        metrics[f"cli.{cmd}_s"] = (statistics.median(w for n, w, _ in runs if n == cmd), "s")
        metrics[f"cli.{cmd}_rss_mb"] = (statistics.median(r for n, _, r in runs if n == cmd), "MB")
    corpus = timed_corpus(workload, paths)
    distinct = sorted({v for col in corpus for v in col.normalized()})
    metrics["corpus.load_s"] = (secs["corpus.load"], "s")
    metrics["corpus.cells"] = (sum(len(col) for col in corpus), "count")
    metrics["corpus.distinct_values"] = (len(distinct), "count")
    metrics["domain_fns.build_registry_s"] = (secs["domain_fns.build_registry"], "s")
    metrics["domain_fns.load_manifest_s"] = (secs["domain_fns.load_manifest"], "s")
    # The learned registry, or on lake the store's (the last manifest read).
    fn_count = counts["domain_fns.build_registry.functions" if workload.timed_learning
                      else "domain_fns.load_manifest.functions"]
    metrics["domain_fns.functions"] = (fn_count, "count")
    with open(os.path.join(paths["out"], "registry.json"), encoding="utf-8") as fh:
        registry = Registry.from_manifest(json.load(fh))
    sample = random.Random(0).sample(distinct, min(3000, len(distinct)))
    for family, ns in family_ns_per_value(registry, sample).items():
        metrics[f"domain_fns.{family}_ns_per_value"] = (ns, "ns")
    metrics["candidates.enumerate_s"] = (secs["candidates.enumerate"], "s")
    metrics["candidates.total"] = (counts["candidates.enumerate.total"], "count")
    # assess_all drives the lazy enumeration; its time is enumerate_s's.
    metrics["assess.assess_all_s"] = (secs["assess.assess_all"] - secs["candidates.enumerate"],
                                      "s")
    metrics["assess.rules_io_s"] = (secs["assess.rules_io"], "s")
    for key in ("evaluated", "pruned_skips", "passed_coverage", "survivors"):
        metrics[f"assess.{key}"] = (counts[f"assess.assess_all.{key}"], "count")
    metrics["synth.build_s"] = (secs["synth.build"], "s")
    metrics["synth.candidate_stats_s"] = (secs["synth.candidate_stats"], "s")
    metrics["synth.columns"] = (counts["synth.build.columns"], "count")
    metrics["synth.idle_survivors"] = (counts["synth.candidate_stats.idle_survivors"], "count")
    metrics["select.run_selection_s"] = (secs["select.run_selection"], "s")
    metrics["select.store_io_s"] = (secs["select.store_io"], "s")
    for key, unit in (("cover_entries", "count"), ("empty_cover_sets", "count"),
                      ("lp_objective", "columns"), ("rounded_objective", "columns"),
                      ("selected", "count")):
        metrics[f"select.{key}"] = (counts[f"select.run_selection.{key}"], unit)
    metrics["infer.compile_s"] = (secs["infer.compile"], "s")
    metrics["infer.detect_s"] = (secs["infer.detect"], "s")
    metrics["infer.report_io_s"] = (secs["infer.report_io"], "s")
    metrics["infer.precondition_groups"] = (counts["infer.compile.precondition_groups"], "count")
    metrics["infer.detections"] = (counts["infer.detect.detections"], "count")
    metrics["host.ref_s"] = (statistics.median(host), "s")
    timed = next(i for i, s in enumerate(tr.spans) if s["name"] == "timed")
    top = sorted(((v, k) for k, v in tr.self_seconds(timed).items()), reverse=True)[:6]
    print("self time under the timed root: "
          + ", ".join(f"{k} {v:.3f}s" for v, k in top), file=sys.stderr)
    # In-process replay against the same command run as a user runs it,
    # less the fresh process's import of sdc.cli.
    for cmd in ("gen", "select", "infer"):
        untraced = metrics[f"cli.{cmd}_s"][0] - metrics["cli.import_s"][0]
        print(f"tracing: cli.{cmd} traced {secs[f'cli.{cmd}']:.3f}s, untraced minus import "
              f"{untraced:.3f}s", file=sys.stderr)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM unwind like on an exception, so a running command is ended.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "sdc", "cli.py")):
        print(f"no sdc sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, **FIXED_ENV))
    sys.path[:0] = [SRC, HERE]
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(inputs.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = inputs.WORKLOADS[args.workload]
    base = os.path.join(HERE, "work", workload.name)
    shutil.rmtree(base, ignore_errors=True)
    digest = inputs.datagen_digest(os.path.join(base, "canary"))
    if digest != inputs.DATAGEN_DIGEST:
        print(f"sdc.datagen output changed (canary digest {digest}); the workloads would "
              "change with it. Update perfbench/inputs.py deliberately.", file=sys.stderr)
        return 2

    os.makedirs(base, exist_ok=True)
    runner = Runner(os.path.join(base, "cli.log"))
    ledger = Ledger()
    host = [host_ref() for _ in range(HOST_REF_REPEATS)]
    paths, reps = set_up(workload, args.seed, os.path.join(base, "inputs"), runner, ledger)

    outputs = ["report.jsonl"] + (["rules.jsonl", "store.json"] if workload.timed_learning else [])
    first_digest = None
    rounds = []
    # Whole rounds only, at least MIN_ROUNDS; another round starts if a
    # round of median length still ends within --seconds.
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 + statistics.median(
            sum(w for _, w, _, _ in rnd) for rnd in rounds) <= args.seconds:
        rnd = []
        for name, argv in timed_commands(workload, paths):
            wall, rss, code = runner.run(argv)
            ledger.command(name, code)
            rnd.append((name, wall, rss, code))
        rounds.append(rnd)
        print("round: " + ", ".join(f"{n} {w:.3f}s {r:.0f}MB" for n, w, r, _ in rnd),
              file=sys.stderr)
        ledger.attempted += 1
        digest = "".join(sha(os.path.join(paths["out"], n)) for n in outputs
                         if os.path.exists(os.path.join(paths["out"], n)))
        first_digest = first_digest or digest
        if digest != first_digest:
            ledger.failed += 1
            print("FAIL check rounds_identical: outputs changed between rounds", file=sys.stderr)

    result = run_checks(workload, paths, args.seed, ledger)
    if args.trace:
        tracer = traced_run(workload, paths, os.path.join(base, "trace"), ledger)
    reps += set_up(workload, args.seed, os.path.join(base, "inputs-again"), runner, ledger)[1]
    ledger.attempted += 1
    if len({r["digest"] for r in reps}) != 1:
        ledger.failed += 1
        print("FAIL check setup_deterministic: set-up repetitions differ", file=sys.stderr)
    host += [host_ref() for _ in range(HOST_REF_REPEATS)]
    print(f"host.ref_s before {host[:HOST_REF_REPEATS]} after {host[HOST_REF_REPEATS:]}",
          file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(workload, paths, rounds, reps, tracer, runner, host)
    else:
        metrics = {
            "setup_s": (statistics.median(r["seconds"] for r in reps), "s"),
            # Each timed command's trimmed mean over the rounds, summed.
            "wall_s": (sum(trimmed_mean(rnd[i][1] for rnd in rounds)
                           for i in range(len(rounds[0]))), "s"),
            "peak_rss_mb": (statistics.median(max(r for _, _, r, _ in rnd) for rnd in rounds),
                            "MB"),
            "pr_auc": (result.get("pr_auc", 0.0), "ratio"),
        }
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
