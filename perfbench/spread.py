"""Run the benchmark once per seed and summarize each metric.

    python3 perfbench/spread.py --workload desk --seeds 1-10

Run from the repository root. For every metric it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median, and it checks the share
of failed operations. Every run is an end-to-end one (``--trace 0``)
of BENCHMARK.json's ``run_seconds``; each run's standard error (rounds,
checks, ``host.ref_s`` readings) is kept under ``perfbench/work/spread/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    results = []
    logs = os.path.join("perfbench", "work", "spread")
    os.makedirs(logs, exist_ok=True)
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        with open(os.path.join(logs, f"{args.workload}-{seed}.err"), "w",
                  encoding="utf-8") as fh:
            fh.write(out.stderr)
        res = json.loads(out.stdout.splitlines()[-1])
        results.append(res)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {values}", flush=True)
    summary = {"workload": args.workload, "seeds": args.seeds,
               "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
               "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / med if med else None}
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {summary['metrics'][name]['spread']}")
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
