"""Output checks computed apart from the program.

Each check recomputes a program output with its own plain loop, or
tests a property the method must have, and raises ``CheckFailed`` on a
mismatch. The checks trust only the per-value distance of a domain
function (``fn.distance`` on a normalized value); contingency tables,
gate statistics, detection and PR-AUC arithmetic are all redone here.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

from scipy.stats import chi2

from inputs import normalize


class CheckFailed(Exception):
    pass


def _fail_unless(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Reading outputs


def read_jsonl(path: str, meta_kind: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh if line.strip()]
    return [r for r in recs if r.get("kind") != meta_kind]


def read_columns(path: str) -> list[tuple[str, list[str]]]:
    with open(path, encoding="utf-8") as fh:
        return [(r["id"], r["values"]) for r in map(json.loads, fh) if "values" in r]


_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def drop_numeric(columns):
    """Training corpora skip columns whose values are at least 90%
    numbers (the documented ``skip_numeric_columns`` default)."""

    def numeric(v: str) -> bool:
        s = v.strip()
        return bool(_NUMBER.match(s)) and math.isfinite(float(s))

    return [(cid, vals) for cid, vals in columns
            if sum(map(numeric, vals)) < 0.9 * len(vals)]


def distances(fn, values) -> list[float]:
    return [fn.distance(normalize(v)) for v in values]


# ---------------------------------------------------------------------------
# Screening


def table_of(dists_by_column, d_in: float, d_out: float, m: float) -> tuple[int, int, int, int]:
    """(covered & triggered, covered only, triggered only, neither)."""
    counts = [0, 0, 0, 0]
    for dists in dists_by_column:
        covered = sum(1 for d in dists if d <= d_in) >= m * len(dists)
        triggered = any(d > d_out for d in dists)
        counts[(0 if covered else 2) + (0 if triggered else 1)] += 1
    return tuple(counts)


def gate_stats(table, z: float) -> dict | None:
    """rho, rho-bar, Cohen's h, chi-squared p and the Wilson lower bound
    of a table; None when coverage or its complement is empty."""
    a, b, c, d = table
    n_c, n_nc = a + b, c + d
    if n_c == 0 or n_nc == 0:
        return None
    rho, rho_bar = a / n_c, c / n_nc
    h = abs(2 * math.asin(math.sqrt(rho)) - 2 * math.asin(math.sqrt(rho_bar)))
    n = n_c + n_nc
    cols = (a + c) * (b + d)
    p = 1.0 if cols == 0 else float(chi2.sf(n * (a * d - b * c) ** 2 / (n_c * n_nc * cols), 1))
    z2 = z * z
    wilson = 1 - (a + z2 / 2) / (n_c + z2) - z / (n_c + z2) * math.sqrt(a * b / n_c + z2 / 4)
    return {"rho": rho, "rho_bar": rho_bar, "h": h, "p": p, "wilson": wilson}


def check_survivor(rec: dict, table, cfg: dict) -> None:
    """A rules.jsonl record against the table recomputed here."""
    sid = rec["id"]
    _fail_unless(tuple(rec["table"]) == tuple(table),
                 f"{sid}: recorded table {rec['table']} != recomputed {list(table)}")
    st = gate_stats(table, cfg["z"])
    _fail_unless(st is not None, f"{sid}: survivor with empty coverage or complement")
    _fail_unless(st["rho"] < st["rho_bar"], f"{sid}: rho {st['rho']} >= rho-bar {st['rho_bar']}")
    _fail_unless(st["h"] >= cfg["h_min"] - 1e-12, f"{sid}: h {st['h']} < h_min")
    # scipy's chi-squared survival function and the program's erfc form
    # may differ in the last bits.
    _fail_unless(st["p"] <= cfg["p_max"] * (1 + 1e-9), f"{sid}: p {st['p']} > p_max")
    _fail_unless(math.isclose(st["wilson"], rec["confidence"], rel_tol=1e-12),
                 f"{sid}: Wilson bound {st['wilson']} != confidence {rec['confidence']}")
    _fail_unless(rec["confidence"] >= cfg["c_thres"], f"{sid}: confidence below c_thres")


def check_rejected(cand_id: str, table, cfg: dict) -> None:
    """A candidate missing from rules.jsonl must fail at least one gate
    (thresholds are widened by 1e-9 so rounding cannot flag a
    borderline candidate)."""
    st = gate_stats(table, cfg["z"])
    passes = (st is not None and st["rho"] < st["rho_bar"]
              and st["h"] > cfg["h_min"] + 1e-9 and st["p"] < cfg["p_max"] - 1e-9
              and st["wilson"] > cfg["c_thres"] + 1e-9)
    _fail_unless(not passes, f"{cand_id}: passes every gate with table {list(table)} "
                             f"but is missing from rules.jsonl")


def check_screening(rules, candidates, columns, registry, cfg: dict, rng: random.Random,
                    n_fns: int = 4, per_fn: int = 6) -> int:
    """Recompute tables for a seeded sample of survivors and of
    enumerated candidates missing from ``rules``. ``candidates`` are
    ``(id, fn_id, d_in, d_out, m)`` tuples. Returns how many were
    checked."""
    rule_ids = {r["id"] for r in rules}
    _fail_unless(rule_ids <= {c[0] for c in candidates}, "rules.jsonl holds unknown candidates")
    rules_by_fn: dict[str, list[dict]] = {}
    for r in rules:
        rules_by_fn.setdefault(r["fn_id"], []).append(r)
    missing_by_fn: dict[str, list[tuple]] = {}
    for c in candidates:
        if c[0] not in rule_ids:
            missing_by_fn.setdefault(c[1], []).append(c)
    fns = rng.sample(sorted(rules_by_fn), min(n_fns, len(rules_by_fn)))
    fns += rng.sample(sorted(missing_by_fn), min(n_fns, len(missing_by_fn)))
    checked = 0
    for fn_id in sorted(set(fns)):
        fn = registry.get(fn_id)
        dists = [distances(fn, vals) for _, vals in columns]
        kept = rules_by_fn.get(fn_id, [])
        for rec in rng.sample(kept, min(per_fn, len(kept))):
            check_survivor(rec, table_of(dists, rec["d_in"], rec["d_out"], rec["m"]), cfg)
            checked += 1
        dropped = missing_by_fn.get(fn_id, [])
        for cid, _, d_in, d_out, m in rng.sample(dropped, min(per_fn, len(dropped))):
            check_rejected(cid, table_of(dists, d_in, d_out, m), cfg)
            checked += 1
    return checked


def check_funnel(gen_stats: dict, n_rules: int) -> None:
    """Each gate passes no more candidates than the one before, and the
    last gate's count is the number of rules written."""
    g = gen_stats["gates"]
    order = ["total", "evaluated", "passed_coverage", "passed_effect",
             "passed_significance", "passed_confidence"]
    counts = [g[k] for k in order]
    _fail_unless(all(x >= y for x, y in zip(counts, counts[1:])), f"funnel increases: {counts}")
    _fail_unless(g["evaluated"] + g["pruned_skips"] == g["total"],
                 "evaluated + pruned_skips != total")
    _fail_unless(counts[-1] == gen_stats["surviving"] == n_rules,
                 f"funnel ends at {counts[-1]}, gen-stats says {gen_stats['surviving']}, "
                 f"rules.jsonl has {n_rules}")


def check_store(store: dict, rules) -> None:
    """Every stored constraint is a survivor with identical thresholds
    and confidence."""
    by_id = {r["id"]: r for r in rules}
    for s in store["sdcs"]:
        r = by_id.get(s["id"])
        _fail_unless(r is not None, f"store constraint {s['id']} is not a survivor")
        for key in ("fn_id", "d_in", "d_out", "m", "confidence"):
            _fail_unless(s[key] == r[key], f"store constraint {s['id']}: {key} differs")


def check_no_hash_survivor(rules, manifest: dict) -> None:
    hashes = {f["id"] for f in manifest["functions"] if f["family"] == "random_hash"}
    bad = sorted({r["fn_id"] for r in rules} & hashes)
    _fail_unless(not bad, f"random-hash functions survived screening: {bad[:5]}")


# ---------------------------------------------------------------------------
# Detection


def naive_detections(sdcs, registry, columns) -> list[tuple]:
    """Evaluate the store one constraint x one column at a time. Each
    flagged cell keeps its highest-confidence flagger (ties: larger
    constraint id); cells are listed per column by descending
    confidence, then index."""
    out = []
    for cid, values in columns:
        flags: dict[int, tuple[float, str]] = {}
        by_fn: dict[str, list[float]] = {}
        for s in sdcs:
            if s["fn_id"] not in by_fn:
                by_fn[s["fn_id"]] = distances(registry.get(s["fn_id"]), values)
            dists = by_fn[s["fn_id"]]
            if sum(1 for d in dists if d <= s["d_in"]) < s["m"] * len(values):
                continue
            for i, d in enumerate(dists):
                if d > s["d_out"]:
                    flags[i] = max(flags.get(i, (-1.0, "")), (s["confidence"], s["id"]))
        cells = sorted(flags.items(), key=lambda kv: (-kv[1][0], kv[0]))
        out.extend((cid, i, values[i], conf, sid) for i, (conf, sid) in cells)
    return out


def check_report(report, expected, column_ids) -> None:
    """``report`` restricted to ``column_ids`` equals ``expected``."""
    wanted = set(column_ids)
    got = [(r["column_id"], r["value_index"], r["value"], r["confidence"], r["sdc_id"])
           for r in report if r["column_id"] in wanted]
    if got != expected:
        extra = sorted(set(got) - set(expected))[:3]
        lost = sorted(set(expected) - set(got))[:3]
        raise CheckFailed(f"report differs from naive evaluation: extra {extra}, missing {lost}"
                          + ("" if extra or lost else ", order differs"))


def pr_auc_exact(report, truth: dict) -> float:
    """PR-AUC in exact rational arithmetic: each cell counts once at its
    highest confidence; one PR point per distinct confidence, swept
    downwards; trapezoids from (recall 0, first precision)."""
    best: dict[tuple[str, int], float] = {}
    for r in report:
        key = (r["column_id"], r["value_index"])
        best[key] = max(best.get(key, -math.inf), r["confidence"])
    if not best:
        return 0.0
    n_errors = len(truth)
    by_conf: dict[float, list[tuple[str, int]]] = {}
    for key, conf in best.items():
        by_conf.setdefault(conf, []).append(key)
    tp = seen = 0
    points = []
    for conf in sorted(by_conf, reverse=True):
        cells = by_conf[conf]
        seen += len(cells)
        tp += sum(1 for cid, i in cells if truth.get(cid) == i)
        points.append((Fraction(tp, n_errors), Fraction(tp, seen)))
    area, prev_r, prev_p = Fraction(0), Fraction(0), points[0][1]
    for r, p in points:
        area += (r - prev_r) * (p + prev_p) / 2
        prev_r, prev_p = r, p
    return float(area)


def check_auc(program_auc: float, own_auc: float) -> None:
    _fail_unless(math.isclose(program_auc, own_auc, rel_tol=1e-9, abs_tol=1e-12),
                 f"program PR-AUC {program_auc!r} != recomputed {own_auc!r}")
