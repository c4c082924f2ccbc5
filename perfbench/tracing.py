"""The traced run: the CLI commands in-process, with spans.

``traced_cli`` runs ``sdc.cli.main`` on a command line after replacing,
for the length of the call, the public functions ``sdc.cli`` calls
(``load_corpus``, ``build_registry``, ``assess_all``, ``run_selection``,
``detect_corpus`` and the others in ``LAYERS``) and
``Registry.from_manifest`` with wrappers that record a span around each
call and take counts from its return value. The commands themselves run
unchanged. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import sdc.cli
from sdc.domain_fns import Registry


class Tracer:
    """Spans as dicts: name, start, end (perf_counter seconds), parent
    (index into ``spans`` or None) and optional counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None, "counts": {}}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def seconds_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_seconds(self, root: int) -> dict[str, float]:
        """Self time per span name within the subtree of span ``root``:
        each span's duration minus that of its direct children."""
        inside = {root}
        for i, s in enumerate(self.spans):
            if s["parent"] in inside:
                inside.add(i)
        out: dict[str, float] = {}
        for i in sorted(inside):
            s = self.spans[i]
            dur = s["end"] - s["start"]
            if s["parent"] in inside and i != root:
                parent = self.spans[s["parent"]]["name"]
                out[parent] = out.get(parent, 0.0) - dur
            out[s["name"]] = out.get(s["name"], 0.0) + dur
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, indent=0)


def _selection_counts(outcome) -> dict:
    cover = outcome.problem.cover_sets
    return {"cover_entries": sum(len(k) for k in cover),
            "empty_cover_sets": sum(1 for k in cover if not k),
            "lp_objective": outcome.lp_objective,
            "rounded_objective": outcome.rounded_objective,
            "selected": len(outcome.selected_ids)}


# Name in sdc.cli -> (span name, counts from the return value or None).
LAYERS = {
    "load_corpus": ("corpus.load", None),
    "filter_columns": ("corpus.load", None),
    "build_registry": ("domain_fns.build_registry", lambda reg: {"functions": len(reg)}),
    "assess_all": ("assess.assess_all", lambda kept: {"survivors": len(kept)}),
    "save_assessed": ("assess.rules_io", None),
    "load_assessed": ("assess.rules_io", None),
    "build_synthetic_corpus": ("synth.build", lambda synth: {"columns": len(synth)}),
    "build_candidate_stats": ("synth.candidate_stats", lambda stats: {
        "idle_survivors": sum(1 for s in stats if not s.detected)}),
    "run_selection": ("select.run_selection", _selection_counts),
    "write_store": ("select.store_io", None),
    "read_store": ("select.store_io", None),
    "compile_ruleset": ("infer.compile", lambda rs: {
        "precondition_groups": len(rs.precondition_groups)}),
    "detect_corpus": ("infer.detect", lambda report: {"detections": len(report)}),
    "save_report": ("infer.report_io", None),
}


def _spanned(tr: Tracer, name: str, fn, counts_of):
    def call(*args, **kwargs):
        with tr.span(name) as counts:
            result = fn(*args, **kwargs)
            if counts_of is not None:
                counts.update(counts_of(result))
            # assess_all fills the caller's gate_counts dict.
            counts.update(kwargs.get("gate_counts") or {})
            return result
    return call


def _spanned_enumeration(tr: Tracer, fn):
    """``enumerate_candidates`` is lazy: its span opens when the consumer
    (``assess_all``) first asks for a candidate and closes when the
    candidates run out, so it nests in the consumer's span."""
    def call(*args, **kwargs):
        with tr.span("candidates.enumerate") as counts:
            n = 0
            for cand in fn(*args, **kwargs):
                n += 1
                yield cand
            counts["total"] = n
    return call


@contextmanager
def _layers_spanned(tr: Tracer):
    originals = {name: getattr(sdc.cli, name) for name in LAYERS}
    originals["enumerate_candidates"] = sdc.cli.enumerate_candidates
    manifest = Registry.__dict__["from_manifest"]

    def from_manifest(cls, *args, **kwargs):
        with tr.span("domain_fns.load_manifest") as counts:
            reg = manifest.__func__(cls, *args, **kwargs)
            counts["functions"] = len(reg)
            return reg

    for name, (span, counts_of) in LAYERS.items():
        setattr(sdc.cli, name, _spanned(tr, span, originals[name], counts_of))
    sdc.cli.enumerate_candidates = _spanned_enumeration(tr, originals["enumerate_candidates"])
    Registry.from_manifest = classmethod(from_manifest)
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(sdc.cli, name, fn)
        Registry.from_manifest = manifest


def traced_cli(tr: Tracer, argv: list[str]) -> int:
    """``sdc <argv>`` in-process under a ``cli.<command>`` span; returns
    the command's exit code."""
    with tr.span(f"cli.{argv[0]}"), _layers_spanned(tr):
        return sdc.cli.main(argv)
