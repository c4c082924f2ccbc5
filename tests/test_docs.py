"""The library quickstarts in README.md and PAPER.md run as written, and
README.md's config example loads as written."""

import os
import re

import pytest

from sdc.cli import PipelineConfig
from sdc.corpus import save_corpus
from sdc.datagen import generate_corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def library_quickstart(doc: str) -> str:
    with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
        section = fh.read().split("## Quickstart (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_library_quickstart_runs(doc, tmp_path, monkeypatch, capsys):
    save_corpus(generate_corpus(200, seed=0).corpus, str(tmp_path / "columns.jsonl"))
    monkeypatch.chdir(tmp_path)
    scope = {"__name__": "quickstart"}
    exec(compile(library_quickstart(doc), doc, "exec"), scope)
    assert len(scope["synth"]) > 0
    assert scope["outcome"].problem.synth_ids == [c.id for c in scope["synth"]]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == min(5, len(scope["report"]))


def test_readme_config_example_loads(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Config file", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    path = tmp_path / "config.json"
    path.write_text(example)
    cfg = PipelineConfig.load(str(path))
    assert cfg.corpus_path == str(tmp_path / "corpus.jsonl")
    assert cfg.paths.embeddings[0].centroids == 300
