"""The benchmark's command flow on small seeded corpora, against the
outputs committed in golden/flows.json.

Each flow builds its corpus with `perfbench/corpus.generate` (seed 7) and
runs every command of `perfbench/run.py`'s flow in this process through
`cli.main`, with `XDG_CACHE_HOME` in the flow's own directory: the first
ontology load is a snapshot miss and the later ones are hits. Each
command's exit code, stdout and stderr are kept as text, and each output
tree as a SHA-256 of its files' paths and bytes. A change that moves an
output on purpose regenerates the file, and says why:

    PYTHONPATH=src python tests/test_golden.py

The specs keep the benchmark workloads' shapes at a fraction of their
size, so that the flows take about a second: the generator's per-document
shares of sub-word, discontinuous, nested and overlapping annotations
apply unchanged. `long-docs` keeps three 50-line documents on a
1093-concept tree (depth 6, not 9); `many-short` keeps three-line
documents, 48 of them, not 300, on a 259-concept tree (depth 3, not 4).
`many-short-gone` renames three gold concepts `GONE:1`-`GONE:3`, which no
ontology holds, so that the commands that score warn.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from conceptkit import cli

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden" / "flows.json"

SEED = 7
LONG_DOCS = dict(branching=3, depth=6, docs=3, lines=50, slots=12,
                 mentions_per_line=3)
MANY_SHORT = dict(branching=6, depth=3, docs=48, lines=3, slots=5,
                  mentions_per_line=2)
#: name -> (corpus spec, folds, whether three gold concepts are renamed)
FLOWS = {"long-docs": (LONG_DOCS, 3, False),
         "many-short": (MANY_SHORT, 6, False),
         "many-short-gone": (MANY_SHORT, 6, True)}
STRATEGIES = ("spans-only", "ids-only", "spans-first", "ids-first")
#: what a flow writes, each hashed as one tree
OUTPUTS = ("conll", "tagged", "lexicon.json", "pred-conll", "pred-ann")


def corpus_module():
    """perfbench/corpus.py, loaded from its file without adding perfbench
    to sys.path."""
    name = "perfbench_corpus"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, TESTS.parent / "perfbench" / "corpus.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look it up there
        spec.loader.exec_module(module)
    return sys.modules[name]


def flow_commands(folds: int) -> list[list[str]]:
    """The arguments of each command of the benchmark's flow, in order."""
    onto = ["--ontology", "onto.obo"]
    tune = ["tune", "gold", "pred-conll", *onto, "--folds", str(folds)]
    return [["convert", "gold", "conll"],
            ["roundtrip-eval", "gold", *onto, "--grid"],
            ["dict-tag", "conll", "tagged", *onto],
            ["baseline-train", "conll", "lexicon.json"],
            ["baseline-tag", "tagged", "pred-conll", "--lexicon", "lexicon.json"],
            [*tune, "--jobs", "1"],
            [*tune, "--jobs", "2"],
            *(["harmonise", "pred-conll", f"pred-ann/{s}", "--strategy", s,
               "--text-dir", "gold"] for s in STRATEGIES),
            ["evaluate", "gold", "pred-ann/ids-first", *onto]]


def rename_three_concepts(gold: Path) -> None:
    """Rename the first three concepts the gold annotations name, in file
    order, to GONE:1, GONE:2 and GONE:3 in every .ann file."""
    paths = sorted(gold.glob("*.ann"))
    names = {}
    for path in paths:
        for line in path.read_text(encoding="utf-8").splitlines():
            curie = line.split("\t")[1].split(" ")[0]
            if len(names) < 3:
                names.setdefault(curie, f"GONE:{len(names) + 1}")
    for path in paths:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        renamed = []
        for line in lines:
            record, curie_spans, rest = line.split("\t", 2)
            curie, _, spans = curie_spans.partition(" ")
            renamed.append(f"{record}\t{names.get(curie, curie)} {spans}\t{rest}")
        path.write_text("".join(renamed), encoding="utf-8")


def tree_digest(path: Path) -> str | None:
    """SHA-256 of the relative paths and bytes of the files under `path`
    (of `path` alone if it is a file), or None if it does not exist."""
    if not path.exists():
        return None
    files = sorted(path.rglob("*")) if path.is_dir() else [path]
    digest = hashlib.sha256()
    for file in files:
        if file.is_file():
            digest.update(file.relative_to(path.parent).as_posix().encode() + b"\0")
            digest.update(file.read_bytes() + b"\0")
    return digest.hexdigest()


def run_flow(name: str, work: Path) -> dict:
    """Generate flow `name`'s corpus in the empty directory `work`, run its
    commands there, and return what they printed and wrote."""
    spec, folds, rename = FLOWS[name]
    corpus = corpus_module()
    corpus.generate(corpus.CorpusSpec(**spec), SEED, work)
    if rename:
        rename_three_concepts(work / "gold")
    commands = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with mock.patch.dict(os.environ, XDG_CACHE_HOME=str(work / "cache")):
            for args in flow_commands(folds):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(args)
                commands.append({"command": " ".join(args), "exit": code,
                                 "stdout": out.getvalue().splitlines(keepends=True),
                                 "stderr": err.getvalue().splitlines(keepends=True)})
    finally:
        os.chdir(cwd)
    return {"commands": commands,
            "outputs": {output: tree_digest(work / output) for output in OUTPUTS}}


@pytest.mark.parametrize("name", FLOWS)
def test_flow_prints_and_writes_what_is_committed(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_flow(name, tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    flows = {}
    for flow in FLOWS:
        with tempfile.TemporaryDirectory() as work:
            flows[flow] = run_flow(flow, Path(work))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(flows, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
