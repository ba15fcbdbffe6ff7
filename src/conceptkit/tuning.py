"""Cross-validation harness and a trivial lexicon baseline tagger.

The grid search evaluates each harmonisation strategy on every held-out
fold and ranks strategies by mean F-score (mean slot error rate breaks
ties). The lexicon tagger memorises entity surface forms from training
CoNLL data; it exists so the whole pipeline can run end to end without
any neural prediction files, and by construction it can only ever
predict concepts seen during training.
"""

from __future__ import annotations

import json
import marshal
import os
import random
import sys
from collections import Counter, namedtuple

from .codec import block_concept, block_tags, iter_blocks
from .dicttag import TermIndex, longest_leftmost, normalize_term
from .errors import ConceptKitError, add_warnings, take_warnings
from .evaluate import EvalCounts, fscore, score_document, slot_error_rate
from .harmonise import HarmonisationStrategy, harmonise_strategies
from .model import NIL, Annotation, ConllRow, SpanTag, TextSpan
from .ontology import DEFAULT_DECAY, OntologyGraph

STRATEGY_ORDER = (
    HarmonisationStrategy.SPANS_ONLY,
    HarmonisationStrategy.IDS_ONLY,
    HarmonisationStrategy.SPANS_FIRST,
    HarmonisationStrategy.IDS_FIRST,
)


class FoldPlan(namedtuple("FoldPlan", "k assignment")):
    """Partition of document IDs into k folds of near-equal size."""

    __slots__ = ()

    def fold_docs(self, fold: int) -> list[str]:
        return sorted(d for d, f in self.assignment.items() if f == fold)


def make_folds(doc_ids: list[str], k: int, seed: int = 0) -> FoldPlan:
    """Deal documents into k folds round-robin after a seeded shuffle."""
    ids = sorted(doc_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate document ids")
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if k > len(ids):
        raise ValueError(f"cannot split {len(ids)} documents into {k} folds")
    random.Random(seed).shuffle(ids)
    return FoldPlan(k, {doc_id: i % k for i, doc_id in enumerate(ids)})


StrategyResult = namedtuple("StrategyResult",
                            "strategy mean_f mean_ser fold_counts")


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether a child can be forked safely: a fork copies only the
    calling thread, so another thread's locks could stay held in it."""
    threading = sys.modules.get("threading")  # not loaded: none started
    return hasattr(os, "fork") and (threading is None
                                    or threading.active_count() == 1)


def _score_tasks(score, n: int, jobs: int) -> list:
    """`[score(i) for i in range(n)]`, in W = min(jobs, n, usable CPUs)
    processes where forking is safe and jobs > 1, else in this one.

    The tasks are cut into W runs of consecutive tasks at ceil(n * k / W):
    this process scores run 0, the longest, and forked child k run k. A
    child sends its results (which marshal must be able to write) and its
    warnings back as one marshal record, then leaves with os._exit (no
    atexit, no inherited buffer flushed). The results, the warnings and any
    exception are those of the list: the runs are merged in order, and a
    run whose child failed or was not forked is scored here at its place.
    Every child is reaped before this returns or raises.
    """
    workers = min(jobs, n, _usable_cpus()) if jobs > 1 and _can_fork() else 1
    runs = [range(-(-n * k // workers), -(-n * (k + 1) // workers))
            for k in range(workers)]
    children = {}  # run -> (pid, read end of its pipe), until reaped
    results = []
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: this one scores the rest
                os.close(read)
                os.close(write)
                break
            if pid == 0:  # the child: all it runs sits inside this try
                try:
                    take_warnings()  # the caller's, which it holds already
                    done = [score(i) for i in runs[k]]
                    with open(write, "wb") as pipe:
                        marshal.dump((done, take_warnings()), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)  # while any copy is open, its read sees no EOF
            children[k] = pid, open(read, "rb")
        for k, run in enumerate(runs):
            if k in children:
                pid, pipe = children[k]
                record = pipe.read()
                pipe.close()
                status = os.waitpid(pid, 0)[1]
                del children[k]
                if status == 0:
                    done, warnings = marshal.loads(record)
                    results += done
                    add_warnings(warnings)
                    continue
            results += [score(i) for i in run]
    finally:
        if children:
            import signal  # only here: loading it costs about 1.5 ms
            for pid, pipe in children.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pipe.close()
    return results


def grid_search(gold: dict[str, list[Annotation]],
                predictions: dict[str, list[list[ConllRow]]],
                strategies, plan: FoldPlan, graph: OntologyGraph,
                decay: float = DEFAULT_DECAY,
                jobs: int = 1) -> list[StrategyResult]:
    """Rank strategies by mean held-out F-score (SER breaks ties).

    Ranking is deterministic: exact ties fall back to the canonical
    strategy order, and a repeated strategy is ranked once. Each
    document is harmonised under every strategy at once and each
    distinct output scored once, by one closure that `_score_tasks` maps
    over the documents, in at most `jobs` processes, with the results of
    jobs=1; a fold's counts are the sum over its documents. A warning
    counts once (see `errors.warn`), however many strategies, folds or
    processes meet it.
    """
    missing = [d for d in gold if d not in predictions]
    if missing:
        raise ConceptKitError(f"no predictions for document {missing[0]}")
    unknown = [d for d in plan.assignment if d not in gold]
    if unknown:
        raise ConceptKitError(f"fold plan names unknown document {unknown[0]}")
    strategies = list(dict.fromkeys(HarmonisationStrategy(s) for s in strategies))
    if not strategies:
        raise ConceptKitError("no strategies to compare")
    folds = [plan.fold_docs(f) for f in range(plan.k)]
    tasks = [(predictions[d], gold[d]) for fold in folds for d in fold]

    def score(i: int) -> tuple:
        """Task i's counts under each strategy, as plain tuples; an
        output that repeats an earlier strategy's is scored once."""
        rows, refs = tasks[i]
        scored = {}  # output -> its counts
        cells = []
        for preds in harmonise_strategies(rows, strategies):
            key = tuple(preds)
            if key not in scored:
                scored[key] = tuple(score_document(preds, refs, graph, decay))
            cells.append(scored[key])
        return tuple(cells)

    documents = iter(_score_tasks(score, len(tasks), jobs))
    by_fold = [[next(documents) for _ in fold] for fold in folds]
    results = []
    for i, strategy in enumerate(strategies):
        fold_counts = tuple(sum((EvalCounts._make(cells[i]) for cells in fold),
                                EvalCounts())
                            for fold in by_fold)
        fs = [fscore(c)[2] for c in fold_counts]
        sers = [slot_error_rate(c) for c in fold_counts]
        results.append(StrategyResult(
            strategy,
            sum(fs) / len(fs),
            sum(sers) / len(sers),
            fold_counts,
        ))
    rank = {s: i for i, s in enumerate(STRATEGY_ORDER)}
    results.sort(key=lambda r: (-r.mean_f, r.mean_ser, rank[r.strategy]))
    return results


def select_strategy(table: list[StrategyResult]) -> HarmonisationStrategy:
    """Top-ranked strategy of a grid-search table."""
    if not table:
        raise ValueError("empty strategy table")
    return table[0].strategy


def tied_with_best(table: list[StrategyResult]) -> list[HarmonisationStrategy]:
    """All strategies sharing the best mean F-score, in table order."""
    best = table[0].mean_f
    return [r.strategy for r in table if r.mean_f == best]


class LexiconTagger:
    """Surface-form lookup tagger trained on gold CoNLL data.

    Maps each normalised entity token sequence to its most frequent
    (span pattern, concept) in the training data. Prediction scans
    greedily for the longest leftmost known surface form.
    """

    def __init__(self, entries: dict[tuple[str, ...], tuple[tuple[str, ...], str]]):
        self.entries = dict(entries)
        self.index = TermIndex(self.entries)

    @classmethod
    def train(cls, training_docs: dict[str, list[list[ConllRow]]]) -> "LexiconTagger":
        votes: dict[tuple[str, ...], Counter] = {}
        for doc_id in sorted(training_docs):
            for rows in training_docs[doc_id]:
                tags = [r.span_tag for r in rows]
                for first, last in iter_blocks(tags):
                    block = rows[first:last + 1]
                    concept = block_concept(block)
                    if concept is None:
                        continue
                    key = tuple(t for r in block for t in normalize_term(r.token))
                    if not key:
                        continue
                    pattern = tuple(r.span_tag.value for r in block)
                    votes.setdefault(key, Counter())[(pattern, concept)] += 1
        entries = {}
        for key, counter in votes.items():
            (pattern, concept), _ = min(
                counter.items(), key=lambda kv: (-kv[1], kv[0]))
            entries[key] = (pattern, concept)
        return cls(entries)

    def concepts(self) -> set[str]:
        return {concept for _, concept in self.entries.values()}

    def tag_tokens(self, tokens: list[tuple[str, TextSpan]]) -> list[tuple[SpanTag, str]]:
        """Predicted (span tag, ID tag) per token; O/NIL outside matches."""
        out: list[tuple[SpanTag, str]] = [(SpanTag.O, NIL)] * len(tokens)
        for first, last, (pattern, concept) in longest_leftmost(tokens, self.index):
            if len(pattern) == last - first + 1:
                tags = [SpanTag(t) for t in pattern]
            else:
                tags = block_tags(last - first + 1)
            for k, tag in zip(range(first, last + 1), tags):
                out[k] = (tag, concept)
        return out

    def tag_rows(self, sentences: list[list[ConllRow]]) -> list[list[ConllRow]]:
        """Overwrite span and ID columns with lexicon predictions."""
        tagged = []
        for rows in sentences:
            labels = self.tag_tokens([(r.token, r.span) for r in rows])
            tagged.append([
                ConllRow(r.token, r.span, tag, id_tag, r.dict_features)
                for r, (tag, id_tag) in zip(rows, labels)
            ])
        return tagged

    def to_json(self) -> str:
        payload = [
            {"key": list(key), "pattern": list(pattern), "concept": concept}
            for key, (pattern, concept) in sorted(self.entries.items())
        ]
        return json.dumps({"entries": payload}, indent=0)

    @classmethod
    def from_json(cls, text: str) -> "LexiconTagger":
        """Load a `to_json` lexicon; ValueError names a malformed entry."""
        entries = {}
        for i, e in enumerate(json.loads(text)["entries"]):
            key, pattern, concept = e["key"], e["pattern"], e["concept"]
            if not _string_list(key):
                raise ValueError(
                    f"entry {i}: key must be a non-empty list of strings")
            if not _string_list(pattern) or not set(pattern) <= set("BIES"):
                raise ValueError(
                    f"entry {i}: pattern must be a non-empty list of B, I, E or S")
            if not isinstance(concept, str):
                raise ValueError(f"entry {i}: concept must be a string")
            entries[tuple(key)] = (tuple(pattern), concept)
        return cls(entries)


def _string_list(value) -> bool:
    return (isinstance(value, list) and bool(value)
            and all(isinstance(v, str) for v in value))
