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
from itertools import islice

from .codec import block_concept, block_tags, iter_blocks
from .dicttag import longest_leftmost, normalize_term
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


def _score_document(i: int, context) -> list[EvalCounts]:
    """The counts of task i, one document, under each strategy; a
    strategy whose output repeats an earlier one's reuses its counts."""
    tasks, strategies, graph, decay = context
    rows, refs = tasks[i]
    scored = {}  # output -> counts
    cells = []
    for preds in harmonise_strategies(rows, strategies):
        key = tuple(preds)
        if key not in scored:
            scored[key] = score_document(preds, refs, graph, decay)
        cells.append(scored[key])
    return cells


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


def _score_share(share: int, workers: int, context, write: int) -> None:
    """In a forked child: score tasks share, share + workers, ... and
    write their counts and warnings to the pipe `write` as one marshal
    record, then leave with os._exit (no atexit, no inherited buffer
    flushed): status 0 once the record is written, else 1."""
    status = 1
    try:
        record = []
        for i in range(share, len(context[0]), workers):
            cells = _score_document(i, context)
            record.append((tuple(map(tuple, cells)), take_warnings()))
        with open(write, "wb") as pipe:
            marshal.dump(record, pipe)
        status = 0
    finally:
        os._exit(status)


def _score_tasks(context, workers: int) -> list[list[EvalCounts]]:
    """`_score_document` of every task, in task order, in `workers`
    processes: this one scores the tasks i with i % workers == 0, forked
    child k those with i % workers == k.

    The counts, the warnings and any exception are those of scoring every
    task here in order. A child that fails leaves its tasks to this
    process, which scores them at their place in task order; this
    process holds an exception of its own share until then. Every child
    is reaped before this returns or raises.
    """
    n = len(context[0])
    if workers < 2 or not _can_fork():
        return [_score_document(i, context) for i in range(n)]
    import signal  # here: its enums would cost every command about 1.5 ms
    earlier = take_warnings()  # counted before: no child's to send back
    children = {}  # pid -> read end of its pipe, until reaped
    done = {}  # task -> (counts, warnings)
    failure = None  # (task, exception, warnings) of this process's share
    try:
        for _ in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: this one scores the rest
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                _score_share(len(children) + 1, workers, context, write)
            os.close(write)  # while any copy is open, its read sees no EOF
            children[pid] = open(read, "rb")
        for i in range(0, n, workers):
            try:
                cells = _score_document(i, context)
            except Exception as error:
                failure = i, error, take_warnings()
                break
            done[i] = cells, take_warnings()
        for share, (pid, pipe) in enumerate(list(children.items()), 1):
            record = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status == 0:
                for i, (cells, warnings) in zip(range(share, n, workers),
                                                marshal.loads(record)):
                    done[i] = [EvalCounts._make(c) for c in cells], warnings
    finally:
        for pid, pipe in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        add_warnings(earlier)
    documents = []
    for i in range(n):
        if failure and failure[0] == i:
            add_warnings(failure[2])
            raise failure[1]
        if i in done:
            cells, warnings = done[i]
            add_warnings(warnings)
        else:  # a failed child's task
            cells = _score_document(i, context)
        documents.append(cells)
    return documents


def grid_search(gold: dict[str, list[Annotation]],
                predictions: dict[str, list[list[ConllRow]]],
                strategies, plan: FoldPlan, graph: OntologyGraph,
                decay: float = DEFAULT_DECAY,
                jobs: int = 1) -> list[StrategyResult]:
    """Rank strategies by mean held-out F-score (SER breaks ties).

    Ranking is deterministic: exact ties fall back to the canonical
    strategy order, and a repeated strategy is ranked once. Each
    document is harmonised under every strategy at once and each
    distinct output scored once; a fold's counts are the sum over its
    documents. With jobs > 1 the documents are scored in at most that
    many processes (see `_score_tasks`), no more than the usable CPUs,
    with the results of jobs=1. A warning counts once (see
    `errors.warn`), however many strategies, folds or processes meet it.
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
    documents = _score_tasks((tasks, strategies, graph, decay),
                             min(jobs, len(tasks), _usable_cpus()))
    counts = [cell for document in documents for cell in document]
    results = []
    for i, strategy in enumerate(strategies):
        doc_counts = iter(counts[i::len(strategies)])
        fold_counts = tuple(sum(islice(doc_counts, len(fold)), EvalCounts())
                            for fold in folds)
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
        self.max_len = max(map(len, self.entries), default=0)

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
        for first, last, (pattern, concept) in longest_leftmost(
                tokens, self.entries, self.max_len):
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
