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
import random
from collections import Counter, namedtuple
from itertools import islice

from .codec import block_concept, block_tags, iter_blocks
from .dicttag import longest_leftmost, normalize_term
from .errors import ConceptKitError, add_warnings, take_warnings
from .evaluate import EvalCounts, fscore, score_document, slot_error_rate
from .harmonise import HarmonisationStrategy, harmonise_document
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


_worker_context = None  # (tasks, graph, decay), set in each worker by _init_worker


def _init_worker(tasks: list, graph: OntologyGraph, decay: float) -> None:
    global _worker_context
    _worker_context = (tasks, graph, decay)
    take_warnings()  # a forked worker's copy of the parent's counts


def _score_cell(i: int, context=None) -> tuple[EvalCounts, dict]:
    """Counts of task i, one strategy on one document, and the warnings
    taken after it; workers omit `context`."""
    tasks, graph, decay = context or _worker_context
    strategy, rows, refs = tasks[i]
    counts = score_document(harmonise_document(rows, strategy), refs, graph,
                            decay)
    return counts, take_warnings()


def grid_search(gold: dict[str, list[Annotation]],
                predictions: dict[str, list[list[ConllRow]]],
                strategies, plan: FoldPlan, graph: OntologyGraph,
                decay: float = DEFAULT_DECAY,
                jobs: int = 1) -> list[StrategyResult]:
    """Rank strategies by mean held-out F-score (SER breaks ties).

    Ranking is deterministic: exact ties fall back to the canonical
    strategy order, and a repeated strategy is ranked once. Each
    (strategy, document) pair is scored once and a fold's counts are
    the sum over its documents; with jobs > 1 the pairs are scored in
    that many worker processes, and their warnings are counted here.
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
    tasks = [(s, predictions[d], gold[d])
             for fold in folds for d in fold for s in strategies]
    context = (tasks, graph, decay)
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here: multiprocessing takes tens of milliseconds to
        # load, which every other command would pay for nothing
        from concurrent.futures import ProcessPoolExecutor
        # workers get the tasks once, at start; calls carry only indexes
        with ProcessPoolExecutor(workers, initializer=_init_worker,
                                 initargs=context) as pool:
            cells = list(pool.map(_score_cell, range(len(tasks)),
                                  chunksize=-(-len(tasks) // (4 * workers))))
    else:
        cells = [_score_cell(i, context) for i in range(len(tasks))]
    for _, warnings in cells:  # in task order, whichever process scored it
        add_warnings(warnings)
    counts = [cell_counts for cell_counts, _ in cells]
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
