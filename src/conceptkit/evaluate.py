"""Partial-match scoring of predicted against reference annotations.

Each prediction/reference pair gets a similarity score m in [0, 1]:
character-level Jaccard of the spans times the hierarchical similarity
of the concepts. A paired prediction contributes m to the match count
and 1 - m to the substitution count; unpaired predictions are
insertions, unpaired references deletions. Precision, recall, F-score,
and slot error rate all derive from these four counts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .model import Annotation, Document, char_jaccard
from .ontology import DEFAULT_DECAY, OntologyGraph, wang_similarity

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EvalCounts:
    """Fractional matches and substitutions plus insertion/deletion counts.

    Bookkeeping identities: matches + substitutions + deletions equals
    the number of references, matches + substitutions + insertions the
    number of predictions. Aggregation over documents is plain addition.
    """

    matches: float = 0.0
    substitutions: float = 0.0
    insertions: int = 0
    deletions: int = 0

    def __add__(self, other: "EvalCounts") -> "EvalCounts":
        return EvalCounts(
            self.matches + other.matches,
            self.substitutions + other.substitutions,
            self.insertions + other.insertions,
            self.deletions + other.deletions,
        )

    @property
    def reference_total(self) -> float:
        return self.matches + self.substitutions + self.deletions

    @property
    def prediction_total(self) -> float:
        return self.matches + self.substitutions + self.insertions


def pair_similarity(pred: Annotation, ref: Annotation, graph: OntologyGraph,
                    decay: float = DEFAULT_DECAY) -> float:
    """Similarity m in [0, 1] of one prediction/reference pair."""
    overlap = char_jaccard(pred.spans, ref.spans)
    if overlap == 0.0:
        return 0.0
    if pred.concept_id not in graph or ref.concept_id not in graph:
        missing = pred.concept_id if pred.concept_id not in graph else ref.concept_id
        logger.warning("concept %s not in ontology: similarity 0", missing)
        return 0.0
    return overlap * wang_similarity(graph, pred.concept_id, ref.concept_id, decay)


def _overlapping_extents(preds: list[Annotation],
                         refs: list[Annotation]) -> list[tuple[int, int]]:
    """(ref index, pred index) of every pair whose [start, end) extents
    overlap, found by one sweep over the extents in start order."""
    sides = (preds, refs)
    active: list[list[int]] = [[], []]
    pairs = []
    for start, side, i in sorted((a.start, side, i) for side in (0, 1)
                                 for i, a in enumerate(sides[side])):
        other = 1 - side
        active[other] = [j for j in active[other] if sides[other][j].end > start]
        pairs.extend((i, j) if side else (j, i) for j in active[other])
        active[side].append(i)
    return pairs


def score_document(preds: list[Annotation], refs: list[Annotation],
                   graph: OntologyGraph, decay: float = DEFAULT_DECAY) -> EvalCounts:
    """Pair predictions with references and count (M, S, I, D).

    Pairs with positive similarity are matched greedily in descending
    similarity; ties prefer the smaller reference start, then the
    smaller prediction start. Every annotation is matched at most once.
    Only pairs whose extents overlap can share a character, so only
    those are scored, in reference-major order so that warnings about
    concepts missing from the ontology follow the references.
    """
    pairs = []
    for ri, pi in sorted(_overlapping_extents(preds, refs)):
        m = pair_similarity(preds[pi], refs[ri], graph, decay)
        if m > 0.0:
            pairs.append((m, ri, pi))
    pairs.sort(key=lambda t: (-t[0], refs[t[1]].start, preds[t[2]].start,
                              t[1], t[2]))
    ref_used = [False] * len(refs)
    pred_used = [False] * len(preds)
    matches = 0.0
    paired = 0
    for m, ri, pi in pairs:
        if ref_used[ri] or pred_used[pi]:
            continue
        ref_used[ri] = True
        pred_used[pi] = True
        matches += m
        paired += 1
    return EvalCounts(
        matches=matches,
        substitutions=paired - matches,
        insertions=len(preds) - paired,
        deletions=len(refs) - paired,
    )


def fscore(counts: EvalCounts) -> tuple[float, float, float]:
    """(precision, recall, F1); all zero when undefined."""
    p = counts.matches / counts.prediction_total if counts.prediction_total else 0.0
    r = counts.matches / counts.reference_total if counts.reference_total else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def slot_error_rate(counts: EvalCounts, denominator: str = "reference") -> float:
    """Errors per slot: 0 for a perfect system, larger is worse.

    The denominator is the reference slot count by default; pass
    denominator="prediction" for the alternative normalisation. With no
    slots at all the rate is 0; errors against an empty denominator give
    infinity.
    """
    if denominator == "reference":
        slots = counts.reference_total
    elif denominator == "prediction":
        slots = counts.prediction_total
    else:
        raise ValueError(f"unknown denominator {denominator!r}")
    errors = counts.substitutions + counts.insertions + counts.deletions
    if slots == 0:
        return 0.0 if errors == 0 else math.inf
    return errors / slots


def filter_unseen(preds: list[Annotation], refs: list[Annotation],
                  train_labels: set[str]) -> tuple[list[Annotation], list[Annotation]]:
    """Restrict both sides to concepts never seen among the training labels."""
    return (
        [p for p in preds if p.concept_id not in train_labels],
        [r for r in refs if r.concept_id not in train_labels],
    )


def score_corpus(gold: dict[str, Document], preds: dict[str, Document],
                 graph: OntologyGraph, decay: float = DEFAULT_DECAY,
                 train_labels: set[str] | None = None) -> EvalCounts:
    """Sum of score_document over the gold documents, each against the
    prediction document of the same id; with train_labels, after
    filter_unseen on both sides."""
    total = EvalCounts()
    for doc_id, ref_doc in gold.items():
        pred_anns = list(preds[doc_id].annotations)
        ref_anns = list(ref_doc.annotations)
        if train_labels is not None:
            pred_anns, ref_anns = filter_unseen(pred_anns, ref_anns,
                                                train_labels)
        total += score_document(pred_anns, ref_anns, graph, decay=decay)
    return total
