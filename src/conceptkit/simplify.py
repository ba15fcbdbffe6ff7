"""Reduce complex annotations to one-label-per-token form.

Token-level labels cannot express discontinuous spans, overlapping
mentions, or sub-word boundaries, so annotations are simplified in three
steps: unify each discontinuous mention to a single span, extend
sub-word spans to whole tokens, then delete one of each overlapping
pair (unnesting). Each step is parameterised by a strategy.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum

from .errors import warn
from .formats import tokenize
from .model import Annotation, Document, TextSpan


class UnifyStrategy(str, Enum):
    """How to collapse a discontinuous annotation to one span."""

    FIRST_SPAN = "first-span"
    FULL_SPAN = "full-span"
    LAST_SPAN = "last-span"


class UnnestStrategy(str, Enum):
    """Which of two overlapping annotations survives."""

    KEEP_LONGER = "keep-longer"
    KEEP_SHORTER = "keep-shorter"


def unify(ann: Annotation, strategy: UnifyStrategy) -> Annotation:
    """Collapse a discontinuous annotation to a single span.

    Contiguous annotations are returned unchanged.
    """
    if not ann.discontinuous:
        return ann
    strategy = UnifyStrategy(strategy)
    if strategy is UnifyStrategy.FIRST_SPAN:
        span = ann.spans[0]
    elif strategy is UnifyStrategy.LAST_SPAN:
        span = ann.spans[-1]
    else:
        span = TextSpan(ann.spans[0].start, ann.spans[-1].end)
    return Annotation(ann.concept_id, (span,))


def _single_span(doc: Document, ann: Annotation) -> None:
    if ann.discontinuous:
        raise ValueError(f"{doc.doc_id}: discontinuous annotation {ann}; "
                         "unify it first")


def extend_subword(doc: Document, tokens: list[tuple[str, TextSpan]]) -> Document:
    """Snap single-span annotations outward to enclosing token boundaries.

    Annotations overlapping no token at all are dropped with a warning.
    `tokens` must be ordered and disjoint, as `tokenize` returns them.
    """
    starts = [t.start for _, t in tokens]
    ends = [t.end for _, t in tokens]
    result = []
    for ann in doc.annotations:
        _single_span(doc, ann)
        first = bisect_right(ends, ann.start)
        last = bisect_left(starts, ann.end) - 1
        if first > last:
            warn("%s: dropping annotation %s at %d %d: overlaps no token",
                 doc.doc_id, ann.concept_id, ann.start, ann.end)
            continue
        span = TextSpan(starts[first], ends[last])
        result.append(Annotation(ann.concept_id, (span,)))
    return Document(doc.doc_id, doc.text, tuple(result))


def _beats(a: Annotation, b: Annotation, strategy: UnnestStrategy) -> bool:
    """True if `a` survives the pairwise contest against `b`.

    Length ties go to the smaller start offset, then the smaller
    concept ID, so unnesting is deterministic.
    """
    if a.length != b.length:
        longer = a.length > b.length
        return longer if strategy is UnnestStrategy.KEEP_LONGER else not longer
    return (a.start, a.concept_id) < (b.start, b.concept_id)


def unnest(doc: Document, strategy: UnnestStrategy) -> Document:
    """Delete one of each overlapping pair of single-span annotations.

    Annotations are swept left to right ordered by (start, -length,
    concept). Survivors are disjoint and ordered by start, so only the
    last one can overlap an incoming annotation: the incoming one is
    dropped if it loses that contest, otherwise it evicts the survivor.
    A deleted annotation takes no further part in the sweep.
    """
    strategy = UnnestStrategy(strategy)
    anns = doc.annotations
    order = sorted(range(len(anns)),
                   key=lambda i: (anns[i].start, -anns[i].length,
                                  anns[i].concept_id))
    kept: list[int] = []
    for i in order:
        _single_span(doc, anns[i])
        if kept and anns[kept[-1]].end > anns[i].start:
            if not _beats(anns[i], anns[kept[-1]], strategy):
                continue
            kept.pop()
        kept.append(i)
    return Document(doc.doc_id, doc.text, tuple(anns[i] for i in sorted(kept)))


def simplify(doc: Document, unify_strategy: UnifyStrategy,
             unnest_strategy: UnnestStrategy,
             tokens: list[tuple[str, TextSpan]] | None = None) -> Document:
    """Unify, extend to token boundaries, then unnest.

    The result has only single-span, token-aligned, pairwise disjoint
    annotations and is therefore representable as one label per token.
    Sub-word extension runs before unnesting because snapping can create
    new overlaps.
    """
    if tokens is None:
        tokens = tokenize(doc.text)
    unified = Document(
        doc.doc_id, doc.text,
        tuple(unify(a, unify_strategy) for a in doc.annotations))
    extended = extend_subword(unified, tokens)
    return unnest(extended, unnest_strategy)
