"""Core domain types: spans, annotations, documents, token labels.

Offsets are 0-based Unicode code-point indices into the document text,
start inclusive, end exclusive. All types are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

#: Label marking non-entity tokens in the concept-ID column.
NIL = "NIL"


class SpanTag(str, Enum):
    """IOBES span label: Begin, Inside, End, Single, Outside."""

    B = "B"
    I = "I"
    E = "E"
    S = "S"
    O = "O"

    @property
    def relevant(self) -> bool:
        """True for any entity tag (B, I, E, S), False for O."""
        return self is not SpanTag.O


@dataclass(frozen=True, order=True)
class TextSpan:
    """Character interval [start, end) within a document."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"empty or inverted span {self.start} {self.end}")

    def __len__(self) -> int:
        return self.end - self.start


@dataclass(frozen=True, order=True)
class Annotation:
    """One concept mention: a CURIE plus one or more character spans.

    More than one span marks a discontinuous mention. Spans are kept
    sorted and must not overlap each other. The mention's text is
    `Document.covered_text(ann)`.
    """

    concept_id: str
    spans: tuple[TextSpan, ...]

    def __post_init__(self):
        if not self.concept_id or self.concept_id == NIL:
            raise ValueError(f"invalid concept id {self.concept_id!r}")
        if not isinstance(self.spans, tuple):
            object.__setattr__(self, "spans", tuple(self.spans))
        if not self.spans:
            raise ValueError("annotation needs at least one span")
        for prev, cur in zip(self.spans, self.spans[1:]):
            if cur.start < prev.end:
                raise ValueError(f"spans out of order or overlapping: {self.spans}")

    @property
    def start(self) -> int:
        return self.spans[0].start

    @property
    def end(self) -> int:
        return self.spans[-1].end

    @property
    def length(self) -> int:
        """Total number of covered characters."""
        return sum(len(s) for s in self.spans)

    @property
    def discontinuous(self) -> bool:
        return len(self.spans) > 1


@dataclass(frozen=True)
class Document:
    """A text with its concept annotations.

    Annotations of distinct concepts may overlap and may be
    discontinuous; simplification (see the simplify module) reduces them
    to token-compatible form.
    """

    doc_id: str
    text: str
    annotations: tuple[Annotation, ...] = ()

    def __post_init__(self):
        if not isinstance(self.annotations, tuple):
            object.__setattr__(self, "annotations", tuple(self.annotations))
        for ann in self.annotations:
            if ann.end > len(self.text):
                raise ValueError(
                    f"annotation {ann.concept_id} at {ann.spans} exceeds "
                    f"text length {len(self.text)} in {self.doc_id}"
                )

    def covered_text(self, ann: Annotation) -> str:
        """Text of each fragment, joined with ' ... ' for discontinuous mentions."""
        return " ... ".join(self.text[s.start:s.end] for s in ann.spans)


@dataclass(frozen=True)
class ConllRow:
    """One token with its offsets, span tag, ID tag, and dictionary features.

    Each token carries exactly one span tag and one ID tag. Dictionary
    features are deduplicated and kept sorted.
    """

    token: str
    span: TextSpan
    span_tag: SpanTag = SpanTag.O
    id_tag: str = NIL
    dict_features: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.id_tag:
            raise ValueError("empty id tag")
        if not self.token:
            raise ValueError("empty token")
        feats = tuple(sorted(set(self.dict_features)))
        if feats != self.dict_features:
            object.__setattr__(self, "dict_features", feats)


def _intersection_size(a: Iterable[TextSpan], b: Iterable[TextSpan]) -> int:
    return sum(
        max(0, min(x.end, y.end) - max(x.start, y.start)) for x in a for y in b
    )


def char_jaccard(a: Iterable[TextSpan], b: Iterable[TextSpan]) -> float:
    """Jaccard index of the two character sets covered by the span lists.

    Spans within each list must be pairwise non-overlapping (the
    Annotation invariant). Returns 0.0 for disjoint sets.
    """
    a = tuple(a)
    b = tuple(b)
    inter = _intersection_size(a, b)
    union = sum(len(s) for s in a) + sum(len(s) for s in b) - inter
    return inter / union if union else 0.0
