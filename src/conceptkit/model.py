"""Core domain types: spans, annotations, documents, token labels.

Offsets are 0-based Unicode code-point indices into the document text,
start inclusive, end exclusive. The value types are named tuples that
check their fields on construction: immutable, safe to share across
threads, and equal to a plain tuple of the same fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
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


class TextSpan(namedtuple("TextSpan", "start end")):
    """Character interval [start, end) within a document; its len() is
    the span's length, not its number of fields."""

    __slots__ = ()

    def __new__(cls, start: int, end: int):
        if start < 0 or start >= end:
            raise ValueError(f"empty or inverted span {start} {end}")
        return tuple.__new__(cls, (start, end))

    def __len__(self) -> int:
        return self.end - self.start

    # namedtuple's own returns tuple(self), whose buffer is sized by
    # len(): a span's length
    def __getnewargs__(self) -> tuple[int, int]:
        return self.start, self.end


class Annotation(namedtuple("Annotation", "concept_id spans")):
    """One concept mention: a CURIE plus one or more character spans.

    More than one span marks a discontinuous mention. Spans are kept
    sorted and must not overlap each other. The mention's text is
    `Document.covered_text(ann)`.
    """

    __slots__ = ()

    def __new__(cls, concept_id: str, spans: tuple[TextSpan, ...]):
        if not concept_id or concept_id == NIL:
            raise ValueError(f"invalid concept id {concept_id!r}")
        if not isinstance(spans, tuple):
            spans = tuple(spans)
        if not spans:
            raise ValueError("annotation needs at least one span")
        for prev, cur in zip(spans, spans[1:]):
            if cur.start < prev.end:
                raise ValueError(f"spans out of order or overlapping: {spans}")
        return tuple.__new__(cls, (concept_id, spans))

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


class Document(namedtuple("Document", "doc_id text annotations")):
    """A text with its concept annotations.

    Annotations of distinct concepts may overlap and may be
    discontinuous; simplification (see the simplify module) reduces them
    to token-compatible form.
    """

    __slots__ = ()

    def __new__(cls, doc_id: str, text: str,
                annotations: tuple[Annotation, ...] = ()):
        if not isinstance(annotations, tuple):
            annotations = tuple(annotations)
        for ann in annotations:
            if ann.end > len(text):
                raise ValueError(
                    f"annotation {ann.concept_id} at {ann.spans} exceeds "
                    f"text length {len(text)} in {doc_id}"
                )
        return tuple.__new__(cls, (doc_id, text, annotations))

    def covered_text(self, ann: Annotation) -> str:
        """Text of each fragment, joined with ' ... ' for discontinuous mentions."""
        return " ... ".join(self.text[s.start:s.end] for s in ann.spans)


class ConllRow(namedtuple("ConllRow",
                          "token span span_tag id_tag dict_features")):
    """One token with its offsets, span tag, ID tag, and dictionary features.

    Each token carries exactly one span tag and one ID tag. Dictionary
    features are deduplicated and kept sorted.
    """

    __slots__ = ()

    def __new__(cls, token: str, span: TextSpan, span_tag: SpanTag = SpanTag.O,
                id_tag: str = NIL, dict_features: tuple[str, ...] = ()):
        if not id_tag:
            raise ValueError("empty id tag")
        if not token:
            raise ValueError("empty token")
        if dict_features != ():
            dict_features = tuple(sorted(set(dict_features)))
        return tuple.__new__(cls, (token, span, span_tag, id_tag,
                                   dict_features))


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
