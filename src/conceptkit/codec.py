"""Token-label codec: annotations to IOBES rows and tolerantly back.

Decoding accepts any tag sequence, including inconsistent classifier
output: S is always a single-token entity, B opens an entity, an entity
closes at E, before O/S/B, or at the end of the sentence, and an orphan
I or E opens an entity like a B would.
"""

from __future__ import annotations

from collections import Counter

from .evaluate import EvalCounts, score_document
from .formats import tokenize_sentences
from .model import NIL, Annotation, ConllRow, Document, SpanTag, TextSpan
from .ontology import DEFAULT_DECAY, OntologyGraph
from .simplify import UnifyStrategy, UnnestStrategy, simplify


def iter_blocks(tags: list[SpanTag]):
    """Yield (first, last) index pairs of entity blocks, tolerantly."""
    open_start = None
    for i, tag in enumerate(tags):
        if tag is SpanTag.O:
            if open_start is not None:
                yield open_start, i - 1
                open_start = None
        elif tag is SpanTag.S:
            if open_start is not None:
                yield open_start, i - 1
            yield i, i
            open_start = None
        elif tag is SpanTag.B:
            if open_start is not None:
                yield open_start, i - 1
            open_start = i
        else:  # I or E; orphans open an entity
            if open_start is None:
                open_start = i
            if tag is SpanTag.E:
                yield open_start, i
                open_start = None
    if open_start is not None:
        yield open_start, len(tags) - 1


def block_tags(n: int) -> list[SpanTag]:
    """IOBES tags of an n-token entity: S alone, else B, I..., E."""
    if n == 1:
        return [SpanTag.S]
    return [SpanTag.B] + [SpanTag.I] * (n - 2) + [SpanTag.E]


def encode(doc: Document, tokens: list[tuple[str, TextSpan]]) -> list[ConllRow]:
    """Encode a simplified document as one IOBES/ID label per token.

    Raises ValueError if any annotation is discontinuous, not aligned to
    token boundaries, or overlaps another one.
    """
    starts = {span.start: i for i, (_, span) in enumerate(tokens)}
    ends = {span.end: i for i, (_, span) in enumerate(tokens)}
    tags = [SpanTag.O] * len(tokens)
    ids = [NIL] * len(tokens)
    for ann in doc.annotations:
        if ann.discontinuous:
            raise ValueError(f"not simplified: discontinuous annotation {ann}")
        first, last = starts.get(ann.start), ends.get(ann.end)
        if first is None or last is None or first > last:
            raise ValueError(f"not simplified: {ann} not token-aligned")
        for i, tag in zip(range(first, last + 1), block_tags(last - first + 1)):
            if tags[i] is not SpanTag.O:
                raise ValueError(f"not simplified: overlap at token {i} ({ann})")
            tags[i] = tag
            ids[i] = ann.concept_id
    return [
        ConllRow(token, span, tags[i], ids[i])
        for i, (token, span) in enumerate(tokens)
    ]


def block_concept(block: list[ConllRow], id_source: str = "id_tag") -> str | None:
    """Most frequent non-NIL ID tag ("id_tag") or dictionary feature
    ("dict") of an entity block, the lowest CURIE on ties; None if none."""
    if id_source == "id_tag":
        counts = Counter(r.id_tag for r in block if r.id_tag != NIL)
    else:
        counts = Counter(f for r in block for f in r.dict_features)
    return min(counts, key=lambda c: (-counts[c], c), default=None)


def block_annotation(concept: str, rows: list[ConllRow], first: int,
                     last: int) -> Annotation:
    """Single-span annotation of concept over rows[first..last]."""
    return Annotation(concept, (TextSpan(rows[first].span.start,
                                         rows[last].span.end),))


def decode_iobes(rows: list[ConllRow], id_source: str = "id_tag") -> list[Annotation]:
    """Decode one sentence of rows into annotations.

    id_source selects the block_concept rule; blocks with no concept
    are skipped.
    """
    if id_source not in ("id_tag", "dict"):
        raise ValueError(f"unknown id_source {id_source!r}")
    annotations = []
    for first, last in iter_blocks([row.span_tag for row in rows]):
        concept = block_concept(rows[first:last + 1], id_source)
        if concept is not None:
            annotations.append(block_annotation(concept, rows, first, last))
    return annotations


def document_to_conll(doc: Document, unify_strategy: UnifyStrategy,
                      unnest_strategy: UnnestStrategy) -> list[list[ConllRow]]:
    """Simplify and encode a document, one CoNLL block per text line."""
    return _encode_sentences(doc, unify_strategy, unnest_strategy,
                             tokenize_sentences(doc.text))


def _encode_sentences(doc: Document, unify_strategy: UnifyStrategy,
                      unnest_strategy: UnnestStrategy,
                      sentences: list[list[tuple[str, TextSpan]]],
                      ) -> list[list[ConllRow]]:
    """document_to_conll given the tokenize_sentences of doc.text."""
    tokens = [token for sentence in sentences for token in sentence]
    simplified = simplify(doc, unify_strategy, unnest_strategy, tokens)
    rows = iter(encode(simplified, tokens))
    return [[next(rows) for _ in sentence] for sentence in sentences]


def surrogate_text(sentences: list[list[ConllRow]]) -> str:
    """Stand-in document text: tokens at their offsets, spaces in the gaps."""
    length = max((r.span.end for rows in sentences for r in rows), default=0)
    chars = [" "] * length
    for rows in sentences:
        for row in rows:
            # token text may disagree with the span width; keep offsets
            piece = row.token[:len(row.span)]
            chars[row.span.start:row.span.start + len(piece)] = list(piece)
    return "".join(chars)


def conll_to_document(doc_id: str, sentences: list[list[ConllRow]],
                      id_source: str = "id_tag", text: str | None = None) -> Document:
    """Decode sentences back into a document (see annotated_document)."""
    return annotated_document(doc_id, sentences, [
        ann for rows in sentences for ann in decode_iobes(rows, id_source)], text)


def annotated_document(doc_id: str, sentences: list[list[ConllRow]],
                       annotations: list[Annotation],
                       text: str | None = None) -> Document:
    """Document of annotations decoded from sentences; the sentences'
    surrogate_text stands in for the original text when none is given."""
    if text is None:
        text = surrogate_text(sentences)
    return Document(doc_id, text, tuple(annotations))


def roundtrip_grid(corpus, strategies, graph: OntologyGraph,
                   decay: float = DEFAULT_DECAY) -> list[EvalCounts]:
    """roundtrip_upper_bound for each (unify, unnest) pair of `strategies`.

    Tokens do not depend on the strategies, so each document is
    tokenised once for all pairs.
    """
    totals = [EvalCounts() for _ in strategies]
    for doc in corpus:
        sentences = tokenize_sentences(doc.text)
        for i, (unify_strategy, unnest_strategy) in enumerate(strategies):
            rows = _encode_sentences(doc, unify_strategy, unnest_strategy,
                                     sentences)
            restored = conll_to_document(doc.doc_id, rows, text=doc.text)
            totals[i] += score_document(list(restored.annotations),
                                        list(doc.annotations), graph, decay)
    return totals


def roundtrip_upper_bound(corpus, unify_strategy: UnifyStrategy,
                          unnest_strategy: UnnestStrategy,
                          graph: OntologyGraph,
                          decay: float = DEFAULT_DECAY) -> EvalCounts:
    """Score the corpus converted to CoNLL and back against itself.

    The result is the ceiling any system trained on the token-label
    representation can reach for the given simplification strategies.
    """
    return roundtrip_grid(corpus, [(unify_strategy, unnest_strategy)],
                          graph, decay)[0]
