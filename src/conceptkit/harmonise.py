"""Merge span-tagger, ID-tagger, and dictionary predictions per token.

Four strategies resolve disagreement between the three sources:

* spans-only: trust the span tags; each entity token takes the lowest
  dictionary candidate. Span predictions with no dictionary support are
  dropped, and the ID tagger is ignored entirely.
* ids-only: trust the ID tags; span tags are overwritten by the runs of
  identical IDs, and the dictionary is ignored.
* spans-first: spans-only, backing off to ids-only wherever the outcome
  is O/NIL.
* ids-first: ids-only, backing off to spans-only wherever the outcome
  is O/NIL.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .codec import iter_blocks
from .model import NIL, Annotation, ConllRow, SpanTag, TextSpan

#: Span tag standing in for "relevant" on tokens labelled from ID runs;
#: harmonise_document splits those tokens into entities on runs of
#: identical IDs.
PLACEHOLDER_TAG = SpanTag.S


class HarmonisationStrategy(str, Enum):
    SPANS_ONLY = "spans-only"
    IDS_ONLY = "ids-only"
    SPANS_FIRST = "spans-first"
    IDS_FIRST = "ids-first"


@dataclass(frozen=True)
class TokenPrediction:
    """The three prediction sources for one token."""

    span_tag: SpanTag
    nn_id: str = NIL
    dict_ids: tuple[str, ...] = ()


#: Sources each strategy consults per token, highest precedence first.
_PRECEDENCE = {
    HarmonisationStrategy.SPANS_ONLY: ("span",),
    HarmonisationStrategy.IDS_ONLY: ("id",),
    HarmonisationStrategy.SPANS_FIRST: ("span", "id"),
    HarmonisationStrategy.IDS_FIRST: ("id", "span"),
}


def _route(strategy: HarmonisationStrategy, span_tag: SpanTag, id_tag: str,
           dict_ids: tuple[str, ...]) -> str | None:
    """The source that labels a token: 'span', 'id', or None for O/NIL.

    The span source accepts a relevant span tag with dictionary support,
    the ID source any non-NIL ID.
    """
    for source in _PRECEDENCE[strategy]:
        if source == "span":
            if span_tag.relevant and dict_ids:
                return source
        elif id_tag != NIL:
            return source
    return None


def harmonise_token(p: TokenPrediction,
                    strategy: HarmonisationStrategy) -> tuple[SpanTag, str]:
    """Token-level label under the given strategy."""
    route = _route(HarmonisationStrategy(strategy), p.span_tag, p.nn_id,
                   p.dict_ids)
    if route == "span":
        return p.span_tag, min(p.dict_ids)
    if route == "id":
        return PLACEHOLDER_TAG, p.nn_id
    return SpanTag.O, NIL


def _span_block_entities(rows, first, last):
    """Split one decoded span block on its dictionary features.

    The block's ID is the lowest CURIE shared by all its tokens; with no
    shared candidate the block splits wherever the feature set changes.
    """
    common = set(rows[first].dict_features)
    for i in range(first + 1, last + 1):
        common &= set(rows[i].dict_features)
    if common:
        return [(first, last, min(common))]
    entities = []
    run_start = first
    for i in range(first + 1, last + 2):
        if i > last or rows[i].dict_features != rows[run_start].dict_features:
            entities.append((run_start, i - 1, min(rows[run_start].dict_features)))
            run_start = i
    return entities


def _sentence_entities(rows: list[ConllRow],
                       strategy: HarmonisationStrategy):
    routes = [_route(strategy, r.span_tag, r.id_tag, r.dict_features)
              for r in rows]
    entities = []  # (first, last, concept)
    i = 0
    while i < len(rows):
        if routes[i] is None:
            i += 1
            continue
        j = i
        while j + 1 < len(rows) and routes[j + 1] == routes[i]:
            j += 1
        if routes[i] == "id":
            run_start = i
            for k in range(i + 1, j + 2):
                if k > j or rows[k].id_tag != rows[run_start].id_tag:
                    entities.append((run_start, k - 1, rows[run_start].id_tag))
                    run_start = k
        else:
            tags = [rows[k].span_tag for k in range(i, j + 1)]
            for first, last in iter_blocks(tags):
                entities.extend(_span_block_entities(rows, i + first, i + last))
        i = j + 1

    # Token-adjacent entities with the same ID merge into one mention,
    # except across an explicit span-tag boundary (...E B...).
    merged = []
    for entity in entities:
        if merged:
            pf, pl, pc = merged[-1]
            first, last, concept = entity
            boundary = routes[pl] == "span" and routes[first] == "span"
            if pl + 1 == first and pc == concept and not boundary:
                merged[-1] = (pf, last, concept)
                continue
        merged.append(entity)
    return merged


def harmonise_document(sentences: list[list[ConllRow]],
                       strategy: HarmonisationStrategy) -> list[Annotation]:
    """Merge the three prediction columns into one annotation stream.

    Rows carry the span classifier's tag in span_tag, the ID
    classifier's concept in id_tag, and the dictionary candidates in
    dict_features. Entities never cross sentence boundaries.
    """
    strategy = HarmonisationStrategy(strategy)
    annotations = []
    for rows in sentences:
        for first, last, concept in _sentence_entities(rows, strategy):
            span = TextSpan(rows[first].span.start, rows[last].span.end)
            text = " ".join(r.token for r in rows[first:last + 1])
            annotations.append(Annotation(concept, (span,), text))
    return annotations
