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

Every routed token gets a concept: the ID tag, or the span block's
dictionary candidate. A mention is then a maximal run of tokens
labelled with one concept that does not cross a span-tagger entity
boundary (...E B..., or a change of dictionary features inside a span
block whose tokens share no candidate).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .codec import block_annotation, iter_blocks
from .model import NIL, Annotation, ConllRow, SpanTag

#: Span tag standing in for "relevant" on tokens labelled by the ID
#: tagger; harmonise_document groups them into mentions by concept.
PLACEHOLDER_TAG = SpanTag.S


class HarmonisationStrategy(str, Enum):
    SPANS_ONLY = "spans-only"
    IDS_ONLY = "ids-only"
    SPANS_FIRST = "spans-first"
    IDS_FIRST = "ids-first"


#: The three prediction sources for one token.
TokenPrediction = namedtuple("TokenPrediction", "span_tag nn_id dict_ids",
                             defaults=(NIL, ()))


#: Sources each strategy consults per token, highest precedence first.
_PRECEDENCE = {
    HarmonisationStrategy.SPANS_ONLY: ("span",),
    HarmonisationStrategy.IDS_ONLY: ("id",),
    HarmonisationStrategy.SPANS_FIRST: ("span", "id"),
    HarmonisationStrategy.IDS_FIRST: ("id", "span"),
}


#: Each strategy's route for a token, keyed by what the two sources
#: accept: 'span', 'id', or None for O/NIL.
_ROUTES = {
    strategy: {(span, id_): next((source for source in sources
                                  if {"span": span, "id": id_}[source]), None)
               for span in (False, True) for id_ in (False, True)}
    for strategy, sources in _PRECEDENCE.items()
}


def _accepts(span_tag: SpanTag, id_tag: str, dict_ids: tuple) -> tuple:
    """Whether the span source accepts a token (a relevant span tag with
    dictionary support) and whether the ID source does (a non-NIL ID)."""
    return span_tag.relevant and bool(dict_ids), id_tag != NIL


def harmonise_token(p: TokenPrediction,
                    strategy: HarmonisationStrategy) -> tuple[SpanTag, str]:
    """Token-level label under the given strategy."""
    route = _ROUTES[HarmonisationStrategy(strategy)][
        _accepts(p.span_tag, p.nn_id, p.dict_ids)]
    if route == "span":
        return p.span_tag, min(p.dict_ids)
    if route == "id":
        return PLACEHOLDER_TAG, p.nn_id
    return SpanTag.O, NIL


def _sentence_entities(rows: list[ConllRow], routes: tuple):
    """(first, last, concept) of each mention in one sentence whose
    tokens take the given routes.

    An ID-routed token takes its ID tag. A span-routed token takes the
    lowest CURIE its span block shares or, when the block shares none,
    its own lowest candidate; it opens a span entity at the start of its
    block and, in a block sharing no CURIE, wherever its feature set
    changes. A token extends the previous token's mention when both
    carry the same concept, unless it opens a span entity right after a
    span-routed token.
    """
    concepts = [r.id_tag for r in rows]
    opens = [False] * len(rows)
    if "span" in routes:
        masked = [r.span_tag if route == "span" else SpanTag.O
                  for r, route in zip(rows, routes)]
        for first, last in iter_blocks(masked):
            common = set(rows[first].dict_features).intersection(
                *(rows[i].dict_features for i in range(first + 1, last + 1)))
            for i in range(first, last + 1):
                features = rows[i].dict_features
                concepts[i] = min(common or features)
                opens[i] = i == first or (
                    not common and features != rows[i - 1].dict_features)
    entities = []
    for i, route in enumerate(routes):
        if route is None:
            continue
        if (i and routes[i - 1] is not None and concepts[i - 1] == concepts[i]
                and not (opens[i] and routes[i - 1] == "span")):
            entities[-1] = (entities[-1][0], i, concepts[i])
        else:
            entities.append((i, i, concepts[i]))
    return entities


def harmonise_strategies(sentences: list[list[ConllRow]],
                         strategies) -> list[list[Annotation]]:
    """Merge the three prediction columns into one annotation stream per
    strategy, in the order given.

    Rows carry the span classifier's tag in span_tag, the ID
    classifier's concept in id_tag, and the dictionary candidates in
    dict_features. Entities never cross sentence boundaries. What the
    sources accept is found once per token, and strategies that route a
    sentence alike share its annotations.
    """
    tables = [_ROUTES[HarmonisationStrategy(s)] for s in strategies]
    outputs = [[] for _ in tables]
    for rows in sentences:
        accepts = [_accepts(r.span_tag, r.id_tag, r.dict_features)
                   for r in rows]
        shared = {}  # routes -> the sentence's annotations
        for out, table in zip(outputs, tables):
            routes = tuple(map(table.__getitem__, accepts))
            if routes not in shared:
                shared[routes] = [
                    block_annotation(concept, rows, first, last)
                    for first, last, concept in _sentence_entities(rows, routes)]
            out.extend(shared[routes])
    return outputs


def harmonise_document(sentences: list[list[ConllRow]],
                       strategy: HarmonisationStrategy) -> list[Annotation]:
    """`harmonise_strategies` under one strategy."""
    return harmonise_strategies(sentences, [strategy])[0]
