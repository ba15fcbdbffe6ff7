import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptkit import (NIL, Annotation, SpanTag, TextSpan,
                        harmonise_document, harmonise_token)
from conceptkit.harmonise import (PLACEHOLDER_TAG, HarmonisationStrategy,
                                  TokenPrediction, harmonise_strategies)

from helpers import rows_from_tuples, split_merge_entities

SPANS_ONLY = HarmonisationStrategy.SPANS_ONLY
IDS_ONLY = HarmonisationStrategy.IDS_ONLY
SPANS_FIRST = HarmonisationStrategy.SPANS_FIRST
IDS_FIRST = HarmonisationStrategy.IDS_FIRST

O_NIL = (SpanTag.O, NIL)


def pred(span_tag, nn_id=NIL, dict_ids=()):
    return TokenPrediction(SpanTag(span_tag), nn_id, tuple(dict_ids))


# The eight relevance patterns: span tag relevant or O, neural ID set or
# NIL, dictionary hit or empty. One row per pattern; expectations follow
# the strategy definitions. "span" means (the span tag, lowest dict ID);
# "id" means (placeholder, the neural ID).
TRUTH_TABLE = [
    # (span, nn, dict) -> spans-only, ids-only, spans-first, ids-first
    (pred("B", "N:1", ["D:1", "D:2"]), "span", "id", "span", "id"),
    (pred("S", "N:1", []),             None,   "id", "id",   "id"),
    (pred("E", NIL,   ["D:1"]),        "span", None, "span", "span"),
    (pred("I", NIL,   []),             None,   None, None,   None),
    (pred("O", "N:1", ["D:1"]),        None,   "id", "id",   "id"),
    (pred("O", "N:1", []),             None,   "id", "id",   "id"),
    (pred("O", NIL,   ["D:1"]),        None,   None, None,   None),
    (pred("O", NIL,   []),             None,   None, None,   None),
]


def expected(p, outcome):
    if outcome is None:
        return O_NIL
    if outcome == "span":
        return p.span_tag, min(p.dict_ids)
    return PLACEHOLDER_TAG, p.nn_id


class TestTruthTable:
    @pytest.mark.parametrize("row", TRUTH_TABLE,
                             ids=[f"pattern{i}" for i in range(8)])
    def test_all_four_strategies(self, row):
        p, spans_only, ids_only, spans_first, ids_first = row
        assert harmonise_token(p, SPANS_ONLY) == expected(p, spans_only)
        assert harmonise_token(p, IDS_ONLY) == expected(p, ids_only)
        assert harmonise_token(p, SPANS_FIRST) == expected(p, spans_first)
        assert harmonise_token(p, IDS_FIRST) == expected(p, ids_first)

    def test_agreeing_predictions(self):
        p = pred("B", "PR:000001", ["PR:000001"])
        for strategy in HarmonisationStrategy:
            tag, concept = harmonise_token(p, strategy)
            assert tag.relevant
            assert concept == "PR:000001"

    def test_spans_first_backoff_stays_empty(self):
        assert harmonise_token(pred("S", NIL, []), SPANS_FIRST) == O_NIL

    def test_ids_first_example(self):
        p = pred("O", "CL:1", ["CL:2"])
        assert harmonise_token(p, IDS_FIRST) == (PLACEHOLDER_TAG, "CL:1")
        assert harmonise_token(p, SPANS_ONLY) == O_NIL

    def test_lowest_dict_id(self):
        p = pred("S", NIL, ["Z:9", "A:1", "M:5"])
        assert harmonise_token(p, SPANS_ONLY) == (SpanTag.S, "A:1")


def random_predictions(rng, n):
    preds = []
    for _ in range(n):
        span_tag = rng.choice("BIESOO")
        nn = rng.choice([NIL, NIL, "N:1", "N:2"])
        dict_ids = rng.choice([(), (), ("D:1",), ("D:1", "D:2")])
        preds.append(pred(span_tag, nn, dict_ids))
    return preds


class TestTokenInvariants:
    def test_backoff_only_adds(self):
        rng = random.Random(53)
        for _ in range(1000):
            p = random_predictions(rng, 1)[0]
            so = harmonise_token(p, SPANS_ONLY)
            sf = harmonise_token(p, SPANS_FIRST)
            io = harmonise_token(p, IDS_ONLY)
            if_ = harmonise_token(p, IDS_FIRST)
            if so != O_NIL:
                assert sf == so
            if io != O_NIL:
                assert if_ == io
            # supersets: first-strategies label whatever the base labels
            assert (sf != O_NIL) >= (so != O_NIL)
            assert (if_ != O_NIL) >= (io != O_NIL)

    def test_spans_only_id_always_from_dict(self):
        rng = random.Random(59)
        for _ in range(500):
            p = random_predictions(rng, 1)[0]
            tag, concept = harmonise_token(p, SPANS_ONLY)
            if concept != NIL:
                assert concept in p.dict_ids

    def test_ids_only_ignores_span_and_dict(self):
        rng = random.Random(61)
        for _ in range(500):
            p = random_predictions(rng, 1)[0]
            base = harmonise_token(p, IDS_ONLY)
            mutated = TokenPrediction(
                rng.choice(list(SpanTag)), p.nn_id,
                rng.choice([(), ("Q:1",), ("Q:1", "Q:2")]))
            assert harmonise_token(mutated, IDS_ONLY) == base
            if base != O_NIL:
                assert base[1] == p.nn_id


def sentence(*rows):
    return [rows_from_tuples(list(rows))]


class TestDocumentAssembly:
    def test_agreeing_two_token_entity(self):
        rows = sentence(
            ("Hexokinase", 0, 10, "B", "PR:000001", ["PR:000001"]),
            ("I", 11, 12, "E", "PR:000001", ["PR:000001"]),
            ("binds", 13, 18, "O", NIL, []),
        )
        for strategy in HarmonisationStrategy:
            anns = harmonise_document(rows, strategy)
            assert anns == [Annotation("PR:000001", (TextSpan(0, 12),))]

    def test_all_empty(self):
        rows = sentence(("a", 0, 1, "O", NIL, []), ("b", 2, 3, "O", NIL, []))
        for strategy in HarmonisationStrategy:
            assert harmonise_document(rows, strategy) == []

    def test_id_run_over_o_tags(self):
        rows = sentence(
            ("a", 0, 1, "O", "X:1", []),
            ("b", 2, 3, "O", "X:1", []),
        )
        anns = harmonise_document(rows, IDS_FIRST)
        assert anns == [Annotation("X:1", (TextSpan(0, 3),))]
        assert harmonise_document(rows, SPANS_ONLY) == []

    def test_id_run_splits_at_id_change(self):
        rows = sentence(
            ("a", 0, 1, "O", "X:1", []),
            ("b", 2, 3, "O", "X:2", []),
        )
        anns = harmonise_document(rows, IDS_ONLY)
        assert [a.concept_id for a in anns] == ["X:1", "X:2"]
        assert [a.spans[0] for a in anns] == [TextSpan(0, 1), TextSpan(2, 3)]

    def test_span_block_common_feature(self):
        for first, second, shared in ((["X:2", "X:1"], ["X:2", "X:3"], "X:2"),
                                      (["X:9", "X:3"], ["X:3"], "X:3")):
            rows = sentence(("a", 0, 1, "B", NIL, first),
                            ("b", 2, 3, "E", NIL, second))
            anns = harmonise_document(rows, SPANS_ONLY)
            assert anns == [Annotation(shared, (TextSpan(0, 3),))]

    def test_span_block_splits_when_no_common_feature(self):
        rows = sentence(
            ("a", 0, 1, "B", NIL, ["X:1"]),
            ("b", 2, 3, "E", NIL, ["X:2"]),
        )
        anns = harmonise_document(rows, SPANS_ONLY)
        assert [a.concept_id for a in anns] == ["X:1", "X:2"]

    def test_explicit_boundary_not_merged(self):
        rows = sentence(
            ("a", 0, 1, "S", NIL, ["X:1"]),
            ("b", 2, 3, "S", NIL, ["X:1"]),
        )
        anns = harmonise_document(rows, SPANS_ONLY)
        assert len(anns) == 2

    def test_mixed_source_same_id_merges(self):
        # nn covers the first token, span+dict the second, same concept
        rows = sentence(
            ("Hexokinase", 0, 10, "O", "PR:000001", []),
            ("I", 11, 12, "E", NIL, ["PR:000001"]),
        )
        anns = harmonise_document(rows, IDS_FIRST)
        assert anns == [Annotation("PR:000001", (TextSpan(0, 12),))]

    def test_mixed_source_different_id_stays_apart(self):
        rows = sentence(
            ("a", 0, 1, "O", "X:1", []),
            ("b", 2, 3, "S", NIL, ["X:2"]),
        )
        anns = harmonise_document(rows, IDS_FIRST)
        assert [a.concept_id for a in anns] == ["X:1", "X:2"]

    def test_entities_stop_at_sentence_boundary(self):
        sentences = [
            rows_from_tuples([("a", 0, 1, "O", "X:1", [])]),
            rows_from_tuples([("b", 2, 3, "O", "X:1", [])]),
        ]
        anns = harmonise_document(sentences, IDS_ONLY)
        assert len(anns) == 2

    def test_ids_only_document_ignores_other_columns(self):
        rng = random.Random(67)
        for _ in range(200):
            n = rng.randint(1, 8)
            base = []
            mutated = []
            pos = 0
            for _ in range(n):
                nn = rng.choice([NIL, "N:1", "N:2"])
                base.append(("t", pos, pos + 1, rng.choice("BIESO"), nn,
                             rng.choice([[], ["D:1"]])))
                mutated.append(("t", pos, pos + 1, rng.choice("BIESO"), nn,
                                rng.choice([[], ["D:2"], ["D:1", "D:3"]])))
                pos += 2
            a = harmonise_document([rows_from_tuples(base)], IDS_ONLY)
            b = harmonise_document([rows_from_tuples(mutated)], IDS_ONLY)
            assert a == b


class TestIdRunBoundaries:
    """Under ids-only, entities are the maximal runs of identical IDs."""

    def test_run_to_entity(self):
        rows = sentence(
            ("a", 0, 1, "O", "PR:000001", []),
            ("b", 2, 3, "O", "PR:000001", []),
            ("c", 4, 5, "O", NIL, []),
        )
        assert harmonise_document(rows, IDS_ONLY) == [
            Annotation("PR:000001", (TextSpan(0, 3),))]

    def test_all_nil(self):
        rows = sentence(("a", 0, 1, "S", NIL, []), ("b", 2, 3, "B", NIL, []))
        assert harmonise_document(rows, IDS_ONLY) == []

    def test_run_breaks_at_id_change(self):
        rows = sentence(
            ("a", 0, 1, "O", "PR:000001", []),
            ("b", 2, 3, "O", "PR:000002", []),
        )
        assert harmonise_document(rows, IDS_ONLY) == [
            Annotation("PR:000001", (TextSpan(0, 1),)),
            Annotation("PR:000002", (TextSpan(2, 3),)),
        ]

    def test_long_run(self):
        rows = sentence(
            ("a", 0, 1, "O", "X:1", []),
            ("b", 2, 3, "O", "X:1", []),
            ("c", 4, 5, "O", "X:1", []),
        )
        assert harmonise_document(rows, IDS_ONLY) == [
            Annotation("X:1", (TextSpan(0, 5),))]


token_columns = st.tuples(
    st.sampled_from("BIESO"),
    st.sampled_from([NIL, "N:1", "N:2"]),
    st.lists(st.sampled_from(["D:1", "D:2", "N:1"]), max_size=2, unique=True)
    .map(sorted),
)


@given(st.lists(token_columns, min_size=1, max_size=10),
       st.sampled_from(list(HarmonisationStrategy)))
def test_document_agrees_with_token_table(columns, strategy):
    rows = rows_from_tuples([("t", 2 * i, 2 * i + 1, tag, nn, feats)
                             for i, (tag, nn, feats) in enumerate(columns)])
    covered = {}
    for ann in harmonise_document([rows], strategy):
        for i, row in enumerate(rows):
            if ann.start <= row.span.start and row.span.end <= ann.end:
                assert i not in covered
                covered[i] = ann.concept_id
    for i, row in enumerate(rows):
        _, concept = harmonise_token(
            TokenPrediction(row.span_tag, row.id_tag, row.dict_features),
            strategy)
        # alone in its sentence, a token is a one-token block: exact agreement
        assert harmonise_document([[row]], strategy) == (
            [] if concept == NIL else [Annotation(concept, (row.span,))])
        if concept == NIL:
            assert i not in covered
        elif len(row.dict_features) < 2:
            assert covered[i] == concept
        else:  # a span block takes the lowest candidate its tokens share
            assert covered[i] == concept or covered[i] in row.dict_features


class TestMentionRuns:
    """Mentions are the runs of one concept, cut at span-tagger boundaries."""

    def test_feature_change_opens_a_mention_without_shared_curie(self):
        rows = sentence(
            ("a", 0, 1, "B", NIL, ["X:1", "X:2"]),
            ("b", 2, 3, "I", NIL, ["X:1", "X:3"]),
            ("c", 4, 5, "E", NIL, ["X:4"]),
        )
        assert harmonise_document(rows, SPANS_ONLY) == [
            Annotation("X:1", (TextSpan(0, 1),)),
            Annotation("X:1", (TextSpan(2, 3),)),
            Annotation("X:4", (TextSpan(4, 5),)),
        ]

    def test_span_token_joins_id_runs_of_its_concept(self):
        rows = sentence(
            ("a", 0, 1, "O", "X:1", []),
            ("b", 2, 3, "S", NIL, ["X:1"]),
            ("c", 4, 5, "O", "X:1", []),
        )
        assert harmonise_document(rows, IDS_FIRST) == [
            Annotation("X:1", (TextSpan(0, 5),))]


CURIES = ["X:1", "X:2", "X:3"]
curie_sets = st.lists(st.sampled_from(CURIES), max_size=2, unique=True).map(sorted)


@st.composite
def segmented_columns(draw):
    """(span tag, ID, features) per token, built from segments.

    A span segment has relevant tags only, so orphan I/E tags occur, and
    its tokens either all carry one CURIE or carry free candidate sets.
    An ID segment repeats one ID and may change it partway. IDs and
    features draw from the same CURIEs, so ID runs touch span blocks of
    their own concept on either side; free tokens mix everything.
    """
    columns = []
    for kind in draw(st.lists(st.sampled_from(["span", "id", "free"]),
                              min_size=1, max_size=4)):
        n = draw(st.integers(1, 4))
        if kind == "span":
            shared = draw(st.sampled_from([None, *CURIES]))
            for _ in range(n):
                features = draw(curie_sets)
                if shared:
                    features = sorted({shared, *features})
                columns.append((draw(st.sampled_from("BIES")),
                                draw(st.sampled_from([NIL, NIL, *CURIES])),
                                features))
        elif kind == "id":
            first, then = draw(st.sampled_from(CURIES)), draw(st.sampled_from(CURIES))
            change = draw(st.integers(1, n))
            for k in range(n):
                columns.append((draw(st.sampled_from("BIESOO")),
                                first if k < change else then,
                                draw(curie_sets)))
        else:
            columns.extend(draw(st.lists(
                st.tuples(st.sampled_from("BIESO"),
                          st.sampled_from([NIL, *CURIES]), curie_sets),
                min_size=n, max_size=n)))
    return columns


@given(segmented_columns())
def test_single_pass_matches_split_merge_reference(columns):
    rows = rows_from_tuples([("t", 2 * i, 2 * i + 1, tag, nn, feats)
                             for i, (tag, nn, feats) in enumerate(columns)])
    for strategy in HarmonisationStrategy:
        expected = [
            Annotation(concept, (TextSpan(rows[first].span.start,
                                          rows[last].span.end),))
            for first, last, concept in split_merge_entities(rows, strategy)]
        assert harmonise_document([rows], strategy) == expected


@given(st.lists(st.one_of(segmented_columns(),
                          st.lists(token_columns, min_size=1, max_size=10)),
                min_size=1, max_size=3),
       st.lists(st.sampled_from(list(HarmonisationStrategy)), min_size=1,
                max_size=6))
def test_all_strategies_at_once_match_one_at_a_time(sentences, strategies):
    """Sharing a sentence's annotations between strategies that route it
    alike changes no strategy's output."""
    document, start = [], 0
    for columns in sentences:
        document.append(rows_from_tuples(
            [("t", start + 2 * i, start + 2 * i + 1, tag, nn, feats)
             for i, (tag, nn, feats) in enumerate(columns)]))
        start += 2 * len(columns)
    assert harmonise_strategies(document, strategies) == [
        harmonise_document(document, s) for s in strategies]
