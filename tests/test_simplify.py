import itertools
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptkit import (Annotation, Document, TextSpan, extend_subword,
                        simplify, take_warnings, tokenize, unify, unnest)
from conceptkit.simplify import UnifyStrategy, UnnestStrategy

from helpers import (random_messy_document,
                     random_simple_document, reference_extend_subword,
                     reference_unnest, tree_graph)

UNIFY = list(UnifyStrategy)
UNNEST = list(UnnestStrategy)


def ann(concept, *spans):
    return Annotation(concept, tuple(TextSpan(s, e) for s, e in spans))


# One discontinuous annotation ("ES ... cells") interlaced with a
# contiguous one ("somatic cells").
TEXT = "ES and somatic cells"
DISC = ann("X:1", (0, 2), (15, 20))
CONT = ann("X:2", (7, 20))


def interlaced_doc():
    return Document("inter", TEXT, (DISC, CONT))


class TestUnify:
    def test_full_span(self):
        assert unify(DISC, UnifyStrategy.FULL_SPAN).spans == (TextSpan(0, 20),)

    def test_first_span(self):
        assert unify(DISC, UnifyStrategy.FIRST_SPAN).spans == (TextSpan(0, 2),)

    def test_last_span(self):
        assert unify(DISC, UnifyStrategy.LAST_SPAN).spans == (TextSpan(15, 20),)

    @pytest.mark.parametrize("strategy", UNIFY)
    def test_contiguous_unchanged(self, strategy):
        assert unify(CONT, strategy) == CONT


class TestUnnest:
    def test_keep_longer(self):
        doc = Document("d", "x" * 20, (ann("X:1", (0, 20)), ann("X:2", (7, 20))))
        result = unnest(doc, UnnestStrategy.KEEP_LONGER)
        assert result.annotations == (ann("X:1", (0, 20)),)

    def test_keep_shorter(self):
        doc = Document("d", "x" * 20, (ann("X:1", (0, 20)), ann("X:2", (7, 20))))
        result = unnest(doc, UnnestStrategy.KEEP_SHORTER)
        assert result.annotations == (ann("X:2", (7, 20)),)

    @pytest.mark.parametrize("strategy", UNNEST)
    def test_disjoint_untouched(self, strategy):
        doc = Document("d", "x" * 20, (ann("X:1", (0, 2)), ann("X:2", (7, 20))))
        assert unnest(doc, strategy).annotations == doc.annotations

    @pytest.mark.parametrize("strategy", UNNEST)
    def test_equal_length_tie_break(self, strategy):
        # same length: smaller start wins; same start: lower concept wins
        doc = Document("d", "x" * 20, (ann("X:2", (2, 7)), ann("X:1", (0, 5))))
        assert unnest(doc, strategy).annotations == (ann("X:1", (0, 5)),)
        doc = Document("d", "x" * 20, (ann("X:2", (0, 5)), ann("X:1", (0, 5))))
        assert unnest(doc, strategy).annotations == (ann("X:1", (0, 5)),)

    def test_exact_duplicates_keep_the_first(self):
        first = ann("X:1", (0, 5))
        later = ann("X:1", (0, 5))
        doc = Document("d", "x" * 20, (first, later, first))
        for strategy in UNNEST:
            (kept,) = unnest(doc, strategy).annotations
            assert kept is first

    @pytest.mark.parametrize("strategy", UNNEST)
    def test_discontinuous_input_is_an_error(self, strategy):
        with pytest.raises(ValueError, match="unify"):
            unnest(interlaced_doc(), strategy)

    def test_chain_of_overlaps_resolved_pairwise(self):
        # b overlaps a and c; keep-longer lets b evict both shorter ones
        doc = Document("d", "x" * 30, (
            ann("X:1", (0, 6)), ann("X:2", (4, 16)), ann("X:3", (14, 20))))
        result = unnest(doc, UnnestStrategy.KEEP_LONGER)
        assert result.annotations == (ann("X:2", (4, 16)),)

    def test_deleted_annotation_cannot_delete_others(self):
        # c loses to b (longer), so c never contests a
        doc = Document("d", "x" * 30, (
            ann("X:1", (0, 10)), ann("X:2", (8, 20)), ann("X:3", (18, 22))))
        result = unnest(doc, UnnestStrategy.KEEP_SHORTER)
        assert result.annotations == (ann("X:1", (0, 10)), ann("X:3", (18, 22)))


class TestExtendSubword:
    def test_snaps_outward(self):
        text = "PI3K binds"
        tokens = tokenize(text)
        doc = Document("d", text, (ann("X:1", (0, 3)),))
        assert extend_subword(doc, tokens).annotations == (ann("X:1", (0, 4)),)

    def test_aligned_unchanged(self):
        text = "PI3K binds"
        tokens = tokenize(text)
        doc = Document("d", text, (ann("X:1", (0, 4)),))
        assert extend_subword(doc, tokens).annotations == doc.annotations

    def test_spanning_two_tokens(self):
        text = "abcd efgh"
        tokens = tokenize(text)
        doc = Document("d", text, (ann("X:1", (2, 6)),))
        assert extend_subword(doc, tokens).annotations == (ann("X:1", (0, 9)),)

    def test_annotation_in_whitespace_dropped(self):
        text = "ab   cd"
        tokens = tokenize(text)
        doc = Document("d", text, (ann("X:1", (3, 4)),))
        result = extend_subword(doc, tokens)
        assert result.annotations == ()
        assert [message for _, message in take_warnings().values()] == [
            "d: dropping annotation X:1 at (TextSpan(start=3, end=4),): "
            "overlaps no token"]


    def test_discontinuous_input_is_an_error(self):
        doc = interlaced_doc()
        with pytest.raises(ValueError, match="unify"):
            extend_subword(doc, tokenize(doc.text))


class TestSimplify:
    def test_interlaced_combinatorics(self):
        doc = interlaced_doc()
        outcomes = {}
        for u, n in itertools.product(UNIFY, UNNEST):
            result = simplify(doc, u, n)
            outcomes[(u, n)] = frozenset(result.annotations)
        distinct = set(outcomes.values())
        assert len(distinct) == 4
        singletons = [o for o in distinct if len(o) == 1]
        assert len(singletons) == 3

    def test_interlaced_expected_outcomes(self):
        doc = interlaced_doc()
        expect = {
            (UnifyStrategy.FIRST_SPAN, UnnestStrategy.KEEP_LONGER):
                {ann("X:1", (0, 2)), ann("X:2", (7, 20))},
            (UnifyStrategy.FIRST_SPAN, UnnestStrategy.KEEP_SHORTER):
                {ann("X:1", (0, 2)), ann("X:2", (7, 20))},
            (UnifyStrategy.FULL_SPAN, UnnestStrategy.KEEP_LONGER):
                {ann("X:1", (0, 20))},
            (UnifyStrategy.FULL_SPAN, UnnestStrategy.KEEP_SHORTER):
                {ann("X:2", (7, 20))},
            (UnifyStrategy.LAST_SPAN, UnnestStrategy.KEEP_LONGER):
                {ann("X:2", (7, 20))},
            (UnifyStrategy.LAST_SPAN, UnnestStrategy.KEEP_SHORTER):
                {ann("X:1", (15, 20))},
        }
        for (u, n), want in expect.items():
            assert set(simplify(doc, u, n).annotations) == want

    @pytest.mark.parametrize("u", UNIFY)
    @pytest.mark.parametrize("n", UNNEST)
    def test_simple_documents_unchanged(self, u, n, small_tree):
        rng = random.Random(23)
        concepts = sorted(small_tree)
        for i in range(30):
            doc = random_simple_document(rng, f"d{i}", concepts)
            assert simplify(doc, u, n).annotations == doc.annotations

    def test_empty_document(self):
        doc = Document("d", "no mentions here")
        for u, n in itertools.product(UNIFY, UNNEST):
            assert simplify(doc, u, n).annotations == ()

    @pytest.mark.parametrize("u", UNIFY)
    @pytest.mark.parametrize("n", UNNEST)
    def test_postconditions_and_idempotence(self, u, n):
        rng = random.Random(int(u.value[0] == "f") * 100 + len(n.value))
        graph = tree_graph()
        concepts = sorted(graph)
        for i in range(60):
            doc = random_messy_document(rng, f"d{i}", concepts)
            tokens = tokenize(doc.text)
            starts = {s.start for _, s in tokens}
            ends = {s.end for _, s in tokens}
            result = simplify(doc, u, n)
            anns = sorted(result.annotations, key=lambda a: (a.start, a.end))
            for a in anns:
                assert not a.discontinuous
                assert a.start in starts and a.end in ends
            for a, b in zip(anns, anns[1:]):
                assert a.end <= b.start
            again = simplify(result, u, n)
            assert again.annotations == result.annotations

    def test_article_sized_document_is_fast(self):
        # about one CRAFT article: 1600 lines, 9,644 tokens, 3,158 mentions
        doc = random_messy_document(random.Random(5), "big",
                                    sorted(tree_graph()), n_lines=1600)
        start = time.perf_counter()
        result = simplify(doc, UnifyStrategy.FULL_SPAN, UnnestStrategy.KEEP_LONGER)
        assert time.perf_counter() - start < 2.0
        assert len(result.annotations) > 1000


# Text pieces: words, punctuation, runs of whitespace, CRLF and BOM.
_PIECES = ["ab", "x", "\u03b1", "-", ".", " ", "   ", "\t", "\n", "\r\n",
           "\ufeff"]


def _named(annotations):
    """Give every annotation its own object, so the survivor of exact
    duplicates shows."""
    return tuple(Annotation(a.concept_id, a.spans) for a in annotations)


@st.composite
def single_span_documents(draw):
    """Short texts over `_PIECES` with small overlapping spans: length
    ties, equal starts, exact duplicates and all-whitespace spans."""
    text = "".join(draw(st.lists(st.sampled_from(_PIECES), min_size=1,
                                 max_size=20)))
    annotations = []
    for _ in range(draw(st.integers(0, 8))):
        start = draw(st.integers(0, len(text) - 1))
        end = draw(st.integers(start + 1, min(len(text), start + 8)))
        concept = draw(st.sampled_from(["X:1", "X:2", "X:3"]))
        annotations.append(Annotation(concept, (TextSpan(start, end),)))
    if annotations:
        for i in draw(st.lists(st.integers(0, len(annotations) - 1),
                               max_size=3)):
            annotations.append(annotations[i])
    return Document("d", text, _named(annotations))


@st.composite
def unified_messy_documents(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    doc = random_messy_document(rng, "m", sorted(tree_graph()),
                                n_lines=draw(st.integers(1, 6)))
    strategy = draw(st.sampled_from(UNIFY))
    return Document(doc.doc_id, doc.text,
                    _named(unify(a, strategy) for a in doc.annotations))


def _labelled(doc):
    return [(a, id(a)) for a in doc.annotations]


@given(st.one_of(single_span_documents(), unified_messy_documents()))
def test_matches_the_all_pairs_reference(doc):
    tokens = tokenize(doc.text)
    take_warnings()  # those of an earlier example
    extended = extend_subword(doc, tokens)
    want = reference_extend_subword(doc, tokens)
    assert extended.annotations == want.annotations
    dropped = sum(count for count, _ in take_warnings().values())
    assert dropped == len(doc.annotations) - len(want.annotations)
    for strategy in UNNEST:
        for stage in (doc, extended):
            assert (_labelled(unnest(stage, strategy))
                    == _labelled(reference_unnest(stage, strategy)))
