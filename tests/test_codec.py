import itertools
import random

import pytest

from conceptkit import (NIL, Annotation, Document, SpanTag, TextSpan,
                        decode_iobes, encode, roundtrip_upper_bound, tokenize)
from conceptkit.codec import conll_to_document, document_to_conll, iter_blocks
from conceptkit.evaluate import fscore
from conceptkit.simplify import UnifyStrategy, UnnestStrategy

from helpers import (random_messy_document, random_simple_document,
                     rows_from_tuples)


def ann(concept, start, end):
    return Annotation(concept, (TextSpan(start, end),))


class TestEncode:
    def test_two_token_entity(self):
        text = "Hexokinase I binds"
        tokens = tokenize(text)
        doc = Document("d", text, (ann("PR:000001", 0, 12),))
        rows = encode(doc, tokens)
        assert [r.span_tag for r in rows] == [SpanTag.B, SpanTag.E, SpanTag.O]
        assert [r.id_tag for r in rows] == ["PR:000001", "PR:000001", NIL]

    def test_single_token_entity(self):
        text = "Hexokinase binds"
        tokens = tokenize(text)
        doc = Document("d", text, (ann("PR:000001", 0, 10),))
        rows = encode(doc, tokens)
        assert rows[0].span_tag is SpanTag.S
        assert rows[1].span_tag is SpanTag.O

    def test_no_annotations(self):
        text = "nothing to see"
        rows = encode(Document("d", text), tokenize(text))
        assert all(r.span_tag is SpanTag.O and r.id_tag == NIL for r in rows)

    def test_long_entity_has_inside_tags(self):
        text = "alpha beta gamma delta"
        doc = Document("d", text, (ann("X:1", 0, 22),))
        rows = encode(doc, tokenize(text))
        assert [r.span_tag for r in rows] == [
            SpanTag.B, SpanTag.I, SpanTag.I, SpanTag.E]

    def test_rejects_unaligned(self):
        text = "alpha beta"
        doc = Document("d", text, (ann("X:1", 0, 3),))
        with pytest.raises(ValueError, match="not simplified"):
            encode(doc, tokenize(text))

    def test_rejects_discontinuous(self):
        text = "alpha beta gamma"
        doc = Document("d", text, (
            Annotation("X:1", (TextSpan(0, 5), TextSpan(11, 16))),))
        with pytest.raises(ValueError, match="not simplified"):
            encode(doc, tokenize(text))

    def test_rejects_overlap(self):
        text = "alpha beta gamma"
        doc = Document("d", text, (ann("X:1", 0, 10), ann("X:2", 6, 16)))
        with pytest.raises(ValueError, match="not simplified"):
            encode(doc, tokenize(text))


class TestIterBlocks:
    @pytest.mark.parametrize("tags,blocks", [
        ("BE", [(0, 1)]),
        ("OOO", []),
        ("IE", [(0, 1)]),
        ("S", [(0, 0)]),
        ("BIE", [(0, 2)]),
        ("BI", [(0, 1)]),
        ("BB", [(0, 0), (1, 1)]),
        ("SS", [(0, 0), (1, 1)]),
        ("BS", [(0, 0), (1, 1)]),
        ("EB", [(0, 0), (1, 1)]),
        ("OIIO", [(1, 2)]),
        ("BOE", [(0, 0), (2, 2)]),
        ("ISE", [(0, 0), (1, 1), (2, 2)]),
        ("BESI", [(0, 1), (2, 2), (3, 3)]),
    ])
    def test_tolerant_segmentation(self, tags, blocks):
        assert list(iter_blocks([SpanTag(t) for t in tags])) == blocks

    def test_every_sequence_decodes(self):
        for length in range(0, 5):
            for combo in itertools.product("BIESO", repeat=length):
                blocks = list(iter_blocks([SpanTag(t) for t in combo]))
                for (f1, l1), (f2, l2) in zip(blocks, blocks[1:]):
                    assert l1 < f2
                for f, l in blocks:
                    assert 0 <= f <= l < length


class TestDecode:
    def test_inverse_of_encode(self):
        rows = rows_from_tuples([
            ("Hexokinase", 0, 10, "B", "PR:000001", []),
            ("I", 11, 12, "E", "PR:000001", []),
            ("binds", 13, 18, "O", NIL, []),
        ])
        anns = decode_iobes(rows)
        assert len(anns) == 1
        assert anns[0].concept_id == "PR:000001"
        assert anns[0].spans == (TextSpan(0, 12),)

    def test_all_outside(self):
        rows = rows_from_tuples([
            ("a", 0, 1, "O", NIL, []), ("b", 2, 3, "O", NIL, [])])
        assert decode_iobes(rows) == []

    def test_ill_formed_ie(self):
        rows = rows_from_tuples([
            ("a", 0, 1, "I", "X:1", []), ("b", 2, 3, "E", "X:1", [])])
        (only,) = decode_iobes(rows)
        assert only.spans == (TextSpan(0, 3),)

    def test_majority_id_wins(self):
        rows = rows_from_tuples([
            ("a", 0, 1, "B", "X:2", []),
            ("b", 2, 3, "I", "X:1", []),
            ("c", 4, 5, "E", "X:1", []),
        ])
        (only,) = decode_iobes(rows)
        assert only.concept_id == "X:1"

    def test_id_tie_goes_to_lowest(self):
        rows = rows_from_tuples([
            ("a", 0, 1, "B", "X:2", []), ("b", 2, 3, "E", "X:1", [])])
        (only,) = decode_iobes(rows)
        assert only.concept_id == "X:1"

    def test_nil_only_block_skipped(self):
        rows = rows_from_tuples([("a", 0, 1, "S", NIL, [])])
        assert decode_iobes(rows) == []

    def test_decoded_annotations_never_overlap(self):
        rng = random.Random(4)
        for _ in range(300):
            pos = 0
            tuples = []
            for _ in range(rng.randint(1, 10)):
                tuples.append(("tok", pos, pos + 3,
                               rng.choice("BIESO"),
                               rng.choice([NIL, "X:1", "X:2"]), []))
                pos += 4
            anns = sorted(decode_iobes(rows_from_tuples(tuples)),
                          key=lambda a: a.start)
            for a, b in zip(anns, anns[1:]):
                assert a.end <= b.start


class TestRoundTrip:
    def test_decode_encode_identity_random(self, small_tree):
        rng = random.Random(17)
        concepts = sorted(small_tree)
        for i in range(100):
            doc = random_simple_document(rng, f"d{i}", concepts)
            tokens = tokenize(doc.text)
            rows = encode(doc, tokens)
            decoded = decode_iobes(rows)
            assert {(a.spans, a.concept_id) for a in decoded} == \
                   {(a.spans, a.concept_id) for a in doc.annotations}

    def test_document_roundtrip_simple_is_exact(self, small_tree):
        rng = random.Random(29)
        concepts = sorted(small_tree)
        for i in range(100):
            doc = random_simple_document(rng, f"d{i}", concepts)
            sentences = document_to_conll(
                doc, UnifyStrategy.FIRST_SPAN, UnnestStrategy.KEEP_LONGER)
            restored = conll_to_document(doc.doc_id, sentences, text=doc.text)
            assert set(restored.annotations) == set(doc.annotations)

    def test_upper_bound_simple_corpus_is_one(self, small_tree):
        rng = random.Random(31)
        concepts = sorted(small_tree)
        corpus = [random_simple_document(rng, f"d{i}", concepts)
                  for i in range(20)]
        counts = roundtrip_upper_bound(
            corpus, UnifyStrategy.FIRST_SPAN, UnnestStrategy.KEEP_LONGER,
            small_tree)
        _, _, f = fscore(counts)
        assert f == 1.0

    @pytest.mark.parametrize("u", list(UnifyStrategy))
    @pytest.mark.parametrize("n", list(UnnestStrategy))
    def test_upper_bound_messy_corpus_at_most_one(self, u, n, small_tree):
        rng = random.Random(37)
        concepts = sorted(small_tree)
        corpus = [random_messy_document(rng, f"d{i}", concepts)
                  for i in range(15)]
        counts = roundtrip_upper_bound(corpus, u, n, small_tree)
        _, _, f = fscore(counts)
        assert 0.0 < f <= 1.0

    def test_surrogate_text_reconstruction(self):
        sentences = [rows_from_tuples([
            ("alpha", 0, 5, "S", "X:1", []),
            ("beta", 6, 10, "O", NIL, []),
        ])]
        doc = conll_to_document("d", sentences)
        assert doc.text == "alpha beta"
        assert doc.annotations[0].spans == (TextSpan(0, 5),)
