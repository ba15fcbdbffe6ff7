import random

import pytest

from conceptkit import Annotation, TextSpan, char_jaccard

from helpers import brute_jaccard


def span(start, end):
    return TextSpan(start, end)


class TestTextSpan:
    def test_rejects_empty_and_inverted(self):
        with pytest.raises(ValueError):
            TextSpan(5, 5)
        with pytest.raises(ValueError):
            TextSpan(6, 2)
        with pytest.raises(ValueError):
            TextSpan(-1, 2)

    def test_length(self):
        assert len(span(3, 9)) == 6


class TestAnnotation:
    def test_spans_must_be_sorted_and_disjoint(self):
        with pytest.raises(ValueError):
            Annotation("X:1", (span(5, 8), span(0, 2)))
        with pytest.raises(ValueError):
            Annotation("X:1", (span(0, 5), span(3, 8)))
        with pytest.raises(ValueError):
            Annotation("X:1", ())

    def test_discontinuous_flag_and_length(self):
        ann = Annotation("X:1", (span(0, 2), span(15, 20)))
        assert ann.discontinuous
        assert ann.length == 7
        assert (ann.start, ann.end) == (0, 20)


class TestCharJaccard:
    def test_identical_spans(self):
        assert char_jaccard([span(0, 5)], [span(0, 5)]) == 1.0

    def test_partial_overlap(self):
        # chars {0..3} vs {2..5}: intersection {2,3}, union {0..5}
        assert char_jaccard([span(0, 4)], [span(2, 6)]) == pytest.approx(2 / 6)

    def test_discontinuous(self):
        # {0,1,10..13} vs {10..13}: intersection 4 chars, union 6
        a = [span(0, 2), span(10, 14)]
        b = [span(10, 14)]
        assert char_jaccard(a, b) == pytest.approx(4 / 6)

    def test_disjoint_is_zero(self):
        assert char_jaccard([span(0, 2)], [span(5, 9)]) == 0.0

    def test_symmetry_and_self_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            a = _random_spans(rng)
            b = _random_spans(rng)
            assert char_jaccard(a, b) == char_jaccard(b, a)
            assert char_jaccard(a, a) == 1.0

    def test_refragmentation_invariance(self):
        whole = [span(0, 4)]
        split = [span(0, 2), span(2, 4)]
        other = [span(1, 6)]
        assert char_jaccard(whole, other) == char_jaccard(split, other)

    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(300):
            a = _random_spans(rng)
            b = _random_spans(rng)
            assert char_jaccard(a, b) == pytest.approx(brute_jaccard(a, b))


def _random_spans(rng, max_pos=40):
    spans = []
    pos = rng.randint(0, 5)
    for _ in range(rng.randint(1, 3)):
        start = pos + rng.randint(0, 4)
        end = start + rng.randint(1, 6)
        if end > max_pos:
            break
        spans.append(TextSpan(start, end))
        pos = end + 1
    return spans or [TextSpan(0, 1)]
