import operator
import pickle
import random
from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptkit import (NIL, Annotation, ConllRow, Document, EvalCounts,
                        FoldPlan, SpanTag, TermIndex, TextSpan,
                        TokenPrediction, char_jaccard)
from conceptkit.harmonise import HarmonisationStrategy
from conceptkit.ontology import Concept
from conceptkit.tuning import StrategyResult

from helpers import DATACLASS_ORACLES, brute_jaccard


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


#: A value of type `name` built from `args`, each itself a value or a
#: Make; see `build`.
Make = namedtuple("Make", "name args")


def build(types, recipe):
    """The value a recipe describes, with every Make built by the type
    of its name in `types`."""
    if isinstance(recipe, Make):
        return types[recipe.name](*build(types, recipe.args))
    if isinstance(recipe, (list, tuple)):
        return type(recipe)(build(types, r) for r in recipe)
    return recipe


def _make(name, required, *fields):
    """Makes of `name` from all its fields, or from a prefix of at least
    `required` of them, so that defaults are built too."""
    return st.tuples(st.integers(required, len(fields)), st.tuples(*fields)).map(
        lambda t: Make(name, t[1][:t[0]]))


def _list_or_tuple(elements, max_size=3):
    items = st.lists(elements, max_size=max_size)
    return st.one_of(items, items.map(tuple))


def _disjoint_spans(points):
    """Makes of sorted, disjoint spans between successive pairs of the
    sorted points."""
    points = sorted(points)
    return [Make("TextSpan", pair) for pair in zip(points[::2], points[1::2])]


_CURIES = st.sampled_from(["X:1", "X:2", "Y:3"])
_ID_TAGS = st.sampled_from(["", NIL, "X:1", "X:2"])
_FLOATS = st.floats(-2, 2, allow_nan=False)
_SPAN = _make("TextSpan", 2, st.integers(-2, 12), st.integers(-2, 12))
_VALID_SPAN = st.tuples(st.integers(0, 10), st.integers(1, 5)).map(
    lambda t: Make("TextSpan", (t[0], t[0] + t[1])))
_ANNOTATION = _make("Annotation", 2, _ID_TAGS, _list_or_tuple(_VALID_SPAN))
_VALID_ANNOTATION = st.tuples(_CURIES, st.lists(
    st.integers(0, 20), min_size=2, max_size=6, unique=True).map(
    _disjoint_spans)).map(lambda t: Make("Annotation", t))
_COUNTS = _make("EvalCounts", 0, _FLOATS, _FLOATS, st.integers(0, 3),
                st.integers(0, 3))
_KINDS = {
    "TextSpan": st.one_of(_VALID_SPAN, _SPAN),
    "Annotation": st.one_of(_VALID_ANNOTATION, _ANNOTATION),
    "Document": _make("Document", 2, st.sampled_from(["d1", "d2"]),
                      st.text(max_size=12),
                      _list_or_tuple(st.one_of(_VALID_ANNOTATION, _ANNOTATION))),
    "ConllRow": _make("ConllRow", 2, st.sampled_from(["", "a", "cell"]),
                      st.one_of(_VALID_SPAN, _SPAN), st.sampled_from(SpanTag),
                      _ID_TAGS, _list_or_tuple(_CURIES)),
    "Concept": _make("Concept", 1, st.text(max_size=5),
                     st.lists(st.text(max_size=3), max_size=2).map(tuple),
                     st.lists(_CURIES, max_size=2).map(tuple), st.booleans()),
    "EvalCounts": _COUNTS,
    "TokenPrediction": _make("TokenPrediction", 1, st.sampled_from(SpanTag),
                             _ID_TAGS, st.lists(_CURIES, max_size=2).map(tuple)),
    "FoldPlan": _make("FoldPlan", 2, st.integers(1, 3),
                      st.dictionaries(st.sampled_from("abc"), st.integers(0, 2))),
    "StrategyResult": _make("StrategyResult", 4,
                            st.sampled_from(HarmonisationStrategy), _FLOATS,
                            _FLOATS, st.lists(_COUNTS, max_size=2).map(tuple)),
    "TermIndex": _make("TermIndex", 1, st.dictionaries(
        st.lists(st.sampled_from(["a", "cell"]), min_size=1, max_size=3).map(tuple),
        st.lists(_CURIES, min_size=1, max_size=2).map(tuple), max_size=3)),
}
#: The named-tuple value types, by name.
NAMED_TUPLES = {cls.__name__: cls for cls in (
    TextSpan, Annotation, Document, ConllRow, Concept, EvalCounts,
    TokenPrediction, FoldPlan, StrategyResult, TermIndex)}


def _outcome(types, recipe):
    """(value, None), or (None, message) if a constructor refuses it."""
    try:
        return build(types, recipe), None
    except ValueError as exc:
        return None, str(exc)


def _hash(value):
    try:
        return hash(value)
    except TypeError:
        return "unhashable"


@pytest.mark.parametrize("name", list(_KINDS))
@given(data=st.data())
def test_value_types_behave_as_the_frozen_dataclasses(name, data):
    """Each named tuple checks and normalises its fields as the frozen
    dataclass it replaced: same error message, repr, hash, properties,
    len() and `in`, equality and TextSpan/Annotation ordering. It is
    immutable and survives a pickle round trip."""
    a = data.draw(_KINDS[name])
    b = data.draw(st.one_of(st.just(a), _KINDS[name]))
    old_a, error = _outcome(DATACLASS_ORACLES, a)
    new_a, new_error = _outcome(NAMED_TUPLES, a)
    assert new_error == error
    if error is not None:
        return
    assert repr(new_a) == repr(old_a)
    assert _hash(new_a) == _hash(old_a)
    for attr, value in vars(type(old_a)).items():
        if isinstance(value, property):
            assert getattr(new_a, attr) == getattr(old_a, attr), attr
    if hasattr(type(old_a), "__len__"):
        assert len(new_a) == len(old_a)
    if hasattr(type(old_a), "__contains__"):
        assert (("a",) in new_a) == (("a",) in old_a)
    for value in (old_a, new_a):
        with pytest.raises(AttributeError):
            setattr(value, new_a._fields[0], None)
    copy = pickle.loads(pickle.dumps(new_a))
    assert type(copy) is type(new_a)
    assert (copy, repr(copy)) == (new_a, repr(new_a))
    old_b, _ = _outcome(DATACLASS_ORACLES, b)
    new_b, _ = _outcome(NAMED_TUPLES, b)
    if old_b is None:
        return
    assert (new_a == new_b) == (old_a == old_b)
    if name in ("TextSpan", "Annotation"):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            assert compare(new_a, new_b) == compare(old_a, old_b)
