import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptkit import (Annotation, Document, TextSpan, filter_unseen,
                        fscore, pair_similarity, score_document,
                        slot_error_rate, take_warnings, wang_similarity)
from conceptkit.evaluate import EvalCounts, score_corpus

from helpers import all_pairs_counts, optimal_counts, tree_graph


def ann(concept, start, end):
    return Annotation(concept, (TextSpan(start, end),))


class TestPairSimilarity:
    def test_perfect(self, chain_graph):
        a = ann("TEST:B", 0, 5)
        assert pair_similarity(a, a, chain_graph) == 1.0

    def test_identical_span_sibling_concepts(self, chain_graph):
        p = ann("TEST:B", 0, 5)
        r = ann("TEST:C", 0, 5)
        assert pair_similarity(p, r, chain_graph) == pytest.approx(3.24 / 4.24)

    def test_disjoint_spans(self, chain_graph):
        assert pair_similarity(ann("TEST:B", 0, 5), ann("TEST:B", 9, 12),
                               chain_graph) == 0.0

    def test_unknown_concept_scores_zero(self, chain_graph):
        m = pair_similarity(ann("NOPE:1", 0, 5), ann("TEST:B", 0, 5),
                            chain_graph)
        assert m == 0.0
        assert take_warnings() == {
            "concept %s not in ontology: similarity 0":
                (1, "concept NOPE:1 not in ontology: similarity 0")}

    def test_product_of_factors(self, chain_graph):
        p = ann("TEST:B", 0, 4)
        r = ann("TEST:C", 2, 6)
        want = (2 / 6) * wang_similarity(chain_graph, "TEST:B", "TEST:C")
        assert pair_similarity(p, r, chain_graph) == pytest.approx(want)


class TestScoreDocument:
    def test_perfect_system(self, chain_graph):
        refs = [ann("TEST:B", 0, 5), ann("TEST:C", 8, 12)]
        counts = score_document(list(refs), refs, chain_graph)
        assert counts == EvalCounts(matches=2.0)

    def test_empty_predictions(self, chain_graph):
        refs = [ann("TEST:B", 0, 5)]
        counts = score_document([], refs, chain_graph)
        assert counts == EvalCounts(deletions=1)

    def test_half_match(self, chain_graph):
        # char overlap 0.5, same concept
        p = [ann("TEST:B", 0, 4)]
        r = [ann("TEST:B", 0, 8)]
        counts = score_document(p, r, chain_graph)
        assert counts.matches == pytest.approx(0.5)
        assert counts.substitutions == pytest.approx(0.5)
        assert counts.insertions == counts.deletions == 0

    def test_unpairable_prediction_is_insertion(self, chain_graph):
        counts = score_document([ann("TEST:B", 20, 25)],
                                [ann("TEST:B", 0, 5)], chain_graph)
        assert counts == EvalCounts(insertions=1, deletions=1)

    def test_bookkeeping_identities_random(self, small_tree):
        rng = random.Random(71)
        for _ in range(300):
            preds, refs = _random_sides(rng, small_tree)
            counts = score_document(preds, refs, small_tree)
            assert counts.reference_total == pytest.approx(len(refs), abs=1e-9)
            assert counts.prediction_total == pytest.approx(len(preds), abs=1e-9)

    def test_greedy_matches_bruteforce_random(self, small_tree):
        rng = random.Random(73)
        for _ in range(300):
            preds, refs = _random_sides(rng, small_tree, max_per_side=6)
            got = score_document(preds, refs, small_tree)
            want = optimal_counts(preds, refs, small_tree)
            assert got.matches == pytest.approx(want.matches, abs=1e-9)
            assert got.substitutions == pytest.approx(want.substitutions, abs=1e-9)
            assert got.insertions == want.insertions
            assert got.deletions == want.deletions

    def test_deterministic_tie_break(self, chain_graph):
        # two predictions tie on similarity to one reference; the one
        # with the smaller start is paired
        refs = [ann("TEST:B", 10, 20)]
        preds = [ann("TEST:B", 15, 25), ann("TEST:B", 5, 15)]
        counts = score_document(preds, refs, chain_graph)
        again = score_document(list(reversed(preds)), refs, chain_graph)
        assert counts == again


def _random_sides(rng, graph, max_per_side=8):
    """Reference annotations plus predictions perturbed from them."""
    concepts = sorted(graph)
    refs = []
    pos = rng.randint(0, 3)
    for _ in range(rng.randint(1, max_per_side)):
        width = rng.randint(2, 8)
        refs.append(ann(rng.choice(concepts), pos, pos + width))
        pos += width + rng.randint(1, 4)
    preds = []
    for r in refs:
        roll = rng.random()
        if roll < 0.25:
            continue  # missed
        start, end = r.spans[0].start, r.spans[0].end
        if roll < 0.55:
            preds.append(ann(r.concept_id, start, end))  # exact
        else:
            start = max(0, start + rng.randint(-2, 2))
            end = max(start + 1, end + rng.randint(-2, 2))
            preds.append(ann(rng.choice(concepts), start, end))
    while len(preds) > max_per_side:
        preds.pop(rng.randrange(len(preds)))
    if rng.random() < 0.3 and len(preds) < max_per_side:
        preds.append(ann(rng.choice(concepts), pos + 5, pos + 9))  # spurious
    return preds, refs


class TestScoreCorpus:
    def _corpus(self, graph):
        rng = random.Random(17)
        gold, preds = {}, {}
        for i in range(12):
            pred_anns, ref_anns = _random_sides(rng, graph)
            gold[f"d{i}"] = Document(f"d{i}", "x" * 200, tuple(ref_anns))
            preds[f"d{i}"] = Document(f"d{i}", "x" * 200, tuple(pred_anns))
        return gold, preds

    def test_sum_of_documents(self, small_tree):
        gold, preds = self._corpus(small_tree)
        expected = EvalCounts()
        for doc_id, ref in gold.items():
            expected += score_document(list(preds[doc_id].annotations),
                                       list(ref.annotations), small_tree, 0.6)
        assert expected.deletions and expected.matches
        assert score_corpus(gold, preds, small_tree, 0.6) == expected

    def test_sum_of_unseen_documents(self, small_tree):
        gold, preds = self._corpus(small_tree)
        train_labels = set(sorted(small_tree)[::2])
        expected = EvalCounts()
        for doc_id, ref in gold.items():
            kept_preds, kept_refs = filter_unseen(
                list(preds[doc_id].annotations), list(ref.annotations),
                train_labels)
            expected += score_document(kept_preds, kept_refs, small_tree)
        assert expected != score_corpus(gold, preds, small_tree)
        assert score_corpus(gold, preds, small_tree,
                            train_labels=train_labels) == expected


SWEEP_GRAPH = tree_graph()
#: A few ontology concepts, so that similarities tie, and one it lacks.
SWEEP_CONCEPTS = sorted(SWEEP_GRAPH)[:6] + ["MISSING:1"]


def _mention(concept, *bounds):
    return Annotation(concept, tuple(TextSpan(a, b) for a, b
                                     in zip(bounds[::2], bounds[1::2])))


@st.composite
def sweep_sides(draw):
    """(preds, refs): touching references, and predictions that copy,
    nest in, share a start with, straddle or leave a gap around one of
    them; the sides may swap, so either side holds the gapped mentions."""
    concept = st.sampled_from(SWEEP_CONCEPTS)
    cuts = sorted(draw(st.sets(st.integers(1, 40), min_size=2, max_size=8)))
    refs = [_mention(draw(concept), a, b) for a, b in zip(cuts, cuts[1:])]
    preds = []
    for _ in range(draw(st.integers(0, 8))):
        ref = draw(st.sampled_from(refs))
        a, b = ref.start, ref.end
        kind = draw(st.sampled_from(
            ["copy", "nested", "same-start", "straddle", "gap", "free"]))
        if kind == "copy":
            bounds = (a, b)
        elif kind == "nested":
            lo = draw(st.integers(a, b - 1))
            bounds = (lo, draw(st.integers(lo + 1, b)))
        elif kind == "same-start":
            bounds = (a, draw(st.integers(a + 1, b + 6)))
        elif kind == "straddle":
            bounds = (draw(st.integers(a, b - 1)), draw(st.integers(b + 1, b + 6)))
        elif kind == "gap":
            left_end = draw(st.integers(1, a))
            right_start = draw(st.integers(b, b + 2))
            bounds = (draw(st.integers(0, left_end - 1)), left_end,
                      right_start, draw(st.integers(right_start + 1, right_start + 3)))
        else:
            lo = draw(st.integers(0, 45))
            bounds = (lo, draw(st.integers(lo + 1, 46)))
        preds.append(_mention(draw(concept), *bounds))
    return (refs, preds) if draw(st.booleans()) else (preds, refs)


@given(sweep_sides())
def test_overlap_sweep_scores_like_all_pairs(sides):
    preds, refs = sides
    assert score_document(preds, refs, SWEEP_GRAPH) == \
        all_pairs_counts(preds, refs, SWEEP_GRAPH)


class TestFscore:
    def test_perfect(self):
        assert fscore(EvalCounts(matches=10)) == (1.0, 1.0, 1.0)

    def test_zero_matches(self):
        assert fscore(EvalCounts(substitutions=2, insertions=1, deletions=1)) \
            == (0.0, 0.0, 0.0)

    def test_worked_example(self):
        p, r, f = fscore(EvalCounts(3, 1, 1, 2))
        assert p == pytest.approx(0.6)
        assert r == pytest.approx(0.5)
        assert f == pytest.approx(2 * 0.6 * 0.5 / 1.1)

    def test_empty_everything(self):
        assert fscore(EvalCounts()) == (0.0, 0.0, 0.0)


class TestSlotErrorRate:
    def test_perfect_is_zero(self):
        assert slot_error_rate(EvalCounts(matches=5)) == 0.0

    def test_all_deletions(self):
        assert slot_error_rate(EvalCounts(deletions=5)) == 1.0

    def test_worked_example(self):
        assert slot_error_rate(EvalCounts(3, 1, 1, 2)) == pytest.approx(4 / 6)

    def test_insertions_only_is_infinite(self):
        assert slot_error_rate(EvalCounts(insertions=3)) == math.inf

    def test_zero_over_zero(self):
        assert slot_error_rate(EvalCounts()) == 0.0

    def test_prediction_denominator(self):
        counts = EvalCounts(3, 1, 1, 2)
        assert slot_error_rate(counts, "prediction") == pytest.approx(4 / 5)
        with pytest.raises(ValueError):
            slot_error_rate(counts, "nonsense")


class TestMetricAgreement:
    def test_perfection_equivalence_random(self, small_tree):
        rng = random.Random(79)
        for _ in range(300):
            preds, refs = _random_sides(rng, small_tree)
            counts = score_document(preds, refs, small_tree)
            _, _, f = fscore(counts)
            ser = slot_error_rate(counts)
            exact = sorted((a.spans, a.concept_id) for a in preds) == \
                sorted((a.spans, a.concept_id) for a in refs)
            assert (f == 1.0) == (ser == 0.0) == exact

    def test_false_positive_strictly_worsens(self, small_tree):
        rng = random.Random(83)
        far = ann(sorted(small_tree)[0], 900, 905)
        for _ in range(200):
            preds, refs = _random_sides(rng, small_tree)
            if not any(pair_similarity(p, r, small_tree) > 0
                       for p in preds for r in refs):
                preds.append(refs[0])  # guarantee one match
            base = score_document(preds, refs, small_tree)
            worse = score_document(preds + [far], refs, small_tree)
            assert worse.insertions == base.insertions + 1
            assert worse.matches == pytest.approx(base.matches)
            assert worse.substitutions == pytest.approx(base.substitutions)
            assert worse.deletions == base.deletions
            assert slot_error_rate(worse) > slot_error_rate(base)
            assert fscore(worse)[2] < fscore(base)[2]


class TestFilterUnseen:
    def test_all_seen(self):
        preds = [ann("X:1", 0, 2)]
        refs = [ann("X:1", 0, 2), ann("X:2", 3, 5)]
        assert filter_unseen(preds, refs, {"X:1", "X:2"}) == ([], [])

    def test_mixed(self):
        preds = [ann("X:1", 0, 2), ann("X:9", 3, 5)]
        refs = [ann("X:9", 3, 5)]
        p2, r2 = filter_unseen(preds, refs, {"X:1"})
        assert p2 == [ann("X:9", 3, 5)]
        assert r2 == refs

    def test_empty_train_labels(self):
        preds = [ann("X:1", 0, 2)]
        assert filter_unseen(preds, [], set()) == (preds, [])
