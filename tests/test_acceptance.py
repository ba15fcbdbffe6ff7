"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print. Criterion 1 runs against a reference corpus directory when the
CONCEPTKIT_CORPUS_DIR environment variable points at one (per-set
subdirectories of .txt/.ann files plus an .obo file); otherwise it runs
the generated-corpus substitute.
"""

import itertools
import os
import random
from contextlib import contextmanager

import pytest

from conceptkit import (NIL, Annotation, SpanTag, TextSpan, filter_unseen,
                        fscore, harmonise_document, harmonise_token,
                        make_folds, pair_similarity, parse_obo,
                        roundtrip_upper_bound, score_document,
                        select_strategy, simplify, slot_error_rate,
                        wang_similarity, grid_search)
from conceptkit.harmonise import (PLACEHOLDER_TAG, HarmonisationStrategy,
                                  TokenPrediction)
from conceptkit.simplify import UnifyStrategy, UnnestStrategy
from conceptkit.tuning import STRATEGY_ORDER

from helpers import (chain_obo, id_favouring_corpus, optimal_counts,
                     random_simple_document, rows_from_tuples,
                     span_favouring_corpus, tree_graph)

SPANS_ONLY = HarmonisationStrategy.SPANS_ONLY
IDS_ONLY = HarmonisationStrategy.IDS_ONLY
SPANS_FIRST = HarmonisationStrategy.SPANS_FIRST
IDS_FIRST = HarmonisationStrategy.IDS_FIRST


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


# Reference round-trip F-scores per annotation set for the
# first-span/keep-longer strategy combination, tolerance +/- 0.005.
REFERENCE_UPPER_BOUNDS = {
    "CHEBI": 0.9980, "CL": 0.9720, "GO_BP": 0.9626, "GO_CC": 0.9813,
    "GO_MF": 0.9974, "MOP": 0.9967, "NCBITaxon": 0.9996, "PR": 0.9627,
    "SO": 0.9831, "UBERON": 0.9798,
}


def test_criterion_1_roundtrip_upper_bound():
    corpus_dir = os.environ.get("CONCEPTKIT_CORPUS_DIR")
    if corpus_dir:
        _criterion_1_reference_corpus(corpus_dir)
    else:
        _criterion_1_generated_substitute()


def _criterion_1_reference_corpus(corpus_dir):
    from pathlib import Path

    from conceptkit.formats import read_standoff_dir

    with criterion(1, "round-trip upper bound, reference corpus"):
        for set_name, expected in sorted(REFERENCE_UPPER_BOUNDS.items()):
            set_dir = Path(corpus_dir) / set_name
            graph = parse_obo(
                next(set_dir.glob("*.obo")).read_text(encoding="utf-8"))
            docs = list(read_standoff_dir(str(set_dir)).values())
            scores = {}
            for u, n in itertools.product(UnifyStrategy, UnnestStrategy):
                counts = roundtrip_upper_bound(docs, u, n, graph)
                scores[(u, n)] = fscore(counts)[2]
            best = scores[(UnifyStrategy.FIRST_SPAN, UnnestStrategy.KEEP_LONGER)]
            assert best == pytest.approx(expected, abs=0.005), set_name
            assert all(best >= f - 1e-12 for f in scores.values()), set_name


def _criterion_1_generated_substitute():
    graph = tree_graph()
    concepts = sorted(graph)
    rng = random.Random(101)
    with criterion(1, "round-trip F=1.0 on 1000 simple generated documents"):
        for i in range(1000):
            doc = random_simple_document(rng, f"d{i}", concepts)
            counts = roundtrip_upper_bound(
                [doc], UnifyStrategy.FIRST_SPAN, UnnestStrategy.KEEP_LONGER,
                graph)
            _, _, f = fscore(counts)
            if doc.annotations:
                assert f == 1.0
            else:
                assert counts.insertions == counts.deletions == 0


def test_criterion_2_simplification_combinatorics():
    text = "ES and somatic cells"
    doc_annotations = (
        Annotation("X:1", (TextSpan(0, 2), TextSpan(15, 20))),
        Annotation("X:2", (TextSpan(7, 20),)),
    )
    from conceptkit import Document
    doc = Document("fig", text, doc_annotations)
    with criterion(2, "3x2 strategies, 4 outcomes, 3 singletons"):
        outcomes = set()
        for u, n in itertools.product(UnifyStrategy, UnnestStrategy):
            outcomes.add(frozenset(simplify(doc, u, n).annotations))
        assert len(outcomes) == 4
        assert sum(1 for o in outcomes if len(o) == 1) == 3


def _truth_table_cases():
    def pred(tag, nn, dict_ids):
        return TokenPrediction(SpanTag(tag), nn, tuple(dict_ids))

    o_nil = (SpanTag.O, NIL)
    table = []
    for span_relevant in (True, False):
        for nn_set in (True, False):
            for dict_set in (True, False):
                tag = "B" if span_relevant else "O"
                nn = "N:1" if nn_set else NIL
                dict_ids = ("D:1", "D:2") if dict_set else ()
                p = pred(tag, nn, dict_ids)
                span_out = ((p.span_tag, "D:1")
                            if span_relevant and dict_set else o_nil)
                id_out = (PLACEHOLDER_TAG, "N:1") if nn_set else o_nil
                table.append((p, {
                    SPANS_ONLY: span_out,
                    IDS_ONLY: id_out,
                    SPANS_FIRST: span_out if span_out != o_nil else id_out,
                    IDS_FIRST: id_out if id_out != o_nil else span_out,
                }))
    return table


def test_criterion_3_harmonisation_truth_table():
    with criterion(3, "32 truth-table cases and superset properties"):
        cases = 0
        for p, expected in _truth_table_cases():
            for strategy, want in expected.items():
                assert harmonise_token(p, strategy) == want, (p, strategy)
                cases += 1
        assert cases == 32

        rng = random.Random(103)
        o_nil = (SpanTag.O, NIL)
        for _ in range(1000):
            p = TokenPrediction(
                SpanTag(rng.choice("BIESOO")),
                rng.choice([NIL, NIL, "N:1", "N:2"]),
                rng.choice([(), (), ("D:1",), ("D:1", "D:2")]))
            so = harmonise_token(p, SPANS_ONLY)
            sf = harmonise_token(p, SPANS_FIRST)
            io = harmonise_token(p, IDS_ONLY)
            if_ = harmonise_token(p, IDS_FIRST)
            if so != o_nil:
                assert sf == so
            if io != o_nil:
                assert if_ == io


def _random_prediction_corpus(rng, graph, train_labels, n_docs):
    """Gold annotations plus a random three-source prediction stream."""
    concepts = sorted(graph)
    train = sorted(train_labels)
    corpus = []
    for d in range(n_docs):
        n = rng.randint(1, 12)
        rows = []
        gold = []
        pos = 0
        for _ in range(n):
            width = rng.randint(2, 6)
            span = (pos, pos + width)
            if rng.random() < 0.4:
                gold.append(Annotation(rng.choice(concepts),
                                       (TextSpan(*span),)))
            rows.append((
                "t" * width, span[0], span[1],
                rng.choice("BIESOO"),
                rng.choice([NIL, NIL, rng.choice(train)]),
                rng.choice([(), (), (rng.choice(concepts),),
                            tuple(sorted(rng.sample(concepts, 2)))]),
            ))
            pos += width + 1
        corpus.append((gold, [rows_from_tuples(rows)]))
    return corpus


def test_criterion_4_unseen_concepts():
    graph = tree_graph()
    concepts = sorted(graph)
    train_labels = set(concepts[:10])
    rng = random.Random(107)
    with criterion(4, "unseen concepts: ids-only empty, spans-only == spans-first"):
        for gold, sentences in _random_prediction_corpus(
                rng, graph, train_labels, 400):
            ids_only_preds = harmonise_document(sentences, IDS_ONLY)
            filtered, _ = filter_unseen(ids_only_preds, gold, train_labels)
            assert filtered == []

            so_preds, so_refs = filter_unseen(
                harmonise_document(sentences, SPANS_ONLY), gold, train_labels)
            sf_preds, sf_refs = filter_unseen(
                harmonise_document(sentences, SPANS_FIRST), gold, train_labels)
            assert so_refs == sf_refs
            assert so_preds == sf_preds
            assert score_document(so_preds, so_refs, graph) == \
                score_document(sf_preds, sf_refs, graph)


def _random_eval_sides(rng, graph, max_per_side=6):
    concepts = sorted(graph)
    refs = []
    pos = rng.randint(0, 3)
    for _ in range(rng.randint(1, max_per_side)):
        width = rng.randint(2, 8)
        refs.append(Annotation(rng.choice(concepts),
                               (TextSpan(pos, pos + width),)))
        pos += width + rng.randint(1, 4)
    preds = []
    for r in refs:
        roll = rng.random()
        if roll < 0.25:
            continue
        start, end = r.spans[0].start, r.spans[0].end
        if roll < 0.55:
            preds.append(Annotation(r.concept_id, (TextSpan(start, end),)))
        else:
            start = max(0, start + rng.randint(-2, 2))
            end = max(start + 1, end + rng.randint(-2, 2))
            preds.append(Annotation(rng.choice(concepts),
                                    (TextSpan(start, end),)))
    while len(preds) > max_per_side:
        preds.pop(rng.randrange(len(preds)))
    if rng.random() < 0.3 and len(preds) < max_per_side:
        preds.append(Annotation(rng.choice(concepts),
                                (TextSpan(pos + 5, pos + 9),)))
    return preds, refs


def test_criterion_5_metric_identities():
    graph = tree_graph()
    rng = random.Random(73)
    far = Annotation(sorted(graph)[0], (TextSpan(900, 905),))
    with criterion(5, "metric identities, FP monotonicity, pairing oracle"):
        for _ in range(1000):
            preds, refs = _random_eval_sides(rng, graph)
            counts = score_document(preds, refs, graph)

            assert counts.reference_total == pytest.approx(len(refs), abs=1e-9)
            assert counts.prediction_total == pytest.approx(len(preds), abs=1e-9)

            _, _, f = fscore(counts)
            ser = slot_error_rate(counts)
            exact = sorted((a.spans, a.concept_id) for a in preds) == \
                sorted((a.spans, a.concept_id) for a in refs)
            assert (f == 1.0) == (ser == 0.0) == exact

            fp_preds = list(preds)
            if not any(pair_similarity(p, r, graph) > 0
                       for p in preds for r in refs):
                fp_preds.append(refs[0])
            base = score_document(fp_preds, refs, graph)
            worse = score_document(fp_preds + [far], refs, graph)
            assert worse.insertions == base.insertions + 1
            assert slot_error_rate(worse) > slot_error_rate(base)
            assert fscore(worse)[2] < fscore(base)[2]

            # pairing oracle: all generated documents have <= 6 per side
            want = optimal_counts(preds, refs, graph)
            assert counts.matches == pytest.approx(want.matches, abs=1e-9)
            assert counts.substitutions == pytest.approx(
                want.substitutions, abs=1e-9)
            assert counts.insertions == want.insertions
            assert counts.deletions == want.deletions


def test_criterion_6_wang_similarity():
    chain3 = parse_obo(chain_obo(3, prefix="W3"))
    chain10 = parse_obo(chain_obo(10, prefix="W10"))
    with criterion(6, "hierarchical similarity identities and decay"):
        for graph in (chain3, chain10):
            for a in graph:
                assert wang_similarity(graph, a, a) == 1.0
                for b in graph:
                    assert wang_similarity(graph, a, b) == \
                        wang_similarity(graph, b, a)
        # hand derivation on the 3-node chain with decay 0.8:
        # (1 + 0.8 + 0.8 + 0.64) / (1.8 + 2.44) = 3.24 / 4.24
        got = wang_similarity(chain3, "W3:0001", "W3:0002", 0.8)
        assert abs(got - 3.24 / 4.24) < 1e-9
        assert round(got, 4) == 0.7642

        leaf = "W10:0009"
        sims = [wang_similarity(chain10, leaf, f"W10:{i:04d}")
                for i in range(10)]
        for closer, farther in zip(sims[1:], sims):
            assert closer > farther


def test_criterion_7_tuning_oracle():
    graph = tree_graph()
    with criterion(7, "synthetic corpora pick the expected strategy"):
        gold, predictions = id_favouring_corpus()
        plan = make_folds(sorted(gold), 6, seed=0)
        table = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        assert select_strategy(table) is IDS_ONLY
        again = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        assert table == again

        gold, predictions = span_favouring_corpus()
        plan = make_folds(sorted(gold), 6, seed=0)
        table = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        assert select_strategy(table) in (SPANS_ONLY, SPANS_FIRST)
        assert table[0].mean_f == pytest.approx(1.0)
        by_strategy = {r.strategy: r for r in table}
        assert by_strategy[IDS_ONLY].mean_f < 1.0
        assert by_strategy[SPANS_ONLY].mean_f == \
            by_strategy[SPANS_FIRST].mean_f
