import concurrent.futures
import json
import multiprocessing
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import conceptkit
from conceptkit import (NIL, ConllRow, SpanTag, TextSpan, grid_search,
                        harmonise_document, make_folds, score_document,
                        select_strategy)
from conceptkit.errors import ConceptKitError
from conceptkit.evaluate import EvalCounts
from conceptkit.harmonise import HarmonisationStrategy
from conceptkit.tuning import STRATEGY_ORDER, FoldPlan, LexiconTagger

from helpers import (entity_rows, id_favouring_corpus, rows_from_tuples,
                     span_favouring_corpus, tree_graph)


class TestMakeFolds:
    def test_singleton_folds(self):
        plan = make_folds([f"d{i}" for i in range(6)], 6)
        sizes = Counter(plan.assignment.values())
        assert sorted(sizes.values()) == [1] * 6

    def test_67_documents(self):
        plan = make_folds([f"doc{i:03d}" for i in range(67)], 6, seed=1)
        sizes = sorted(Counter(plan.assignment.values()).values())
        assert sizes == [11, 11, 11, 11, 11, 12]

    def test_deterministic(self):
        ids = [f"d{i}" for i in range(20)]
        assert make_folds(ids, 5, seed=9) == make_folds(ids, 5, seed=9)
        assert make_folds(ids, 5, seed=9) != make_folds(ids, 5, seed=10)

    def test_partition(self):
        ids = [f"d{i}" for i in range(13)]
        plan = make_folds(ids, 4, seed=2)
        assert sorted(plan.assignment) == sorted(ids)
        assert set(plan.assignment.values()) == {0, 1, 2, 3}

    def test_input_order_irrelevant(self):
        ids = [f"d{i}" for i in range(10)]
        shuffled = list(reversed(ids))
        assert make_folds(ids, 3, seed=4) == make_folds(shuffled, 3, seed=4)

    def test_errors(self):
        with pytest.raises(ValueError):
            make_folds(["a", "b"], 3)
        with pytest.raises(ValueError):
            make_folds(["a", "b", "c"], 1)
        with pytest.raises(ValueError):
            make_folds(["a", "a", "b"], 2)


@pytest.fixture(scope="module")
def graph():
    return tree_graph()


def mixed_corpus(n_docs):
    """Alternating id-favouring and span-favouring documents."""
    gold, predictions = id_favouring_corpus(n_docs)
    span_gold, span_predictions = span_favouring_corpus(n_docs)
    for doc_id in sorted(gold)[::2]:
        gold[doc_id] = span_gold[doc_id]
        predictions[doc_id] = span_predictions[doc_id]
    return gold, predictions


START_METHOD_SCRIPT = """
import multiprocessing
import sys

from conceptkit import grid_search, make_folds, take_warnings
from conceptkit.errors import add_warnings
from conceptkit.tuning import STRATEGY_ORDER
from helpers import id_favouring_corpus, tree_graph

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    gold, predictions = id_favouring_corpus(20)
    for doc_id in ("doc03", "doc06"):  # a neural ID that no graph holds
        (rows,) = predictions[doc_id]
        rows[1] = rows[1]._replace(id_tag="NOPE:" + doc_id)
    plan = make_folds(sorted(gold), 4, seed=2)
    graph = tree_graph()
    serial = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
    warnings = take_warnings()
    ((template, (count, message)),) = warnings.items()
    assert count > 2 and message.startswith("concept NOPE:doc"), warnings
    assert grid_search(gold, predictions, STRATEGY_ORDER, plan, graph,
                       jobs=2) == serial
    assert take_warnings() == warnings
    # forked workers start with these counts and must not add them again
    add_warnings(warnings)
    grid_search(gold, predictions, STRATEGY_ORDER, plan, graph, jobs=2)
    assert take_warnings() == {template: (2 * count, message)}
"""


class TestGridSearch:
    def test_id_favouring_ranks_ids_only_first(self, graph):
        gold, predictions = id_favouring_corpus()
        plan = make_folds(sorted(gold), 6, seed=0)
        table = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        assert select_strategy(table) is HarmonisationStrategy.IDS_ONLY
        assert table[0].mean_f == pytest.approx(1.0)
        assert table[0].mean_ser == pytest.approx(0.0)
        assert table[1].mean_f < 1.0

    def test_span_favouring_ranks_spans_first(self, graph):
        gold, predictions = span_favouring_corpus()
        plan = make_folds(sorted(gold), 6, seed=0)
        table = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        top = select_strategy(table)
        assert top in (HarmonisationStrategy.SPANS_ONLY,
                       HarmonisationStrategy.SPANS_FIRST)
        assert table[0].mean_f == pytest.approx(1.0)
        by_strategy = {r.strategy: r for r in table}
        assert by_strategy[HarmonisationStrategy.SPANS_ONLY].mean_f == \
            pytest.approx(by_strategy[HarmonisationStrategy.SPANS_FIRST].mean_f)
        assert by_strategy[HarmonisationStrategy.IDS_ONLY].mean_f < 1.0

    def test_all_sources_perfect_ties(self, graph):
        gold = {}
        predictions = {}
        for d in range(6):
            concept = f"TR:{(d % 4) + 1:04d}"
            flat, anns = entity_rows([("kinase", concept), ("xxx", None)])
            rows = [(t, s, e, "S" if c else "O", c or NIL, [c] if c else [])
                    for t, s, e, c in flat]
            gold[f"doc{d}"] = anns
            predictions[f"doc{d}"] = [rows_from_tuples(rows)]
        plan = make_folds(sorted(gold), 6, seed=0)
        table = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        assert all(r.mean_f == pytest.approx(1.0) for r in table)
        assert select_strategy(table) is STRATEGY_ORDER[0]

    def test_deterministic(self, graph):
        gold, predictions = id_favouring_corpus()
        plan = make_folds(sorted(gold), 6, seed=3)
        t1 = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        t2 = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        assert t1 == t2

    def test_repeated_strategy_ranked_once(self, graph):
        gold, predictions = id_favouring_corpus()
        plan = make_folds(sorted(gold), 6, seed=0)
        table = grid_search(gold, predictions, ["spans-only", "ids-only",
                                                "spans-only"], plan, graph)
        assert [r.strategy.value for r in table] == ["ids-only", "spans-only"]

    def test_no_strategies_is_an_error(self, graph):
        gold, predictions = id_favouring_corpus()
        plan = make_folds(sorted(gold), 6, seed=0)
        with pytest.raises(ConceptKitError, match="no strategies"):
            grid_search(gold, predictions, [], plan, graph)

    def test_missing_predictions_named(self, graph):
        gold, predictions = id_favouring_corpus()
        del predictions["doc03"]
        plan = make_folds(sorted(gold), 6, seed=0)
        with pytest.raises(ConceptKitError, match="doc03"):
            grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)

    def test_parallel_jobs_match_serial(self, graph):
        gold, predictions = id_favouring_corpus()
        plan = make_folds(sorted(gold), 6, seed=0)
        serial = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        parallel = grid_search(gold, predictions, STRATEGY_ORDER, plan,
                               graph, jobs=2)
        assert serial == parallel

    def test_fold_counts_are_sums_of_document_counts(self, graph):
        gold, predictions = mixed_corpus(30)
        plan = make_folds(sorted(gold), 5, seed=1)
        table = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        for result in table:
            for fold, counts in enumerate(result.fold_counts):
                want = EvalCounts()
                for doc_id in plan.fold_docs(fold):
                    preds = harmonise_document(predictions[doc_id],
                                               result.strategy)
                    want += score_document(preds, gold[doc_id], graph)
                assert counts == want

    @pytest.mark.parametrize("strategies", [
        STRATEGY_ORDER, ["ids-first", "spans-only"]])
    def test_parallel_matches_serial_on_many_documents(self, graph, strategies):
        gold, predictions = mixed_corpus(30)
        plan = make_folds(sorted(gold), 5, seed=1)
        serial = grid_search(gold, predictions, strategies, plan, graph)
        assert grid_search(gold, predictions, strategies, plan, graph,
                           jobs=2) == serial

    def test_workers_receive_only_task_indexes(self, graph, monkeypatch):
        """The workers get the corpus once, from their initializer, so
        the mapped calls carry task indexes and no rows or references."""
        sent = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                sent.extend(x for it in iterables for x in it)
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        gold, predictions = mixed_corpus(10)
        plan = make_folds(sorted(gold), 5, seed=1)
        serial = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        assert grid_search(gold, predictions, STRATEGY_ORDER, plan, graph,
                           jobs=2) == serial
        assert len(sent) == len(gold) * len(STRATEGY_ORDER)
        assert all(type(x) is int for x in sent)

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_parallel_under_start_method(self, tmp_path, method):
        """Workers get the tasks and the graph whether they are forked or
        start from a fresh import (spawn, forkserver)."""
        script = tmp_path / "start_method_grid.py"
        script.write_text(START_METHOD_SCRIPT)
        paths = [Path(conceptkit.__file__).parents[1], Path(__file__).parent]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
        proc = subprocess.run([sys.executable, str(script), method], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_select_requires_rows(self):
        with pytest.raises(ValueError):
            select_strategy([])


TRAIN_CONLL = {
    "t1": [rows_from_tuples([
        ("Hexokinase", 0, 10, "B", "PR:000001", []),
        ("I", 11, 12, "E", "PR:000001", []),
        ("binds", 13, 18, "O", NIL, []),
        ("tubulin", 19, 26, "S", "PR:000002", []),
    ])],
    "t2": [rows_from_tuples([
        ("tubulin", 0, 7, "S", "PR:000002", []),
        ("and", 8, 11, "O", NIL, []),
        ("tubulin", 12, 19, "S", "PR:000003", []),
    ])],
    "t3": [rows_from_tuples([
        ("tubulin", 0, 7, "S", "PR:000002", []),
    ])],
}


class TestLexiconTagger:
    def test_majority_concept_wins(self):
        tagger = LexiconTagger.train(TRAIN_CONLL)
        assert tagger.entries[("tubulin",)] == (("S",), "PR:000002")

    def test_tags_known_surface(self):
        tagger = LexiconTagger.train(TRAIN_CONLL)
        rows = rows_from_tuples([
            ("Hexokinase", 0, 10, "O", NIL, []),
            ("I", 11, 12, "O", NIL, []),
            ("sits", 13, 17, "O", NIL, []),
        ])
        (tagged,) = tagger.tag_rows([rows])
        assert [r.span_tag for r in tagged] == [SpanTag.B, SpanTag.E, SpanTag.O]
        assert tagged[0].id_tag == "PR:000001"

    def test_never_predicts_unseen_concept(self):
        tagger = LexiconTagger.train(TRAIN_CONLL)
        trained = tagger.concepts()
        rng = random.Random(89)
        words = ["Hexokinase", "I", "tubulin", "binds", "and", "random"]
        for _ in range(500):
            pos = 0
            rows = []
            for _ in range(rng.randint(1, 10)):
                w = rng.choice(words)
                rows.append(ConllRow(w, TextSpan(pos, pos + len(w))))
                pos += len(w) + 1
            (tagged,) = tagger.tag_rows([rows])
            for row in tagged:
                assert row.id_tag == NIL or row.id_tag in trained

    def test_preserves_dict_features(self):
        tagger = LexiconTagger.train(TRAIN_CONLL)
        rows = rows_from_tuples([("tubulin", 0, 7, "O", NIL, ["X:1"])])
        (tagged,) = tagger.tag_rows([rows])
        assert tagged[0].dict_features == ("X:1",)

    def test_json_roundtrip(self):
        tagger = LexiconTagger.train(TRAIN_CONLL)
        clone = LexiconTagger.from_json(tagger.to_json())
        assert clone.entries == tagger.entries

    @pytest.mark.parametrize("entry, error", [
        ({"key": "ab", "pattern": ["S"], "concept": "X:1"}, "key must be"),
        ({"key": [], "pattern": ["S"], "concept": "X:1"}, "key must be"),
        ({"key": ["ab"], "pattern": "S", "concept": "X:1"}, "pattern must be"),
        ({"key": ["ab"], "pattern": ["X"], "concept": "X:1"}, "pattern must be"),
        ({"key": ["ab"], "pattern": ["S"], "concept": 5}, "concept must be"),
    ])
    def test_from_json_rejects_a_wrong_entry_shape(self, entry, error):
        good = {"key": ["a"], "pattern": ["S"], "concept": "X:1"}
        text = json.dumps({"entries": [good, entry]})
        with pytest.raises(ValueError, match=f"^entry 1: {error}"):
            LexiconTagger.from_json(text)

    def test_empty_training(self):
        tagger = LexiconTagger.train({})
        assert tagger.entries == {}
        rows = rows_from_tuples([("x", 0, 1, "O", NIL, [])])
        (tagged,) = tagger.tag_rows([rows])
        assert tagged[0].span_tag is SpanTag.O


class TestFoldPlan:
    def test_fold_docs_sorted(self):
        plan = FoldPlan(2, {"b": 0, "a": 0, "c": 1})
        assert plan.fold_docs(0) == ["a", "b"]
        assert plan.fold_docs(1) == ["c"]
