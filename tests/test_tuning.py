import json
import marshal
import multiprocessing
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conceptkit
from conceptkit import (NIL, ConllRow, SpanTag, TextSpan, grid_search,
                        harmonise_document, make_folds, score_document,
                        select_strategy)
from conceptkit.errors import ConceptKitError, take_warnings, warn
from conceptkit.evaluate import EvalCounts
from conceptkit.harmonise import HarmonisationStrategy
from conceptkit import tuning
from conceptkit.tuning import STRATEGY_ORDER, FoldPlan, LexiconTagger

from helpers import (entity_rows, id_favouring_corpus, reference_grid_search,
                     rows_from_tuples, span_favouring_corpus, tree_graph)


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


@pytest.fixture()
def two_cpus(monkeypatch):
    """jobs=2 forks one child on any machine."""
    monkeypatch.setattr(tuning, "_usable_cpus", lambda: 2)


def mixed_corpus(n_docs):
    """Alternating id-favouring and span-favouring documents."""
    gold, predictions = id_favouring_corpus(n_docs)
    span_gold, span_predictions = span_favouring_corpus(n_docs)
    for doc_id in sorted(gold)[::2]:
        gold[doc_id] = span_gold[doc_id]
        predictions[doc_id] = span_predictions[doc_id]
    return gold, predictions


#: Concepts of the generated corpora; GONE:1 is in no graph, so a pair
#: that names it warns.
CONCEPTS = ["TR:0001", "TR:0002", "TR:0006", "GONE:1"]


@st.composite
def agreeing_columns(draw):
    """(span tag, ID, features) per token of a sentence that every
    strategy harmonises alike: each mention is a span block whose tokens
    carry its concept as ID and as their one candidate, and an O/NIL
    token follows it."""
    columns = []
    for concept in draw(st.lists(st.sampled_from([None, *CONCEPTS]),
                                 min_size=1, max_size=4)):
        if concept:
            n = draw(st.integers(1, 3))
            tags = ["S"] if n == 1 else ["B", *["I"] * (n - 2), "E"]
            columns.extend((tag, concept, [concept]) for tag in tags)
        columns.append(("O", NIL, draw(st.sampled_from([[], CONCEPTS[:1]]))))
    return columns


free_columns = st.lists(
    st.tuples(st.sampled_from("BIESO"), st.sampled_from([NIL, *CONCEPTS]),
              st.lists(st.sampled_from(CONCEPTS), max_size=2,
                       unique=True).map(sorted)),
    min_size=1, max_size=8)


@st.composite
def tuning_inputs(draw):
    """gold, predictions, strategies and fold plan of 2-6 documents whose
    predictions either route alike under every strategy or are free, so
    strategies disagree; gold is drawn apart, over the same offsets."""
    columns = agreeing_columns() if draw(st.booleans()) else free_columns
    gold, predictions = {}, {}
    for d in range(draw(st.integers(2, 6))):
        sentences, refs, start = [], [], 0
        for _ in range(draw(st.integers(1, 3))):
            pred, ref = draw(columns), draw(agreeing_columns())
            sentences.append(rows_from_tuples(
                [("t", start + 2 * i, start + 2 * i + 1, *c)
                 for i, c in enumerate(pred)]))
            refs += harmonise_document([rows_from_tuples(
                [("t", start + 2 * i, start + 2 * i + 1, *c)
                 for i, c in enumerate(ref)])], "ids-only")
            start += 2 * max(len(pred), len(ref))
        gold[f"doc{d}"], predictions[f"doc{d}"] = refs, sentences
    strategies = draw(st.lists(st.sampled_from(STRATEGY_ORDER), min_size=1,
                               max_size=5))
    plan = make_folds(sorted(gold), draw(st.integers(2, len(gold))),
                      seed=draw(st.integers(0, 3)))
    return gold, predictions, strategies, plan


def check_against_reference(inputs, earlier, jobs):
    """grid_search ranks and warns as the per-cell reference does, also
    after warnings counted before it."""
    graph = tree_graph()
    take_warnings()
    for _ in range(earlier):
        warn("earlier warning %d", earlier)
    want = reference_grid_search(*inputs, graph)
    want_warnings = take_warnings()
    for _ in range(earlier):
        warn("earlier warning %d", earlier)
    assert grid_search(*inputs, graph, jobs=jobs) == want
    assert take_warnings() == want_warnings


@given(tuning_inputs(), st.integers(0, 2))
def test_grid_search_matches_per_cell_reference(inputs, earlier):
    check_against_reference(inputs, earlier, jobs=1)


@settings(max_examples=15, deadline=None)
@given(tuning_inputs(), st.integers(0, 2))
def test_parallel_grid_search_matches_per_cell_reference(inputs, earlier):
    check_against_reference(inputs, earlier, jobs=2)


@pytest.mark.parametrize("jobs", [1, 2, 3, 5000])
def test_score_tasks_is_an_ordered_map(monkeypatch, jobs):
    """_score_tasks(f, n, jobs) is [f(i) for i in range(n)], nested
    tuples included, from min(jobs, n, usable CPUs) processes: this one
    and the children it forks, none for fewer than two tasks."""
    monkeypatch.setattr(tuning, "_usable_cpus", lambda: 3)
    forked = []
    fork = os.fork

    def counting_fork():
        forked.append(1)
        return fork()

    def f(i):
        return (i, (i / 3, ("x" * i, ())), tuple(range(i)))

    monkeypatch.setattr(os, "fork", counting_fork)
    for n in range(8):
        forked.clear()
        assert tuning._score_tasks(f, n, jobs) == [f(i) for i in range(n)]
        assert len(forked) == max(min(jobs, n, 3) - 1, 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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
    # neural IDs that no graph holds: NOPE:1 in every document, so that
    # each worker meets it, and NOPE:2 in one
    for doc_id, (rows,) in predictions.items():
        concept = "NOPE:2" if doc_id == "doc06" else "NOPE:1"
        rows[1] = rows[1]._replace(id_tag=concept)
    plan = make_folds(sorted(gold), 4, seed=2)
    graph = tree_graph()
    serial = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
    warnings = take_warnings()
    ((template, messages),) = warnings.items()
    assert sorted(messages) == [
        f"concept NOPE:{n} not in ontology: similarity 0" for n in (1, 2)]
    assert grid_search(gold, predictions, STRATEGY_ORDER, plan, graph,
                       jobs=2) == serial
    assert take_warnings() == warnings
    # a forked child starts with none of these warnings to send back
    add_warnings(warnings)
    grid_search(gold, predictions, STRATEGY_ORDER, plan, graph, jobs=2)
    assert take_warnings() == warnings
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
        del gold["doc03"]
        with pytest.raises(ConceptKitError,
                           match="fold plan names unknown document doc03"):
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

    @pytest.mark.parametrize("cpus", ["affinity", "count"])
    @pytest.mark.parametrize("jobs, documents, forks", [
        (2, 10, 1), (5000, 10, 2), (5000, 2, 1), (1, 10, 0)])
    def test_forks_one_child_per_process_but_this_one(
            self, graph, monkeypatch, cpus, jobs, documents, forks):
        """jobs=N scores in at most N processes, and in no more than
        there are tasks or usable CPUs: this one and the children it
        forks."""
        if cpus == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                                raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 3)
        forked = []
        fork = os.fork

        def counting_fork():
            forked.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        gold, predictions = mixed_corpus(documents)
        plan = make_folds(sorted(gold), 2, seed=1)
        serial = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        assert forked == []
        assert grid_search(gold, predictions, STRATEGY_ORDER, plan, graph,
                           jobs=jobs) == serial
        assert len(forked) == forks

    @pytest.mark.parametrize("fork", ["thread alive", "no os.fork",
                                      "fork fails"])
    def test_scores_in_one_process_where_forking_is_unsafe(
            self, graph, monkeypatch, two_cpus, fork):
        """A fork copies only the calling thread, Windows has no fork, and
        a fork can fail for want of processes: then jobs=2 scores here,
        with the serial result."""
        gold, predictions = mixed_corpus(10)
        plan = make_folds(sorted(gold), 5, seed=1)
        serial = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,))
        forked = []

        def failing_fork():
            forked.append(1)
            raise BlockingIOError("no more processes")

        if fork == "no os.fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", failing_fork)
        if fork == "thread alive":
            thread.start()
        try:
            assert grid_search(gold, predictions, STRATEGY_ORDER, plan,
                               graph, jobs=2) == serial
        finally:
            stop.set()
        if fork == "thread alive":
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert forked == ([1] if fork == "fork fails" else [])

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_parallel_under_start_method(self, tmp_path, method):
        """grid_search forks its children itself, so the start method
        set in multiprocessing changes neither the table nor the
        warnings."""
        script = tmp_path / "start_method_grid.py"
        script.write_text(START_METHOD_SCRIPT)
        paths = [Path(conceptkit.__file__).parents[1], Path(__file__).parent]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
        proc = subprocess.run([sys.executable, str(script), method], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_earlier_warnings_survive_a_failed_search(self, graph,
                                                      monkeypatch, two_cpus):
        """A scorer that fails on some tasks raises the first one's error
        as jobs=1 does, after the warnings counted before the search and
        those of every task up to that one, fails on it once in this
        process (never retrying it), and leaves no child behind: with
        jobs=2, tasks 0 and 1 are this process's and 2 and 3 the child's."""
        gold, predictions = mixed_corpus(4)
        plan = make_folds(sorted(gold), 2)
        order = [d for f in range(plan.k) for d in plan.fold_docs(f)]
        parent = os.getpid()
        failing = []
        failed_here = []

        def fail_one(preds, refs, graph, decay):
            doc_id = next(d for d in order if gold[d] is refs)
            warn("scored %s", doc_id)
            if doc_id in failing:
                if os.getpid() == parent:
                    failed_here.append(doc_id)
                raise ConceptKitError(f"scorer failed on {doc_id}")
            return score_document(preds, refs, graph, decay)

        monkeypatch.setattr(tuning, "score_document", fail_one)
        for jobs, fail_at in [(1, [1]), (1, [2]), (2, [1]), (2, [2]),
                              (2, [3]), (2, [1, 2])]:
            failing[:] = [order[i] for i in fail_at]
            failed_here.clear()
            warn("earlier %s", "one")
            with pytest.raises(ConceptKitError,
                               match=f"scorer failed on {failing[0]}$"):
                grid_search(gold, predictions, STRATEGY_ORDER, plan, graph,
                            jobs=jobs)
            assert take_warnings() == {
                "earlier %s": ("earlier one",),
                "scored %s": tuple(f"scored {d}"
                                   for d in order[:fail_at[0] + 1])}
            assert failed_here == [failing[0]]
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def test_a_failed_child_leaves_its_tasks_to_this_process(
            self, graph, monkeypatch, two_cpus):
        """The run of a child that died scoring it is scored here at its
        place in task order: the serial table and warnings come back, and
        no child is left."""
        gold, predictions = mixed_corpus(10)
        plan = make_folds(sorted(gold), 5, seed=1)
        order = [d for f in range(plan.k) for d in plan.fold_docs(f)]
        parent = os.getpid()

        def warn_document(preds, refs, graph, decay):
            warn("scored %s", next(d for d in order if gold[d] is refs))
            return score_document(preds, refs, graph, decay)

        def die_in_child(preds, refs, graph, decay):
            if os.getpid() != parent:
                os._exit(9)
            return warn_document(preds, refs, graph, decay)

        monkeypatch.setattr(tuning, "score_document", warn_document)
        serial = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        warnings = take_warnings()
        monkeypatch.setattr(tuning, "score_document", die_in_child)
        assert grid_search(gold, predictions, STRATEGY_ORDER, plan, graph,
                           jobs=2) == serial
        assert take_warnings() == warnings
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupt_leaves_no_child_behind(self, graph, monkeypatch,
                                                 two_cpus):
        parent = os.getpid()

        def interrupted(preds, refs, graph, decay):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return score_document(preds, refs, graph, decay)

        monkeypatch.setattr(tuning, "score_document", interrupted)
        gold, predictions = mixed_corpus(10)
        warn("earlier %s", "one")
        with pytest.raises(KeyboardInterrupt):
            grid_search(gold, predictions, STRATEGY_ORDER,
                        make_folds(sorted(gold), 5, seed=1), graph, jobs=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert take_warnings() == {"earlier %s": ("earlier one",)}

    @pytest.mark.parametrize("cpus, runs", [
        (2, [range(0, 5), range(5, 10)]),
        (3, [range(0, 4), range(4, 7), range(7, 10)])], ids=["2-cpus", "3-cpus"])
    def test_workers_send_back_only_their_own_warnings(
            self, graph, monkeypatch, cpus, runs):
        """Forked child k scores run k of consecutive tasks, the first
        run being this process's, and sends back one record: its counts
        and the warnings of its own tasks, none of those counted before
        the search, which it starts with a copy of. The merged warnings
        are those of jobs=1."""
        gold, predictions = mixed_corpus(10)
        plan = make_folds(sorted(gold), 5, seed=1)
        order = [d for f in range(plan.k) for d in plan.fold_docs(f)]

        def warn_document(preds, refs, graph, decay):
            warn("scored %s", next(d for d in order if gold[d] is refs))
            return score_document(preds, refs, graph, decay)

        sent = []

        def recording_loads(data):
            sent.append(marshal.loads(data))
            return marshal.loads(data)

        monkeypatch.setattr(tuning, "score_document", warn_document)
        serial = grid_search(gold, predictions, STRATEGY_ORDER, plan, graph)
        serial_warnings = take_warnings()
        monkeypatch.setattr(tuning, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(tuning, "marshal", SimpleNamespace(
            dump=marshal.dump, loads=recording_loads))
        warn("earlier %s", "one")
        assert grid_search(gold, predictions, STRATEGY_ORDER, plan, graph,
                           jobs=cpus) == serial
        assert [(len(counts), warnings) for counts, warnings in sent] == [
            (len(run), {"scored %s": tuple(f"scored {order[i]}" for i in run)})
            for run in runs[1:]]
        assert take_warnings() == {"earlier %s": ("earlier one",),
                                   **serial_warnings}

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
        # a block of NIL IDs and one whose tokens normalise to nothing
        # train no entry either
        unusable = {"t": [rows_from_tuples([("kinase", 0, 6, "S", NIL, []),
                                            ("---", 7, 10, "S", "PR:000001", [])])]}
        assert LexiconTagger.train(unusable).entries == {}
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
