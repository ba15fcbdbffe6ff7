import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import conceptkit
from conceptkit.cli import _config_tokens, _read_train_labels, build_parser, main
from conceptkit.formats import tokenize

from helpers import tree_obo

DOC1_TEXT = "node1 term binds syn2 form\nplain words here\n"
DOC1_ANN = "T1\tTR:0001 0 10\tnode1 term\nT2\tTR:0002 17 26\tsyn2 form\n"
DOC2_TEXT = "syn3 form alone\n"
DOC2_ANN = "T1\tTR:0003 0 9\tsyn3 form\n"


@pytest.fixture()
def corpus(tmp_path):
    gold = tmp_path / "gold"
    gold.mkdir()
    (gold / "doc1.txt").write_text(DOC1_TEXT)
    (gold / "doc1.ann").write_text(DOC1_ANN)
    (gold / "doc2.txt").write_text(DOC2_TEXT)
    (gold / "doc2.ann").write_text(DOC2_ANN)
    obo = tmp_path / "onto.obo"
    obo.write_text(tree_obo())
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestConvertRestore:
    def test_convert_writes_conll(self, corpus):
        out = corpus / "conll"
        assert run("convert", corpus / "gold", out) == 0
        files = sorted(p.name for p in out.glob("*.conll"))
        assert files == ["doc1.conll", "doc2.conll"]
        body = (out / "doc1.conll").read_text()
        assert "node1\t0\t5\tB\tTR:0001" in body
        assert "\n\n" in body  # two sentences

    def test_restore_roundtrip(self, corpus):
        conll = corpus / "conll"
        restored = corpus / "restored"
        run("convert", corpus / "gold", conll)
        assert run("restore", conll, restored,
                   "--text-dir", corpus / "gold") == 0
        assert (restored / "doc2.ann").read_text() == DOC2_ANN

    def test_restore_keeps_records_whole(self, tmp_path, capsys):
        # a form feed is a line boundary to str.splitlines, so a restored
        # record that kept it would split in two
        gold = tmp_path / "gold"
        gold.mkdir()
        (gold / "d.txt").write_text("alpha\x0cbeta binds gamma\n")
        (gold / "d.ann").write_text("T1\tTR:0001 0 10\talpha beta\n")
        obo = tmp_path / "onto.obo"
        obo.write_text(tree_obo())
        assert run("convert", gold, tmp_path / "conll") == 0
        assert run("restore", tmp_path / "conll", tmp_path / "restored",
                   "--text-dir", gold) == 0
        assert (tmp_path / "restored" / "d.ann").read_text() == (
            "T1\tTR:0001 0 10\talpha beta\n")
        assert run("evaluate", gold, tmp_path / "restored",
                   "--ontology", obo) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1].split("\t")[8] == "1.0000"

    def test_bad_input_dir_fails(self, corpus, capsys):
        assert run("convert", corpus / "missing", corpus / "out") == 1
        assert "error" in capsys.readouterr().err

    def test_bad_ann_error_names_the_file(self, tmp_path, capsys):
        gold = tmp_path / "gold"
        gold.mkdir()
        (gold / "doc.txt").write_text("kinase binds\n")
        (gold / "doc.ann").write_text("T1\tTR:0001 0 6\tkinase\n"
                                      "T1\tTR:0002 7 12\tbinds\n")
        assert run("convert", gold, tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            f"conceptkit: error: {gold / 'doc.ann'}:line 2: "
            "duplicate annotation id T1\n")

    def test_non_utf8_input_names_the_file(self, tmp_path, capsys):
        gold = tmp_path / "gold"
        gold.mkdir()
        (gold / "doc.txt").write_bytes(b"abc\xe9def\n")
        assert run("convert", gold, tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            f"conceptkit: error: {gold / 'doc.txt'}: 'utf-8' codec can't "
            "decode byte 0xe9 in position 3: invalid continuation byte\n")


class TestCrlf:
    def test_crlf_offsets_survive_convert_and_roundtrip(self, tmp_path, capsys):
        gold = tmp_path / "gold"
        gold.mkdir()
        (gold / "doc.txt").write_bytes(b"First line here.\r\nThe kinase binds.\r\n")
        (gold / "doc.ann").write_text("T1\tTR:0001 22 28\tkinase\n")
        obo = tmp_path / "onto.obo"
        obo.write_text(tree_obo())
        assert run("convert", gold, tmp_path / "conll") == 0
        body = (tmp_path / "conll" / "doc.conll").read_text()
        assert "kinase\t22\t28\tS\tTR:0001" in body
        assert run("roundtrip-eval", gold, "--ontology", obo) == 0
        cells = capsys.readouterr().out.strip().splitlines()[1].split("\t")
        assert cells[8] == "1.0000"


class TestByteOrderMark:
    def test_leading_bom_is_no_token(self, tmp_path, capsys):
        gold = tmp_path / "gold"
        gold.mkdir()
        (gold / "doc.txt").write_text("\ufeffThe kinase binds.\n", encoding="utf-8")
        (gold / "doc.ann").write_text("T1\tTR:0001 5 11\tkinase\n")
        obo = tmp_path / "onto.obo"
        obo.write_text(tree_obo())
        assert run("convert", gold, tmp_path / "conll") == 0
        body = (tmp_path / "conll" / "doc.conll").read_text(encoding="utf-8")
        assert "\ufeff" not in body
        assert body.startswith("The\t1\t4\tO\t")
        assert "kinase\t5\t11\tS\tTR:0001" in body
        assert run("roundtrip-eval", gold, "--ontology", obo) == 0
        cells = capsys.readouterr().out.strip().splitlines()[1].split("\t")
        assert cells[8] == "1.0000"

    def test_bom_before_stopwords(self, corpus):
        syn = corpus / "extra.tsv"
        syn.write_text("plain\tTR:0009\n")
        stopwords = corpus / "stopwords.txt"
        stopwords.write_text("\ufeffplain\n", encoding="utf-8")
        out = corpus / "tagged"
        assert run("dict-tag", corpus / "gold", out, "--ontology",
                   corpus / "onto.obo", "--synonyms", syn,
                   "--stopwords", stopwords) == 0
        assert "TR:0009" not in (out / "doc1.conll").read_text()

    def test_bom_before_config(self, corpus, capsys):
        cfg = corpus / "run.cfg"
        cfg.write_text("\ufeffontology={}\n".format(corpus / "onto.obo"),
                       encoding="utf-8")
        assert run("roundtrip-eval", corpus / "gold", "--config", cfg) == 0
        assert capsys.readouterr().out.count("\n") == 2

    def test_bom_before_train_labels(self, corpus, capsys):
        labels = corpus / "train-labels.txt"
        labels.write_text("\ufeffTR:0001\nTR:0002\nTR:0003\n", encoding="utf-8")
        assert run("evaluate", corpus / "gold", corpus / "gold",
                   "--ontology", corpus / "onto.obo",
                   "--unseen-only", "--train-labels", labels) == 0
        cells = capsys.readouterr().out.strip().splitlines()[-1].split("\t")
        # every concept was "seen": both sides empty
        assert cells[2:6] == ["0.0000", "0.0000", "0", "0"]

    def test_bom_before_lexicon(self, corpus):
        conll = corpus / "conll"
        run("convert", corpus / "gold", conll)
        lexicon = corpus / "lexicon.json"
        assert run("baseline-train", conll, lexicon) == 0
        lexicon.write_text("\ufeff" + lexicon.read_text(encoding="utf-8"),
                           encoding="utf-8")
        out = corpus / "baseline"
        assert run("baseline-tag", conll, out, "--lexicon", lexicon) == 0
        assert "TR:0001" in (out / "doc1.conll").read_text()


class TestRoundtripEval:
    def test_report_row(self, corpus, capsys):
        assert run("roundtrip-eval", corpus / "gold",
                   "--ontology", corpus / "onto.obo") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("set\tstrategy")
        cells = lines[1].split("\t")
        assert cells[1] == "first-span/keep-longer"
        assert float(cells[8]) == 1.0  # simple corpus restores exactly

    def test_grid_reports_all_combinations(self, corpus, capsys):
        run("roundtrip-eval", corpus / "gold", "--grid",
            "--ontology", corpus / "onto.obo")
        out = capsys.readouterr().out
        assert out.count("\n") == 7  # header + 6 combos

    def test_grid_tokenises_each_document_once(self, corpus, monkeypatch):
        texts = []

        def counting_tokenize(text):
            texts.append(text)
            return tokenize(text)

        # every module that binds tokenize
        for module in ("conceptkit.formats", "conceptkit.simplify"):
            monkeypatch.setattr(sys.modules[module], "tokenize", counting_tokenize)
        assert run("roundtrip-eval", corpus / "gold", "--grid",
                   "--ontology", corpus / "onto.obo") == 0
        assert sorted(texts) == sorted([DOC1_TEXT, DOC2_TEXT])

    def test_ontology_cycle_names_the_file(self, corpus, capsys):
        obo = corpus / "cycle.obo"
        obo.write_text("[Term]\nid: X:1\nis_a: X:2\n\n[Term]\nid: X:2\nis_a: X:1\n")
        assert run("roundtrip-eval", corpus / "gold", "--ontology", obo) == 1
        assert capsys.readouterr().err == (
            f"conceptkit: error: {obo}: is_a cycle involving X:1, X:2\n")


class TestDictTagAndBaseline:
    def test_dict_tag_from_text(self, corpus):
        out = corpus / "dicttagged"
        assert run("dict-tag", corpus / "gold", out,
                   "--ontology", corpus / "onto.obo") == 0
        body = (out / "doc1.conll").read_text()
        assert "TR:0001" in body

    def test_dict_tag_enriches_conll(self, corpus):
        conll = corpus / "conll"
        run("convert", corpus / "gold", conll)
        out = corpus / "enriched"
        assert run("dict-tag", conll, out,
                   "--ontology", corpus / "onto.obo") == 0
        body = (out / "doc1.conll").read_text()
        assert "B\tTR:0001\tTR:0001" in body

    def test_extra_synonyms(self, corpus):
        syn = corpus / "extra.tsv"
        syn.write_text("plain words\tTR:0009\n")
        out = corpus / "withsyn"
        run("dict-tag", corpus / "gold", out,
            "--ontology", corpus / "onto.obo", "--synonyms", syn)
        assert "TR:0009" in (out / "doc1.conll").read_text()

    def test_malformed_synonym_line_names_file_and_line(self, corpus, capsys):
        syn = corpus / "extra.tsv"
        syn.write_text("plain words\tTR:0009\nno tab here\n")
        assert run("dict-tag", corpus / "gold", corpus / "out",
                   "--ontology", corpus / "onto.obo", "--synonyms", syn) == 1
        assert capsys.readouterr().err == (
            f"conceptkit: error: {syn}:line 2: "
            "expected 'term<TAB>CURIE'\n")

    def test_capitalised_stopwords_suppress_matches(self, corpus):
        syn = corpus / "extra.tsv"
        syn.write_text("plain\tTR:0009\n")
        stopwords = corpus / "stopwords.txt"
        stopwords.write_text("The\nPLAIN\n")
        out = corpus / "tagged"
        assert run("dict-tag", corpus / "gold", out, "--ontology",
                   corpus / "onto.obo", "--synonyms", syn,
                   "--stopwords", stopwords) == 0
        assert "TR:0009" not in (out / "doc1.conll").read_text()

    def test_baseline_train_and_tag(self, corpus):
        conll = corpus / "conll"
        run("convert", corpus / "gold", conll)
        lexicon = corpus / "lexicon.json"
        assert run("baseline-train", conll, lexicon) == 0
        data = json.loads(lexicon.read_text())
        assert data["entries"]
        out = corpus / "baseline"
        assert run("baseline-tag", conll, out, "--lexicon", lexicon) == 0
        assert "TR:0001" in (out / "doc1.conll").read_text()


    def test_lexicon_with_span_patterns_tags_as_before(self, corpus):
        """A lexicon written when entries also held a span pattern loads;
        its patterns are ignored, and the output is the one that replaying
        them gave, byte for byte."""
        lexicon = corpus / "lexicon.json"
        lexicon.write_text(json.dumps({"entries": [
            {"key": ["node1", "term"], "pattern": ["B", "E"], "concept": "TR:0001"},
            {"key": ["bind"], "pattern": ["S"], "concept": "TR:0004"},
            {"key": ["plain", "word", "here"], "pattern": ["B", "I", "E"],
             "concept": "TR:0005"}]}))
        out = corpus / "baseline"
        assert run("baseline-tag", corpus / "gold", out, "--lexicon", lexicon) == 0
        assert (out / "doc1.conll").read_text() == (
            "node1\t0\t5\tB\tTR:0001\t-\nterm\t6\t10\tE\tTR:0001\t-\n"
            "binds\t11\t16\tS\tTR:0004\t-\nsyn2\t17\t21\tO\tNIL\t-\n"
            "form\t22\t26\tO\tNIL\t-\n\n"
            "plain\t27\t32\tB\tTR:0005\t-\nwords\t33\t38\tI\tTR:0005\t-\n"
            "here\t39\t43\tE\tTR:0005\t-\n")

    @pytest.mark.parametrize("payload", [
        "[]", '{"entries": 5}', '{"entries": [5]}',
        '{"entries": [{"key": "ab", "concept": "X:1"}]}',
        '{"entries": [{"key": ["ab"], "concept": 5}]}',
        "{}", '{"entries": [{"key": ["ab"]}]}'])
    def test_lexicon_of_the_wrong_shape_is_an_error(self, corpus, capsys,
                                                    payload):
        lexicon = corpus / "lexicon.json"
        lexicon.write_text(payload)
        assert run("baseline-tag", corpus / "gold", corpus / "out",
                   "--lexicon", lexicon) == 1
        assert capsys.readouterr().err.startswith(
            f"conceptkit: error: bad lexicon file {lexicon}: ")


class TestHarmoniseEvaluate:
    def _pipeline(self, corpus):
        conll = corpus / "conll"
        enriched = corpus / "enriched"
        run("convert", corpus / "gold", conll)
        run("dict-tag", conll, enriched, "--ontology", corpus / "onto.obo")
        return enriched

    @pytest.mark.parametrize("strategy", [
        "spans-only", "ids-only", "spans-first", "ids-first"])
    def test_harmonise_then_evaluate_perfect(self, corpus, capsys, strategy):
        enriched = self._pipeline(corpus)
        pred = corpus / f"pred-{strategy}"
        assert run("harmonise", enriched, pred, "--strategy", strategy,
                   "--text-dir", corpus / "gold") == 0
        assert run("evaluate", corpus / "gold", pred,
                   "--ontology", corpus / "onto.obo") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        cells = lines[-1].split("\t")
        assert float(cells[8]) == 1.0
        assert float(cells[9]) == 0.0

    def test_harmonise_without_text_dir_writes_surrogate_text(self, corpus):
        enriched = self._pipeline(corpus)
        pred = corpus / "pred"
        assert run("harmonise", enriched, pred, "--strategy", "ids-only") == 0
        assert (pred / "doc2.ann").read_text() == DOC2_ANN

    def test_evaluate_unseen_only(self, corpus, capsys):
        enriched = self._pipeline(corpus)
        pred = corpus / "pred"
        run("harmonise", enriched, pred, "--strategy", "spans-only",
            "--text-dir", corpus / "gold")
        labels = corpus / "train-labels.txt"
        labels.write_text("TR:0001\nTR:0002\nTR:0003\n")
        assert run("evaluate", corpus / "gold", pred,
                   "--ontology", corpus / "onto.obo",
                   "--unseen-only", "--train-labels", labels) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        cells = lines[-1].split("\t")
        # every concept was "seen": both sides empty
        assert cells[2:6] == ["0.0000", "0.0000", "0", "0"]

    @pytest.mark.parametrize("cwd, gold", [("gold", "."), ("gold/sub", "..")])
    def test_a_relative_directory_names_the_set(self, corpus, capsys,
                                                monkeypatch, cwd, gold):
        (corpus / cwd).mkdir(exist_ok=True)
        monkeypatch.chdir(corpus / cwd)
        assert run("evaluate", gold, gold,
                   "--ontology", corpus / "onto.obo") == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("gold\tall\t")

    def test_missing_prediction_dir_fails(self, corpus, capsys):
        missing = corpus / "no-such-pred"
        assert run("evaluate", corpus / "gold", missing,
                   "--ontology", corpus / "onto.obo") == 1
        assert capsys.readouterr().err == (
            f"conceptkit: error: not a directory: {missing}\n")

    def test_bad_prediction_error_names_the_file(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold", tmp_path / "pred"
        gold.mkdir()
        pred.mkdir()
        (gold / "doc.txt").write_text("kinase binds\n")
        (gold / "doc.ann").write_text("T1\tTR:0001 0 6\tkinase\n")
        (pred / "doc.ann").write_text("T1\tTR:0001 0 60\tkinase\n")
        obo = tmp_path / "onto.obo"
        obo.write_text(tree_obo())
        assert run("evaluate", gold, pred, "--ontology", obo) == 1
        assert capsys.readouterr().err == (
            f"conceptkit: error: {pred / 'doc.ann'}:line 1: "
            "offset 60 beyond text length 13\n")

    def test_unseen_requires_labels(self, corpus, capsys):
        assert run("evaluate", corpus / "gold", corpus / "gold",
                   "--ontology", corpus / "onto.obo", "--unseen-only") == 1
        assert "train-labels" in capsys.readouterr().err

    # str.splitlines would split a label at U+0085 or a form feed
    def test_labels_file_lines_end_only_at_newline_or_carriage_return(
            self, tmp_path):
        labels = tmp_path / "labels.txt"
        labels.write_bytes("X:1\x85a\r\nX:2\x0cb\rX:3\n".encode())
        assert _read_train_labels(labels) == {"X:1\x85a", "X:2\x0cb", "X:3"}

    def test_labels_require_unseen(self, corpus, capsys):
        labels = corpus / "train-labels.txt"
        labels.write_text("TR:0001\n")
        assert run("evaluate", corpus / "gold", corpus / "gold",
                   "--ontology", corpus / "onto.obo",
                   "--train-labels", labels) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--unseen-only" in captured.err


class TestTune:
    def test_tune_selects_and_reports(self, corpus, capsys):
        enriched = corpus / "enriched"
        run("convert", corpus / "gold", corpus / "conll")
        run("dict-tag", corpus / "conll", enriched,
            "--ontology", corpus / "onto.obo")
        assert run("tune", corpus / "gold", enriched,
                   "--ontology", corpus / "onto.obo",
                   "--folds", "2") == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "set\tstrategy\tmean_F\tmean_SER"
        assert len([l for l in lines if l.startswith("gold\t")]) == 4
        assert lines[-1].startswith("selected\t")

    def test_too_many_folds(self, corpus, capsys):
        run("convert", corpus / "gold", corpus / "conll")
        assert run("tune", corpus / "gold", corpus / "conll",
                   "--ontology", corpus / "onto.obo", "--folds", "6") == 1
        assert "folds" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_is_a_usage_error(self, corpus, capsys, jobs):
        with pytest.raises(SystemExit) as exit_info:
            run("tune", corpus / "gold", corpus / "gold",
                "--ontology", corpus / "onto.obo", "--jobs", jobs)
        assert exit_info.value.code == 2
        assert f"--jobs: expected an integer of at least 1, got '{jobs}'" \
            in capsys.readouterr().err


    def test_repeated_strategy_prints_one_row(self, corpus, capsys):
        run("convert", corpus / "gold", corpus / "conll")
        assert run("tune", corpus / "gold", corpus / "conll",
                   "--ontology", corpus / "onto.obo", "--folds", "2",
                   "--strategies", "spans-only,spans-only") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [l.split("\t")[1] for l in lines[1:]] == [
            "spans-only", "spans-only"]  # one table row, then the selection
        assert not any(l.startswith("# tie") for l in lines)

    def test_predictions_past_the_gold_text_are_an_error(self, tmp_path,
                                                         capsys):
        """As `evaluate` rejects such offsets in a .ann file, `tune`
        rejects them in a .conll file, naming it; so do `restore` and
        `harmonise` against --text-dir, also where the rows past the
        text are O."""
        for name in ("gold", "pred", "past"):
            (tmp_path / name).mkdir()
        for doc_id in ("a", "b"):
            (tmp_path / "gold" / f"{doc_id}.txt").write_text("alpha beta")
            (tmp_path / "pred" / f"{doc_id}.conll").write_text(
                "alpha\t100\t105\tS\tX:1\t-\nbeta\t106\t109\tO\tNIL\t-\n")
        (tmp_path / "past" / "a.conll").write_text(
            "alpha\t0\t5\tS\tX:1\tX:1\nbeta\t6\t10\tO\tNIL\t-\n"
            "gamma\t11\t16\tO\tNIL\t-\n")
        (tmp_path / "onto.obo").write_text("[Term]\nid: X:1\n")
        assert run("tune", tmp_path / "gold", tmp_path / "pred", "--ontology",
                   tmp_path / "onto.obo", "--folds", "2") == 1
        assert capsys.readouterr().err == (
            f"conceptkit: error: {tmp_path / 'pred' / 'a.conll'}: "
            "offset 109 beyond text length 10\n")
        for command in (["restore"], ["harmonise", "--strategy", "spans-only"]):
            for pred, end in (("pred", 109), ("past", 16)):
                assert run(*command, tmp_path / pred, tmp_path / "out",
                           "--text-dir", tmp_path / "gold") == 1
                assert capsys.readouterr().err == (
                    f"conceptkit: error: {tmp_path / pred / 'a.conll'}: "
                    f"offset {end} beyond text length 10\n")

    def test_a_conll_of_no_gold_document_warns(self, corpus, capsys):
        """It is left out of the folds, and each such file warns once,
        as a stray .ann does for `evaluate`."""
        conll = corpus / "conll"
        run("convert", corpus / "gold", conll)
        argv = ["tune", corpus / "gold", conll, "--ontology",
                corpus / "onto.obo", "--folds", "2"]
        assert run(*argv) == 0
        table = capsys.readouterr().out
        (conll / "stray.conll").write_text((conll / "doc2.conll").read_text())
        (conll / "other.conll").write_text("")
        assert run(*argv) == 0
        assert capsys.readouterr() == (table, (
            f"conceptkit: warning: {conll}: other.conll names no gold document"
            " (1 more like it)\n"))

    def test_empty_strategy_list(self, corpus, capsys):
        run("convert", corpus / "gold", corpus / "conll")
        assert run("tune", corpus / "gold", corpus / "conll",
                   "--ontology", corpus / "onto.obo", "--folds", "2",
                   "--strategies", ",") == 1
        assert "no strategies" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["roundtrip-eval", "evaluate", "tune"])
@pytest.mark.parametrize("decay", ["7", "1", "0", "nan", "high"])
def test_wang_decay_outside_unit_interval_is_a_usage_error(
        corpus, capsys, command, decay):
    dirs = {"roundtrip-eval": ["gold"], "evaluate": ["gold", "gold"],
            "tune": ["gold", "gold"]}[command]
    with pytest.raises(SystemExit) as exit_info:
        run(command, *(corpus / d for d in dirs),
            "--ontology", corpus / "onto.obo", "--wang-decay", decay)
    assert exit_info.value.code == 2
    assert ("--wang-decay: expected a number strictly between 0 and 1, "
            f"got '{decay}'") in capsys.readouterr().err

class TestWarnings:
    def test_one_line_per_template_with_how_many_more(self, tmp_path, capsys):
        gold = tmp_path / "gold"
        gold.mkdir()
        (gold / "d.txt").write_text("ab cd ef\n")
        (gold / "d.ann").write_text(
            "T1\tX:7 0 2\tab\nT2\tX:8 3 5\tcd\nT3\tX:7 6 8\tef\n")
        obo = tmp_path / "onto.obo"
        obo.write_text("[Term]\nid: X:1\nis_a: X:404\n")
        assert run("evaluate", gold, gold, "--ontology", obo) == 0
        assert capsys.readouterr().err == (
            f"conceptkit: warning: {obo}: dropping dangling is_a X:1 -> X:404\n"
            "conceptkit: warning: concept X:7 not in ontology: similarity 0"
            " (1 more like it)\n")  # X:7 twice and X:8 are two concepts

    def test_grid_warns_as_one_combination(self, corpus, capsys):
        """An annotation that overlaps no token is dropped under all six
        combinations and is one warning."""
        (corpus / "gold" / "doc3.txt").write_text("ab   cd\n")
        (corpus / "gold" / "doc3.ann").write_text("T1\tTR:0001 3 4\t \n")
        errors = []
        for grid in ([], ["--grid"]):
            assert run("roundtrip-eval", corpus / "gold", *grid,
                       "--ontology", corpus / "onto.obo") == 0
            errors.append(capsys.readouterr().err)
        assert errors == [
            "conceptkit: warning: doc3: dropping annotation TR:0001 at 3 4: "
            "overlaps no token\n"] * 2

    def test_tune_warns_alike_for_any_strategies_and_jobs(self, corpus,
                                                           capsys):
        """Concepts missing from the ontology are counted once each,
        however many strategies score them and in how many processes."""
        (corpus / "gold" / "doc2.ann").write_text(
            DOC2_ANN + "T2\tGONE:1 10 15\talone\n")
        (corpus / "gold" / "doc3.txt").write_text("gone word\n")
        (corpus / "gold" / "doc3.ann").write_text(
            "T1\tGONE:1 0 4\tgone\nT2\tGONE:2 5 9\tword\n")
        run("convert", corpus / "gold", corpus / "conll")
        for conll in (corpus / "conll").iterdir():  # the dictionary agrees
            conll.write_text(re.sub(r"\t(GONE:\d)\t-$", r"\t\1\t\1",
                                    conll.read_text(), flags=re.M))
        errors = []
        for flags in (["--strategies", "spans-only"], [], ["--jobs", "2"]):
            assert run("tune", corpus / "gold", corpus / "conll",
                       "--ontology", corpus / "onto.obo", "--folds", "2",
                       *flags) == 0
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == errors[2]
        assert errors[0].endswith(
            "not in ontology: similarity 0 (1 more like it)\n")
        assert errors[0].count("\n") == 1

    def test_warnings_come_before_the_error(self, corpus, capsys):
        (corpus / "gold" / "doc2.ann").write_text("T1\tTR:0003 0 9\tsyn3 farm\n")
        missing = corpus / "no-such-pred"
        assert run("evaluate", corpus / "gold", missing,
                   "--ontology", corpus / "onto.obo") == 1
        assert capsys.readouterr().err == (
            f"conceptkit: warning: {corpus / 'gold' / 'doc2.ann'}:line 1: text "
            "mismatch for T1: recorded 'syn3 farm', covered 'syn3 form'\n"
            f"conceptkit: error: not a directory: {missing}\n")

    @pytest.mark.parametrize("flag", ["-v", "-vv"])
    def test_verbose_prints_progress_notes(self, corpus, capsys, flag):
        assert run("convert", corpus / "gold", corpus / "conll", flag) == 0
        assert capsys.readouterr().err == "conceptkit: converted 2 documents\n"


class TestConfigFile:
    def test_config_presets_flags(self, corpus, capsys):
        cfg = corpus / "run.cfg"
        cfg.write_text("ontology={}\ngrid=true\n".format(corpus / "onto.obo"))
        # argparse takes an unambiguous abbreviation of any flag
        for flag in ("--config", "--conf"):
            assert run("roundtrip-eval", corpus / "gold", flag, cfg) == 0
            out = capsys.readouterr().out
            assert out.count("\n") == 7

    def test_command_line_overrides_config(self, corpus, capsys):
        cfg = corpus / "run.cfg"
        cfg.write_text("ontology={}\nunify=last-span\n".format(corpus / "onto.obo"))
        assert run("roundtrip-eval", corpus / "gold", "--config", cfg,
                   "--unify", "first-span") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split("\t")[1] == "first-span/keep-longer"

    def test_missing_config(self, corpus, capsys, monkeypatch):
        """A missing file, an empty path and a directory each fail with
        one error that names --config and the value given, also when the
        flag is abbreviated."""
        monkeypatch.chdir(corpus)
        for given in ("nope.cfg", "", ".", "gold"):
            for argv in (["--config", given], [f"--config={given}"],
                         ["--conf", given], [f"--conf={given}"]):
                assert run("convert", "gold", "out", *argv) == 1
                assert capsys.readouterr().err == (
                    f"conceptkit: error: --config {given!r} names no file\n")

    def test_config_without_a_value_is_a_usage_error(self, corpus, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run("convert", corpus / "gold", corpus / "out", "--config")
        assert exit_info.value.code == 2
        assert "argument --config: expected one argument" in (
            capsys.readouterr().err)

    def test_config_lines_end_only_at_newline_or_carriage_return(
            self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("stopwords=a\u2028b.txt\r\ngrid=true\r".encode())
        assert _config_tokens(cfg) == ["--stopwords", "a\u2028b.txt", "--grid"]

    def test_bad_config_line(self, corpus, capsys):
        cfg = corpus / "run.cfg"
        cfg.write_text("just nonsense\n")
        assert run("convert", corpus / "gold", corpus / "out",
                   "--config", cfg) == 1


def test_start_up_loads_no_process_pool_or_typing(corpus):
    """Every command pays for the modules `conceptkit.cli` imports; no
    command loads a process pool (multiprocessing, concurrent.futures,
    pickle), `tune --jobs 2` included, and only the commands that read an
    ontology load hashlib."""
    env = dict(os.environ, PYTHONPATH=str(Path(conceptkit.__file__).parents[1]))

    def loaded(statement):
        proc = subprocess.run(
            [sys.executable, "-c",
             statement + "import sys; print(*sys.modules, sep='\\n')"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    bare = loaded("")
    added = loaded("import conceptkit.cli; ") - bare
    assert "conceptkit.tuning" in added
    assert added & {"multiprocessing", "concurrent.futures.process",
                    "typing", "hashlib"} == set()
    assert run("convert", corpus / "gold", corpus / "conll") == 0
    argv = ["tune", corpus / "gold", corpus / "conll", "--ontology",
            corpus / "onto.obo", "--folds", "2", "--jobs", "2"]
    added = loaded("from conceptkit.cli import main; "
                   f"assert main({list(map(str, argv))!r}) == 0; ") - bare
    assert "conceptkit.tuning" in added
    assert added & {"multiprocessing", "concurrent.futures", "pickle"} == set()


def test_every_traced_name_resolves(monkeypatch):
    """The benchmark's layer tracer wraps these names; a move or rename
    that leaves one behind breaks every traced benchmark run."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    # the tracer imports its sibling corpus module by its plain name
    for name in ("corpus", "layertrace"):
        spec = importlib.util.spec_from_file_location(name, bench / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    targets = sys.modules["layertrace"].TARGETS
    assert targets
    for module_name, path, _, _ in targets:
        module = importlib.import_module(f"conceptkit.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(getattr(owner, attr, None)), f"{module_name}.{path}"
        assert not owner_name or attr in vars(owner), f"{module_name}.{path}"


def test_readme_names_every_subcommand_and_flag():
    """README.md keeps up with the parser: it names each subcommand and
    each long option string as a whole word."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {option for parser in commands.choices.values()
               for action in parser._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"}
    assert [name for name in [*commands.choices, *sorted(options)]
            if not re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", readme)
            ] == []
