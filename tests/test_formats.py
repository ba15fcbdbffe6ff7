import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptkit import (NIL, Annotation, ConceptKitError, ConllRow, Document,
                        ParseError, SpanTag, TextSpan, parse_conll, parse_obo,
                        parse_standoff, take_warnings, tokenize, write_conll,
                        write_standoff)
from conceptkit.formats import (iter_sentences, read_conll_dir,
                                read_predictions_dir, read_standoff_dir,
                                read_text, split_lines, tokenize_sentences)

from helpers import (WORDS, per_line_sentences,
                     random_simple_document, rows_from_tuples)


class TestTokenize:
    def test_words_and_offsets(self):
        assert tokenize("ES and somatic cells") == [
            ("ES", TextSpan(0, 2)),
            ("and", TextSpan(3, 6)),
            ("somatic", TextSpan(7, 14)),
            ("cells", TextSpan(15, 20)),
        ]

    def test_punctuation_stands_alone(self):
        tokens = [t for t, _ in tokenize("PI3K-dependent")]
        assert tokens == ["PI3K", "-", "dependent"]

    def test_empty(self):
        assert tokenize("") == []

    def test_underscore_and_unicode(self):
        assert [t for t, _ in tokenize("GO_MF")] == ["GO", "_", "MF"]
        assert [t for t, _ in tokenize("α-tubulin")] == ["α", "-", "tubulin"]

    def test_covers_all_non_whitespace(self):
        rng = random.Random(3)
        for _ in range(200):
            text = "".join(rng.choice("ab1 ,.\n\tα-()") for _ in range(40))
            tokens = tokenize(text)
            prev_end = 0
            covered = 0
            for tok, span in tokens:
                assert span.start >= prev_end
                assert text[span.start:span.end] == tok
                assert not any(c.isspace() for c in tok)
                prev_end = span.end
                covered += len(span)
            assert covered == sum(1 for c in text if not c.isspace())

    def test_sentences_follow_lines(self):
        sentences = tokenize_sentences("one two\n\nthree.")
        assert [[t for t, _ in s] for s in sentences] == [
            ["one", "two"], ["three", "."]]
        assert sentences[1][0][1] == TextSpan(9, 14)

    def test_carriage_return_ends_a_sentence(self):
        sentences = tokenize_sentences("alpha beta\rgamma delta\r")
        assert [[t for t, _ in s] for s in sentences] == [
            ["alpha", "beta"], ["gamma", "delta"]]


line_texts = st.tuples(
    st.sampled_from(["", "\ufeff"]),
    st.lists(st.sampled_from(["ab", "x1", "α", "-", ".", "_", " ", "\t",
                              "\n", "\r\n", "\n\n", "\r", "\ufeff"]),
             max_size=20),
).map(lambda t: t[0] + "".join(t[1]))


@given(line_texts)
def test_sentences_match_per_line_tokenizer(text):
    assert tokenize_sentences(text) == per_line_sentences(text)


#: Characters that str.splitlines() treats as line boundaries.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]


@given(st.lists(st.sampled_from(["a", "bc", " ", "\ufeff", *LINE_BREAKS]))
       .map("".join))
def test_split_lines_blocks_match_whole_text_split(text):
    want = re.split(r"\r\n?|\n", text.removeprefix("\ufeff"))
    for block in range(1, 9):
        assert list(split_lines(text, block)) == want


class TestStandoff:
    def test_single_span(self):
        doc = parse_standoff("T1\tCHEBI:33893 0 5\tagent\n", "agent of change")
        assert doc.annotations == (
            Annotation("CHEBI:33893", (TextSpan(0, 5),)),)

    def test_leading_bom_keeps_the_first_record(self):
        doc = parse_standoff("\ufeffT1\tX:1 0 5\tagent\n", "agent of change")
        assert doc.annotations == (Annotation("X:1", (TextSpan(0, 5),)),)

    def test_discontinuous(self):
        doc = parse_standoff("T2\tCL:0002322 0 2;15 20\tES ... cells\n",
                             "ES and somatic cells")
        (ann,) = doc.annotations
        assert ann.spans == (TextSpan(0, 2), TextSpan(15, 20))
        assert ann.discontinuous

    def test_empty_file(self):
        doc = parse_standoff("", "some text")
        assert doc.annotations == ()

    def test_offset_out_of_range(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_standoff("T1\tX:1 0 99\tno\n", "short")

    def test_malformed_record(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_standoff("T1\tX:1 0 4\tgood\nT2\tbroken\n", "good text")

    def test_duplicate_id(self):
        text = "T1\tX:1 0 4\tgood\nT1\tX:1 5 9\ttext\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_standoff(text, "good text")

    def test_brat_space_joined_discontinuous_text(self):
        """brat writes a discontinuous mention's fragment texts joined
        with one space (https://brat.nlplab.org/standoff.html)."""
        doc = parse_standoff("T1\tLocation 0 5;16 23\tNorth America\n",
                             "North and South America")
        assert doc.annotations[0].spans == (TextSpan(0, 5), TextSpan(16, 23))
        assert take_warnings() == {}

    def test_text_mismatch_keeps_annotation(self):
        doc = parse_standoff("T1\tX:1 0 5\twrong\n", "agent of change",
                             "doc", source="gold/doc.ann")
        assert len(doc.annotations) == 1
        assert doc.doc_id == "doc"
        assert list(take_warnings().values()) == [(
            "gold/doc.ann:line 1: text mismatch for T1: recorded 'wrong', "
            "covered 'agent'",)]

    # str.splitlines ends a line at each of these, brat at none of them
    @pytest.mark.parametrize("breaker",
                             list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_record_ends_only_at_newline_or_carriage_return(self, breaker):
        ann_text = (f"T1\tX:1 0 4\tab{breaker}c\n"
                    "T2\tX:2 0 2\tab\rT3\tX:3 3 4\tc\r\n")
        doc = parse_standoff(ann_text, f"ab{breaker}c")
        assert [a.concept_id for a in doc.annotations] == ["X:1", "X:2", "X:3"]
        assert doc.covered_text(doc.annotations[0]) == f"ab{breaker}c"

    def test_non_textbound_lines_skipped(self):
        doc = parse_standoff("#1\tnote\nT1\tX:1 0 5\tagent\n", "agent")
        assert len(doc.annotations) == 1

    def test_write_empty(self):
        from conceptkit import Document
        assert write_standoff(Document("d", "text")) == ""

    def test_write_discontinuous_uses_ellipsis(self):
        from conceptkit import Document
        ann = Annotation("CL:1", (TextSpan(0, 2), TextSpan(15, 20)))
        out = write_standoff(Document("d", "ES and somatic cells", (ann,)))
        assert out == "T1\tCL:1 0 2;15 20\tES ... cells\n"

    def test_roundtrip_random_documents(self, small_tree):
        rng = random.Random(11)
        concepts = sorted(small_tree)
        for i in range(50):
            doc = random_simple_document(rng, f"d{i}", concepts)
            reparsed = parse_standoff(write_standoff(doc), doc.text, doc.doc_id)
            assert set(reparsed.annotations) == set(doc.annotations)


# Every str.splitlines boundary, and the tab.
_RECORD_BREAKERS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\t"


@st.composite
def standoff_documents(draw):
    text = draw(st.text(alphabet=_RECORD_BREAKERS + " ab", min_size=1,
                        max_size=30))
    annotations = []
    for _ in range(draw(st.integers(0, 4))):
        cuts = sorted(draw(st.sets(st.integers(0, len(text)), min_size=2,
                                   max_size=6)))
        spans = [TextSpan(s, e) for s, e in zip(cuts[::2], cuts[1::2])]
        annotations.append(Annotation("X:1", tuple(spans)))
    return Document("d", text, tuple(annotations))


@given(standoff_documents())
def test_written_records_parse_back(doc):
    take_warnings()  # those of an earlier example
    reparsed = parse_standoff(write_standoff(doc), doc.text, doc.doc_id)
    assert reparsed.annotations == doc.annotations
    assert take_warnings() == {}


def test_every_line_boundary_stays_inside_its_record():
    text = "".join(map(chr, range(0x110000)))
    ann = Annotation("X:1", (TextSpan(0, len(text)),))
    assert len(write_standoff(Document("d", text, (ann,))).splitlines()) == 1


SAMPLE_CONLL = """\
Hexokinase\t0\t10\tB\tPR:000001\tPR:000001
I\t11\t12\tE\tPR:000001\tPR:000001;PR:000002

of\t13\t15\tO\tNIL\t-
"""


class TestConll:
    def test_parse_sample(self):
        sentences = parse_conll(SAMPLE_CONLL)
        assert len(sentences) == 2
        row = sentences[0][0]
        assert row == ConllRow("Hexokinase", TextSpan(0, 10), SpanTag.B,
                               "PR:000001", ("PR:000001",))
        assert sentences[0][1].dict_features == ("PR:000001", "PR:000002")
        assert sentences[1][0].id_tag == NIL
        assert sentences[1][0].dict_features == ()
        # the last sentence ends at the end of the text, too
        assert parse_conll(SAMPLE_CONLL.removesuffix("\n")) == sentences

    def test_roundtrip(self):
        assert write_conll(parse_conll(SAMPLE_CONLL)) == SAMPLE_CONLL

    def test_unknown_tag(self):
        with pytest.raises(ParseError, match="span tag"):
            parse_conll("x\t0\t1\tQ\tNIL\t-\n")

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="6 columns"):
            parse_conll("x\t0\t1\tO\tNIL\n")

    def test_non_monotonic_offsets(self):
        text = "x\t0\t5\tO\tNIL\t-\ny\t3\t8\tO\tNIL\t-\n"
        with pytest.raises(ParseError, match="monotonic"):
            parse_conll(text)

    # str.splitlines would end a line at the form feed too
    def test_line_numbers_count_only_newline_and_carriage_return(self):
        text = "a\t0\t1\tO\tNIL\t-\n\f\nb\t2\t1\tO\tNIL\t-\n"
        with pytest.raises(ParseError, match="line 3: empty or inverted"):
            parse_conll(text)

    def test_empty_input(self):
        assert parse_conll("") == []
        assert write_conll([]) == ""

    def test_roundtrip_random_rows(self):
        rng = random.Random(5)
        for _ in range(100):
            sentences = []
            pos = 0
            for _ in range(rng.randint(1, 3)):
                rows = []
                for _ in range(rng.randint(1, 6)):
                    word = rng.choice(WORDS)
                    start = pos
                    pos += len(word)
                    feats = tuple(
                        f"F:{rng.randint(1, 4)}" for _ in range(rng.randint(0, 2)))
                    rows.append(ConllRow(
                        word, TextSpan(start, pos),
                        rng.choice(list(SpanTag)),
                        rng.choice([NIL, "X:1", "X:2"]), feats))
                    pos += 1
                sentences.append(rows)
            assert parse_conll(write_conll(sentences)) == sentences


class TestRowsFromTuples:
    def test_helper_builds_rows(self):
        rows = rows_from_tuples([("a", 0, 1, "B", "X:1", ["X:1"])])
        assert rows[0].span_tag is SpanTag.B


@pytest.mark.parametrize("parse, text, message", [
    (parse_conll, "a\t0\n", "line 1: expected 6 columns, got 2"),
    (lambda text: parse_standoff(text, "abc"), "x",
     "line 1: expected tab-separated record"),
    (parse_obo, "[Term]\nid: X:1\nis_a:\n", "line 3: empty is_a target"),
    (parse_obo, "[Term]\nid: X:1\nis_a: X:1\n", "is_a cycle involving X:1"),
])
def test_error_without_source_names_no_file(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
    assert info.value.source is None


_ROW = "x\t0\t1\tO\tNIL\t-\n"


@pytest.mark.parametrize("source, text, message", [
    ("d.conll", "x\t0\t1\tO\tNIL\n", "line 1: expected 6 columns, got 5"),
    ("d.conll", _ROW + "y\t2\tb\tO\tNIL\t-\n",
     "line 2: non-integer offsets '2' 'b'"),
    ("d.conll", "x\t-1\t1\tO\tNIL\t-\n", "line 1: non-integer offsets '-1' '1'"),
    # int() reads each of these offsets; an offset is ASCII digits alone
    ("d.conll", "x\t+12\t14\tO\tNIL\t-\n", "line 1: non-integer offsets '+12' '14'"),
    ("d.conll", "x\t 3\t5\tO\tNIL\t-\n", "line 1: non-integer offsets ' 3' '5'"),
    ("d.conll", "x\t0\t1_0\tO\tNIL\t-\n", "line 1: non-integer offsets '0' '1_0'"),
    ("d.conll", "x\t\u0663\t5\tO\tNIL\t-\n",
     "line 1: non-integer offsets '\u0663' '5'"),
    ("d.conll", "x\t5\t3\tO\tNIL\t-\n", "line 1: empty or inverted span 5 3"),
    ("d.conll", "x\t4\t4\tO\tNIL\t-\n", "line 1: empty or inverted span 4 4"),
    ("d.conll", "x\t0\t5\tO\tNIL\t-\r\ny\t3\t8\tO\tNIL\t-\n",
     "line 2: non-monotonic offset 3 after 5"),
    ("d.conll", "x\t0\t1\tQ\tNIL\t-\n", "line 1: unknown span tag 'Q'"),
    ("d.conll", "x\t0\t1\tO\t\t-\n", "line 1: empty id tag"),
    ("d.conll", _ROW + "\ny\t2\t3\tO\tNIL\t;\n", "line 3: bad feature field ';'"),
    ("d.conll", "\t0\t1\tO\tNIL\t-\n", "line 1: empty token"),
    ("d.ann", "T1 X:1 0 5 alpha\n", "line 1: expected tab-separated record"),
    ("d.ann", "T1\tX:1 0 5\talpha\nT1\tX:1 6 10\tbeta\n",
     "line 2: duplicate annotation id T1"),
    ("d.ann", "T1\t 0 5\talpha\n",
     "line 1: expected 'CONCEPT start end[;start end...]'"),
    ("d.ann", "T1\tX:1\talpha\n",
     "line 1: expected 'CONCEPT start end[;start end...]'"),
    ("d.ann", "T1\tX:1 0 5;6\talpha\n", "line 1: bad fragment '6'"),
    ("d.ann", "T1\tX:1 0 x\talpha\n", "line 1: non-integer offsets in '0 x'"),
    ("d.ann", "T1\tX:1 5 2\talpha\n", "line 1: empty or inverted span 5 2"),
    ("d.ann", "T1\tX:1 -1 2\talpha\n", "line 1: non-integer offsets in '-1 2'"),
    ("d.ann", "T1\tX:1 0 +10\talpha beta\n", "line 1: non-integer offsets in '0 +10'"),
    ("d.ann", "T1\tX:1 0  3\talp\n", "line 1: non-integer offsets in '0  3'"),
    ("d.ann", "T1\tX:1 0 1_0\talpha beta\n",
     "line 1: non-integer offsets in '0 1_0'"),
    ("d.ann", "T1\tX:1 \u0663 5\tha\n", "line 1: non-integer offsets in '\u0663 5'"),
    ("d.ann", "#1\tnote\rT1\tX:1 6 11\tbeta\n",
     "line 2: offset 11 beyond text length 10"),
    ("d.ann", "T1\tX:1 0 5;3 8\talpha\n",
     "line 1: spans out of order or overlapping: "
     "(TextSpan(start=0, end=5), TextSpan(start=3, end=8))"),
    ("d.ann", "T1\tNIL 0 5\talpha\n", "line 1: invalid concept id 'NIL'"),
])
def test_reader_diagnostics_name_file_and_line(source, text, message):
    """Each reader rule fails with one exact 'SOURCE:line N: message'."""
    with pytest.raises(ParseError) as info:
        if source.endswith(".conll"):
            parse_conll(text, source=source)
        else:
            parse_standoff(text, "alpha beta", "d", source=source)
    assert str(info.value) == f"{source}:{message}"
    assert (info.value.source, info.value.line) == (
        source, int(message.split(":")[0].removeprefix("line ")))


class TestCorpusDirectories:
    def test_crlf_text_is_kept(self, tmp_path):
        (tmp_path / "doc.txt").write_bytes(b"one\r\ntwo\r\n")
        (tmp_path / "doc.ann").write_bytes(b"T1\tX:1 5 8\ttwo\r\n")
        assert read_text(tmp_path / "doc.txt") == "one\r\ntwo\r\n"
        doc = read_standoff_dir(str(tmp_path))["doc"]
        assert doc.text == "one\r\ntwo\r\n"
        assert doc.covered_text(doc.annotations[0]) == "two"

    def test_missing_ann_is_an_empty_document(self, tmp_path):
        (tmp_path / "a.txt").write_text("alpha\n")
        (tmp_path / "a.ann").write_text("T1\tX:1 0 5\talpha\n")
        (tmp_path / "b.txt").write_text("beta\n")
        docs = read_standoff_dir(str(tmp_path))
        assert list(docs) == ["a", "b"]
        assert len(docs["a"].annotations) == 1
        assert docs["b"].text == "beta\n" and docs["b"].annotations == ()

    def test_predictions_follow_the_given_texts(self, tmp_path):
        (tmp_path / "a.ann").write_text("T1\tX:1 0 5\talpha\n")
        (tmp_path / "stray.ann").write_text("T1\tX:1 0 5\tstray\n")
        preds = read_predictions_dir(str(tmp_path), {"a": "alpha", "b": "beta"})
        assert list(preds) == ["a", "b"]
        assert preds["a"].annotations[0].concept_id == "X:1"
        assert preds["b"].text == "beta" and preds["b"].annotations == ()
        # b has no .ann and stray.ann names no document: each warns once
        assert take_warnings() == {
            "%s: no .ann for document %s": (f"{tmp_path}: no .ann for document b",),
            "%s: %s names no gold document": (
                f"{tmp_path}: stray.ann names no gold document",)}

    @pytest.mark.parametrize("read", [
        read_standoff_dir, read_conll_dir,
        lambda path: read_predictions_dir(path, {"a": "alpha"}),
        lambda path: list(iter_sentences(path)),
    ])
    def test_not_a_directory(self, tmp_path, read):
        missing = str(tmp_path / "missing")
        with pytest.raises(ConceptKitError, match="^not a directory: .*missing$"):
            read(missing)

    @pytest.mark.parametrize("read, suffix", [
        (read_standoff_dir, ".txt"), (read_conll_dir, ".conll"),
        (lambda path: list(iter_sentences(path)), ".txt"),
    ])
    def test_no_documents(self, tmp_path, read, suffix):
        (tmp_path / "notes.md").write_text("nothing here\n")
        with pytest.raises(ConceptKitError,
                           match=f"^no \\{suffix} documents in "):
            read(str(tmp_path))

    def test_sentences_from_conll_files(self, tmp_path):
        rows = [[ConllRow("alpha", TextSpan(0, 5), SpanTag.S, "X:1", ("X:1",))]]
        (tmp_path / "a.conll").write_text(write_conll(rows))
        (tmp_path / "a.txt").write_text("ignored when there is CoNLL\n")
        assert list(iter_sentences(str(tmp_path))) == [("a", rows)]

    def test_sentences_fall_back_to_tokenised_text(self, tmp_path):
        (tmp_path / "a.txt").write_text("one two\n\nthree.\n")
        (tmp_path / "a.ann").write_text("T1\tX:1 0 3\tone\n")
        [(doc_id, sentences)] = iter_sentences(str(tmp_path))
        assert doc_id == "a"
        assert sentences == [
            [ConllRow("one", TextSpan(0, 3)), ConllRow("two", TextSpan(4, 7))],
            [ConllRow("three", TextSpan(9, 14)), ConllRow(".", TextSpan(14, 15))]]
        assert all(row.span_tag == SpanTag.O and row.id_tag == NIL
                   for sentence in sentences for row in sentence)
