import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptkit import (NIL, LexiconTagger, OntologyGraph, ParseError,
                        build_index, normalize_term, parse_obo, tag,
                        take_warnings, tokenize)
from conceptkit.codec import iter_blocks
from conceptkit.dicttag import TermIndex, read_synonyms, tag_rows
from conceptkit.ontology import Concept

from helpers import (reference_build_index, reference_normalize_term,
                     rows_from_tuples)


class TestNormalizeTerm:
    def test_hyphen_and_plural(self):
        assert normalize_term("ES-cells") == ["es", "cell"]

    def test_greek_letter(self):
        assert normalize_term("α-tubulin") == ["alpha", "tubulin"]
        assert normalize_term("β cells") == ["beta", "cell"]

    def test_empty(self):
        assert normalize_term("") == []
        assert normalize_term("---") == []

    def test_short_tokens_keep_plural_s(self):
        assert normalize_term("its") == ["its"]
        assert normalize_term("gas") == ["gas"]
        assert normalize_term("genes") == ["gene"]

    def test_compatibility_normalisation(self):
        # micro sign folds to Greek mu, fullwidth digits to ASCII
        assert normalize_term("µM") == ["mum"] or normalize_term("µM") == ["mu", "m"]
        assert normalize_term("ＡＢＣ") == ["abc"]

    def test_case_folding(self):
        assert normalize_term("Hexokinase I") == ["hexokinase", "i"]


def _index(mapping):
    return TermIndex({tuple(k.split()): tuple(sorted(v))
                      for k, v in mapping.items()})


class TestBuildIndex:
    def test_names_and_synonyms(self):
        graph = parse_obo(
            '[Term]\nid: X:1\nname: stem cell\n'
            'synonym: "ES cell" EXACT []\nsynonym: "embryonic cell" EXACT []\n')
        index = build_index(graph)
        assert len(index) == 3
        assert ("stem", "cell") in index
        assert ("es", "cell") in index

    def test_shared_synonym_collects_both(self):
        graph = parse_obo(
            '[Term]\nid: X:2\nname: thing\nsynonym: "it" EXACT []\n\n'
            '[Term]\nid: X:1\nname: other\nsynonym: "it" EXACT []\n')
        index = build_index(graph)
        assert index.entries[("it",)] == ("X:1", "X:2")

    def test_extra_synonyms(self):
        graph = parse_obo("[Term]\nid: X:1\nname: something\n")
        index = build_index(graph, [("brand new term", "X:1")])
        assert ("brand", "new", "term") in index

    def test_obsolete_skipped(self):
        graph = parse_obo("[Term]\nid: X:1\nname: gone\nis_obsolete: true\n")
        assert len(build_index(graph)) == 0

    def test_a_hierarchy_alone_has_no_terms_to_index(self):
        with pytest.raises(ValueError, match="no terms"):
            build_index(OntologyGraph({"X:1": ()}))

    def test_unnormalisable_term_warned(self):
        graph = parse_obo("[Term]\nid: X:1\nname: something\n")
        index = build_index(graph, [("---", "X:1")])
        assert take_warnings() == {
            "skipping term %r (%s): normalises to nothing":
                ("skipping term '---' (X:1): normalises to nothing",)}
        assert len(index) == 1

    def test_equal_tokens_are_one_object(self):
        graph = parse_obo(
            '[Term]\nid: X:1\nname: stem cell\n\n'
            '[Term]\nid: X:2\nname: cell line\nsynonym: "cells" EXACT []\n')
        index = build_index(graph, [("cell wall", "X:3")])
        tokens = [t for key in index.entries for t in key]
        assert tokens.count("cell") == 4
        first = {}
        assert all(first.setdefault(t, t) is t for t in tokens)

    def test_name_and_synonyms_share_one_value(self):
        graph = parse_obo(
            '[Term]\nid: X:1\nname: stem cell\n'
            'synonym: "ES cell" EXACT []\nsynonym: "embryonic cell" EXACT []\n')
        values = list(build_index(graph).entries.values())
        assert values == [("X:1",)] * 3
        assert values[0] is values[1] is values[2]


class TestTag:
    def test_longest_match_wins(self):
        index = _index({"hexokinase i": ["PR:000001"],
                        "hexokinase": ["PR:000002"]})
        tokens = tokenize("Hexokinase I binds")
        features = tag(tokens, index)
        assert features == [("PR:000001",), ("PR:000001",), ()]

    def test_no_hits(self):
        index = _index({"kinase": ["X:1"]})
        assert tag(tokenize("nothing here"), index) == [(), ()]

    def test_ambiguous_key_sorted(self):
        index = _index({"tubulin": ["PR:000002", "PR:000001"]})
        features = tag(tokenize("tubulin"), index)
        assert features == [("PR:000001", "PR:000002")]

    def test_match_spans_punctuation(self):
        index = _index({"es cell": ["CL:1"]})
        tokens = tokenize("ES-cells differentiate")
        features = tag(tokens, index)
        # hyphen token sits inside the matched surface
        assert features == [("CL:1",), ("CL:1",), ("CL:1",), ()]

    def test_stopword_suppression(self):
        index = _index({"of": ["X:1"], "inhibitor of calpain": ["X:2"]})
        features = tag(tokenize("of note , inhibitor of calpain"), index)
        assert features[0] == ()
        assert features[3] == features[4] == features[5] == ("X:2",)

    def test_matches_do_not_overlap(self):
        index = _index({"a b": ["X:1"], "b c": ["X:2"]})
        features = tag(tokenize("a b c"), index)
        assert features == [("X:1",), ("X:1",), ()]

    def test_determinism(self):
        index = _index({"alpha beta": ["X:1"], "beta": ["X:2"]})
        tokens = tokenize("alpha beta beta alpha")
        assert tag(tokens, index) == tag(tokens, index)

    def test_agrees_with_simple_reference_matcher(self):
        # over a vocabulary where normalisation is the identity, the
        # tagger must behave exactly like plain greedy word matching
        rng = random.Random(41)
        vocab = ["kinase", "cell", "alpha", "beta", "membrane"]
        keys = {("alpha", "kinase"): ("X:1",), ("cell",): ("X:2",),
                ("beta", "cell"): ("X:3",), ("membrane",): ("X:4", "X:5")}
        index = TermIndex(dict(keys))

        def reference(words):
            feats = [()] * len(words)
            i = 0
            while i < len(words):
                for j in range(min(len(words), i + 2) - 1, i - 1, -1):
                    hit = keys.get(tuple(words[i:j + 1]))
                    if hit:
                        for k in range(i, j + 1):
                            feats[k] = hit
                        i = j
                        break
                i += 1
            return feats

        for _ in range(300):
            words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            tokens = tokenize(" ".join(words))
            assert tag(tokens, index) == reference(words)

    def test_lexicon_tagger_shares_the_scan(self):
        # both taggers scan with longest_leftmost; without stopwords they
        # must match the same tokens, entry for entry
        rng = random.Random(43)
        vocab = ["kinase", "cell", "alpha", "beta", "membrane", "-"]
        keys = {("alpha", "kinase"): "X:1", ("cell",): "X:2",
                ("beta", "cell"): "X:3", ("membrane",): "X:4"}
        index = TermIndex({key: (c,) for key, c in keys.items()})
        lexicon = LexiconTagger({
            key: (("S",) if len(key) == 1 else ("B", "E"), c)
            for key, c in keys.items()})
        for _ in range(300):
            words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            tokens = tokenize(" ".join(words))
            features = tag(tokens, index, stopwords=frozenset())
            labels = lexicon.tag_tokens(tokens)
            concepts = [f[0] if f else NIL for f in features]
            assert concepts == [concept for _, concept in labels]
            for first, last in iter_blocks([t for t, _ in labels]):
                key = tuple(t for w in words[first:last + 1]
                            for t in normalize_term(w))
                assert keys[key] == labels[first][1]

    def test_longest_leftmost_no_strict_subspan(self):
        index = _index({"alpha": ["X:1"], "alpha beta": ["X:2"],
                        "alpha beta cell": ["X:3"]})
        features = tag(tokenize("alpha beta cell"), index)
        assert features == [("X:3",)] * 3


class TestTagRows:
    def test_fills_feature_column(self):
        index = _index({"kinase": ["PR:000009"]})
        sentences = [rows_from_tuples([
            ("kinase", 0, 6, "O", "NIL", []),
            ("binds", 7, 12, "O", "NIL", []),
        ])]
        tagged = tag_rows(sentences, index)
        assert tagged[0][0].dict_features == ("PR:000009",)
        assert tagged[0][1].dict_features == ()


class TestReadSynonyms:
    def test_parse(self):
        pairs = read_synonyms("# comment\nES cell\tCL:1\n\nkinase\tPR:1\n")
        assert pairs == [("ES cell", "CL:1"), ("kinase", "PR:1")]

    def test_leading_bom_is_not_part_of_the_term(self):
        assert read_synonyms("\ufeffalpha\tX:1") == [("alpha", "X:1")]

    def test_malformed(self):
        with pytest.raises(ParseError, match="^line 1: expected 'term<TAB>CURIE'"):
            read_synonyms("no tab here\n")

    # str.splitlines ends a line at each of these, the synonyms file not
    @pytest.mark.parametrize("breaker", list("\x0b\x0c\x85\u2028"))
    def test_line_ends_only_at_newline_or_carriage_return(self, breaker):
        pairs = read_synonyms(f"alpha{breaker}beta\tX:1\r\ngamma\tX:2\rdelta\tX:3")
        assert pairs == [(f"alpha{breaker}beta", "X:1"), ("gamma", "X:2"),
                         ("delta", "X:3")]

    def test_malformed_line_names_file_and_line(self):
        with pytest.raises(ParseError, match="^extra.tsv:line 3: ") as info:
            read_synonyms("# comment\nES cell\tCL:1\nkinase PR:1\n",
                          source="extra.tsv")
        assert (info.value.source, info.value.line) == ("extra.tsv", 3)


#: Whitespace that NFKC maps to a space or keeps (tab, no-break space,
#: ideographic space, next line, line separator), a combining accent
#: after a space, capital and final sigmas, and spacing marks that NFKC
#: decomposes into a space and a combining mark.
_WORD_BREAK_PIECES = ["\t", "\xa0", "\u3000", "\x85", "\u2028", " \u0301",
                      "Σ", "ΟΣ", "ς", "¨", "῭"]
#: Surface pieces with Greek letters, compatibility forms (ligature,
#: fullwidth, micro sign, superscript), plural endings and punctuation.
_TERM = st.lists(st.sampled_from(
    ["cell", "cells", "a", " ", "-", "_", "!", "α", "β", "Ω", "ﬁ", "Ａ",
     "µ", "²", "é", "ß", "İ", *_WORD_BREAK_PIECES]), max_size=4).map("".join)
_CURIE = st.sampled_from(["X:1", "X:2", "X:3", "X:4"])
_GRAPH = st.dictionaries(
    _CURIE,
    st.builds(Concept, name=_TERM, synonyms=st.lists(_TERM, max_size=3).map(tuple),
              obsolete=st.booleans()),
    max_size=4).map(lambda concepts: OntologyGraph(dict.fromkeys(concepts, ()),
                                                   concepts))


def _index_outcome(build, graph, extra):
    take_warnings()  # those of an earlier example
    index = build(graph, extra)
    return list(index.entries.items()), index.max_len, take_warnings()


@given(_GRAPH, st.lists(st.tuples(_TERM, st.sampled_from(["X:0", "X:2", "X:9"])),
                        max_size=4))
def test_index_matches_set_collecting_reference(graph, extra):
    got = _index_outcome(build_index, graph, extra)
    want = _index_outcome(reference_build_index, graph, extra)
    assert got == want


@given(st.one_of(st.text(), _TERM,
                 st.text(st.characters(max_codepoint=127))))
def test_normalize_term_matches_per_character_greek_test(term):
    assert normalize_term(term) == reference_normalize_term(term)


@given(st.one_of(st.text(), _TERM))
def test_term_normalises_word_by_word(term):
    """Whitespace is a barrier to every normalisation step, so an index
    key, normalised from a whole term, equals the tokens `tag` gets by
    normalising the term's words one at a time."""
    assert normalize_term(term) == [
        token for word in term.split() for token in normalize_term(word)]
