import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import conceptkit
from conceptkit import (OntologyGraph, ParseError, parse_obo, take_warnings,
                        wang_similarity)
from conceptkit.ontology import Concept, _find_unescaped

from helpers import (REFERENCE_SYNONYM_RE, chain_obo, reference_parse_obo,
                     write_obo)

DIAMOND_OBO = """\
[Term]
id: D:TOP
name: top

[Term]
id: D:L
name: left
is_a: D:TOP

[Term]
id: D:R
name: right
is_a: D:TOP

[Term]
id: D:BOT
name: bottom
is_a: D:L
is_a: D:R
"""


class TestParseObo:
    def test_basic_stanza(self, chain_graph):
        assert chain_graph.concepts["TEST:B"].name == "middle thing"
        assert chain_graph["TEST:B"] == ("TEST:A",)

    def test_synonym_line(self):
        graph = parse_obo(
            '[Term]\nid: X:1\nname: stem cell\n'
            'synonym: "ES cell" EXACT []\nsynonym: "embryonic stem cell" RELATED []\n')
        assert graph.concepts["X:1"].synonyms == ("ES cell", "embryonic stem cell")

    def test_obsolete_flagged(self):
        graph = parse_obo("[Term]\nid: X:1\nname: gone\nis_obsolete: true\n")
        assert graph.concepts["X:1"].obsolete

    def test_dangling_is_a_dropped(self):
        graph = parse_obo("[Term]\nid: X:1\nname: a\nis_a: X:NOPE\n")
        assert graph["X:1"] == ()
        assert list(take_warnings().values()) == [
            ("obo: dropping dangling is_a X:1 -> X:NOPE",)]

    def test_cycle_is_error(self):
        text = ("[Term]\nid: X:1\nis_a: X:2\n\n"
                "[Term]\nid: X:2\nis_a: X:1\n")
        with pytest.raises(ParseError, match="cycle"):
            parse_obo(text)

    def test_error_without_source_names_no_file(self):
        with pytest.raises(ParseError) as info:
            parse_obo("[Term]\nid: X:1\nsynonym: bad\n")
        assert str(info.value) == "line 3: unparseable synonym 'bad'"

    def test_unclosed_quote_fails_fast(self):
        """An unterminated synonym is an error, found in linear time, also
        with 10,000 plain characters before or after the quote."""
        code = ("from conceptkit import ParseError, parse_obo\n"
                "for value in ['\"' + 'a' * 40, 'a' * 10_000 + '\"' + 'a' * 40,\n"
                "              '\"' + 'a' * 10_000]:\n"
                "    try:\n"
                "        parse_obo('[Term]\\nid: X:1\\nsynonym: ' + value)\n"
                "    except ParseError as exc:\n"
                "        print(str(exc)[:27])\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(conceptkit.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout == "line 3: unparseable synonym\n" * 3, proc.stderr

    def test_comments_and_other_stanzas_ignored(self):
        text = ("[Typedef]\nid: part_of\n\n"
                "[Term]\nid: X:1\nname: kept ! trailing comment\n"
                'namespace: ns\nsubset: s\nsynonyms: "x" []\n'
                "is_anonymous: true\nidspace: Y\n")
        graph = parse_obo(text)
        assert list(graph) == ["X:1"]
        assert graph.concepts["X:1"] == Concept("kept")

    # str.splitlines would end the line inside each value
    def test_values_end_only_at_newline_or_carriage_return(self):
        graph = parse_obo('[Term]\nid: X:1\nname: alpha\x85beta\n'
                          'synonym: "ga\u2028mma" EXACT []\n')
        assert graph.concepts["X:1"] == Concept("alpha\x85beta", ("ga\u2028mma",))

    def test_escaped_bang_starts_no_comment(self):
        graph = parse_obo("[Term]\nid: X:1\nname: 5\\!-deoxy thing ! comment\n")
        assert graph.concepts["X:1"].name == "5!-deoxy thing"

    @pytest.mark.parametrize("escaped, decoded", [
        ("back\\\\slash", "back\\slash"), ("tab\\there", "tab\there"),
        ("two\\nlines", "two\nlines"), ("a\\Wspace", "a space"),
        ('\\:\\,\\"\\(\\)\\[\\]\\{\\}\\!', ':,"()[]{}!'),
        # not an OBO escape: the backslash stays
        ("a\\xb", "a\\xb")])
    def test_names_and_synonyms_decode_escapes(self, escaped, decoded):
        graph = parse_obo(f'[Term]\nid: X:1\nname: {escaped}\n'
                          f'synonym: "{escaped}" EXACT []\n')
        assert graph.concepts["X:1"] == Concept(decoded, (decoded,))

    def test_leading_bom_keeps_the_first_stanza(self):
        text = "\ufeff[Term]\nid: X:1\nname: a\n\n[Term]\nid: X:2\nis_a: X:1\n"
        graph = parse_obo(text)
        assert list(graph) == ["X:1", "X:2"]
        assert graph["X:2"] == ("X:1",)
        assert take_warnings() == {}

    def test_repeated_id_later_stanza_wins_with_warning(self):
        text = ("[Term]\nid: X:1\nname: first\n\n"
                "[Term]\nid: X:2\nname: other\n\n"
                "[Term]\nid: X:1\nname: second\n")
        graph = parse_obo(text, source="d.obo")
        assert list(graph) == ["X:1", "X:2"]
        assert graph.concepts["X:1"].name == "second"
        assert list(take_warnings().values()) == [
            ("d.obo:line 9: repeated id X:1 replaces the earlier stanza",)]

    @pytest.mark.parametrize("line", ["id:", "id: ! note", "id:  \t"])
    def test_empty_id_is_an_error(self, line):
        text = f"[Term]\nid: X:1\n\n[Term]\n{line}\nname: y\n"
        with pytest.raises(ParseError) as info:
            parse_obo(text, source="e.obo")
        assert str(info.value) == "e.obo:line 5: empty id"

    def test_cycle_error_names_the_file(self):
        text = "[Term]\nid: X:1\nis_a: X:2\n\n[Term]\nid: X:2\nis_a: X:1\n"
        with pytest.raises(ParseError) as info:
            parse_obo(text, source="c.obo")
        assert str(info.value) == "c.obo: is_a cycle involving X:1, X:2"
        assert info.value.source == "c.obo"

    def test_parents_are_the_graph_key_objects(self):
        # X:2 names X:1 before X:1's own stanza
        text = ("[Term]\nid: X:2\nis_a: X:1\n\n[Term]\nid: X:1\n\n"
                "[Term]\nid: X:3\nis_a: X:1 ! one\nis_a: X:2\n")
        graph = parse_obo(text)
        keys = {curie: curie for curie in graph}
        parents = [p for curie in graph for p in graph[curie]]
        assert parents == ["X:1", "X:1", "X:2"]
        assert all(p is keys[p] for p in parents)


class TestOntologyGraph:
    def test_checks_its_hierarchy(self, small_tree):
        with pytest.raises(ValueError, match="X:1: unknown parent X:9"):
            OntologyGraph({"X:1": ("X:9",)})
        with pytest.raises(ParseError, match="is_a cycle involving X:1, X:2"):
            OntologyGraph({"X:1": ("X:2",), "X:2": ("X:1",), "X:3": ()})
        with pytest.raises(ValueError, match="name other CURIEs"):
            OntologyGraph({"X:1": ()}, {"X:2": Concept("b")})
        # a given order must name each CURIE once, before its parents
        parents = {"X:1": (), "X:2": ("X:1",), "X:3": ()}
        for order, error in [
                (["X:2", "X:1", "X:3", "X:4"], "X:4 is unknown"),
                (["X:1", "X:2", "X:3"], "X:2 is not before its parents"),
                (["X:2", "X:1"], "each CURIE once"),
                (["X:2", "X:1", "X:3", "X:3"], "each CURIE once")]:
            with pytest.raises(ValueError, match=error):
                OntologyGraph(parents, order=order)
        with pytest.raises(ValueError, match="X:2 is not before its parents"):
            OntologyGraph({"X:1": ("X:2",), "X:2": ("X:1",)},
                          order=["X:1", "X:2"])
        with pytest.raises(ValueError, match="name other CURIEs"):
            OntologyGraph(parents, {"X:1": Concept("a")}, ["X:2", "X:1", "X:3"])
        # deepest first: another order than Kahn's, and the same graph
        parents = {c: small_tree[c] for c in small_tree}
        order = sorted(reversed(parents),
                       key=lambda c: -len(small_tree.ancestors(c)))
        given = OntologyGraph(parents, small_tree.concepts, order)
        found = OntologyGraph(parents, small_tree.concepts)
        assert given._order != found._order
        assert given.concepts is found.concepts is small_tree.concepts
        assert ([(c, given[c], given.upward_depths(c)) for c in given]
                == [(c, found[c], found.upward_depths(c)) for c in found])

    def test_pickle_round_trip(self, small_tree):
        small_tree.upward_depths("TR:0020")
        hierarchy = OntologyGraph({c: small_tree[c] for c in small_tree})
        for graph in (small_tree, hierarchy):
            copy = pickle.loads(pickle.dumps(graph))
            assert copy.concepts == graph.concepts
            assert ([(c, copy[c]) for c in copy]
                    == [(c, graph[c]) for c in graph])
            assert ([copy.upward_depths(c) for c in copy]
                    == [graph.upward_depths(c) for c in graph])


_CURIES = st.sampled_from(["X:1", "X:2", "X:3", "X:4", "Y:9"])
_VALUE = st.lists(st.sampled_from(
    ["a", "b c", ":", "!", "\t", '"', "\x0b", "\x0c", "\x85", "\u2028",
     "\\", "\\!", "\\W"]),
    max_size=4).map("".join)
_QUOTED = st.lists(st.sampled_from(["a", " ", "!", '\\"', "b", "\\\\", "\\"]),
                   max_size=4).map("".join)
_COMMENT = st.sampled_from(["", "", " ! note", "! x"])
_OBO_LINE = st.one_of(
    st.sampled_from(["", "  ", "! comment", "format-version: 1.2", "xref: X:1",
                     'def: "text ! here" []', "is_a:", "synonym: unquoted",
                     "[Typedef]", "namespace: n", "subset: s", "id : X:4",
                     "is_anonymous: true", 'synonyms: "x" []', "name : y",
                     "id:", "id: ! note", 'synonym: "unclosed',
                     'synonym: "a" EXACT "b" []', "is_a: X:1\\!x ! c",
                     "is_a: !X:1"]),
    st.builds("id: {}{}".format, _CURIES, _COMMENT),
    st.builds("name: {}{}".format, _VALUE, _COMMENT),
    st.builds('synonym: "{}" EXACT []{}'.format, _QUOTED, _COMMENT),
    st.builds("is_a: {}{}".format, _CURIES, _COMMENT),
    st.builds("is_obsolete: {}{}".format,
              st.sampled_from(["true", "TRUE", "false", ""]), _COMMENT),
)


@given(st.lists(st.sampled_from(['"', "\\", "!", "a", " ", "é"])).map("".join))
def test_synonym_pattern_matches_per_character_reference(value):
    """parse_obo quotes a synonym from the first '"' to the next one that
    no backslash escapes, the span the per-character pattern finds."""
    opening = value.find('"')
    closing = _find_unescaped(value, '"', opening + 1)
    got = closing < len(value) and ((opening, closing + 1),
                                    value[opening + 1:closing])
    want = REFERENCE_SYNONYM_RE.search(value)
    assert got == (want is not None and (want.span(), want.group(1)))


def _stanza(k: int):
    """A header, the id X:k (none for 0), then lines that mostly name
    lower ids as parents, once or twice, so that most texts hold edges
    but no cycle."""
    lower_parent = st.builds("is_a: {}{}".format, st.sampled_from(
        [f"X:{j}" for j in range(1, k)] + ["Y:9"]), _COMMENT)
    return st.builds(
        lambda header, body: [header, *([f"id: X:{k}"] if k else []), *body],
        st.sampled_from(["[Term]", "[Term]", " [Term] ", "[Typedef]"]),
        st.lists(st.one_of(_OBO_LINE, lower_parent,
                           lower_parent.map(lambda line: f"{line}\n{line}")),
                 max_size=6))


_OBO_TEXT = st.builds(
    lambda bom, head, stanzas, ends: bom + "".join(
        line + end for line, end in zip(head + sum(stanzas, []), ends)),
    st.sampled_from(["", "\ufeff"]),
    st.lists(_OBO_LINE, max_size=2),
    st.lists(st.integers(0, 4).flatmap(_stanza), max_size=6),
    # an empty end joins two lines into one
    st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r", ""]),
             min_size=50, max_size=50),
)


def _outcome(parse, text):
    take_warnings()  # those of an earlier example
    try:
        graph = parse(text, source="gen.obo")
    except ParseError as exc:
        result = str(exc)
    else:
        result = [(curie, graph[curie], graph.concepts[curie])
                  for curie in graph]
    return result, {template: taken for template, taken
                    in take_warnings().items() if "dangling" in template}


@given(_OBO_TEXT)
def test_parser_matches_whole_text_reference(text):
    got = _outcome(parse_obo, text)
    # the reference does not skip a byte order mark: give it the text after
    want, want_warnings = _outcome(reference_parse_obo,
                                   text.removeprefix("\ufeff"))
    if isinstance(want, str) and "cycle" in want:
        want = f"gen.obo: {want}"
    assert got == (want, want_warnings)


# The space, U+000C, U+0085 and U+2028 are whitespace that parse_obo
# strips from a name's ends, so they stand only inside a name.
_OBO_CHARS = ["a", "Z9", ":", "é", "!", '"', "\\", "{", "}", "\t", "\n", "\\n"]
_INSIDE = st.lists(st.sampled_from([*_OBO_CHARS, " ", "\f", "\x85", "\u2028"]),
                   max_size=5).map("".join)
_NAMES = st.one_of(st.just(""), st.sampled_from(_OBO_CHARS),
                   st.builds("{}{}{}".format, st.sampled_from(_OBO_CHARS),
                             _INSIDE, st.sampled_from(_OBO_CHARS)))


@st.composite
def obo_concepts(draw):
    """Up to six concepts, each naming some earlier ones as parents: the
    parents and the concepts."""
    parents, concepts = {}, {}
    for k in range(draw(st.integers(0, 6))):
        parents[f"X:{k}"] = tuple(draw(st.lists(
            st.sampled_from(list(concepts)), unique=True)) if concepts else [])
        concepts[f"X:{k}"] = Concept(
            draw(_NAMES), tuple(draw(st.lists(_INSIDE, max_size=3))),
            draw(st.booleans()))
    return parents, concepts


@given(obo_concepts())
def test_written_obo_parses_back(hierarchy):
    parents, concepts = hierarchy
    graph = parse_obo(write_obo(parents, concepts))
    assert [(curie, graph[curie]) for curie in graph] == list(parents.items())
    assert list(graph.concepts.items()) == list(concepts.items())


class TestAncestors:
    def test_chain(self, chain_graph):
        assert chain_graph.ancestors("TEST:C") == {"TEST:C", "TEST:B", "TEST:A"}
        assert chain_graph.ancestors("TEST:A") == {"TEST:A"}

    def test_diamond(self):
        graph = parse_obo(DIAMOND_OBO)
        assert graph.ancestors("D:BOT") == {"D:BOT", "D:L", "D:R", "D:TOP"}

    def test_monotone(self, chain_graph):
        assert chain_graph.ancestors("TEST:B") <= chain_graph.ancestors("TEST:C")

    def test_unknown_curie(self, chain_graph):
        with pytest.raises(KeyError):
            chain_graph.ancestors("TEST:missing")


class TestWangSimilarity:
    def test_identity(self, chain_graph):
        for c in chain_graph:
            assert wang_similarity(chain_graph, c, c) == 1.0

    def test_three_node_chain_value(self, chain_graph):
        # S-values with decay 0.8: B side {B:1, A:0.8} -> 1.8;
        # C side {C:1, B:0.8, A:0.64} -> 2.44; shared mass
        # (1+0.8)+(0.8+0.64) = 3.24; 3.24/4.24 = 0.764150943...
        got = wang_similarity(chain_graph, "TEST:B", "TEST:C", 0.8)
        assert got == pytest.approx(3.24 / 4.24, abs=1e-12)
        assert got == pytest.approx(0.7642, abs=5e-5)

    def test_symmetry(self, chain_graph):
        ab = wang_similarity(chain_graph, "TEST:A", "TEST:B")
        ba = wang_similarity(chain_graph, "TEST:B", "TEST:A")
        assert ab == ba

    def test_disjoint_roots(self):
        graph = parse_obo("[Term]\nid: X:1\nname: a\n\n[Term]\nid: Y:1\nname: b\n")
        assert wang_similarity(graph, "X:1", "Y:1") == 0.0

    def test_strict_decay_along_chain(self):
        graph = parse_obo(chain_obo(10))
        leaf = "CH:0009"
        sims = [wang_similarity(graph, leaf, f"CH:{i:04d}") for i in range(10)]
        # sims[9] is the identity; similarity falls as distance grows
        for closer, farther in zip(sims[1:], sims):
            assert closer > farther
        assert sims[9] == 1.0
        assert all(0.0 < s < 1.0 for s in sims[:9])

    def test_less_than_one_for_distinct(self):
        graph = parse_obo(DIAMOND_OBO)
        for a in graph:
            for b in graph:
                if a != b:
                    assert wang_similarity(graph, a, b) < 1.0

    def test_diamond_uses_best_path(self):
        # D:BOT reaches D:TOP via two length-2 paths; S-value is 0.8**2
        graph = parse_obo(DIAMOND_OBO)
        got = wang_similarity(graph, "D:BOT", "D:TOP", 0.8)
        # shared = anc(TOP) = {TOP}: S_bot(TOP)=0.64, S_top(TOP)=1
        # totals: bot 1+0.8+0.8+0.64 = 3.24, top 1
        assert got == pytest.approx((0.64 + 1.0) / (3.24 + 1.0), abs=1e-12)

    def test_invalid_decay(self, chain_graph):
        with pytest.raises(ValueError):
            wang_similarity(chain_graph, "TEST:A", "TEST:B", 1.0)

    def test_unknown_curie(self, chain_graph):
        """An unknown CURIE on either side raises KeyError naming it (the
        first of two), even when both sides are the same CURIE."""
        for a, b, named in [("TEST:A", "TEST:missing", "TEST:missing"),
                            ("TEST:missing", "TEST:A", "TEST:missing"),
                            ("TEST:missing", "TEST:missing", "TEST:missing"),
                            ("TEST:m1", "TEST:m2", "TEST:m1")]:
            with pytest.raises(KeyError) as raised:
                wang_similarity(chain_graph, a, b)
            assert raised.value.args == (named,)
