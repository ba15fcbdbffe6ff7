import pytest

from conceptkit import ParseError, parse_obo, wang_similarity

from helpers import chain_obo

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
        concept = chain_graph["TEST:B"]
        assert concept.name == "middle thing"
        assert concept.parents == ("TEST:A",)

    def test_synonym_line(self):
        graph = parse_obo(
            '[Term]\nid: X:1\nname: stem cell\n'
            'synonym: "ES cell" EXACT []\nsynonym: "embryonic stem cell" RELATED []\n')
        assert graph["X:1"].synonyms == ("ES cell", "embryonic stem cell")

    def test_obsolete_flagged(self):
        graph = parse_obo("[Term]\nid: X:1\nname: gone\nis_obsolete: true\n")
        assert graph["X:1"].obsolete

    def test_dangling_is_a_dropped(self, caplog):
        with caplog.at_level("WARNING"):
            graph = parse_obo("[Term]\nid: X:1\nname: a\nis_a: X:NOPE\n")
        assert graph["X:1"].parents == ()
        assert "dangling" in caplog.text

    def test_cycle_is_error(self):
        text = ("[Term]\nid: X:1\nis_a: X:2\n\n"
                "[Term]\nid: X:2\nis_a: X:1\n")
        with pytest.raises(ParseError, match="cycle"):
            parse_obo(text)

    def test_comments_and_other_stanzas_ignored(self):
        text = ("[Typedef]\nid: part_of\n\n"
                "[Term]\nid: X:1\nname: kept ! trailing comment\n")
        graph = parse_obo(text)
        assert list(graph) == ["X:1"]
        assert graph["X:1"].name == "kept"


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
        with pytest.raises(KeyError):
            wang_similarity(chain_graph, "TEST:A", "TEST:missing")
