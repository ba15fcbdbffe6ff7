import marshal
import os
import shutil
import sys
import unicodedata
from pathlib import Path

import pytest

from conceptkit import (ConceptKitError, ParseError, build_index, parse_obo,
                        snapshot, take_warnings)
from conceptkit.cli import main
from conceptkit.errors import warn

# a dangling is_a, a repeated id and a name that normalises to nothing:
# every warning parse_obo and build_index give
WARNING_OBO = """\
[Term]
id: W:1
name: stem cell
synonym: "cells" EXACT []

[Term]
id: W:2
name: cell line
is_a: W:1
is_a: W:404

[Term]
id: W:3
name: ---

[Term]
id: W:2
name: cell line
is_a: W:1
is_a: W:404
"""
EXTRA = [("cell wall", "W:9"), ("stem cell", "W:2")]


@pytest.fixture()
def obo(tmp_path):
    path = tmp_path / "w.obo"
    path.write_text(WARNING_OBO, encoding="utf-8")
    return str(path)


def snapshots(cache):
    return sorted(p.name.split("-")[0] for p in cache.glob("*.marshal"))


def load(loader, *args):
    """loader(*args) and the warnings it counted."""
    take_warnings()  # those of an earlier load
    return loader(*args), take_warnings()


def items(graph):
    return [(curie, graph[curie]) for curie in graph]


def no_parse(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("parsed on a snapshot hit")

    monkeypatch.setattr(snapshot, "parse_obo", fail)
    monkeypatch.setattr(snapshot, "build_index", fail)


def hierarchy(graph):
    """What scoring reads of a graph: each CURIE's parents and depths,
    and membership."""
    return (items(graph), len(graph), "W:404" in graph,
            [graph.upward_depths(curie) for curie in graph])


def test_cold_and_warm_graphs_are_equal(obo, tmp_path, snapshot_cache,
                                        monkeypatch):
    """Cold, warm and uncached loads give the same hierarchy and warnings."""
    cold, cold_warnings = load(snapshot.load_graph, obo)
    assert snapshots(snapshot_cache) == ["graph"]
    no_parse(monkeypatch)
    warm, warm_warnings = load(snapshot.load_graph, obo)
    monkeypatch.setattr(snapshot, "parse_obo", parse_obo)
    (tmp_path / "file").write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    uncached, uncached_warnings = load(snapshot.load_graph, obo)
    parsed = parse_obo(WARNING_OBO, source=obo)
    assert (hierarchy(cold) == hierarchy(warm) == hierarchy(uncached)
            == hierarchy(parsed))
    assert items(parsed) == [("W:1", ()), ("W:2", ("W:1",)), ("W:3", ())]
    assert cold.concepts is warm.concepts is uncached.concepts is None
    assert warm_warnings == cold_warnings == uncached_warnings
    assert list(cold_warnings.values()) == [
        (f"{obo}:line 16: repeated id W:2 replaces the earlier stanza",),
        (f"{obo}: dropping dangling is_a W:2 -> W:404",)]


def test_cold_and_warm_indexes_are_equal(obo, snapshot_cache, monkeypatch):
    cold, cold_warnings = load(snapshot.load_index, obo, EXTRA)
    assert snapshots(snapshot_cache) == ["graph", "index"]
    for path in snapshot_cache.glob("graph-*"):
        path.unlink()  # a hit reads the index part alone
    no_parse(monkeypatch)
    warm, warm_warnings = load(snapshot.load_index, obo, EXTRA)
    expected = build_index(parse_obo(WARNING_OBO, source=obo), EXTRA)
    assert warm.entries == cold.entries == expected.entries
    assert list(warm.entries) == list(expected.entries)
    assert warm.max_len == expected.max_len
    assert warm_warnings == cold_warnings
    assert list(cold_warnings.values())[2:] == [
        ("skipping term '---' (W:3): normalises to nothing",)]


def test_graph_snapshot_serves_an_index_miss(obo, snapshot_cache, monkeypatch):
    snapshot.load_graph(obo)
    monkeypatch.setattr(snapshot, "parse_obo", None)
    index, warnings = load(snapshot.load_index, obo, EXTRA)
    assert index.entries == build_index(parse_obo(WARNING_OBO), EXTRA).entries
    assert len(warnings) == 3
    assert snapshots(snapshot_cache) == ["graph", "index"]


def test_other_synonyms_are_another_index(obo, snapshot_cache):
    snapshot.load_index(obo, EXTRA)
    index = snapshot.load_index(obo, EXTRA[:1])
    assert ("stem", "cell") in index and index.entries[("stem", "cell")] == ("W:1",)
    assert snapshots(snapshot_cache) == ["graph", "index", "index"]


def test_edited_byte_is_a_miss(obo, snapshot_cache, monkeypatch):
    snapshot.load_graph(obo)
    parses = counted_parse(monkeypatch)
    with open(obo, "r+b") as f:
        f.seek(WARNING_OBO.index("stem"))
        f.write(b"S")
    snapshot.load_graph(obo)
    (text,), = parses
    assert "name: Stem cell" in text
    assert snapshots(snapshot_cache) == ["graph", "graph"]


def test_path_is_part_of_the_key(obo, tmp_path, snapshot_cache):
    other = tmp_path / "copy.obo"
    other.write_text(WARNING_OBO, encoding="utf-8")
    snapshot.load_graph(obo)
    _, warnings = load(snapshot.load_graph, str(other))
    assert all(str(other) in message for (message,) in warnings.values())
    assert snapshots(snapshot_cache) == ["graph", "graph"]


def counted_parse(monkeypatch):
    """The list that each parse_obo call of the snapshot module adds to."""
    parses = []

    def parse(*args, **kwargs):
        parses.append(args)
        return parse_obo(*args, **kwargs)

    monkeypatch.setattr(snapshot, "parse_obo", parse)
    return parses


def test_changed_code_is_a_miss(obo, tmp_path, snapshot_cache, monkeypatch):
    package = tmp_path / "package"
    shutil.copytree(Path(snapshot.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(snapshot, "_PACKAGE", package)
    parses = counted_parse(monkeypatch)
    snapshot.load_graph(obo)
    snapshot.load_graph(obo)
    assert len(parses) == 1
    with open(package / "ontology.py", "a", encoding="utf-8") as f:
        f.write("# another parser\n")
    snapshot.load_graph(obo)
    assert len(parses) == 2
    monkeypatch.setattr(unicodedata, "unidata_version", "0.0.0")
    snapshot.load_graph(obo)
    assert len(parses) == 3
    monkeypatch.setattr(sys, "version", "0.0.0")
    snapshot.load_graph(obo)
    assert len(parses) == 4
    assert snapshots(snapshot_cache) == ["graph"] * 4


def test_each_load_reads_and_hashes_the_file_once(obo, monkeypatch):
    calls = []
    read, keys = snapshot.read_bytes, snapshot._keys
    monkeypatch.setattr(snapshot, "read_bytes",
                        lambda path: calls.append("read") or read(path))
    monkeypatch.setattr(snapshot, "_keys",
                        lambda *args: calls.append("hash") or keys(*args))
    for loader, *args in [
            (snapshot.load_index, obo, EXTRA),  # index and graph miss
            (snapshot.load_index, obo, []),  # index miss, graph hit
            (snapshot.load_graph, obo),  # graph hit
            (snapshot.load_index, obo, EXTRA)]:  # index hit
        calls.clear()
        loader(*args)
        assert calls == ["read", "hash"]


def test_file_edited_during_a_miss_keeps_its_snapshot_apart(obo, monkeypatch):
    read = snapshot.read_bytes

    def read_then_edit(path):
        data = read(path)
        Path(path).write_text(WARNING_OBO.replace("is_a: W:1", "is_a: W:3"),
                              encoding="utf-8")
        return data

    monkeypatch.setattr(snapshot, "read_bytes", read_then_edit)
    assert snapshot.load_graph(obo)["W:2"] == ("W:1",)
    monkeypatch.setattr(snapshot, "read_bytes", read)
    assert snapshot.load_graph(obo)["W:2"] == ("W:3",)


@pytest.mark.parametrize("damage", [
    lambda data: data[:len(data) // 2],
    lambda data: b"garbage",
    lambda data: b"",
    lambda data: marshal.dumps(("key", [[1], [2, 3]], [])),
], ids=["truncated", "garbage", "empty", "one record"])
@pytest.mark.parametrize("loader", ["load_graph", "load_index"])
def test_damaged_snapshot_is_parsed_and_rewritten(obo, snapshot_cache,
                                                  monkeypatch, damage, loader):
    load_part = getattr(snapshot, loader)
    cold, cold_warnings = load(load_part, obo)
    for path in snapshot_cache.glob("*.marshal"):
        path.write_bytes(damage(path.read_bytes()))
    again, warnings = load(load_part, obo)
    assert warnings == cold_warnings
    no_parse(monkeypatch)
    warm, _ = load(load_part, obo)
    if loader == "load_graph":
        assert items(again) == items(warm) == items(cold)
    else:
        assert again.entries == warm.entries == cold.entries


def stream(records):
    """A snapshot file of these marshal records."""
    return b"".join(len(data).to_bytes(8, "little") + data
                    for data in map(marshal.dumps, records))


def graph_records(key, curies, parents, order):
    """A graph snapshot of this hierarchy, whose concepts are unnamed."""
    return [key, {}, (curies, parents, order), ([""] * len(curies),),
            ([()] * len(curies),), ([False] * len(curies),)]


@pytest.mark.parametrize("part, records", [
    ("graph", lambda key: graph_records(key, ["W:1"], [()], [])),
    ("graph", lambda key: graph_records("0" * 64, ["W:1"], [()], ["W:1"])),
    ("index", lambda key: [key, {}, ([(("w",), ("W:1",))],)]),
    ("graph", lambda key: graph_records(key, ["W:1", "W:2"],
                                        [("W:2",), ("W:1",)], ["W:1", "W:2"])),
    ("graph", lambda key: graph_records(key, ["W:1"], [("W:9",)], ["W:1"])),
    ("graph", lambda key: graph_records(key, ["W:1", "W:2"], [(), ["W:1"]],
                                        ["W:2", "W:1"])),
    ("graph", lambda key: graph_records(key, ["W:1", "W:2"], [(), ("W:1",)],
                                        ["W:1", "W:2"])),
    ("graph", lambda key: graph_records(key, ["W:1", "W:2"], [(), ("W:1",)],
                                        ["W:2", "W:9"])),
    ("graph", lambda key: graph_records(key, ["W:1", "W:1"], [(), ()],
                                        ["W:1", "W:1"])),
    ("index", lambda key: [key, [], ({("w",): ("W:1",)},)]),
], ids=["unequal columns", "another key", "index not a dict", "cycle",
        "unknown parent", "parents not a tuple", "parent after child",
        "order names another CURIE", "repeated CURIE", "warnings not a dict"])
def test_well_formed_snapshot_of_wrong_content_is_parsed(
        obo, snapshot_cache, monkeypatch, part, records):
    load_part = getattr(snapshot, f"load_{part}")
    cold = load_part(obo)
    (path,) = snapshot_cache.glob(f"{part}-*")
    key = path.name.removeprefix(f"{part}-").removesuffix(".marshal")
    path.write_bytes(stream(records(key)))
    again = load_part(obo)
    no_parse(monkeypatch)
    warm = load_part(obo)  # rewritten by the parse
    if part == "graph":
        assert items(again) == items(warm) == items(cold)
    else:
        assert again.entries == warm.entries == cold.entries


@pytest.mark.parametrize("warnings", [
    {"%s: dropping dangling is_a %s -> %s": "abc"},
    {"%s: dropping dangling is_a %s -> %s": ("abc", 1)},
    {"%s: dropping dangling is_a %s -> %s": ()},
], ids=["a string", "not all strings", "no message"])
def test_warnings_record_of_wrong_shape_is_parsed(obo, snapshot_cache,
                                                  monkeypatch, warnings):
    """A hit counts only a record of message tuples; a string would
    count one warning per character."""
    cold, cold_warnings = load(snapshot.load_graph, obo)
    (path,) = snapshot_cache.glob("graph-*")
    key, _, *blocks = snapshot._records(path, 6)
    path.write_bytes(stream([key, warnings, *blocks]))
    parses = counted_parse(monkeypatch)
    again, again_warnings = load(snapshot.load_graph, obo)
    assert len(parses) == 1
    assert again_warnings == cold_warnings
    assert items(again) == items(cold)


def test_a_graph_hit_reads_no_term_record(obo, snapshot_cache, monkeypatch):
    cold = snapshot.load_graph(obo)
    (path,) = snapshot_cache.glob("graph-*")
    records = snapshot._records(path, 6)
    path.write_bytes(stream(records[:3]) + b"\x05" * 64)
    parses = counted_parse(monkeypatch)
    assert hierarchy(snapshot.load_graph(obo)) == hierarchy(cold)
    assert parses == []
    index = snapshot.load_index(obo, EXTRA)
    assert len(parses) == 1
    assert index.entries == build_index(parse_obo(WARNING_OBO), EXTRA).entries
    assert snapshot._records(path, 6) == records


def test_pruning_skips_a_snapshot_that_another_command_deleted(
        tmp_path, snapshot_cache, monkeypatch):
    paths = [tmp_path / f"o{k}.obo" for k in range(4)]
    for k, path in enumerate(paths):
        path.write_text(f"[Term]\nid: X:{k}\n", encoding="utf-8")
    for k, path in enumerate(paths[:3]):
        snapshot.load_graph(str(path))
        for written in snapshot_cache.glob("*.marshal"):
            if written.stat().st_mtime > 1e6:
                os.utime(written, (k, k))
    # the last write must still prune the two left once the oldest is gone
    monkeypatch.setattr(snapshot, "KEEP", 1)
    glob = Path.glob

    def glob_then_delete(self, pattern):
        found = sorted(glob(self, pattern), key=lambda p: p.stat().st_mtime)
        if pattern == "*.marshal":
            found[0].unlink()  # the oldest, by a command pruning meanwhile
        return found

    monkeypatch.setattr(Path, "glob", glob_then_delete)
    snapshot.load_graph(str(paths[3]))
    monkeypatch.setattr(Path, "glob", glob)
    no_parse(monkeypatch)
    assert list(snapshot.load_graph(str(paths[3]))) == ["X:3"]
    assert snapshots(snapshot_cache) == ["graph"]


@pytest.mark.parametrize("text", [
    "[Term]\nid: X:1\nis_a: X:2\n\n[Term]\nid: X:2\nis_a: X:1\n",
    "[Term]\nid: ! none\n",
    '[Term]\nid: X:1\nsynonym: "open\n',
])
def test_parse_error_leaves_no_snapshot(tmp_path, snapshot_cache, text):
    path = tmp_path / "bad.obo"
    path.write_text(text, encoding="utf-8")
    for loader in (snapshot.load_graph, snapshot.load_index):
        with pytest.raises(ParseError):
            loader(str(path))
    assert snapshots(snapshot_cache) == []


def test_missing_file_keeps_its_error(tmp_path):
    with pytest.raises(ConceptKitError) as info:
        snapshot.load_graph(str(tmp_path / "none.obo"))
    assert str(info.value) == f"missing file: {tmp_path / 'none.obo'}"


def test_earlier_warnings_are_counted_first_and_not_stored(
        obo, tmp_path, monkeypatch):
    """A load counts the warnings counted before it ahead of its own,
    also when its parse fails, and its snapshot holds only its own; a
    template keeps the distinct messages of both."""
    bad = tmp_path / "bad.obo"
    bad.write_text("[Term]\nid: X:1\nis_a: X:2\n\n[Term]\nid: X:2\nis_a: X:1\n",
                   encoding="utf-8")
    parse_obo(WARNING_OBO, source=obo)
    (repeated, own_dangling) = take_warnings().items()
    for _ in range(2):  # a miss, then a hit
        warn("earlier %s", "one")
        warn("%s: dropping dangling is_a %s -> %s", "earlier.obo", "X:1", "X:2")
        snapshot.load_graph(obo)
        assert list(take_warnings().items()) == [
            ("earlier %s", ("earlier one",)),
            (own_dangling[0],
             ("earlier.obo: dropping dangling is_a X:1 -> X:2",
              *own_dangling[1])),
            repeated]
    no_parse(monkeypatch)
    _, stored = load(snapshot.load_graph, obo)
    assert list(stored.items()) == [repeated, own_dangling]
    monkeypatch.setattr(snapshot, "parse_obo", parse_obo)
    warn("earlier %s", "one")
    with pytest.raises(ParseError):
        snapshot.load_graph(str(bad))
    assert take_warnings() == {"earlier %s": ("earlier one",)}


def test_only_the_newest_snapshots_are_kept(tmp_path, snapshot_cache,
                                            monkeypatch):
    monkeypatch.setattr(snapshot, "KEEP", 2)
    paths = [tmp_path / f"o{k}.obo" for k in range(3)]
    for k, path in enumerate(paths):
        for old in snapshot_cache.glob("*.marshal"):
            if old.stat().st_mtime > 1e6:  # not dated yet: the last one written
                os.utime(old, (k, k))
        path.write_text(f"[Term]\nid: X:{k}\n", encoding="utf-8")
        snapshot.load_graph(str(path))
    assert len(snapshots(snapshot_cache)) == 2
    no_parse(monkeypatch)
    assert [list(snapshot.load_graph(str(p))) for p in paths[1:]] == [
        ["X:1"], ["X:2"]]
    with pytest.raises(AssertionError, match="parsed on a snapshot hit"):
        snapshot.load_graph(str(paths[0]))


def test_parents_are_the_graph_key_objects_after_a_load(tmp_path, monkeypatch):
    path = tmp_path / "s.obo"
    path.write_text("[Term]\nid: X:2\nis_a: X:1\n\n[Term]\nid: X:1\n\n"
                    "[Term]\nid: X:3\nis_a: X:1 ! one\nis_a: X:2\n",
                    encoding="utf-8")
    snapshot.load_graph(str(path))
    no_parse(monkeypatch)
    graph = snapshot.load_graph(str(path))
    keys = {curie: curie for curie in graph}
    parents = [p for curie in graph for p in graph[curie]]
    assert parents == ["X:1", "X:1", "X:2"]
    assert all(p is keys[p] for p in parents)


def test_equal_tokens_are_one_object_after_a_load(tmp_path, monkeypatch):
    path = tmp_path / "t.obo"
    path.write_text('[Term]\nid: X:1\nname: stem cell\n'
                    'synonym: "ES cell" EXACT []\n\n'
                    '[Term]\nid: X:2\nname: cell line\nsynonym: "cells" EXACT []\n',
                    encoding="utf-8")
    snapshot.load_index(str(path), [("cell wall", "X:3")])
    no_parse(monkeypatch)
    index = snapshot.load_index(str(path), [("cell wall", "X:3")])
    tokens = [t for key in index.entries for t in key]
    assert tokens.count("cell") == 5
    first = {}
    assert all(first.setdefault(t, t) is t for t in tokens)
    values = [index.entries[("stem", "cell")], index.entries[("es", "cell")]]
    assert values == [("X:1",)] * 2 and values[0] is values[1]


def test_commands_print_the_same_cold_warm_and_without_a_cache(
        tmp_path, snapshot_cache, monkeypatch, capsys):
    gold = tmp_path / "gold"
    gold.mkdir()
    (gold / "d.txt").write_text("stem cell and cell line\n", encoding="utf-8")
    (gold / "d.ann").write_text("T1\tW:1 0 9\tstem cell\nT2\tW:2 14 23\tcell line\n",
                                encoding="utf-8")
    (gold / "e.txt").write_text("cells\n", encoding="utf-8")
    (gold / "e.ann").write_text("T1\tW:1 0 5\tcells\n", encoding="utf-8")
    (tmp_path / "o.obo").write_text(WARNING_OBO, encoding="utf-8")
    (tmp_path / "syn.tsv").write_text("cell wall\tW:9\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    onto = ["--ontology", "o.obo"]
    commands = [
        ["roundtrip-eval", "gold", *onto, "--grid"],
        ["dict-tag", "gold", "tagged", *onto, "--synonyms", "syn.tsv"],
        ["harmonise", "tagged", "pred", "--strategy", "ids-only"],
        ["evaluate", "gold", "pred", *onto],
        ["tune", "gold", "tagged", *onto, "--folds", "2"],
    ]

    def flow():
        runs = []
        for argv in commands:
            code = main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        runs.append(sorted((p.name, p.read_text(encoding="utf-8"))
                           for p in (tmp_path / "tagged").iterdir()))
        return runs

    cold = flow()
    assert snapshots(snapshot_cache) == ["graph", "index"]
    warm = flow()
    (tmp_path / "file").write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    uncached = flow()
    assert cold == warm == uncached
    assert [run[0] for run in cold[:-1]] == [0] * len(commands)
    assert cold[1][2] == (
        "conceptkit: warning: o.obo:line 16: repeated id W:2 replaces the "
        "earlier stanza\n"
        "conceptkit: warning: o.obo: dropping dangling is_a W:2 -> W:404\n"
        "conceptkit: warning: skipping term '---' (W:3): normalises to "
        "nothing\n")
