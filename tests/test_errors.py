"""The warning counter: each distinct message counts once."""

from conceptkit.errors import add_warnings, take_warnings, warn


def test_a_repeated_message_counts_once():
    take_warnings()
    warn("concept %s missing", "X:1")
    warn("concept %s missing", "X:2")
    warn("concept %s missing", "X:1")
    warn("file %s empty", "a")
    assert take_warnings() == {
        "concept %s missing": ("concept X:1 missing", "concept X:2 missing"),
        "file %s empty": ("file a empty",)}
    assert take_warnings() == {}


def test_adding_a_result_twice_adds_it_once():
    take_warnings()
    warn("concept %s missing", "X:1")
    warn("file %s empty", "a")
    taken = take_warnings()
    warn("concept %s missing", "X:2")
    add_warnings(taken)
    add_warnings(taken)
    assert take_warnings() == {
        "concept %s missing": ("concept X:2 missing", "concept X:1 missing"),
        "file %s empty": ("file a empty",)}
    add_warnings(taken)
    once = take_warnings()
    add_warnings(taken)
    add_warnings(taken)
    assert take_warnings() == once == taken
