import pytest
from hypothesis import settings

from conceptkit import parse_obo, take_warnings

from helpers import CHAIN_OBO, tree_graph

# CI runs `pytest --hypothesis-profile=ci`: ten times the default
# examples, which rare generated cases (escapes next to comments, line
# ends inside values) need to show up reliably.
settings.register_profile("ci", max_examples=1000)


@pytest.fixture(autouse=True)
def no_earlier_warnings():
    """Each test counts only its own warnings."""
    take_warnings()


@pytest.fixture(autouse=True)
def snapshot_cache(tmp_path_factory, monkeypatch):
    """Each test's own ontology snapshot directory, so that no test
    reads or writes the user's ~/.cache."""
    cache = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache / "conceptkit"


@pytest.fixture(scope="session")
def chain_graph():
    """Three-node is_a chain: TEST:C -> TEST:B -> TEST:A."""
    return parse_obo(CHAIN_OBO)


@pytest.fixture(scope="session")
def small_tree():
    """Complete 4-ary tree of depth 2, 21 concepts, prefix TR."""
    return tree_graph()
