"""Ontology access: OBO parsing, is-a traversal, semantic similarity.

Only is_a edges contribute to the hierarchy. Similarity between two
concepts follows the shared-ancestor measure of Wang et al.: each
concept assigns its ancestors an S-value that decays multiplicatively
per edge (taking the best path), and similarity is the S-value mass of
the shared ancestors over the total mass of both concepts.
"""

from __future__ import annotations

import re
from collections import deque, namedtuple
from itertools import chain

from .errors import ParseError, warn
from .formats import split_lines

#: Default per-edge decay for is_a links in the similarity computation.
DEFAULT_DECAY = 0.8

# The OBO 1.4 escapes; a backslash before any other character is kept.
_ESCAPE_RE = re.compile(r'\\([nWt:,"\\()\[\]{}!])')
_ESCAPED = {"n": "\n", "W": " ", "t": "\t"}


def _find_unescaped(value: str, stop: str, start: int = 0) -> int:
    """The index of the first `stop` at or after `start` that no
    backslash escapes, or len(value). A backslash escapes the next
    character, so an odd run of backslashes escapes the `stop` after it."""
    i = value.find(stop, start)
    while i != -1:
        run = i
        while run > start and value[run - 1] == "\\":
            run -= 1
        if (i - run) % 2 == 0:
            return i
        i = value.find(stop, i + 1)
    return len(value)


def _unescape(value: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPED.get(m[1], m[1]), value)


#: The terms of a concept; its is_a parents are in the OntologyGraph.
Concept = namedtuple("Concept", "name synonyms obsolete", defaults=((), False))


class OntologyGraph:
    """Immutable acyclic is_a hierarchy: a mapping from each CURIE to the
    tuple of its parents' CURIEs. `concepts` maps the same CURIEs to their
    Concepts on a graph from `parse_obo`, else is None."""

    def __init__(self, parents: dict[str, tuple[str, ...]],
                 concepts: dict[str, Concept] | None = None,
                 order: list[str] | None = None):
        """Check `parents` with Kahn's algorithm or, given `order`, in one
        pass: `order` must name each CURIE once and before its parents.
        Keep the arguments, not copies: do not modify them. Raise ValueError
        on an unknown parent, on any other `order` or on `concepts` naming
        other CURIEs, ParseError on a cycle that Kahn's algorithm finds."""
        if order is None:
            order = _topological_order(parents)
        else:
            done = set()
            try:
                for curie in reversed(order):
                    if not done.issuperset(parents[curie]):
                        raise ValueError(f"order: {curie} is not before its parents")
                    done.add(curie)
            except KeyError:
                raise ValueError(f"order: {curie} is unknown") from None
            if not len(done) == len(order) == len(parents):
                raise ValueError("order does not name each CURIE once")
        if concepts is not None and concepts.keys() != parents.keys():
            raise ValueError("concepts and parents name other CURIEs")
        self._parents, self.concepts, self._order = parents, concepts, order
        self._depth_cache = {}

    def __contains__(self, curie: str) -> bool:
        return curie in self._parents

    def __getitem__(self, curie: str) -> tuple[str, ...]:
        return self._parents[curie]

    def __iter__(self):
        return iter(self._parents)

    def __len__(self) -> int:
        return len(self._parents)

    def upward_depths(self, curie: str) -> dict[str, int]:
        """Shortest is_a distance from `curie` to each of its ancestors.

        `curie` itself is at distance 0. The mapping is cached and shared
        between calls, so callers must not modify it. Raises KeyError for
        unknown CURIEs.
        """
        cached = self._depth_cache.get(curie)
        if cached is not None:
            return cached
        depths = {curie: 0}
        queue = deque([curie])
        while queue:
            cur = queue.popleft()
            for parent in self._parents[cur]:
                if parent not in depths:
                    depths[parent] = depths[cur] + 1
                    queue.append(parent)
        self._depth_cache[curie] = depths
        return depths

    def ancestors(self, curie: str) -> frozenset[str]:
        """Reflexive-transitive closure over is_a edges.

        Raises KeyError for unknown CURIEs.
        """
        return frozenset(self.upward_depths(curie))


def _topological_order(parents: dict[str, tuple[str, ...]]) -> list[str]:
    """The CURIEs of the hierarchy `parents`, each before its parents
    (Kahn's algorithm). Raise ValueError on an unknown parent, ParseError
    on a cycle."""
    indegree = dict.fromkeys(parents, 0)
    for curie, curie_parents in parents.items():
        for parent in curie_parents:
            if parent not in indegree:
                raise ValueError(f"{curie}: unknown parent {parent}")
            indegree[parent] += 1
    order = [c for c, d in indegree.items() if d == 0]
    for cur in order:  # grows while it is read
        for parent in parents[cur]:
            indegree[parent] -= 1
            if indegree[parent] == 0:
                order.append(parent)
    if len(order) != len(parents):
        cyclic = sorted(c for c, d in indegree.items() if d > 0)
        raise ParseError(f"is_a cycle involving {', '.join(cyclic[:5])}")
    return order


def parse_obo(text: str, source: str = "") -> OntologyGraph:
    """Parse OBO flat-format [Term] stanzas into an ontology graph that
    holds their concepts.

    Recognised keys: id, name, synonym, is_a, is_obsolete; everything
    else is ignored. Obsolete terms are loaded but flagged. Dangling
    is_a targets are dropped with a warning; cycles and an empty id are
    errors. A repeated id replaces the earlier stanza's concept, with a
    warning. Lines end as `formats.split_lines` ends them, which also
    drops a leading byte order mark. A comment starts at the first "!"
    that no backslash escapes; names and synonyms decode the OBO 1.4
    escapes. Text without a backslash holds no escape: a synonym without
    one finds its closing quote with plain string search, and only text
    with one is decoded. Each CURIE is one string object, shared by its
    keys and every is_a edge that names it.
    """
    hierarchy: dict[str, tuple[str, ...]] = {}
    concepts: dict[str, Concept] = {}
    interned: dict[str, str] = {}
    intern = interned.setdefault
    in_term = False
    curie = None
    stanza_line = 0
    try:
        # the sentinel header closes the last stanza
        for lineno, raw in enumerate(chain(split_lines(text), ("[",)), start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "[":
                if curie is not None:
                    if curie in concepts:
                        warn("%s:line %d: repeated id %s replaces the "
                             "earlier stanza", source or "obo",
                             stanza_line, curie)
                    hierarchy[curie] = (tuple(dict.fromkeys(parents))
                                        if len(parents) > 1 else tuple(parents))
                    concepts[curie] = tuple.__new__(
                        Concept, (name, tuple(synonyms), obsolete))
                in_term = line == "[Term]"
                curie, name, synonyms, parents, obsolete = None, "", [], [], False
                stanza_line = lineno
                continue
            if not in_term:
                continue
            # a comment line's key starts with "!", so it names no key below
            key, _, raw_value = line.partition(":")
            if key == "is_a":
                # the target is the first word: only a "!" in it cuts it
                words = raw_value.split(None, 1)
                target = words[0] if words else ""
                if "!" in target:
                    target = target[:_find_unescaped(target, "!")]
                if not target:
                    raise ValueError("empty is_a target")
                parents.append(intern(target, target))
            elif key == "synonym":
                # find the quotes before cutting a comment: they may hold "!"
                opening = raw_value.find('"') + 1
                closing = (_find_unescaped(raw_value, '"', opening)
                           if "\\" in raw_value else raw_value.find('"', opening))
                if not 0 <= closing < len(raw_value):
                    raise ValueError(f"unparseable synonym {raw_value.strip()!r}")
                synonym = raw_value[opening:closing]
                synonyms.append(_unescape(synonym) if "\\" in synonym else synonym)
            elif key in ("id", "name", "is_obsolete"):
                if "!" in raw_value:  # most values hold none: skip the scan
                    raw_value = raw_value[:_find_unescaped(raw_value, "!")]
                value = raw_value.strip()
                if key == "id":
                    if not value:
                        raise ValueError("empty id")
                    curie = intern(value, value)
                elif key == "name":
                    name = _unescape(value) if "\\" in value else value
                else:
                    obsolete = value.lower() == "true"
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno, source=source) from None

    # Every key of `hierarchy` is interned, and so is every is_a target:
    # unless some interned CURIE names no stanza, no target dangles.
    if len(interned) > len(hierarchy):
        for curie, curie_parents in hierarchy.items():
            dropped = [p for p in curie_parents if p not in hierarchy]
            if dropped:
                warn("%s: dropping dangling is_a %s -> %s",
                     source or "obo", curie, ", ".join(dropped))
                hierarchy[curie] = tuple(p for p in curie_parents
                                         if p in hierarchy)
    try:
        return OntologyGraph(hierarchy, concepts)
    except ParseError as exc:
        raise ParseError(str(exc), source=source) from None


def wang_similarity(graph: OntologyGraph, a: str, b: str,
                    decay: float = DEFAULT_DECAY) -> float:
    """Shared-ancestor similarity in [0, 1] between two concepts.

    The S-value of an ancestor t for concept c is decay**d where d is
    the shortest is_a distance from c up to t (the best-path form of the
    recursive definition S_c(c)=1, S_c(t)=max over paths of
    decay*S_c(child)). Identical concepts score exactly 1.0.
    """
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must be in (0, 1), got {decay}")
    if a not in graph:
        raise KeyError(a)
    if a == b:
        return 1.0
    s_a = {t: decay ** d for t, d in graph.upward_depths(a).items()}
    s_b = {t: decay ** d for t, d in graph.upward_depths(b).items()}
    shared = sorted(set(s_a) & set(s_b))
    if not shared:
        return 0.0
    numerator = sum(s_a[t] + s_b[t] for t in shared)
    denominator = sum(s_a.values()) + sum(s_b.values())
    return numerator / denominator
