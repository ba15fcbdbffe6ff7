"""Knowledge-based concept recognition over ontology terms.

Terms and synonyms are indexed under a normalised token form; running
text is scanned greedily for the longest, leftmost index match, and all
candidate CURIEs of a match are attached to every covered token as
dictionary features.
"""

from __future__ import annotations

import re
import unicodedata
from collections import namedtuple

from .errors import ParseError, warn
from .formats import split_lines
from .model import ConllRow, TextSpan
from .ontology import OntologyGraph

# A run of letters and digits: one token of a normalised term.
_TOKEN_RE = re.compile(r"[^\W_]+")
# The same rule for ASCII: a letter lower-cased, a digit kept, and any
# other character a space, so the tokens are what str.split() returns.
_ASCII_TOKENS = str.maketrans({chr(c): chr(c).lower() if chr(c).isalnum()
                               else " " for c in range(128)})

# Closed-class surface forms suppressed as single-token matches. The
# list is a configuration knob, not linguistics: highly ambiguous short
# words drown the downstream harmonisation in false candidates.
DEFAULT_STOPWORDS = frozenset("""
    a an the and or but nor not no of in on at to for with by from as
    into onto upon over under about between per via is are was were be
    been being has have had do does did it its this that these those
    which who whom whose we i you he she they them his her their our
    than then so if all any both each very s t
""".split())


def _spell_greek(ch: str) -> str | None:
    try:
        name = unicodedata.name(ch)
    except ValueError:
        return None
    if not name.startswith("GREEK ") or " LETTER " not in name:
        return None
    word = name.split(" LETTER ", 1)[1]
    word = word.removeprefix("FINAL ").split(" WITH ")[0]
    return word.lower() if word.isalpha() else None


def normalize_term(term: str) -> list[str]:
    """Normalise a surface string to its matching token form.

    Compatibility-normalise, lower-case, spell out Greek letters,
    split into runs of letters and digits (so punctuation, underscores
    and whitespace separate tokens), and strip a trailing plural "s"
    from tokens of length >= 4. An ASCII term skips NFKC, which leaves
    it unchanged, and the Greek step: one character table lower-cases it
    and turns every character other than a letter or digit into a space.
    """
    if term.isascii():
        s = term.translate(_ASCII_TOKENS)
        tokens = s.split()
        if "s " not in s and s[-1:] != "s":  # no token ends with "s"
            return tokens
    else:
        s = unicodedata.normalize("NFKC", term).lower()
        if not s.isascii() and max(s) > "\u036f":
            s = "".join(_spell_greek(c) or c for c in s)
        tokens = _TOKEN_RE.findall(s)
    return [t[:-1] if t[-1] == "s" and len(t) >= 4 else t for t in tokens]


class TermIndex(namedtuple("TermIndex", "entries max_len")):
    """Normalised term sequences mapped to their values (an ontology's
    candidate CURIEs, or a lexicon's span pattern and concept), and the
    longest key's length. Its len() and `in` refer to the entries,
    not to its two fields."""

    __slots__ = ()

    def __new__(cls, entries: dict[tuple[str, ...], tuple[str, ...]]):
        return tuple.__new__(cls, (entries, max(map(len, entries), default=0)))

    def __getnewargs__(self) -> tuple[dict]:
        return (self.entries,)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: tuple[str, ...]) -> bool:
        return key in self.entries


def build_index(graph: OntologyGraph,
                extra_synonyms: list[tuple[str, str]] = ()) -> TermIndex:
    """Index names and synonyms of all non-obsolete concepts of a graph
    that holds its terms, such as `parse_obo`'s.

    `extra_synonyms` supplies additional (term, CURIE) pairs. Terms that
    normalise to nothing are skipped with a warning. Equal tokens are
    one string object, and keys with one CURIE share its value tuple.
    """
    concepts = graph.concepts
    if concepts is None:
        raise ValueError("the graph holds no terms to index")
    entries: dict[tuple[str, ...], tuple[str, ...]] = {}
    intern = {}.setdefault

    def add(term: str, ids: tuple[str]):
        tokens = normalize_term(term)
        if not tokens:
            warn("skipping term %r (%s): normalises to nothing", term, ids[0])
            return
        key = tuple(map(intern, tokens, tokens))
        held = entries.setdefault(key, ids)
        if ids[0] not in held:
            entries[key] = tuple(sorted(held + ids))

    for curie in sorted(concepts):
        concept = concepts[curie]
        if concept.obsolete:
            continue
        ids = (curie,)
        if concept.name:
            add(concept.name, ids)
        for synonym in concept.synonyms:
            add(synonym, ids)
    for term, curie in extra_synonyms:
        add(term, (curie,))
    return TermIndex(entries)


def longest_leftmost(tokens: list[tuple[str, TextSpan]], index: TermIndex,
                     stopwords: frozenset[str] = frozenset()):
    """Yield (first, last, value) of greedy longest-leftmost matches of
    the keys of `index`, normalised token sequences, in `tokens`.

    Matches never overlap. A match must start and end on tokens that
    contribute at least one normalised token; single-token matches whose
    surface form is in `stopwords` are skipped.
    """
    entries, max_len = index.entries, index.max_len
    norm = [tuple(normalize_term(tok)) for tok, _ in tokens]
    i = 0
    while i < len(tokens):
        if not norm[i]:
            i += 1
            continue
        match = None
        key = []
        for j in range(i, len(tokens)):
            key.extend(norm[j])
            if len(key) > max_len:
                break
            if not norm[j]:
                continue
            value = entries.get(tuple(key))
            if value is None or (i == j and tokens[i][0].lower() in stopwords):
                continue
            match = (i, j, value)
        if match is None:
            i += 1
            continue
        yield match
        i = match[1] + 1


def tag(tokens: list[tuple[str, TextSpan]], index: TermIndex,
        stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> list[tuple[str, ...]]:
    """Dictionary features per token (greedy longest-leftmost matching).

    Every token of a match carries all candidate CURIEs of its term;
    single-token matches whose surface form is a stopword are suppressed.
    """
    features: list[tuple[str, ...]] = [()] * len(tokens)
    for first, last, ids in longest_leftmost(tokens, index, stopwords):
        features[first:last + 1] = [ids] * (last - first + 1)
    return features


def tag_rows(sentences: list[list[ConllRow]], index: TermIndex,
             stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> list[list[ConllRow]]:
    """Fill the dictionary-feature column of existing CoNLL sentences."""
    tagged = []
    for rows in sentences:
        features = tag([(r.token, r.span) for r in rows], index, stopwords)
        tagged.append([
            ConllRow(r.token, r.span, r.span_tag, r.id_tag, feats)
            for r, feats in zip(rows, features)
        ])
    return tagged


def read_synonyms(text: str, source: str = "") -> list[tuple[str, str]]:
    """Parse an extra-synonyms file: one 'term<TAB>CURIE' pair per line.
    A malformed line raises ParseError naming `source` and the line."""
    pairs = []
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        term, sep, curie = line.partition("\t")
        if not sep or not term.strip() or not curie.strip():
            raise ParseError("expected 'term<TAB>CURIE'", line=lineno, source=source)
        pairs.append((term.strip(), curie.strip()))
    return pairs
