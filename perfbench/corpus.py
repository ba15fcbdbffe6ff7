"""Seeded corpus and ontology generator for the benchmark workloads.

The generator is self-contained on purpose: the workloads must not change
when a test helper changes. Everything is drawn from one
``random.Random(seed)``, so a seed always gives the same files.

Ontology concepts get two-word pseudo-word names (a quarter of them start
with a spelled-out Greek letter) and one three-word synonym. Documents
embed those names in filler text as dictionary-matchable mentions,
rendered as the exact name, capitalised, upper-cased, plural, through the
synonym, or with the Greek letter as a symbol, so that dictionary tagging
and the ``spans-*`` harmonisation strategies have real work to do.

Each line holds a fixed number of slots and mentions, and each document a
fixed share of sub-word, discontinuous, nested and overlapping
annotations, so the amount of work depends on the workload size and not
on the seed.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import re
from dataclasses import dataclass
from pathlib import Path

# The tokenisation the file formats specify: letter/digit runs are one
# token, any other non-space character stands alone.
TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_")

GREEK = {
    "alpha": "α", "beta": "β", "gamma": "γ", "delta": "δ", "epsilon": "ε",
    "kappa": "κ", "sigma": "σ", "theta": "θ", "omega": "ω",
}
SYNONYM_SUFFIXES = ("protein", "complex", "factor", "subunit")
FILLER = (
    "the cells were treated with and without after binding of in a "
    "manner that depends on expression levels increased during early "
    "development we observed strong signal from tissue samples under "
    "both conditions which suggests role for this activity at sites"
).split()
_ONSETS = "b c d f g k l m n p r t v z br dr gl kr pl st tr".split()
_VOWELS = "a e i o u ai eo".split()
_CODAS = "ase in ol ene ide ate on ar ix um".split()

#: Share of a document's mentions that get each kind of mutation.
SUBWORD_SHARE = 0.15
DISCONTINUOUS_SHARE = 0.10
NESTED_SHARE = 0.20
OVERLAP_SHARE = 0.05


@dataclass(frozen=True)
class Concept:
    curie: str
    parent: str | None
    name: tuple[str, ...]
    synonym: tuple[str, ...]


@dataclass(frozen=True)
class Mention:
    """A dictionary-matchable mention of `curie` at [start, end)."""

    curie: str
    start: int
    end: int


@dataclass
class GeneratedDoc:
    doc_id: str
    text: str
    annotations: list  # (curie, [(start, end), ...])
    mentions: list[Mention]


def _pseudo_words(rng: random.Random, n: int) -> list[str]:
    reserved = set(FILLER) | set(SYNONYM_SUFFIXES) | set(GREEK)
    words: set[str] = set()
    while len(words) < n:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(1, 2))) + rng.choice(_CODAS)
        if len(word) >= 4 and word not in reserved:
            words.add(word)
    return sorted(words)


def make_ontology(rng: random.Random, branching: int, depth: int,
                  prefix: str = "BT") -> list[Concept]:
    """A complete is_a tree; concept i's parent is concept (i - 1) // b."""
    total = sum(branching ** level for level in range(depth + 1))
    pool = _pseudo_words(rng, 320)
    greek = sorted(GREEK)
    names: set[tuple[str, str]] = set()
    while len(names) < total:
        head = rng.choice(greek) if rng.random() < 0.25 else rng.choice(pool)
        names.add((head, rng.choice(pool)))
    ordered = sorted(names)
    rng.shuffle(ordered)
    concepts = []
    for i, name in enumerate(ordered):
        parent = f"{prefix}:{(i - 1) // branching:06d}" if i else None
        concepts.append(Concept(f"{prefix}:{i:06d}", parent, name,
                                name + (rng.choice(SYNONYM_SUFFIXES),)))
    return concepts


def write_obo(concepts: list[Concept]) -> str:
    stanzas = ["format-version: 1.2\n"]
    for c in concepts:
        lines = ["[Term]", f"id: {c.curie}", f"name: {' '.join(c.name)}",
                 f'synonym: "{" ".join(c.synonym)}" EXACT []']
        if c.parent:
            lines.append(f"is_a: {c.parent}")
        stanzas.append("\n".join(lines) + "\n")
    return "\n".join(stanzas)


def _surface(rng: random.Random, concept: Concept) -> str:
    """One surface form of the concept that a dictionary tagger must find."""
    words = list(concept.name)
    roll = rng.random()
    if roll < 0.2:
        words = list(concept.synonym)
    elif roll < 0.35:
        words[-1] += "s"
    elif roll < 0.5:
        words[0] = words[0].capitalize()
    elif roll < 0.6:
        words = [w.upper() for w in words]
    if words[0].lower() in GREEK and rng.random() < 0.5:
        return GREEK[words[0].lower()] + "-" + " ".join(words[1:])
    return " ".join(words)


def make_document(rng: random.Random, doc_id: str, concepts: list[Concept],
                  n_lines: int, slots: int, mentions_per_line: int,
                  messy: bool = True) -> GeneratedDoc:
    """A document of `n_lines` lines with a fixed mention count per line.

    Mentions never touch each other or the line end, so every mention is
    followed by a filler word. With `messy` off, all annotations are
    contiguous, token-aligned and disjoint.
    """
    by_curie = {c.curie: c for c in concepts}
    lines = []
    mentions: list[Mention] = []
    offset = 0
    for _ in range(n_lines):
        # non-adjacent mention slots among 0..slots-2
        picks = sorted(rng.sample(range(slots - mentions_per_line),
                                  mentions_per_line))
        at = {p + i for i, p in enumerate(picks)}
        parts = []
        pos = offset
        for slot in range(slots):
            if parts:
                pos += 1
            if slot in at:
                concept = rng.choice(concepts)
                piece = _surface(rng, concept)
                mentions.append(Mention(concept.curie, pos, pos + len(piece)))
            else:
                piece = rng.choice(FILLER)
            parts.append(piece)
            pos += len(piece)
        line = " ".join(parts) + " ."
        lines.append(line)
        offset += len(line) + 1
    text = "\n".join(lines) + "\n"
    annotations = [(m.curie, [(m.start, m.end)]) for m in mentions]
    if messy:
        annotations += _mutate(rng, text, mentions, annotations, by_curie,
                               concepts)
    return GeneratedDoc(doc_id, text, annotations, mentions)


def _mutate(rng, text, mentions, annotations, by_curie, concepts):
    """Turn shares of the simple annotations into hard cases in place.

    Returns the added (nested and overlapping) annotations.
    """
    n = len(mentions)
    counts = [round(share * n) for share in
              (SUBWORD_SHARE, DISCONTINUOUS_SHARE, NESTED_SHARE, OVERLAP_SHARE)]
    chosen = rng.sample(range(n), sum(counts))
    sub = chosen[:counts[0]]
    disc = chosen[counts[0]:counts[0] + counts[1]]
    rest = chosen[counts[0] + counts[1]:]
    for i in sub:
        m = mentions[i]
        span = (m.start + 1, m.end) if rng.random() < 0.5 else (m.start, m.end - 1)
        annotations[i] = (m.curie, [span])
    for i in disc:
        # add the following filler word as a detached second fragment
        m = mentions[i]
        far_start = m.end + 1
        far_end = far_start
        while not text[far_end].isspace():
            far_end += 1
        annotations[i] = (m.curie, [(m.start, m.end), (far_start, far_end)])
    added = []
    for k, i in enumerate(rest):
        m = mentions[i]
        if k < counts[2]:
            # nested: the head word alone, annotated with the parent class
            surface = text[m.start:m.end]
            head_start = m.start + max(surface.rfind(" "), surface.rfind("-")) + 1
            parent = by_curie[m.curie].parent or m.curie
            added.append((parent, [(head_start, m.end)]))
        else:
            # overlapping: grown three characters into the next word
            other = rng.choice(concepts).curie
            added.append((other, [(m.start, m.end + 3)]))
    return added


def write_standoff(doc: GeneratedDoc) -> str:
    lines = []
    for i, (curie, spans) in enumerate(doc.annotations, start=1):
        fragments = ";".join(f"{s} {e}" for s, e in spans)
        covered = " ... ".join(doc.text[s:e] for s, e in spans)
        lines.append(f"T{i}\t{curie} {fragments}\t{covered}\n")
    return "".join(lines)


def overlapping_pairs(groups: list[list[tuple[int, int]]],
                      sides: list[int] | None = None) -> int:
    """Count pairs of span groups sharing at least one character.

    `groups` holds each annotation's fragments. With `sides`, only pairs
    whose two members are on different sides count (predictions against
    references). Interval sweep: O(n log n + pairs).
    """
    intervals = sorted((s, e, g) for g, spans in enumerate(groups)
                       for s, e in spans)
    active: list[tuple[int, int]] = []  # heap of (end, group)
    pairs = set()
    for start, end, g in intervals:
        while active and active[0][0] <= start:
            heapq.heappop(active)
        for _, other in active:
            if other != g and (sides is None or sides[other] != sides[g]):
                pairs.add((min(g, other), max(g, other)))
        heapq.heappush(active, (end, g))
    return len(pairs)


def _token_bounds(text: str) -> tuple[set[int], set[int]]:
    starts, ends = set(), set()
    for m in TOKEN_RE.finditer(text):
        starts.add(m.start())
        ends.add(m.end())
    return starts, ends


def shape(docs: list[GeneratedDoc], concepts: list[Concept],
          files: dict[str, str]) -> dict:
    """Input digest and the properties the layers' work depends on."""
    tokens = annotations = discontinuous = overlapping = subword = 0
    mention_tokens = 0
    for doc in docs:
        tokens += len(TOKEN_RE.findall(doc.text))
        annotations += len(doc.annotations)
        discontinuous += sum(len(spans) > 1 for _, spans in doc.annotations)
        overlapping += overlapping_pairs([spans for _, spans in doc.annotations])
        starts, ends = _token_bounds(doc.text)
        subword += sum(any(s not in starts or e not in ends for s, e in spans)
                       for _, spans in doc.annotations)
        mention_tokens += sum(len(TOKEN_RE.findall(doc.text[m.start:m.end]))
                              for m in doc.mentions)
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return {
        "digest": digest.hexdigest(),
        "concepts": len(concepts),
        "docs": len(docs),
        "tokens": tokens,
        "annotations": annotations,
        "discontinuous": discontinuous,
        "overlapping_pairs": overlapping,
        "subword": subword,
        "mentions": sum(len(d.mentions) for d in docs),
        "dictionary_hit_ratio": mention_tokens / tokens,
    }


@dataclass(frozen=True)
class CorpusSpec:
    branching: int
    depth: int
    docs: int
    lines: int
    slots: int
    mentions_per_line: int


def generate(spec: CorpusSpec, seed: int, out: Path) -> tuple[dict, list[GeneratedDoc]]:
    """Write ``onto.obo``, ``gold/`` and the simple ``control/`` corpus.

    Returns the gold corpus shape and its generated documents.
    """
    rng = random.Random(seed)
    concepts = make_ontology(rng, spec.branching, spec.depth)
    files = {"onto.obo": write_obo(concepts)}
    docs = [make_document(rng, f"doc{i:04d}", concepts, spec.lines,
                          spec.slots, spec.mentions_per_line)
            for i in range(spec.docs)]
    for doc in docs:
        files[f"gold/{doc.doc_id}.txt"] = doc.text
        files[f"gold/{doc.doc_id}.ann"] = write_standoff(doc)
    for i in range(20):
        doc = make_document(rng, f"ctl{i:02d}", concepts, 3, 8, 2, messy=False)
        files[f"control/{doc.doc_id}.txt"] = doc.text
        files[f"control/{doc.doc_id}.ann"] = write_standoff(doc)
    for name, body in files.items():
        path = out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
    return shape(docs, concepts, files), docs
