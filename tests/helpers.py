"""Shared test fixtures: synthetic ontologies, corpus generators, oracles."""

from __future__ import annotations

import random
import re
import unicodedata
from dataclasses import dataclass, field

from conceptkit import (NIL, Annotation, ConllRow, Document, OntologyGraph,
                        ParseError, SpanTag, TermIndex, TextSpan, parse_obo,
                        tokenize)
from conceptkit.codec import iter_blocks
from conceptkit.dicttag import _spell_greek
from conceptkit.errors import warn
from conceptkit.evaluate import EvalCounts, pair_similarity
from conceptkit.harmonise import _route
from conceptkit.ontology import Concept
from conceptkit.simplify import UnnestStrategy, _beats

# Three-node chain: C is_a B is_a A.
CHAIN_OBO = """\
format-version: 1.2

[Term]
id: TEST:A
name: root thing

[Term]
id: TEST:B
name: middle thing
is_a: TEST:A

[Term]
id: TEST:C
name: leaf thing
is_a: TEST:B
"""


def chain_obo(n: int, prefix: str = "CH") -> str:
    """Linear chain of n terms; CH:0000 is the root."""
    stanzas = ["format-version: 1.2\n"]
    for i in range(n):
        lines = [f"[Term]", f"id: {prefix}:{i:04d}", f"name: {prefix} level {i}"]
        if i:
            lines.append(f"is_a: {prefix}:{i - 1:04d}")
        stanzas.append("\n".join(lines) + "\n")
    return "\n".join(stanzas)


def tree_obo(branching: int = 4, depth: int = 2, prefix: str = "TR") -> str:
    """Complete tree ontology with generated names and synonyms."""
    stanzas = ["format-version: 1.2\n"]
    counter = 0

    def add(parent: str | None, level: int):
        nonlocal counter
        curie = f"{prefix}:{counter:04d}"
        counter += 1
        lines = [f"[Term]", f"id: {curie}", f"name: node{counter - 1} term"]
        lines.append(f'synonym: "syn{counter - 1} form" EXACT []')
        if parent:
            lines.append(f"is_a: {parent}")
        stanzas.append("\n".join(lines) + "\n")
        if level < depth:
            for _ in range(branching):
                add(curie, level + 1)

    add(None, 0)
    return "\n".join(stanzas)


def tree_graph(branching: int = 4, depth: int = 2, prefix: str = "TR"):
    return parse_obo(tree_obo(branching, depth, prefix))


WORDS = (
    "cell protein kinase membrane nucleus receptor gene acid enzyme tissue "
    "binding factor complex pathway domain residue strand vesicle antigen "
    "ligand channel motif marker signal matrix organ embryo larva tubulin"
).split()


def random_simple_document(rng: random.Random, doc_id: str, concepts,
                           n_lines: int = 3,
                           annotate_prob: float = 0.35) -> Document:
    """Document whose annotations are contiguous, token-aligned, disjoint,
    and confined to single lines."""
    lines = [
        " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 9)))
        for _ in range(n_lines)
    ]
    text = "\n".join(lines)
    annotations = []
    offset = 0
    for line in lines:
        tokens = tokenize(line)
        i = 0
        while i < len(tokens):
            if rng.random() < annotate_prob:
                width = min(rng.randint(1, 3), len(tokens) - i)
                start = tokens[i][1].start + offset
                end = tokens[i + width - 1][1].end + offset
                annotations.append(
                    Annotation(rng.choice(concepts), (TextSpan(start, end),)))
                i += width
            else:
                i += 1
        offset += len(line) + 1
    return Document(doc_id, text, tuple(annotations))


def random_messy_document(rng: random.Random, doc_id: str, concepts,
                          n_lines: int = 3) -> Document:
    """Document that may contain discontinuous, overlapping, and
    sub-word annotations."""
    base = random_simple_document(rng, doc_id, concepts, n_lines,
                                  annotate_prob=0.45)
    annotations = list(base.annotations)
    mutated = []
    for ann in annotations:
        span = ann.spans[0]
        roll = rng.random()
        if roll < 0.2 and len(span) > 4:
            # sub-word: shave a character off either end
            span = (TextSpan(span.start + 1, span.end) if rng.random() < 0.5
                    else TextSpan(span.start, span.end - 1))
            mutated.append(Annotation(ann.concept_id, (span,)))
        elif roll < 0.35 and span.end + 4 < len(base.text):
            # discontinuous: add a detached fragment to the right
            far = TextSpan(span.end + 2, min(span.end + 4, len(base.text)))
            if far.start < far.end and "\n" not in base.text[span.start:far.end]:
                mutated.append(Annotation(ann.concept_id, (span, far)))
            else:
                mutated.append(ann)
        else:
            mutated.append(ann)
    if len(annotations) >= 2 and rng.random() < 0.6:
        # overlap: duplicate an annotation with a grown span
        victim = rng.choice(mutated)
        span = TextSpan(victim.spans[0].start,
                        min(victim.spans[-1].end + 3, len(base.text)))
        if span.start < span.end:
            other = rng.choice([c for c in concepts if c != victim.concept_id])
            mutated.append(Annotation(other, (span,)))
    return Document(doc_id, base.text, tuple(mutated))


def brute_jaccard(a, b) -> float:
    """Character-set Jaccard computed the obvious way."""
    chars_a = {c for span in a for c in range(span.start, span.end)}
    chars_b = {c for span in b for c in range(span.start, span.end)}
    union = chars_a | chars_b
    return len(chars_a & chars_b) / len(union) if union else 0.0


def _share_a_character(a_spans, b_spans) -> bool:
    return brute_jaccard(a_spans, b_spans) > 0


def reference_extend_subword(doc: Document, tokens) -> Document:
    """Sub-word extension by a scan over every token for every fragment.

    Reference for `simplify.extend_subword`, which bisects and takes
    single-span annotations only. Fragments that grow together merge.
    """
    result = []
    for ann in doc.annotations:
        fragments: list[TextSpan] = []
        for span in ann.spans:
            covering = [t for _, t in tokens if _share_a_character((t,), (span,))]
            if not covering:
                continue
            snapped = TextSpan(covering[0].start, covering[-1].end)
            if fragments and snapped.start <= fragments[-1].end:
                fragments[-1] = TextSpan(
                    fragments[-1].start, max(fragments[-1].end, snapped.end))
            else:
                fragments.append(snapped)
        if fragments:
            result.append(Annotation(ann.concept_id, tuple(fragments)))
    return Document(doc.doc_id, doc.text, tuple(result))


def reference_unnest(doc: Document, strategy) -> Document:
    """Unnesting that contests each annotation against every survivor.

    Reference for `simplify.unnest`, which compares with the last
    survivor only.
    """
    strategy = UnnestStrategy(strategy)
    order = sorted(range(len(doc.annotations)),
                   key=lambda i: (doc.annotations[i].start,
                                  -doc.annotations[i].length,
                                  doc.annotations[i].concept_id))
    kept: list[int] = []
    for i in order:
        ann = doc.annotations[i]
        rivals = [j for j in kept
                  if _share_a_character(doc.annotations[j].spans, ann.spans)]
        if all(_beats(ann, doc.annotations[j], strategy) for j in rivals):
            kept = [j for j in kept if j not in rivals] + [i]
    survivors = set(kept)
    remaining = tuple(a for i, a in enumerate(doc.annotations) if i in survivors)
    return Document(doc.doc_id, doc.text, remaining)


def all_pairs_counts(preds, refs, graph, decay=0.8) -> EvalCounts:
    """The greedy scorer computed over every prediction/reference pair.

    Reference for `score_document`, which scores only the pairs whose
    extents overlap; the two must agree exactly.
    """
    pairs = []
    for ri, ref in enumerate(refs):
        for pi, pred in enumerate(preds):
            m = pair_similarity(pred, ref, graph, decay)
            if m > 0.0:
                pairs.append((m, ri, pi))
    pairs.sort(key=lambda t: (-t[0], refs[t[1]].start, preds[t[2]].start,
                              t[1], t[2]))
    ref_used = [False] * len(refs)
    pred_used = [False] * len(preds)
    matches = 0.0
    paired = 0
    for m, ri, pi in pairs:
        if ref_used[ri] or pred_used[pi]:
            continue
        ref_used[ri] = True
        pred_used[pi] = True
        matches += m
        paired += 1
    return EvalCounts(
        matches=matches,
        substitutions=paired - matches,
        insertions=len(preds) - paired,
        deletions=len(refs) - paired,
    )


def optimal_counts(preds, refs, graph, decay=0.8) -> EvalCounts:
    """Exhaustive best pairing: maximise total similarity, then pair count.

    Exponential; intended for documents with few annotations per side.
    """
    sims = [[pair_similarity(p, r, graph, decay) for p in preds] for r in refs]

    cache: dict[tuple[int, frozenset], tuple[float, int]] = {}

    def best(ri: int, used: frozenset) -> tuple[float, int]:
        if ri == len(refs):
            return 0.0, 0
        key = (ri, used)
        if key in cache:
            return cache[key]
        score = best(ri + 1, used)
        for pi in range(len(preds)):
            if pi in used or sims[ri][pi] <= 0.0:
                continue
            sub_m, sub_pairs = best(ri + 1, used | {pi})
            cand = (sub_m + sims[ri][pi], sub_pairs + 1)
            if cand > score:
                score = cand
        cache[key] = score
        return score

    matches, paired = best(0, frozenset())
    return EvalCounts(
        matches=matches,
        substitutions=paired - matches,
        insertions=len(preds) - paired,
        deletions=len(refs) - paired,
    )


def per_line_sentences(text: str) -> list[list[tuple[str, TextSpan]]]:
    """Tokens grouped by text line, each line tokenised on its own;
    a line ends at a LF, a CR LF or a CR.

    Reference for `formats.tokenize_sentences`, which tokenises the
    whole text once; the two must agree exactly.
    """
    sentences = []
    offset = 0
    parts = re.split(r"(\r\n?|\n)", text)
    for line, end in zip(parts[::2], [*parts[1::2], ""]):
        tokens = [
            (tok, TextSpan(span.start + offset, span.end + offset))
            for tok, span in tokenize(line)
        ]
        if tokens:
            sentences.append(tokens)
        offset += len(line) + len(end)
    return sentences


#: A synonym's quoted text, matched one character or escape at a time.
#: Reference for the quote scan of `ontology.parse_obo`, which must find
#: the same span and text.
REFERENCE_SYNONYM_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')

#: What each OBO 1.4 escape stands for after its backslash.
REFERENCE_OBO_ESCAPES = {"n": "\n", "W": " ", "t": "\t",
                         **{c: c for c in ':,"\\()[]{}!'}}


def reference_before_comment(value: str) -> str:
    """`value` up to its first "!" that no backslash escapes, scanned one
    character at a time."""
    i = 0
    while i < len(value):
        if value[i] == "\\":
            i += 2
        elif value[i] == "!":
            return value[:i]
        else:
            i += 1
    return value


def reference_unescape(value: str) -> str:
    """Decode the OBO 1.4 escapes one character at a time; a backslash
    before any other character, or at the end, is kept."""
    out = []
    chars = iter(value)
    for c in chars:
        if c == "\\":
            nxt = next(chars, "")
            out.append(REFERENCE_OBO_ESCAPES.get(nxt, c + nxt))
        else:
            out.append(c)
    return "".join(out)


def reference_parse_obo(text: str, source: str = "") -> OntologyGraph:
    """Whole-text, dict-per-stanza OBO parser.

    Reference for `ontology.parse_obo`, which reads lines a block at a
    time, builds each concept when its stanza closes and interns CURIEs.
    `parse_obo` differs from it only in ignoring a leading byte order
    mark, in warning about a repeated id, and in naming the file in the
    cycle error.
    """
    parents: dict[str, tuple[str, ...]] = {}
    concepts: dict[str, Concept] = {}
    stanza: dict | None = None

    def flush():
        if stanza is None or "id" not in stanza:
            return
        curie = stanza["id"]
        parents[curie] = tuple(dict.fromkeys(stanza.get("parents", ())))
        concepts[curie] = Concept(
            name=stanza.get("name", ""),
            synonyms=tuple(stanza.get("synonyms", ())),
            obsolete=stanza.get("obsolete", False),
        )

    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.strip()
        if line.startswith("["):
            flush()
            stanza = {"synonyms": [], "parents": []} if line == "[Term]" else None
            continue
        if stanza is None or not line or line.startswith("!"):
            continue
        key, _, raw_value = line.partition(":")
        value = reference_before_comment(raw_value).strip()
        if key == "id":
            if not value:
                raise ParseError("empty id", line=lineno, source=source)
            stanza["id"] = value
        elif key == "name":
            stanza["name"] = reference_unescape(value)
        elif key == "synonym":
            match = REFERENCE_SYNONYM_RE.search(raw_value)
            if not match:
                raise ParseError(f"unparseable synonym {raw_value.strip()!r}",
                                 line=lineno, source=source)
            stanza["synonyms"].append(reference_unescape(match.group(1)))
        elif key == "is_a":
            target = value.split()[0] if value else ""
            if not target:
                raise ParseError("empty is_a target", line=lineno, source=source)
            stanza["parents"].append(target)
        elif key == "is_obsolete":
            stanza["obsolete"] = value.lower() == "true"
    flush()

    for curie, named in list(parents.items()):
        valid = tuple(p for p in named if p in parents)
        if valid != named:
            dropped = [p for p in named if p not in parents]
            warn("%s: dropping dangling is_a %s -> %s",
                 source or "obo", curie, ", ".join(dropped))
            parents[curie] = valid
    return OntologyGraph(parents, concepts)


#: The characters `write_obo` escapes, with their OBO 1.4 escapes.
_OBO_ESCAPE = str.maketrans({"\\": "\\\\", "!": "\\!", '"': '\\"',
                             "{": "\\{", "}": "\\}", "\n": "\\n",
                             "\t": "\\t"})


def write_obo(parents: dict[str, tuple[str, ...]],
              concepts: dict[str, Concept]) -> str:
    """One [Term] stanza per concept, with its `parents`. Names and
    synonyms escape \\ ! " { } and the LF and tab; a comment follows
    each name and is_a. `parse_obo` reads the same parents and concepts
    back when no value holds a CR, no name starts or ends with whitespace
    other than LF or tab, and every parent is one of the concepts."""
    stanzas = []
    for curie, concept in concepts.items():
        lines = ["[Term]", f"id: {curie}",
                 f"name: {concept.name.translate(_OBO_ESCAPE)} ! name"]
        lines += [f'synonym: "{synonym.translate(_OBO_ESCAPE)}" EXACT []'
                  for synonym in concept.synonyms]
        lines += [f"is_a: {parent} ! parent" for parent in parents[curie]]
        if concept.obsolete:
            lines.append("is_obsolete: true")
        stanzas.append("\n".join(lines) + "\n")
    return "\n".join(stanzas)


#: Punctuation, underscores and whitespace, replaced by one space each
#: run in `reference_normalize_term`.
REFERENCE_NON_ALNUM_RE = re.compile(r"[\W_]+")


def reference_normalize_term(term: str) -> list[str]:
    """`dicttag.normalize_term` with a per-character Greek-letter test,
    punctuation replaced by spaces and the result split at whitespace."""
    s = unicodedata.normalize("NFKC", term).lower()
    if any(ord(c) > 0x036F for c in s):
        s = "".join(_spell_greek(c) or c for c in s)
    tokens = REFERENCE_NON_ALNUM_RE.sub(" ", s).split()
    return [t[:-1] if len(t) >= 4 and t.endswith("s") else t for t in tokens]


def reference_build_index(graph: OntologyGraph,
                          extra_synonyms=()) -> TermIndex:
    """Set-per-key term index, converted to sorted tuples at the end.

    Reference for `dicttag.build_index`, which writes the final entries
    in one pass; the two must agree in keys, values and key order.
    """
    collected: dict[tuple[str, ...], set[str]] = {}

    def add(term: str, curie: str):
        key = tuple(reference_normalize_term(term))
        if not key:
            warn("skipping term %r (%s): normalises to nothing", term, curie)
            return
        collected.setdefault(key, set()).add(curie)

    for curie in sorted(graph.concepts):
        concept = graph.concepts[curie]
        if concept.obsolete:
            continue
        if concept.name:
            add(concept.name, curie)
        for synonym in concept.synonyms:
            add(synonym, curie)
    for term, curie in extra_synonyms:
        add(term, curie)
    return TermIndex({key: tuple(sorted(ids)) for key, ids in collected.items()})


def _span_block_entities(rows, first, last):
    """Split one decoded span block on its dictionary features.

    The block's ID is the lowest CURIE shared by all its tokens; with no
    shared candidate the block splits wherever the feature set changes.
    """
    common = set(rows[first].dict_features)
    for i in range(first + 1, last + 1):
        common &= set(rows[i].dict_features)
    if common:
        return [(first, last, min(common))]
    entities = []
    run_start = first
    for i in range(first + 1, last + 2):
        if i > last or rows[i].dict_features != rows[run_start].dict_features:
            entities.append((run_start, i - 1, min(rows[run_start].dict_features)))
            run_start = i
    return entities


def split_merge_entities(rows, strategy):
    """(first, last, concept) mentions of one sentence, by split and merge.

    Reference for `harmonise._sentence_entities`: runs of one route are
    split into ID runs and span blocks, span blocks on feature changes,
    and token-adjacent pieces of one concept are merged back, except
    across an explicit span-tag boundary (...E B...).
    """
    routes = [_route(strategy, r.span_tag, r.id_tag, r.dict_features)
              for r in rows]
    entities = []
    i = 0
    while i < len(rows):
        if routes[i] is None:
            i += 1
            continue
        j = i
        while j + 1 < len(rows) and routes[j + 1] == routes[i]:
            j += 1
        if routes[i] == "id":
            run_start = i
            for k in range(i + 1, j + 2):
                if k > j or rows[k].id_tag != rows[run_start].id_tag:
                    entities.append((run_start, k - 1, rows[run_start].id_tag))
                    run_start = k
        else:
            tags = [rows[k].span_tag for k in range(i, j + 1)]
            for first, last in iter_blocks(tags):
                entities.extend(_span_block_entities(rows, i + first, i + last))
        i = j + 1

    merged = []
    for entity in entities:
        if merged:
            pf, pl, pc = merged[-1]
            first, last, concept = entity
            boundary = routes[pl] == "span" and routes[first] == "span"
            if pl + 1 == first and pc == concept and not boundary:
                merged[-1] = (pf, last, concept)
                continue
        merged.append(entity)
    return merged


def rows_from_tuples(tuples: list[tuple]) -> list[ConllRow]:
    """Build a sentence from (token, start, end, tag, id, feats) tuples."""
    rows = []
    for token, start, end, tag, id_tag, feats in tuples:
        rows.append(ConllRow(token, TextSpan(start, end), SpanTag(tag),
                             id_tag, tuple(feats)))
    return rows


def entity_rows(layout):
    """layout: list of (token, gold_concept|None) -> flat rows + gold anns."""
    rows = []
    annotations = []
    pos = 0
    i = 0
    while i < len(layout):
        token, concept = layout[i]
        start = pos
        if concept is None:
            rows.append((token, start, start + len(token), concept))
            pos += len(token) + 1
            i += 1
            continue
        j = i
        while j + 1 < len(layout) and layout[j + 1][1] == concept:
            j += 1
        end = start
        for k in range(i, j + 1):
            rows.append((layout[k][0], end, end + len(layout[k][0]), concept))
            end += len(layout[k][0]) + 1
        annotations.append(Annotation(concept, (TextSpan(start, end - 1),)))
        pos = end
        i = j + 1
    return rows, annotations


def id_favouring_corpus(n_docs=12):
    """Neural IDs perfect; span tagger and dictionary add wrong noise."""
    gold = {}
    predictions = {}
    for d in range(n_docs):
        concept = f"TR:{(d % 4) + 1:04d}"
        layout = [("aaa", None), ("kinase", concept), ("bbb", None),
                  ("ccc", None)]
        flat, anns = entity_rows(layout)
        rows = []
        for token, start, end, gold_concept in flat:
            if gold_concept:
                rows.append((token, start, end, "O", gold_concept, []))
            elif token == "bbb":
                # span-tagger noise with a wrong dictionary candidate
                rows.append((token, start, end, "S", NIL, ["TR:0013"]))
            else:
                rows.append((token, start, end, "O", NIL, []))
        gold[f"doc{d:02d}"] = anns
        predictions[f"doc{d:02d}"] = [rows_from_tuples(rows)]
    return gold, predictions


def span_favouring_corpus(n_docs=12):
    """Span tagger and dictionary perfect; neural IDs wrong where set."""
    gold = {}
    predictions = {}
    for d in range(n_docs):
        concept = f"TR:{(d % 4) + 1:04d}"
        layout = [("aaa", None), ("kinase", concept), ("cell", concept),
                  ("bbb", None)]
        flat, anns = entity_rows(layout)
        rows = []
        first_entity_token = True
        for token, start, end, gold_concept in flat:
            if gold_concept:
                tag = "B" if first_entity_token else "E"
                nn = "TR:0017" if first_entity_token else NIL
                rows.append((token, start, end, tag, nn, [gold_concept]))
                first_entity_token = False
            else:
                rows.append((token, start, end, "O", NIL, []))
        gold[f"doc{d:02d}"] = anns
        predictions[f"doc{d:02d}"] = [rows_from_tuples(rows)]
    return gold, predictions


def _frozen_dataclasses() -> dict[str, type]:
    """The ten frozen dataclasses that the named-tuple value types
    replaced, verbatim but for `Concept`, which has lost its parents to
    `OntologyGraph`, as oracles for the value types' constructor checks,
    repr, hash, equality and ordering. Each class is named as the type it
    stands for, so that the two reprs can be compared."""

    @dataclass(frozen=True, order=True)
    class TextSpan:
        """Character interval [start, end) within a document."""

        start: int
        end: int

        def __post_init__(self):
            if self.start < 0 or self.start >= self.end:
                raise ValueError(f"empty or inverted span {self.start} {self.end}")

        def __len__(self) -> int:
            return self.end - self.start

    @dataclass(frozen=True, order=True)
    class Annotation:
        """One concept mention: a CURIE plus one or more character spans.

        More than one span marks a discontinuous mention. Spans are kept
        sorted and must not overlap each other. The mention's text is
        `Document.covered_text(ann)`.
        """

        concept_id: str
        spans: tuple[TextSpan, ...]

        def __post_init__(self):
            if not self.concept_id or self.concept_id == NIL:
                raise ValueError(f"invalid concept id {self.concept_id!r}")
            if not isinstance(self.spans, tuple):
                object.__setattr__(self, "spans", tuple(self.spans))
            if not self.spans:
                raise ValueError("annotation needs at least one span")
            for prev, cur in zip(self.spans, self.spans[1:]):
                if cur.start < prev.end:
                    raise ValueError(f"spans out of order or overlapping: {self.spans}")

        @property
        def start(self) -> int:
            return self.spans[0].start

        @property
        def end(self) -> int:
            return self.spans[-1].end

        @property
        def length(self) -> int:
            """Total number of covered characters."""
            return sum(len(s) for s in self.spans)

        @property
        def discontinuous(self) -> bool:
            return len(self.spans) > 1

    @dataclass(frozen=True)
    class Document:
        """A text with its concept annotations.

        Annotations of distinct concepts may overlap and may be
        discontinuous; simplification (see the simplify module) reduces them
        to token-compatible form.
        """

        doc_id: str
        text: str
        annotations: tuple[Annotation, ...] = ()

        def __post_init__(self):
            if not isinstance(self.annotations, tuple):
                object.__setattr__(self, "annotations", tuple(self.annotations))
            for ann in self.annotations:
                if ann.end > len(self.text):
                    raise ValueError(
                        f"annotation {ann.concept_id} at {ann.spans} exceeds "
                        f"text length {len(self.text)} in {self.doc_id}"
                    )

        def covered_text(self, ann: Annotation) -> str:
            """Text of each fragment, joined with ' ... ' for discontinuous mentions."""
            return " ... ".join(self.text[s.start:s.end] for s in ann.spans)

    @dataclass(frozen=True)
    class ConllRow:
        """One token with its offsets, span tag, ID tag, and dictionary features.

        Each token carries exactly one span tag and one ID tag. Dictionary
        features are deduplicated and kept sorted.
        """

        token: str
        span: TextSpan
        span_tag: SpanTag = SpanTag.O
        id_tag: str = NIL
        dict_features: tuple[str, ...] = ()

        def __post_init__(self):
            if not self.id_tag:
                raise ValueError("empty id tag")
            if not self.token:
                raise ValueError("empty token")
            feats = tuple(sorted(set(self.dict_features)))
            if feats != self.dict_features:
                object.__setattr__(self, "dict_features", feats)

    @dataclass(frozen=True)
    class Concept:
        name: str
        synonyms: tuple[str, ...] = ()
        obsolete: bool = False

    @dataclass(frozen=True)
    class EvalCounts:
        """Fractional matches and substitutions plus insertion/deletion counts.

        Bookkeeping identities: matches + substitutions + deletions equals
        the number of references, matches + substitutions + insertions the
        number of predictions. Aggregation over documents is plain addition.
        """

        matches: float = 0.0
        substitutions: float = 0.0
        insertions: int = 0
        deletions: int = 0

        def __add__(self, other: "EvalCounts") -> "EvalCounts":
            return EvalCounts(
                self.matches + other.matches,
                self.substitutions + other.substitutions,
                self.insertions + other.insertions,
                self.deletions + other.deletions,
            )

        @property
        def reference_total(self) -> float:
            return self.matches + self.substitutions + self.deletions

        @property
        def prediction_total(self) -> float:
            return self.matches + self.substitutions + self.insertions

    @dataclass(frozen=True)
    class TokenPrediction:
        """The three prediction sources for one token."""

        span_tag: SpanTag
        nn_id: str = NIL
        dict_ids: tuple[str, ...] = ()

    @dataclass(frozen=True)
    class FoldPlan:
        """Partition of document IDs into k folds of near-equal size."""

        k: int
        assignment: dict[str, int]

        def fold_docs(self, fold: int) -> list[str]:
            return sorted(d for d, f in self.assignment.items() if f == fold)

    @dataclass(frozen=True)
    class StrategyResult:
        strategy: HarmonisationStrategy
        mean_f: float
        mean_ser: float
        fold_counts: tuple[EvalCounts, ...]

    @dataclass(frozen=True)
    class TermIndex:
        """Normalised term sequences mapped to their candidate CURIEs."""

        entries: dict[tuple[str, ...], tuple[str, ...]]
        max_len: int = field(init=False, default=0)

        def __post_init__(self):
            if self.entries:
                object.__setattr__(self, "max_len", max(map(len, self.entries)))

        def __len__(self) -> int:
            return len(self.entries)

        def __contains__(self, key: tuple[str, ...]) -> bool:
            return key in self.entries

    types = (TextSpan, Annotation, Document, ConllRow, Concept, EvalCounts,
             TokenPrediction, FoldPlan, StrategyResult, TermIndex)
    for cls in types:
        cls.__qualname__ = cls.__name__
    return {cls.__name__: cls for cls in types}


#: The frozen dataclasses of `_frozen_dataclasses`, by name.
DATACLASS_ORACLES = _frozen_dataclasses()
