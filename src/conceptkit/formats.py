"""Stand-off and CoNLL file formats, corpus directories of them, plus
the reference tokenizer.

Stand-off (.ann), one record per line, tab-separated; as in brat, only
LF, CR LF and CR end a line:

    T1<TAB>CHEBI:33893 0 5<TAB>agent

The second field holds the concept CURIE followed by one or more
"start end" fragment pairs separated by ";", each offset a run of ASCII
digits and the two one space apart. Fragment texts of
discontinuous mentions are written joined with " ... " in the third
field; brat's own single-space join is read as well.

CoNLL (.conll), one token per line, six tab-separated columns:

    token  start  end  span_tag  id_tag  dict_features

Dictionary features are ";"-joined CURIEs, "-" when empty. A blank line
separates sentences. Offsets are runs of ASCII digits; they refer to the
original document text and increase monotonically through the file.

A corpus directory holds DOC.txt with DOC.ann, or DOC.conll, per document.
"""

from __future__ import annotations

import re
from pathlib import Path

from .errors import ConceptKitError, ParseError, warn
from .model import Annotation, ConllRow, Document, SpanTag, TextSpan

# Maximal letter/digit runs are one token; any other non-space character
# except a byte order mark (U+FEFF) stands alone.
_TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s\ufeff]|_")

_EMPTY_FEATURES = "-"
_SPAN_TAGS = {tag.value: tag for tag in SpanTag}


def tokenize(text: str) -> list[tuple[str, TextSpan]]:
    """Deterministic whitespace/punctuation tokenization with offsets.

    Every non-whitespace character belongs to exactly one token, except
    U+FEFF: a byte order mark is no token, but it still counts as a
    character in the offsets, as brat counts it.
    """
    return [
        (m.group(), TextSpan(m.start(), m.end())) for m in _TOKEN_RE.finditer(text)
    ]


def tokenize_sentences(text: str) -> list[list[tuple[str, TextSpan]]]:
    """Tokenize and group tokens into one block per non-empty text line;
    lines end as `split_lines` ends them."""
    sentences = []
    prev_end = 0
    for token in tokenize(text):
        if (not sentences or text.find("\n", prev_end, token[1].start) != -1
                or text.find("\r", prev_end, token[1].start) != -1):
            sentences.append([])
        sentences[-1].append(token)
        prev_end = token[1].end
    return sentences


def split_lines(text: str, block: int = 1 << 16):
    """Yield the lines of a text file after a leading byte order mark.
    As in brat, only LF, CR LF and CR end a line, not the form feed,
    U+0085 or U+2028 that str.splitlines() also splits at. Each block
    of about `block` characters ends just after a LF, so it never
    separates a CR LF, and a file never exists twice as line strings."""
    start = 1 if text.startswith("\ufeff") else 0
    rest = ""
    while start < len(text):
        cut = text.find("\n", start + block - 1) + 1 or len(text)
        chunk = text[start:cut]
        if "\r" in chunk:
            chunk = chunk.replace("\r\n", "\n").replace("\r", "\n")
        lines = chunk.split("\n")
        rest = lines.pop()
        yield from lines
        start = cut
    yield rest


def _is_offset(s: str) -> bool:
    """An offset is written as ASCII digits alone: no sign, space,
    underscore or other script's digit, all of which int() accepts."""
    return s.isascii() and s.isdigit()


def _normalise_ws(s: str) -> str:
    return " ".join(s.split())


def parse_standoff(ann_text: str, doc_text: str, doc_id: str = "",
                   source: str | None = None) -> Document:
    """Parse stand-off records over the given document text.

    Offsets are authoritative: a mismatch between the recorded text and
    the covered text is logged as a warning and the annotation is kept.
    Out-of-range offsets or malformed records raise ParseError with the
    offending line number. Record order is preserved. Errors and
    warnings name `source`, the .ann file, which defaults to `doc_id`.
    """
    if source is None:
        source = doc_id
    bare = Document(doc_id, doc_text)
    annotations = []
    seen_ids = set()
    try:
        for lineno, line in enumerate(split_lines(ann_text), start=1):
            if not line.strip():
                continue
            fields = line.split("\t", 2)
            if len(fields) < 2:
                raise ValueError("expected tab-separated record")
            ann_id, type_field = fields[0], fields[1]
            recorded_text = fields[2] if len(fields) > 2 else ""
            if not ann_id.startswith("T"):
                continue
            if ann_id in seen_ids:
                raise ValueError(f"duplicate annotation id {ann_id}")
            seen_ids.add(ann_id)
            concept, _, fragment_field = type_field.partition(" ")
            if not concept or not fragment_field:
                raise ValueError("expected 'CONCEPT start end[;start end...]'")
            spans = []
            for fragment in fragment_field.split(";"):
                parts = fragment.split(" ", 1)
                if len(parts) != 2:
                    raise ValueError(f"bad fragment {fragment!r}")
                if not _is_offset(parts[0]) or not _is_offset(parts[1]):
                    raise ValueError(f"non-integer offsets in {fragment!r}")
                start, end = int(parts[0]), int(parts[1])
                spans.append(TextSpan(start, end))
                if end > len(doc_text):
                    raise ValueError(f"offset {end} beyond text length {len(doc_text)}")
            ann = Annotation(concept, tuple(spans))
            covered = bare.covered_text(ann)
            recorded = _normalise_ws(recorded_text)
            # brat joins a discontinuous mention's fragment texts with a space
            if recorded_text and recorded != _normalise_ws(covered) and (
                    recorded != _normalise_ws(" ".join(doc_text[s.start:s.end]
                                                       for s in spans))):
                warn("%s:%d: text mismatch for %s: recorded %r, covered %r",
                     source, lineno, ann_id, recorded_text, covered)
            annotations.append(ann)
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno, source=source) from None
    return Document(doc_id, doc_text, tuple(annotations))


def write_standoff(doc: Document) -> str:
    """Serialise a document's annotations as stand-off records."""
    lines = []
    for i, ann in enumerate(doc.annotations, start=1):
        fragments = ";".join(f"{s.start} {s.end}" for s in ann.spans)
        # any line boundary or tab in the text would split the record
        text = " ".join(doc.covered_text(ann).replace("\t", " ").splitlines())
        lines.append(f"T{i}\t{ann.concept_id} {fragments}\t{text}")
    return "".join(line + "\n" for line in lines)


def parse_conll(text: str, source: str = "") -> list[list[ConllRow]]:
    """Parse a CoNLL file into sentences of validated rows."""
    sentences: list[list[ConllRow]] = []
    current: list[ConllRow] = []
    prev_end = 0
    try:
        for lineno, line in enumerate(split_lines(text), start=1):
            if not line.strip():
                if current:
                    sentences.append(current)
                    current = []
                continue
            cols = line.split("\t")
            if len(cols) != 6:
                raise ValueError(f"expected 6 columns, got {len(cols)}")
            token, start_s, end_s, tag_s, id_tag, feat_s = cols
            if not _is_offset(start_s) or not _is_offset(end_s):
                raise ValueError(f"non-integer offsets {start_s!r} {end_s!r}")
            start, end = int(start_s), int(end_s)
            span = TextSpan(start, end)
            if start < prev_end:
                raise ValueError(f"non-monotonic offset {start} after {prev_end}")
            prev_end = end
            tag = _SPAN_TAGS.get(tag_s)
            if tag is None:
                raise ValueError(f"unknown span tag {tag_s!r}")
            features = (() if feat_s == _EMPTY_FEATURES
                        else tuple(f for f in feat_s.split(";") if f))
            row = ConllRow(token, span, tag, id_tag, features)
            # after the row's own checks, so that an empty id tag is reported first
            if not features and feat_s != _EMPTY_FEATURES:
                raise ValueError(f"bad feature field {feat_s!r}")
            current.append(row)
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno, source=source) from None
    if current:
        sentences.append(current)
    return sentences


def write_conll(sentences: list[list[ConllRow]]) -> str:
    """Serialise sentences of rows; inverse of parse_conll."""
    blocks = []
    for rows in sentences:
        lines = []
        for row in rows:
            features = ";".join(row.dict_features) if row.dict_features else _EMPTY_FEATURES
            lines.append("\t".join((
                row.token, str(row.span.start), str(row.span.end),
                row.span_tag.value, row.id_tag, features)))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def read_text(path: str | Path) -> str:
    """Read a UTF-8 file without newline translation.

    A CRLF stays two characters, as stand-off offsets count it. A file
    that is not UTF-8 is an error naming the file and the byte offset.
    """
    return decode_text(read_bytes(path), path)


def read_bytes(path: str | Path) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        raise ConceptKitError(f"missing file: {path}") from None


def decode_text(data: bytes, path: str | Path) -> str:
    """The text of the bytes `data` of the file at `path`, as `read_text`."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConceptKitError(f"{path}: {exc}") from None


def _files(path: str, suffix: str) -> list[Path]:
    """The files of directory path whose names end in suffix, sorted."""
    directory = Path(path)
    if not directory.is_dir():
        raise ConceptKitError(f"not a directory: {path}")
    return sorted(directory.glob(f"*{suffix}"))


def _read_anns(path: str, texts: dict[str, str]) -> dict[str, Document]:
    """Parse each document's .ann file in directory path over its text;
    a document without one has no annotations."""
    anns = {ann.stem: ann for ann in _files(path, ".ann")}
    docs = {}
    for doc_id, text in texts.items():
        ann = anns.get(doc_id)
        docs[doc_id] = parse_standoff(read_text(ann) if ann else "", text,
                                      doc_id, source=str(ann or doc_id))
    return docs


def read_standoff_dir(path: str) -> dict[str, Document]:
    """Load all .txt/.ann pairs of a corpus directory."""
    texts = {txt.stem: read_text(txt) for txt in _files(path, ".txt")}
    if not texts:
        raise ConceptKitError(f"no .txt documents in {path}")
    return _read_anns(path, texts)


def read_predictions_dir(path: str, texts: dict[str, str]) -> dict[str, Document]:
    """Load predicted .ann files against the gold document texts."""
    return _read_anns(path, texts)


def _parse_conll_files(files: list[Path]):
    """Yield (doc_id, sentences) of each .conll file, parsed in turn."""
    for conll in files:
        yield conll.stem, parse_conll(read_text(conll), source=str(conll))


def read_conll_dir(path: str) -> dict[str, list[list[ConllRow]]]:
    """Load all .conll files of a corpus directory."""
    corpus = dict(_parse_conll_files(_files(path, ".conll")))
    if not corpus:
        raise ConceptKitError(f"no .conll documents in {path}")
    return corpus


def iter_sentences(path: str):
    """Yield (doc_id, sentences) of a .conll or stand-off directory.

    The .conll files are parsed when there are any; otherwise each .txt
    document is tokenised into unlabelled rows, one sentence per line.
    """
    conll_files = _files(path, ".conll")
    yield from _parse_conll_files(conll_files)
    if not conll_files:
        for doc_id, doc in read_standoff_dir(path).items():
            yield doc_id, [[ConllRow(tok, span) for tok, span in sentence]
                           for sentence in tokenize_sentences(doc.text)]
