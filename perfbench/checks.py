"""Output checks for the benchmark flow.

Each check tests a property that any correct conceptkit satisfies on the
generated corpora, not the F-scores of one implementation: a better
scorer changes those on purpose. Every function returns a list of error
messages, empty when the output passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# M and S are printed with four decimals.
COUNT_TOLERANCE = 1e-3


def read_conll(path: Path) -> list[list[list[str]]]:
    """Sentences of six-column rows, as strings."""
    sentences, current = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            current.append(line.split("\t"))
        elif current:
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
    return sentences


def _flat(sentences):
    return [row for rows in sentences for row in rows]


def conll_dir(directory: Path, texts: dict[str, str],
              encoded: bool = False) -> tuple[list[str], dict]:
    """One file per document, each row's token equal to the text it covers.

    With `encoded`, the file is the encoding of simplified annotations:
    every sentence is a valid IOBES sequence and a token carries a
    concept exactly when it is inside an entity. Returns the errors and
    the parsed files.
    """
    errors, parsed = [], {}
    for doc_id, text in texts.items():
        path = directory / f"{doc_id}.conll"
        if not path.is_file():
            errors.append(f"{path}: missing")
            continue
        sentences = parsed[doc_id] = read_conll(path)
        rows = _flat(sentences)
        if any(len(row) != 6 for row in rows):
            errors.append(f"{path}: row without six columns")
            continue
        covered = 0
        for token, start, end, tag, id_tag, _ in rows:
            s, e = int(start), int(end)
            covered += e - s
            if text[s:e] != token:
                errors.append(f"{path}: token {token!r} != text[{s}:{e}]")
                break
        if covered != len("".join(text.split())):
            errors.append(f"{path}: tokens do not cover the text")
        if encoded:
            errors += [f"{path}: {e}" for e in _iobes_errors(sentences)]
    return errors, parsed


def _iobes_errors(sentences) -> list[str]:
    errors = []
    for rows in sentences:
        inside = False
        for row in rows:
            tag, id_tag = row[3], row[4]
            if (tag == "O") != (id_tag == "NIL"):
                errors.append(f"tag {tag} with id {id_tag} at {row[1]}")
            if inside != (tag in ("I", "E")):
                errors.append(f"invalid IOBES tag {tag} at {row[1]}")
            inside = tag in ("B", "I")
        if inside:
            errors.append("entity left open at sentence end")
        if errors:
            break
    return errors


def entity_count(parsed: dict) -> int:
    """Entities of encoded CoNLL files: one per S or B tag."""
    return sum(row[3] in ("S", "B") for sentences in parsed.values()
               for row in _flat(sentences))


def same_tokens(parsed: dict, reference: dict, columns: int) -> list[str]:
    """The first `columns` columns of every row equal the reference's."""
    for doc_id, sentences in reference.items():
        mine = parsed.get(doc_id)
        if mine is None or [[r[:columns] for r in rows] for rows in mine] != \
                [[r[:columns] for r in rows] for rows in sentences]:
            return [f"{doc_id}: rows differ from the input in the first "
                    f"{columns} columns"]
    return []


def dictionary_hits(parsed: dict, docs) -> list[str]:
    """Every generated mention's first token lists the mentioned concept."""
    missed = []
    for doc in docs:
        features = {int(row[1]): row[5].split(";")
                    for row in _flat(parsed[doc.doc_id])}
        missed += [f"{doc.doc_id}: {doc.text[m.start:m.end]!r} at {m.start}"
                   f" lacks {m.curie}"
                   for m in doc.mentions if m.curie not in features[m.start]]
    return missed[:5]


def lexicon(path: Path) -> list[str]:
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path}: unreadable lexicon: {exc}"]
    return [] if entries else [f"{path}: empty lexicon"]


def standoff_dir(directory: Path, texts: dict[str, str]) -> tuple[list[str], int]:
    """One .ann per document; offsets inside the text; text matches offsets.

    Returns the errors and the number of annotations.
    """
    errors, total = [], 0
    for doc_id, text in texts.items():
        path = directory / f"{doc_id}.ann"
        if not path.is_file():
            errors.append(f"{path}: missing")
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            total += 1
            _, type_field, recorded = line.split("\t")
            fragments = [tuple(map(int, f.split()))
                         for f in type_field.split(" ", 1)[1].split(";")]
            if any(not 0 <= s < e <= len(text) for s, e in fragments):
                errors.append(f"{path}: offsets out of range in {line!r}")
                continue
            covered = " ... ".join(text[s:e] for s, e in fragments)
            if recorded.split() != covered.split():
                errors.append(f"{path}: recorded {recorded!r} != {covered!r}")
    return errors[:5], total


def report_rows(stdout: str) -> list[dict]:
    """Rows of a 'set strategy M S I D P R F SER' report."""
    lines = stdout.strip().splitlines()
    if not lines or lines[0].split("\t")[:2] != ["set", "strategy"]:
        raise ValueError("missing report header")
    rows = []
    for line in lines[1:]:
        cells = line.split("\t")
        rows.append({"strategy": cells[1],
                     **{k: float(v) for k, v in zip("MSIDPRF", cells[2:9])}})
    return rows


def counts(row: dict, refs: int, preds: int | None = None) -> list[str]:
    """M+S+D = #refs, M+S+I = #preds, and P, R, F in [0, 1]."""
    errors = []
    if abs(row["M"] + row["S"] + row["D"] - refs) > COUNT_TOLERANCE:
        errors.append(f"{row['strategy']}: M+S+D != {refs} references")
    if preds is not None and abs(row["M"] + row["S"] + row["I"] - preds) > COUNT_TOLERANCE:
        errors.append(f"{row['strategy']}: M+S+I != {preds} predictions")
    if not all(0.0 <= row[k] <= 1.0 for k in "PRF"):
        errors.append(f"{row['strategy']}: P, R or F outside [0, 1]")
    return errors


def tune_table(stdout: str, strategies) -> tuple[list[str], str | None]:
    """Every strategy ranked once with F in [0, 1]; returns the selection."""
    lines = stdout.strip().splitlines()
    ranked = [line.split("\t") for line in lines[1:]
              if not line.startswith(("#", "selected"))]
    selected = [line.split("\t")[1] for line in lines
                if line.startswith("selected\t")]
    errors = []
    if sorted(r[1] for r in ranked) != sorted(strategies):
        errors.append("tune did not rank every strategy once")
    if any(not 0.0 <= float(r[2]) <= 1.0 for r in ranked):
        errors.append("tune mean_F outside [0, 1]")
    if len(selected) != 1:
        errors.append("tune selected no single strategy")
        return errors, None
    return errors, selected[0]


def tree_digest(*paths: Path) -> str:
    """Digest of the files under `paths`, by relative name and content."""
    digest = hashlib.sha256()
    for root in paths:
        files = sorted(root.rglob("*")) if root.is_dir() else [root]
        for path in files:
            if path.is_file():
                digest.update(str(path.relative_to(root.parent)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()
