"""Snapshots of parsed ontologies, so that each OBO file is parsed once.

The commands that read `--ontology` load it through `load_graph` or, in
`dict-tag`, `load_index`. The first load parses the file, as
`ontology.parse_obo` and `dicttag.build_index` do, and writes what they
built to a snapshot; a later load of the same file reads the snapshot.

A snapshot is a `marshal` file, the format of Python's own `__pycache__`:
loading one builds strings, tuples, lists, dicts and booleans and runs
no code. A graph snapshot holds columns, one list per concept field, and
an index snapshot the index's dict. Within one marshal record an object
that several entries share is written once, so the load keeps the
sharing of CURIEs and index tokens that the parse built; unshared
columns are records of their own, so that writing one never holds a
table of every object in the graph.

Its key is the SHA-256 of `FORMAT`, the code that builds it (the source
of every conceptkit module, the Python version and its Unicode
database), the path string and the file's bytes; an index snapshot's key
also covers the extra synonym pairs. The file is read once: the bytes
that are hashed are the bytes that a miss parses. Snapshots live in
`$XDG_CACHE_HOME/conceptkit`, else `~/.cache/conceptkit`, and only the
`KEEP` newest are kept. A snapshot that cannot be read, has the wrong
shape or cannot be written falls back to the parse, and nothing is
written unless the parse succeeded.

A snapshot also holds the warnings that its parse logged; a load logs
them again, from the same loggers and in the same order.
"""

from __future__ import annotations

import logging
import marshal
import os
import sys
import unicodedata
from pathlib import Path

from .dicttag import TermIndex, build_index
from .errors import ConceptKitError
from .formats import decode_text, read_bytes
from .ontology import Concept, OntologyGraph, parse_obo

logger = logging.getLogger(__name__)

#: Part of every key; a change to the layout of a snapshot changes it.
FORMAT = f"conceptkit snapshot 1, marshal {marshal.version}"
#: Snapshot files kept: CRAFT's 20 annotation sets, a graph and an index each.
KEEP = 40
#: The loggers whose warnings a snapshot holds.
_LOGGERS = ("conceptkit.ontology", "conceptkit.dicttag")
#: The directory whose modules' source every key covers.
_PACKAGE = Path(__file__).parent


def load_graph(path: str) -> OntologyGraph:
    """`parse_obo` of the OBO file at `path`, with its warnings; read
    from the file's snapshot when there is one."""
    return _load(path, None)


def load_index(path: str, extra: list[tuple[str, str]] = ()) -> TermIndex:
    """`build_index` of the OBO file at `path` with the `extra` synonym
    pairs, with the warnings of both steps. A snapshot hit loads the
    index without the graph."""
    return _load(path, extra)


def _load(path: str, extra):
    """The graph of the OBO file at `path` or, unless `extra` is None,
    its index. The file's bytes, its text and the graph are each dropped
    once no later step needs them, so that the parse and each write do
    not hold them all."""
    data = read_bytes(path)
    keys = _attempt("key", _keys, path, data, extra or ())
    if extra is not None:
        index = keys and _attempt("read", _read, "index", keys[1])
        if index is not None:
            return index
    with _Recorder() as index_warnings:
        graph = keys and _attempt("read", _read, "graph", keys[0])
        if graph is None:
            text, data = decode_text(data, path), None
            with _Recorder() as warnings:
                graph = parse_obo(text, source=path)
            text = None
            if keys and warnings.heard():
                _attempt("write", _write, "graph", keys[0], _columns(graph),
                         warnings.records)
        if extra is None:
            return graph
        data = None
        index = build_index(graph, extra)
        graph = None
    if keys and index_warnings.heard():
        _attempt("write", _write, "index", keys[1], [(index.entries,)],
                 index_warnings.records)
    return index


def _columns(graph: OntologyGraph) -> list:
    """The blocks of columns of a graph snapshot."""
    concepts = [graph[curie] for curie in graph]
    # the CURIEs and the is_a edges that name them share one record
    return [(list(graph), [c.parents for c in concepts]),
            ([c.name for c in concepts],), ([c.synonyms for c in concepts],),
            ([c.obsolete for c in concepts],)]


def _attempt(step: str, function, *args):
    """function(*args), or None if it fails: every snapshot failure
    falls back to the parse. A file, a home directory or data of the
    wrong shape fails with one of these errors."""
    try:
        return function(*args)
    except (OSError, EOFError, ValueError, TypeError, RuntimeError,
            ConceptKitError) as exc:
        logger.debug("ontology snapshot %s failed: %r", step, exc)
        return None


def _keys(path: str, data: bytes, extra) -> tuple[str, str]:
    """The graph key and the index key of the OBO file at `path` whose
    bytes are `data`."""
    # CPython's own SHA-256 (_sha2 from 3.12, _sha256 before): hashlib's
    # loads OpenSSL, 3.6 MB more resident memory in every command here
    for module in ("_sha2", "_sha256", "hashlib"):
        try:
            sha256 = __import__(module).sha256
            break
        except ImportError:
            continue
    digest = sha256(f"{FORMAT}\0{sys.version}\0{unicodedata.unidata_version}"
                    "\0".encode())
    for source in sorted(_PACKAGE.glob("*.py")):
        code = source.read_bytes()
        digest.update(f"{source.name} {len(code)}\0".encode())
        digest.update(code)
    digest.update(os.fsencode(path) + b"\0")
    digest.update(data)
    graph_key = digest.hexdigest()
    pairs = repr([tuple(pair) for pair in extra])
    return graph_key, sha256(f"{graph_key}\0{pairs}".encode()).hexdigest()


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    # the XDG spec ignores a relative path
    return (Path(base) if os.path.isabs(base)
            else Path.home() / ".cache") / "conceptkit"


def _records(path: Path) -> list:
    """The marshal records of a snapshot file; see `_write`."""
    with open(path, "rb") as f:
        data = memoryview(f.read())
    records = []
    while data:
        size = int.from_bytes(data[:8], "little")
        records.append(marshal.loads(data[8:8 + size]))
        data = data[8 + size:]
    return records


def _read(part: str, key: str):
    stored_key, warnings, *blocks = _records(
        _cache_dir() / f"{part}-{key}.marshal")
    columns = [column for block in blocks for column in block]
    if stored_key != key or len(set(map(len, columns))) != 1:
        raise ValueError("not the expected snapshot")
    if part == "graph":
        curies, parents, names, synonyms, obsolete = columns
        result = OntologyGraph(dict(zip(curies, map(
            Concept._make, zip(names, synonyms, parents, obsolete)))))
    else:
        (entries,) = columns
        if type(entries) is not dict:
            raise ValueError("not the expected snapshot")
        result = TermIndex(entries)
    for name, level, message, args in warnings:
        logging.getLogger(name).log(level, message, *args)
    return result


def _write(part: str, key: str, blocks: list, warnings: list) -> None:
    """Write the key, the warnings and each block of columns as marshal
    records, each after its size in 8 bytes, to a temporary file that
    then replaces the snapshot; delete all but the KEEP newest."""
    directory = _cache_dir()
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    name = f"{part}-{key}.marshal"
    temporary = directory / f"{name}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as f:
            for record in (key, warnings, *blocks):
                data = marshal.dumps(record)
                f.write(len(data).to_bytes(8, "little"))
                f.write(data)
        os.replace(temporary, directory / name)
    finally:
        temporary.unlink(missing_ok=True)
    snapshots = sorted(directory.glob("*.marshal"),
                       key=lambda p: p.stat().st_mtime)
    for stale in snapshots[:-KEEP]:
        stale.unlink(missing_ok=True)


class _Recorder(logging.Handler):
    """The warnings that the snapshot loggers log within a `with` block."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append((record.name, record.levelno, record.msg,
                             record.args))

    def __enter__(self):
        for name in _LOGGERS:
            logging.getLogger(name).addHandler(self)
        return self

    def __exit__(self, *exc_info):
        for name in _LOGGERS:
            logging.getLogger(name).removeHandler(self)

    @staticmethod
    def heard() -> bool:
        """Whether every logger passes a warning on, so that the records
        hold every warning."""
        return all(logging.getLogger(name).isEnabledFor(logging.WARNING)
                   for name in _LOGGERS)
