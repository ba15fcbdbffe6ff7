"""Layer tracing for one conceptkit process, installed from outside ``src/``.

`install` replaces the public functions of each conceptkit module with
timing wrappers, in every conceptkit module namespace that holds them, so
calls through ``from .x import y`` bindings are traced too. Coarse calls
(per corpus, per document) record a span each; calls made per sentence,
token or annotation pair only add to a call count and a total time.
Every wrapped call accumulates its self time: its duration minus the
time spent in wrapped calls it made.

Some wrappers also derive workload counters from the call's inputs or
result (candidate and overlapping pairs, kept annotations, matched
tokens). That bookkeeping runs outside the timed interval and is
subtracted from the caller's self time.

Work done in ``tune --jobs N`` worker processes is not traced; it shows
as self time of ``tuning.grid_search`` in the parent. What the parent
sends to its workers is counted: every ``ProcessPoolExecutor`` that a
conceptkit module binds is replaced by a subclass that adds, for each
task it submits, the function calls in it (``tuning.cells``) and the
pickled size of its function and arguments (``tuning.pickled_bytes``).
"""

from __future__ import annotations

import functools
import inspect
import pickle
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor, process

from corpus import overlapping_pairs

SPAN = "span"
COUNT = "count"


def _groups(annotations):
    return [[(s.start, s.end) for s in a.spans] for a in annotations]


def _observe_simplify(counters, args, result):
    counters["simplify.annotations_in"] += len(args["doc"].annotations)
    counters["simplify.annotations_out"] += len(result.annotations)


def _observe_unnest(counters, args, result):
    counters["simplify.overlapping_pairs"] += overlapping_pairs(
        _groups(args["doc"].annotations))


def _observe_score(counters, args, result):
    preds, refs = list(args["preds"]), list(args["refs"])
    counters["evaluate.candidate_pairs"] += len(preds) * len(refs)
    counters["evaluate.overlapping_pairs"] += overlapping_pairs(
        _groups(preds) + _groups(refs), [0] * len(preds) + [1] * len(refs))


def _observe_tag(counters, args, result):
    counters["dicttag.tokens"] += len(result)
    counters["dicttag.matched_tokens"] += sum(1 for f in result if f)


def _observe_index(counters, args, result):
    counters["dicttag.index_entries"] += len(result)


def _observe_harmonise(counters, args, result):
    counters["harmonise.annotations_out"] += len(result)


#: (module, attribute path, kind, observer) of every traced function.
TARGETS = (
    ("cli", "read_standoff_dir", SPAN, None),
    ("cli", "read_predictions_dir", SPAN, None),
    ("cli", "read_conll_dir", SPAN, None),
    ("cli", "_write_outputs", SPAN, None),
    ("formats", "parse_standoff", SPAN, None),
    ("formats", "write_standoff", SPAN, None),
    ("formats", "parse_conll", SPAN, None),
    ("formats", "write_conll", SPAN, None),
    ("formats", "tokenize_sentences", SPAN, None),
    ("formats", "tokenize", COUNT, None),
    ("simplify", "simplify", SPAN, _observe_simplify),
    ("simplify", "extend_subword", SPAN, None),
    ("simplify", "unnest", SPAN, _observe_unnest),
    ("simplify", "unify", COUNT, None),
    ("codec", "roundtrip_upper_bound", SPAN, None),
    ("codec", "document_to_conll", SPAN, None),
    ("codec", "conll_to_document", SPAN, None),
    ("codec", "encode", SPAN, None),
    ("codec", "decode_iobes", COUNT, None),
    ("dicttag", "build_index", SPAN, _observe_index),
    ("dicttag", "tag_rows", SPAN, None),
    ("dicttag", "tag", COUNT, _observe_tag),
    ("harmonise", "harmonise_document", SPAN, _observe_harmonise),
    ("evaluate", "score_document", SPAN, _observe_score),
    ("ontology", "parse_obo", SPAN, None),
    ("ontology", "wang_similarity", COUNT, None),
    ("tuning", "grid_search", SPAN, None),
    ("tuning", "LexiconTagger.train", SPAN, None),
    ("tuning", "LexiconTagger.tag_rows", SPAN, None),
    ("tuning", "LexiconTagger.tag_tokens", COUNT, None),
)

#: Public names in the trace output for private functions.
ALIASES = {"cli._write_outputs": "cli.write_outputs"}


class Tracer:
    """Spans, per-function (calls, total, self) times and counters."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = defaultdict(int)
        self._frames: list[list] = []  # [child_seconds, span_id] per open call
        self._next_id = 0

    def wrap(self, name, fn, kind, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        clock = time.perf_counter
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = next((f[1] for f in reversed(frames) if f[1] is not None),
                          None)
            span_id = None
            if kind == SPAN:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if span_id is not None:
                    self.spans.append((span_id, name, start, end, parent))
            if observe is not None:
                began = clock()
                bound = signature.bind(*args, **kwargs)
                observe(self.counters, bound.arguments, result)
                if frames:
                    frames[-1][0] += clock() - began
            return result

        return traced

    def counting_pool(self):
        """A ProcessPoolExecutor that counts the calls and bytes it sends."""
        counters, frames, clock = self.counters, self._frames, time.perf_counter

        class CountingPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                began = clock()
                # map() submits chunks of calls to _process_chunk
                chunked = (isinstance(fn, functools.partial)
                           and fn.func is process._process_chunk)
                counters["tuning.cells"] += len(args[0]) if chunked else 1
                counters["tuning.pickled_bytes"] += len(
                    pickle.dumps((fn, args, kwargs)))
                if frames:
                    frames[-1][0] += clock() - began
                return super().submit(fn, *args, **kwargs)

        return CountingPool


def _rebind(modules, original, replacement) -> None:
    for m in modules:
        for key, value in list(vars(m).items()):
            if value is original:
                setattr(m, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target, and the worker pool class, in each conceptkit
    module that binds it."""
    import conceptkit.cli  # noqa: F401  (loads every conceptkit module)

    modules = [m for n, m in sys.modules.items()
               if n == "conceptkit" or n.startswith("conceptkit.")]
    for module_name, path, kind, observe in TARGETS:
        module = sys.modules[f"conceptkit.{module_name}"]
        name = ALIASES.get(f"{module_name}.{path}", f"{module_name}.{path}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(tracer.wrap(name, raw.__func__, kind, observe)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, kind, observe))
            continue
        original = getattr(module, attr)
        _rebind(modules, original, tracer.wrap(name, original, kind, observe))
    _rebind(modules, ProcessPoolExecutor, tracer.counting_pool())
