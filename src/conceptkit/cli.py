"""Command-line surface tying the pipeline together.

Subcommands: convert, restore, roundtrip-eval, dict-tag, harmonise,
evaluate, tune, baseline-train, baseline-tag. Any flag of a subcommand
can be preset from a key=value config file passed with --config;
explicit command-line flags win over config values.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import codec, dicttag, evaluate, formats, harmonise, tuning
from .errors import ConceptKitError, ParseError
from .model import ConllRow, Document
from .ontology import DEFAULT_DECAY, parse_obo
from .simplify import UnifyStrategy, UnnestStrategy

logger = logging.getLogger(__name__)

UNIFY_CHOICES = [s.value for s in UnifyStrategy]
UNNEST_CHOICES = [s.value for s in UnnestStrategy]
STRATEGY_CHOICES = [s.value for s in tuning.STRATEGY_ORDER]

REPORT_HEADER = "set\tstrategy\tM\tS\tI\tD\tP\tR\tF\tSER"


def _read_text(path: Path) -> str:
    """Read a UTF-8 file without newline translation.

    A CRLF stays two characters, as stand-off offsets count it.
    """
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except FileNotFoundError:
        raise ConceptKitError(f"missing file: {path}") from None


def read_standoff_dir(path: str) -> dict[str, Document]:
    """Load all .txt/.ann pairs of a corpus directory."""
    directory = Path(path)
    if not directory.is_dir():
        raise ConceptKitError(f"not a directory: {path}")
    docs = {}
    for txt in sorted(directory.glob("*.txt")):
        doc_id = txt.stem
        ann = txt.with_suffix(".ann")
        ann_text = _read_text(ann) if ann.exists() else ""
        docs[doc_id] = formats.parse_standoff(ann_text, _read_text(txt), doc_id)
    if not docs:
        raise ConceptKitError(f"no .txt documents in {path}")
    return docs


def read_predictions_dir(path: str, texts: dict[str, str]) -> dict[str, Document]:
    """Load predicted .ann files against the gold document texts."""
    directory = Path(path)
    docs = {}
    for doc_id, text in texts.items():
        ann = directory / f"{doc_id}.ann"
        ann_text = _read_text(ann) if ann.exists() else ""
        docs[doc_id] = formats.parse_standoff(ann_text, text, doc_id)
    return docs


def read_conll_dir(path: str):
    directory = Path(path)
    if not directory.is_dir():
        raise ConceptKitError(f"not a directory: {path}")
    corpus = {}
    for conll in sorted(directory.glob("*.conll")):
        corpus[conll.stem] = formats.parse_conll(_read_text(conll),
                                                 source=str(conll))
    if not corpus:
        raise ConceptKitError(f"no .conll documents in {path}")
    return corpus


def _iter_sentences(path: str):
    """Yield (doc_id, sentences) of a .conll or stand-off directory.

    The .conll files are parsed when there are any; otherwise each .txt
    document is tokenised into unlabelled rows, one sentence per line.
    """
    directory = Path(path)
    conll_files = sorted(directory.glob("*.conll")) if directory.is_dir() else []
    for conll in conll_files:
        yield conll.stem, formats.parse_conll(_read_text(conll), source=str(conll))
    if not conll_files:
        for doc_id, doc in read_standoff_dir(path).items():
            yield doc_id, [[ConllRow(tok, span) for tok, span in sentence]
                           for sentence in formats.tokenize_sentences(doc.text)]


def _load_ontology(path: str):
    return parse_obo(_read_text(Path(path)), source=path)


def _report_row(set_name, strategy, counts, ser_denominator="reference") -> str:
    p, r, f = evaluate.fscore(counts)
    ser = evaluate.slot_error_rate(counts, ser_denominator)
    return "\t".join((
        set_name, strategy,
        f"{counts.matches:.4f}", f"{counts.substitutions:.4f}",
        str(counts.insertions), str(counts.deletions),
        f"{p:.4f}", f"{r:.4f}", f"{f:.4f}", f"{ser:.4f}",
    ))


def _write_outputs(output_dir: str, contents: dict[str, str], suffix: str):
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for doc_id, text in contents.items():
        (directory / f"{doc_id}{suffix}").write_text(text, encoding="utf-8")


def cmd_convert(args) -> int:
    docs = read_standoff_dir(args.input)
    out = {}
    for doc_id, doc in docs.items():
        sentences = codec.document_to_conll(
            doc, UnifyStrategy(args.unify), UnnestStrategy(args.unnest))
        out[doc_id] = formats.write_conll(sentences)
    _write_outputs(args.output, out, ".conll")
    logger.info("converted %d documents", len(out))
    return 0


def cmd_restore(args) -> int:
    corpus = read_conll_dir(args.input)
    out = {}
    for doc_id, sentences in corpus.items():
        text = None
        if args.text_dir:
            text = _read_text(Path(args.text_dir) / f"{doc_id}.txt")
        doc = codec.conll_to_document(doc_id, sentences,
                                      id_source=args.id_source, text=text)
        out[doc_id] = formats.write_standoff(doc)
    _write_outputs(args.output, out, ".ann")
    return 0


def cmd_roundtrip_eval(args) -> int:
    docs = read_standoff_dir(args.input)
    graph = _load_ontology(args.ontology)
    set_name = args.set_name or Path(args.input).name
    if args.grid:
        combos = [(u, n) for u in UnifyStrategy for n in UnnestStrategy]
    else:
        combos = [(UnifyStrategy(args.unify), UnnestStrategy(args.unnest))]
    totals = codec.roundtrip_grid(docs.values(), combos, graph,
                                  decay=args.wang_decay)
    print(REPORT_HEADER)
    for (unify_strategy, unnest_strategy), counts in zip(combos, totals):
        label = f"{unify_strategy.value}/{unnest_strategy.value}"
        print(_report_row(set_name, label, counts, args.ser_denominator))
    return 0


def cmd_dict_tag(args) -> int:
    graph = _load_ontology(args.ontology)
    extra = []
    if args.synonyms:
        try:
            extra = dicttag.read_synonyms(_read_text(Path(args.synonyms)))
        except ValueError as exc:
            raise ConceptKitError(str(exc)) from None
    stopwords = dicttag.DEFAULT_STOPWORDS
    if args.stopwords:
        stopwords = frozenset(_read_text(Path(args.stopwords)).split())
    index = dicttag.build_index(graph, extra)
    logger.info("index holds %d term entries", len(index))
    out = {doc_id: formats.write_conll(dicttag.tag_rows(sentences, index, stopwords))
           for doc_id, sentences in _iter_sentences(args.input)}
    _write_outputs(args.output, out, ".conll")
    return 0


def cmd_harmonise(args) -> int:
    corpus = read_conll_dir(args.input)
    out = {}
    for doc_id, sentences in corpus.items():
        annotations = harmonise.harmonise_document(sentences, args.strategy)
        if args.text_dir:
            text = _read_text(Path(args.text_dir) / f"{doc_id}.txt")
        else:
            text = codec.surrogate_text(sentences)
        doc = Document(doc_id, text, tuple(annotations))
        out[doc_id] = formats.write_standoff(doc)
    _write_outputs(args.output, out, ".ann")
    return 0


def _read_train_labels(path: str) -> set[str]:
    return {line.strip() for line in _read_text(Path(path)).splitlines()
            if line.strip()}


def cmd_evaluate(args) -> int:
    gold = read_standoff_dir(args.gold)
    preds = read_predictions_dir(args.pred, {d: doc.text for d, doc in gold.items()})
    graph = _load_ontology(args.ontology)
    train_labels = None
    if args.unseen_only:
        if not args.train_labels:
            raise ConceptKitError("--unseen-only requires --train-labels FILE")
        train_labels = _read_train_labels(args.train_labels)
    total = evaluate.EvalCounts()
    for doc_id, ref_doc in gold.items():
        pred_anns = list(preds[doc_id].annotations)
        ref_anns = list(ref_doc.annotations)
        if train_labels is not None:
            pred_anns, ref_anns = evaluate.filter_unseen(
                pred_anns, ref_anns, train_labels)
        total += evaluate.score_document(pred_anns, ref_anns, graph,
                                         decay=args.wang_decay)
    set_name = args.set_name or Path(args.gold).name
    strategy = "unseen-only" if args.unseen_only else "all"
    print(REPORT_HEADER)
    print(_report_row(set_name, strategy, total, args.ser_denominator))
    return 0


def cmd_tune(args) -> int:
    gold_docs = read_standoff_dir(args.gold)
    predictions = read_conll_dir(args.pred)
    graph = _load_ontology(args.ontology)
    gold = {doc_id: list(doc.annotations) for doc_id, doc in gold_docs.items()}
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    try:
        plan = tuning.make_folds(sorted(gold), args.folds, args.seed)
    except ValueError as exc:
        raise ConceptKitError(str(exc)) from None
    table = tuning.grid_search(gold, predictions, strategies, plan, graph,
                               decay=args.wang_decay, jobs=args.jobs)

    set_name = args.set_name or Path(args.gold).name
    print("set\tstrategy\tmean_F\tmean_SER")
    for result in table:
        print(f"{set_name}\t{result.strategy.value}"
              f"\t{result.mean_f:.4f}\t{result.mean_ser:.4f}")
    ties = tuning.tied_with_best(table)
    if len(ties) > 1:
        print("# tie between: " + ", ".join(s.value for s in ties))
    print(f"selected\t{tuning.select_strategy(table).value}")
    return 0


def cmd_baseline_train(args) -> int:
    corpus = read_conll_dir(args.input)
    tagger = tuning.LexiconTagger.train(corpus)
    Path(args.output).write_text(tagger.to_json(), encoding="utf-8")
    logger.info("lexicon holds %d surface forms", len(tagger.entries))
    return 0


def cmd_baseline_tag(args) -> int:
    try:
        tagger = tuning.LexiconTagger.from_json(_read_text(Path(args.lexicon)))
    except (ValueError, KeyError) as exc:
        raise ConceptKitError(f"bad lexicon file {args.lexicon}: {exc}") from None
    out = {doc_id: formats.write_conll(tagger.tag_rows(sentences))
           for doc_id, sentences in _iter_sentences(args.input)}
    _write_outputs(args.output, out, ".conll")
    return 0


def _positive_int(value: str) -> int:
    """argparse type for a count that must be at least 1."""
    try:
        number = int(value)
    except ValueError:
        number = 0  # reported like any other value below 1
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {value!r}")
    return number


def _decay(value: str) -> float:
    """argparse type for a Wang decay, strictly between 0 and 1."""
    try:
        number = float(value)
    except ValueError:
        number = 0.0  # reported like any other value outside (0, 1)
    if not 0.0 < number < 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a number strictly between 0 and 1, got {value!r}")
    return number


def _add_common(parser):
    parser.add_argument("--config", metavar="FILE",
                        help="key=value file presetting any flag of this command")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="increase log verbosity (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptkit",
        description="Concept-recognition pipeline: conversion, tagging, "
                    "harmonisation, evaluation, tuning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="stand-off to CoNLL")
    p.add_argument("input", help="directory with .txt and .ann files")
    p.add_argument("output", help="directory for .conll files")
    p.add_argument("--unify", choices=UNIFY_CHOICES, default="first-span")
    p.add_argument("--unnest", choices=UNNEST_CHOICES, default="keep-longer")
    _add_common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("restore", help="CoNLL back to stand-off")
    p.add_argument("input", help="directory with .conll files")
    p.add_argument("output", help="directory for .ann files")
    p.add_argument("--id-source", choices=["id_tag", "dict"], default="id_tag")
    p.add_argument("--text-dir", help="directory with original .txt files")
    _add_common(p)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("roundtrip-eval",
                       help="score the corpus converted to CoNLL and back")
    p.add_argument("input", help="directory with .txt and .ann files")
    p.add_argument("--ontology", required=True, metavar="FILE")
    p.add_argument("--unify", choices=UNIFY_CHOICES, default="first-span")
    p.add_argument("--unnest", choices=UNNEST_CHOICES, default="keep-longer")
    p.add_argument("--grid", action="store_true",
                   help="report every unify/unnest combination")
    p.add_argument("--set-name")
    p.add_argument("--wang-decay", type=_decay, default=DEFAULT_DECAY)
    p.add_argument("--ser-denominator", choices=["reference", "prediction"],
                   default="reference")
    _add_common(p)
    p.set_defaults(func=cmd_roundtrip_eval)

    p = sub.add_parser("dict-tag", help="attach dictionary features")
    p.add_argument("input", help="directory with .conll files (or .txt/.ann)")
    p.add_argument("output", help="directory for .conll files")
    p.add_argument("--ontology", required=True, metavar="FILE")
    p.add_argument("--synonyms", metavar="FILE",
                   help="extra 'term<TAB>CURIE' lines")
    p.add_argument("--stopwords", metavar="FILE",
                   help="whitespace-separated stopword list")
    _add_common(p)
    p.set_defaults(func=cmd_dict_tag)

    p = sub.add_parser("harmonise", help="merge prediction streams")
    p.add_argument("input", help="directory with .conll prediction files")
    p.add_argument("output", help="directory for .ann files")
    p.add_argument("--strategy", choices=STRATEGY_CHOICES, required=True)
    p.add_argument("--text-dir", help="directory with original .txt files")
    _add_common(p)
    p.set_defaults(func=cmd_harmonise)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("gold", help="directory with gold .txt and .ann files")
    p.add_argument("pred", help="directory with predicted .ann files")
    p.add_argument("--ontology", required=True, metavar="FILE")
    p.add_argument("--unseen-only", action="store_true",
                   help="keep only concepts absent from the training labels")
    p.add_argument("--train-labels", metavar="FILE",
                   help="one training-set CURIE per line")
    p.add_argument("--set-name")
    p.add_argument("--wang-decay", type=_decay, default=DEFAULT_DECAY)
    p.add_argument("--ser-denominator", choices=["reference", "prediction"],
                   default="reference")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune",
                       help="cross-validated strategy selection")
    p.add_argument("gold", help="directory with gold .txt and .ann files")
    p.add_argument("pred", help="directory with .conll prediction files")
    p.add_argument("--ontology", required=True, metavar="FILE")
    p.add_argument("--folds", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes that score documents")
    p.add_argument("--strategies", default=",".join(STRATEGY_CHOICES),
                   help="comma-separated strategy subset")
    p.add_argument("--set-name")
    p.add_argument("--wang-decay", type=_decay, default=DEFAULT_DECAY)
    _add_common(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("baseline-train", help="build the lexicon baseline")
    p.add_argument("input", help="directory with training .conll files")
    p.add_argument("output", help="lexicon JSON file to write")
    _add_common(p)
    p.set_defaults(func=cmd_baseline_train)

    p = sub.add_parser("baseline-tag", help="tag with the lexicon baseline")
    p.add_argument("input", help="directory with .conll files (or .txt/.ann)")
    p.add_argument("output", help="directory for .conll files")
    p.add_argument("--lexicon", required=True, metavar="FILE")
    _add_common(p)
    p.set_defaults(func=cmd_baseline_tag)

    return parser


def _config_tokens(path: str) -> list[str]:
    """Turn key=value lines into command-line tokens."""
    tokens = []
    for lineno, line in enumerate(_read_text(Path(path)).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ParseError("expected key=value", line=lineno, source=path)
        key = key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                tokens.append(f"--{key}")
        else:
            tokens.extend((f"--{key}", value))
    return tokens


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens in after the subcommand name."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return argv
    if not Path(path).exists():
        raise ConceptKitError(f"missing config file: {path}")
    return argv[:1] + _config_tokens(path) + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=max(logging.WARNING - 10 * args.verbose, logging.DEBUG),
            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except (ConceptKitError, OSError, ValueError, KeyError) as exc:
        print(f"conceptkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
