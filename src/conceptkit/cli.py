"""Command-line surface tying the pipeline together.

Subcommands: convert, restore, roundtrip-eval, dict-tag, harmonise,
evaluate, tune, baseline-train, baseline-tag. Any flag of a subcommand
can be preset from a key=value config file passed with --config;
explicit command-line flags win over config values.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import codec, dicttag, evaluate, formats, harmonise, snapshot, tuning
from .errors import ConceptKitError, ParseError, take_warnings, warn
from .formats import (iter_sentences, read_conll_dir, read_predictions_dir,
                      read_standoff_dir, read_text, split_lines)
from .ontology import DEFAULT_DECAY
from .simplify import UnifyStrategy, UnnestStrategy

UNIFY_CHOICES = [s.value for s in UnifyStrategy]
UNNEST_CHOICES = [s.value for s in UnnestStrategy]
STRATEGY_CHOICES = [s.value for s in tuning.STRATEGY_ORDER]

REPORT_HEADER = "set\tstrategy\tM\tS\tI\tD\tP\tR\tF\tSER"


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


def _note(args, message: str) -> None:
    """A progress note on stderr, printed under -v."""
    if args.verbose:
        print(f"conceptkit: {message}", file=sys.stderr)


def _set_name(args, directory: str) -> str:
    """--set-name, else the name of the directory's absolute path."""
    return args.set_name or os.path.basename(os.path.abspath(directory))


def _check_rows_fit(directory: str, doc_id: str, sentences, text: str) -> None:
    """A ParseError naming DIRECTORY/DOC_ID.conll if its rows run past text."""
    end = sentences[-1][-1].span.end if sentences else 0  # rows end in order
    if end > len(text):
        raise ParseError(f"offset {end} beyond text length {len(text)}",
                         source=str(Path(directory, f"{doc_id}.conll")))


def _write_documents(args, to_document) -> int:
    """Write to_document(doc_id, sentences, text) of each INPUT .conll as
    OUTPUT/DOC.ann. The text is the --text-dir .txt, which the rows must
    fit, or None without that flag."""
    out = {}
    for doc_id, sentences in read_conll_dir(args.input).items():
        text = None
        if args.text_dir:
            text = read_text(Path(args.text_dir) / f"{doc_id}.txt")
            _check_rows_fit(args.input, doc_id, sentences, text)
        out[doc_id] = formats.write_standoff(to_document(doc_id, sentences, text))
    _write_outputs(args.output, out, ".ann")
    return 0


def cmd_convert(args) -> int:
    docs = read_standoff_dir(args.input)
    out = {}
    for doc_id, doc in docs.items():
        sentences = codec.document_to_conll(
            doc, UnifyStrategy(args.unify), UnnestStrategy(args.unnest))
        out[doc_id] = formats.write_conll(sentences)
    _write_outputs(args.output, out, ".conll")
    _note(args, f"converted {len(out)} documents")
    return 0


def cmd_restore(args) -> int:
    return _write_documents(args, codec.conll_to_document)


def cmd_roundtrip_eval(args) -> int:
    docs = read_standoff_dir(args.input)
    graph = snapshot.load_graph(args.ontology)
    set_name = _set_name(args, args.input)
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
    extra = []
    if args.synonyms:
        extra = dicttag.read_synonyms(read_text(Path(args.synonyms)),
                                      source=args.synonyms)
    stopwords = dicttag.DEFAULT_STOPWORDS
    if args.stopwords:
        # the lookup lower-cases each token before testing it
        lines = split_lines(read_text(Path(args.stopwords)))
        stopwords = frozenset(w for line in lines for w in line.lower().split())
    index = snapshot.load_index(args.ontology, extra)
    _note(args, f"index holds {len(index)} term entries")
    out = {doc_id: formats.write_conll(dicttag.tag_rows(sentences, index, stopwords))
           for doc_id, sentences in iter_sentences(args.input)}
    _write_outputs(args.output, out, ".conll")
    return 0


def cmd_harmonise(args) -> int:
    def to_document(doc_id, sentences, text):
        annotations = harmonise.harmonise_document(sentences, args.strategy)
        return codec.annotated_document(doc_id, sentences, annotations, text)
    return _write_documents(args, to_document)


def _read_train_labels(path: str) -> set[str]:
    return {line.strip() for line in split_lines(read_text(Path(path)))
            if line.strip()}


def cmd_evaluate(args) -> int:
    if bool(args.unseen_only) != bool(args.train_labels):
        raise ConceptKitError("--unseen-only and --train-labels FILE go together")
    gold = read_standoff_dir(args.gold)
    preds = read_predictions_dir(args.pred, {d: doc.text for d, doc in gold.items()})
    graph = snapshot.load_graph(args.ontology)
    train_labels = (_read_train_labels(args.train_labels)
                    if args.unseen_only else None)
    total = evaluate.score_corpus(gold, preds, graph, args.wang_decay,
                                  train_labels)
    set_name = _set_name(args, args.gold)
    strategy = "unseen-only" if args.unseen_only else "all"
    print(REPORT_HEADER)
    print(_report_row(set_name, strategy, total, args.ser_denominator))
    return 0


def cmd_tune(args) -> int:
    gold_docs = read_standoff_dir(args.gold)
    predictions = read_conll_dir(args.pred)
    for doc_id, sentences in predictions.items():
        if doc_id not in gold_docs:
            warn("%s: %s names no gold document", args.pred, f"{doc_id}.conll")
        else:
            _check_rows_fit(args.pred, doc_id, sentences, gold_docs[doc_id].text)
    graph = snapshot.load_graph(args.ontology)
    gold = {doc_id: list(doc.annotations) for doc_id, doc in gold_docs.items()}
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    plan = tuning.make_folds(sorted(gold), args.folds, args.seed)
    table = tuning.grid_search(gold, predictions, strategies, plan, graph,
                               decay=args.wang_decay, jobs=args.jobs)

    set_name = _set_name(args, args.gold)
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
    _note(args, f"lexicon holds {len(tagger.entries)} surface forms")
    return 0


def cmd_baseline_tag(args) -> int:
    try:
        tagger = tuning.LexiconTagger.from_json(read_text(Path(args.lexicon)))
    except ValueError as exc:
        raise ConceptKitError(f"bad lexicon file {args.lexicon}: {exc}") from None
    out = {doc_id: formats.write_conll(tagger.tag_rows(sentences))
           for doc_id, sentences in iter_sentences(args.input)}
    _write_outputs(args.output, out, ".conll")
    return 0


def _checked(convert, accept, expected: str):
    """argparse type: convert(value), a usage error unless accept(number)."""
    def parse(value: str):
        try:
            number = convert(value)
        except ValueError:
            number = None
        if number is None or not accept(number):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")
        return number
    return parse


_positive_int = _checked(int, lambda n: n >= 1, "an integer of at least 1")
_decay = _checked(float, lambda x: 0.0 < x < 1.0,
                  "a number strictly between 0 and 1")


def build_parser() -> argparse.ArgumentParser:
    # parent parsers: each flag shared by several subcommands, written once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="key=value file presetting any flag of this command")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="print progress notes on stderr")
    ontology = argparse.ArgumentParser(add_help=False)
    ontology.add_argument("--ontology", required=True, metavar="FILE")
    simplification = argparse.ArgumentParser(add_help=False)
    simplification.add_argument("--unify", choices=UNIFY_CHOICES,
                                default="first-span")
    simplification.add_argument("--unnest", choices=UNNEST_CHOICES,
                                default="keep-longer")
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--set-name")
    scoring.add_argument("--wang-decay", type=_decay, default=DEFAULT_DECAY)
    ser = argparse.ArgumentParser(add_help=False)
    ser.add_argument("--ser-denominator", choices=["reference", "prediction"],
                     default="reference")
    text_dir = argparse.ArgumentParser(add_help=False)
    text_dir.add_argument("--text-dir", help="directory with original .txt files")

    parser = argparse.ArgumentParser(
        prog="conceptkit",
        description="Concept-recognition pipeline: conversion, tagging, "
                    "harmonisation, evaluation, tuning.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, parents, summary):
        p = sub.add_parser(name, parents=[*parents, common], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("convert", cmd_convert, [simplification], "stand-off to CoNLL")
    p.add_argument("input", help="directory with .txt and .ann files")
    p.add_argument("output", help="directory for .conll files")

    p = command("restore", cmd_restore, [text_dir], "CoNLL back to stand-off")
    p.add_argument("input", help="directory with .conll files")
    p.add_argument("output", help="directory for .ann files")

    p = command("roundtrip-eval", cmd_roundtrip_eval,
                [ontology, simplification, scoring, ser],
                "score the corpus converted to CoNLL and back")
    p.add_argument("input", help="directory with .txt and .ann files")
    p.add_argument("--grid", action="store_true",
                   help="report every unify/unnest combination")

    p = command("dict-tag", cmd_dict_tag, [ontology], "attach dictionary features")
    p.add_argument("input", help="directory with .conll files (or .txt/.ann)")
    p.add_argument("output", help="directory for .conll files")
    p.add_argument("--synonyms", metavar="FILE",
                   help="extra 'term<TAB>CURIE' lines")
    p.add_argument("--stopwords", metavar="FILE",
                   help="whitespace-separated stopword list, any case")

    p = command("harmonise", cmd_harmonise, [text_dir], "merge prediction streams")
    p.add_argument("input", help="directory with .conll prediction files")
    p.add_argument("output", help="directory for .ann files")
    p.add_argument("--strategy", choices=STRATEGY_CHOICES, required=True)

    p = command("evaluate", cmd_evaluate, [ontology, scoring, ser],
                "score predictions against gold")
    p.add_argument("gold", help="directory with gold .txt and .ann files")
    p.add_argument("pred", help="directory with predicted .ann files")
    p.add_argument("--unseen-only", action="store_true",
                   help="keep only concepts absent from the training labels")
    p.add_argument("--train-labels", metavar="FILE",
                   help="one training-set CURIE per line, for --unseen-only")

    p = command("tune", cmd_tune, [ontology, scoring],
                "cross-validated strategy selection")
    p.add_argument("gold", help="directory with gold .txt and .ann files")
    p.add_argument("pred", help="directory with .conll prediction files")
    p.add_argument("--folds", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                   help="score documents in at most N processes")
    p.add_argument("--strategies", default=",".join(STRATEGY_CHOICES),
                   help="comma-separated strategy subset")

    p = command("baseline-train", cmd_baseline_train, [],
                "build the lexicon baseline")
    p.add_argument("input", help="directory with training .conll files")
    p.add_argument("output", help="lexicon JSON file to write")

    p = command("baseline-tag", cmd_baseline_tag, [], "tag with the lexicon baseline")
    p.add_argument("input", help="directory with .conll files (or .txt/.ann)")
    p.add_argument("output", help="directory for .conll files")
    p.add_argument("--lexicon", required=True, metavar="FILE")

    return parser


def _config_tokens(path: str) -> list[str]:
    """Turn key=value lines into command-line tokens."""
    tokens = []
    for lineno, line in enumerate(split_lines(read_text(Path(path))), start=1):
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
    finder = argparse.ArgumentParser(add_help=False)  # finds --conf X too
    finder.add_argument("--config", nargs="?")  # no value: a usage error later
    path = finder.parse_known_args(argv)[0].config
    if path is None:
        return argv
    if not Path(path).is_file():
        raise ConceptKitError(f"--config {path!r} names no file")
    return argv[:1] + _config_tokens(path) + argv[1:]


def main(argv: list[str] | None = None) -> int:
    """Run one command, then print its warnings and its error, if any."""
    argv = list(sys.argv[1:] if argv is None else argv)
    error = None
    try:
        argv = _apply_config(argv)
        args = build_parser().parse_args(argv)
        code = args.func(args)
    except (ConceptKitError, OSError, ValueError, KeyError) as exc:
        code, error = 1, exc
    for message, *others in take_warnings().values():
        more = f" ({len(others)} more like it)" if others else ""
        print(f"conceptkit: warning: {message}{more}", file=sys.stderr)
    if error is not None:
        print(f"conceptkit: error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
