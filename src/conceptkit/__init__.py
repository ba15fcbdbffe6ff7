"""Toolkit for dictionary-assisted biomedical concept recognition.

Converts stand-off annotations to and from token-label (CoNLL) form,
tags ontology terms in running text, merges independent span/ID/
dictionary prediction streams under configurable strategies, and scores
the result with partial-match precision, recall, F-score, and slot
error rate.
"""

from .codec import decode_iobes, encode, roundtrip_upper_bound
from .dicttag import TermIndex, build_index, normalize_term, tag
from .errors import ConceptKitError, ParseError
from .evaluate import (EvalCounts, filter_unseen, fscore, pair_similarity,
                       score_document, slot_error_rate)
from .formats import (parse_conll, parse_standoff, tokenize, write_conll,
                      write_standoff)
from .harmonise import (HarmonisationStrategy, TokenPrediction,
                        harmonise_document, harmonise_token)
from .model import (NIL, Annotation, ConllRow, Document, SpanTag, TextSpan,
                    char_jaccard)
from .ontology import OntologyGraph, parse_obo, wang_similarity
from .simplify import (UnifyStrategy, UnnestStrategy, extend_subword,
                       simplify, unify, unnest)
from .tuning import (FoldPlan, LexiconTagger, grid_search, make_folds,
                     select_strategy)

__version__ = "0.1.0"

__all__ = [
    "Annotation", "ConceptKitError", "ConllRow", "Document", "EvalCounts",
    "FoldPlan", "HarmonisationStrategy", "LexiconTagger", "NIL",
    "OntologyGraph", "ParseError", "SpanTag", "TermIndex", "TextSpan",
    "TokenPrediction", "UnifyStrategy", "UnnestStrategy", "build_index",
    "char_jaccard", "decode_iobes", "encode", "extend_subword",
    "filter_unseen", "fscore",
    "grid_search", "harmonise_document", "harmonise_token", "make_folds",
    "normalize_term", "pair_similarity", "parse_conll", "parse_obo",
    "parse_standoff", "roundtrip_upper_bound", "score_document",
    "select_strategy", "simplify", "slot_error_rate", "tag", "tokenize",
    "unify", "unnest", "wang_similarity", "write_conll", "write_standoff",
]
