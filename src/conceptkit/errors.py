"""Exception types shared across the package."""

from __future__ import annotations


class ConceptKitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ConceptKitError):
    """Malformed input file (stand-off, CoNLL, OBO, lexicon, config)."""

    def __init__(self, message: str, line: int | None = None, source: str | None = None):
        self.line = line
        self.source = source or None  # "", the parsers' default, names no file
        prefix = f"{source}:" if source else ""
        if line is not None:
            prefix += f"line {line}: "
        elif source:
            prefix += " "
        super().__init__(prefix + message)
