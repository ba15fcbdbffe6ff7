"""Exception types and the warning counter shared across the package."""

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


_counted: dict[str, dict[str, None]] = {}  # template -> its distinct messages


def warn(template: str, *args) -> None:
    """File `template % args` under its template; a repeat counts once."""
    _counted.setdefault(template, {})[template % args] = None


def take_warnings() -> dict[str, tuple[str, ...]]:
    """{template: (message, ...)} of the distinct warnings since the last
    take, each in order of first use; counting starts again."""
    taken = {template: tuple(messages) for template, messages in _counted.items()}
    _counted.clear()
    return taken


def add_warnings(taken: dict[str, tuple[str, ...]]) -> None:
    """Count a `take_warnings` result's messages; a repeat counts once."""
    for template, messages in taken.items():
        _counted.setdefault(template, {}).update(dict.fromkeys(messages))
