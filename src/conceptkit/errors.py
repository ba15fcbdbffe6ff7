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


_counted: dict[str, list] = {}  # template -> [count, first message]


def warn(template: str, *args) -> None:
    """Count a warning; the first of its template keeps `template % args`."""
    if template in _counted:
        _counted[template][0] += 1
    else:
        _counted[template] = [1, template % args]


def take_warnings() -> dict[str, tuple[int, str]]:
    """{template: (count, first message)} of the warnings counted since
    the last take, in order of first use; counting starts again."""
    taken = {template: tuple(seen) for template, seen in _counted.items()}
    _counted.clear()
    return taken


def add_warnings(taken: dict[str, tuple[int, str]]) -> None:
    """Count the warnings of a `take_warnings` result again."""
    for template, (count, message) in taken.items():
        _counted.setdefault(template, [0, message])[0] += count
