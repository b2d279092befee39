"""Exception types shared across the package.

Every error message names what failed and, where a source text is involved,
the line or character position it failed at.
"""
from __future__ import annotations


class OntologikError(Exception):
    """Base class for everything raised deliberately by this package."""


class _SourceError(OntologikError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class OntologyError(_SourceError):
    """Ontology source rejected at load time."""


class UnknownTypeError(OntologikError):
    """A type name that the loaded ontology does not contain."""

    def __init__(self, name: str):
        super().__init__(f"unknown type name '{name}'")
        self.name = name


class LexiconError(_SourceError):
    """Lexicon source rejected at load time, or a bad predicate lookup."""


class LFSyntaxError(OntologikError):
    """Logical-form source text rejected by the parser."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"at position {position}: {message}"
        super().__init__(message)
        self.position = position


class NestingError(OntologikError):
    """A form nested deeper than ``logform.MAX_NESTING`` levels."""

    def __init__(self):
        super().__init__("input nested too deeply")


class CanonicalizationError(OntologikError):
    """A form that cannot be brought to canonical shape."""


class TypeCheckError(OntologikError):
    """A variable or constant whose declared type cannot meet an expectation."""

    def __init__(self, subject: str, declared: str, expectation: str):
        super().__init__(
            f"'{subject}' of type {declared} cannot satisfy expectation {expectation}"
        )
        self.subject = subject
        self.declared = declared
        self.expectation = expectation


class SentenceError(OntologikError):
    """Controlled-English input that no pattern accepts."""


class HypothesisShapeError(OntologikError):
    """A hypothesis outside the supported universal-literal shape."""
