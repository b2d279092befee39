"""Shipped reference fixtures and their lookup rules.

The CLI and the test suite load these by default. Setting the environment
variable ``ONTOLOGIK_FIXTURES`` to a directory containing ``reference.ont``
and ``reference.lex`` redirects every default lookup there. The paths are
``pathlib.Path``s; :func:`load_reference` imports no ``pathlib`` (nor its ``re``).
"""
from __future__ import annotations

import os

from ..lexicon import Lexicon, load_lexicon
from ..ontology import Ontology, load_ontology

FIXTURES_ENV = "ONTOLOGIK_FIXTURES"

ONTOLOGY_FILE = "reference.ont"
LEXICON_FILE = "reference.lex"


def _fixture_dir() -> str:
    return os.environ.get(FIXTURES_ENV) or os.path.dirname(__file__)


def fixture_dir() -> Path:
    from pathlib import Path
    return Path(_fixture_dir())


def ontology_path() -> Path:
    return fixture_dir() / ONTOLOGY_FILE


def lexicon_path() -> Path:
    return fixture_dir() / LEXICON_FILE


def _read(name: str) -> str:
    with open(os.path.join(_fixture_dir(), name)) as file:  # the default encoding, as Path.read_text
        return file.read()


def load_reference() -> tuple[Ontology, Lexicon]:
    ont = load_ontology(_read(ONTOLOGY_FILE))
    return ont, load_lexicon(_read(LEXICON_FILE), ont)
