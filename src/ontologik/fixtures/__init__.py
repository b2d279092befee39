"""Shipped reference fixtures and their lookup rules.

The CLI and the test suite load these by default. Setting the environment
variable ``ONTOLOGIK_FIXTURES`` to a directory containing ``reference.ont``
and ``reference.lex`` redirects every default lookup there.
"""
from __future__ import annotations

import os
from pathlib import Path

from ..lexicon import Lexicon, load_lexicon
from ..ontology import Ontology, load_ontology

FIXTURES_ENV = "ONTOLOGIK_FIXTURES"

ONTOLOGY_FILE = "reference.ont"
LEXICON_FILE = "reference.lex"


def fixture_dir() -> Path:
    override = os.environ.get(FIXTURES_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent


def ontology_path() -> Path:
    return fixture_dir() / ONTOLOGY_FILE


def lexicon_path() -> Path:
    return fixture_dir() / LEXICON_FILE


def load_reference() -> tuple[Ontology, Lexicon]:
    ont = load_ontology(ontology_path().read_text())
    return ont, load_lexicon(lexicon_path().read_text(), ont)
