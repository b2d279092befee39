"""Shipped reference fixtures and their lookup rules.

The CLI and the test suite load these by default. Setting the environment
variable ``ONTOLOGIK_FIXTURES`` to a directory containing ``reference.ont``
and ``reference.lex`` redirects every default lookup there. The paths are
``pathlib.Path``s. :func:`load_reference` and the CLI find the files with
``os.path`` and read them as UTF-8 through :func:`_read`, so neither imports
``pathlib`` (nor its ``re``).
"""
import os

from ..errors import LexiconError, OntologikError, OntologyError
from ..lexicon import Lexicon, load_lexicon
from ..ontology import Ontology, load_ontology

FIXTURES_ENV = "ONTOLOGIK_FIXTURES"

ONTOLOGY_FILE = "reference.ont"
LEXICON_FILE = "reference.lex"


def _fixture_dir() -> str:
    return os.environ.get(FIXTURES_ENV) or os.path.dirname(__file__)


def fixture_dir() -> "Path":
    from pathlib import Path
    return Path(_fixture_dir())


def ontology_path() -> "Path":
    return fixture_dir() / ONTOLOGY_FILE


def lexicon_path() -> "Path":
    return fixture_dir() / LEXICON_FILE


def _read(path: str, error: type[OntologikError]) -> str:
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None


def load_reference() -> tuple[Ontology, Lexicon]:
    ont = load_ontology(_read(os.path.join(_fixture_dir(), ONTOLOGY_FILE), OntologyError))
    return ont, load_lexicon(_read(os.path.join(_fixture_dir(), LEXICON_FILE), LexiconError), ont)
