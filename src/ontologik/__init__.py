"""Typed ontologies for natural language understanding.

The package keeps two vocabularies strictly apart: an ontology of types
arranged in a single-inheritance tree, and a lexicon of predicates whose
argument positions carry type expectations. Analysis unifies what a
variable's quantifier declares with what its predicates expect, coercing
through salient relations when the two sides are incomparable, and
reports the text such a coercion implies but the sentence never said.

``import ontologik`` runs only this file. Each public name is listed in
``_EXPORTS`` under the module that defines it, and that module is imported
the first time one of its names (or the module itself) is read from the
package; its names are then kept here, so later reads are plain attribute
lookups and each name is the defining module's own object. Loading both
resources, ``load_lexicon(source, load_ontology(text))``, imports only
``ontology``, ``lexicon``, ``errors`` and ``_value``, and nothing from the
stdlib: so those modules evaluate their annotations, with no ``__future__``
import, and ``_value`` takes ``MappingProxyType`` from ``type.__dict__``, not
from ``types``. The LF engine (``logform``, ``unifier``),
the sentence reader (``nlparser``), ``aor`` and ``confirm`` load when first
used. ``from ontologik import *`` imports every module.
"""
_EXPORTS = {
    "aor": ("Accepted", "AORVerdict", "TypeFailure", "Violation", "check_order"),
    "confirm": (
        "ConfirmationVerdict", "EquivalenceResult", "Observation",
        "equivalence_check", "evaluate", "parse_observation",
    ),
    "errors": (
        "CanonicalizationError", "HypothesisShapeError", "LexiconError", "LFSyntaxError",
        "NestingError", "OntologikError", "OntologyError", "SentenceError",
        "TypeCheckError", "UnknownTypeError",
    ),
    "lexicon": ("Lexicon", "NameDecl", "PredicateSignature", "SalientRelation", "load_lexicon"),
    "logform": (
        "And", "Atom", "CanonicalForm", "Form", "Implies", "Not", "Quant", "QuantKind",
        "alpha_equal", "atoms", "canonicalize", "conj", "parse_lf", "pretty",
    ),
    "nlparser": ("parse_sentence",),
    "ontology": ("Ontology", "SubsumptionVerdict", "load_ontology"),
    "unifier": (
        "AnalyzedForm", "Coerced", "DerivationTrace", "Failed", "TraceStep", "Unified",
        "UnificationOutcome", "analyze", "fold_expectations", "unify_types",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module behind ``name`` and keep its public names here."""
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # by this package's own name; it binds the module here
    namespace = globals()
    source = namespace[module]
    namespace.update((public, getattr(source, public)) for public in _EXPORTS[module])
    return namespace[name]


def __dir__() -> list[str]:
    """The public names, the table's modules, any other loaded submodule and the dunders."""
    names = {*globals(), *_HOME, *_EXPORTS}
    return sorted(name for name in names if name.startswith("__") or not name.startswith("_"))
