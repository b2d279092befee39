"""Typed ontologies for natural language understanding.

The package keeps two vocabularies strictly apart: an ontology of types
arranged in a single-inheritance tree, and a lexicon of predicates whose
argument positions carry type expectations. Analysis unifies what a
variable's quantifier declares with what its predicates expect, coercing
through salient relations when the two sides are incomparable, and
reports the text such a coercion implies but the sentence never said.
"""
from .aor import (
    MAX_ENUMERATED_ADJECTIVES,
    Accepted,
    AORVerdict,
    TypeFailure,
    Violation,
    check_order,
    preferred_orders,
)
from .confirm import (
    ConfirmationVerdict,
    EquivalenceResult,
    Observation,
    equivalence_check,
    evaluate,
    parse_observation,
)
from .errors import (
    CanonicalizationError,
    HypothesisShapeError,
    LexiconError,
    LFSyntaxError,
    NestingError,
    OntologikError,
    OntologyError,
    SentenceError,
    TypeCheckError,
    UnknownTypeError,
)
from .lexicon import Lexicon, NameDecl, PredicateSignature, SalientRelation, load_lexicon
from .logform import (
    And,
    Atom,
    CanonicalForm,
    Form,
    Implies,
    Not,
    Quant,
    QuantKind,
    alpha_equal,
    atoms,
    binders,
    canonicalize,
    conj,
    constants,
    parse_lf,
    pretty,
)
from .nlparser import SentenceKind, classify, parse_sentence
from .ontology import Ontology, SubsumptionVerdict, load_ontology
from .unifier import (
    AnalyzedForm,
    Coerced,
    DerivationTrace,
    Failed,
    TraceStep,
    Unified,
    UnificationOutcome,
    analyze,
    fold_expectations,
    unify_types,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # ontology
    "Ontology",
    "SubsumptionVerdict",
    "load_ontology",
    # lexicon
    "Lexicon",
    "PredicateSignature",
    "SalientRelation",
    "NameDecl",
    "load_lexicon",
    # logical forms
    "Form",
    "CanonicalForm",
    "Atom",
    "And",
    "Not",
    "Implies",
    "Quant",
    "QuantKind",
    "conj",
    "parse_lf",
    "pretty",
    "canonicalize",
    "alpha_equal",
    "binders",
    "atoms",
    "constants",
    # unification and analysis
    "Unified",
    "Coerced",
    "Failed",
    "UnificationOutcome",
    "unify_types",
    "fold_expectations",
    "analyze",
    "AnalyzedForm",
    "DerivationTrace",
    "TraceStep",
    # adjective order
    "AORVerdict",
    "Accepted",
    "Violation",
    "TypeFailure",
    "check_order",
    "preferred_orders",
    "MAX_ENUMERATED_ADJECTIVES",
    # confirmation
    "Observation",
    "ConfirmationVerdict",
    "EquivalenceResult",
    "evaluate",
    "equivalence_check",
    "parse_observation",
    # sentences
    "parse_sentence",
    "classify",
    "SentenceKind",
    # errors
    "OntologikError",
    "OntologyError",
    "UnknownTypeError",
    "LexiconError",
    "LFSyntaxError",
    "NestingError",
    "CanonicalizationError",
    "TypeCheckError",
    "SentenceError",
    "HypothesisShapeError",
]
