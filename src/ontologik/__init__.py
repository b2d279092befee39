"""Typed ontologies for natural language understanding.

The package keeps two vocabularies strictly apart: an ontology of types
arranged in a single-inheritance tree, and a lexicon of predicates whose
argument positions carry type expectations. Analysis unifies what a
variable's quantifier declares with what its predicates expect, coercing
through salient relations when the two sides are incomparable, and
reports the text such a coercion implies but the sentence never said.
"""
from .aor import Accepted, AORVerdict, TypeFailure, Violation, check_order
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
    canonicalize,
    conj,
    parse_lf,
    pretty,
)
from .nlparser import parse_sentence
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

