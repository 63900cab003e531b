"""Ontology integration via classifications, logics, and fusion pushouts."""

from .classification import (Classification, ClassificationInvariant,
                             Infomorphism, classification_quotient,
                             classification_sum, infomorphism_valid,
                             power_classification)
from .errors import OntofuseError
from .hypergraph import Hypergraph, hypergraph_product
from .language import (Atomic, And, Exists, Expression, Forall, Implies,
                       LanguageEndorelation, LanguageMorphism, Not, Or, Subst,
                       TypeLanguage, free_vars, language_quotient,
                       language_sum, translate_expression)
from .model import (Model, ModelDualInvariant, ModelMorphism, holds,
                    model_dual_quotient, model_morphism_valid, model_sum,
                    satisfies)
from .theory import (Theory, TheoryMorphism, entails, theory_morphism_valid,
                     theory_quotient, theory_sum)
from .logic import (Logic, LogicDualInvariant, LogicMorphism, counit, fiber,
                    free_logic, fusion, is_sound, logic_dual_quotient,
                    logic_morphism_valid, logic_sum, restrict_logic,
                    sound_part, transpose)
from .integration import (AlignmentDiagram, IntegrationResult, PracticalReport, align,
                          build_alignment, practical_integrate, unify)
from .document import Document, parse_document, serialize_document

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
