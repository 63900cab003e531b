"""Theories, bounded entailment, theory morphisms, sums, and quotients.

Entailment is semantic and undecidable in general; here it is realized
as bounded countermodel search over finite models whose entity sets are
prefixes of a canonical token sequence.  Verdicts carry the bound, so
incompleteness is explicit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import BudgetExceeded, DomainMismatch
from .language import (Expression, LanguageEndorelation, LanguageMorphism,
                       TypeLanguage, compose_language_morphisms,
                       identity_language_morphism,
                       language_morphism_valid, language_quotient, language_sum,
                       translate_expression, well_formed)
from .model import Model, satisfies
from .tokens import sorted_tokens

DEFAULT_BUDGET = 10000


@dataclass(frozen=True)
class Theory:
    language: TypeLanguage
    axioms: frozenset  # of Expressions over language

    @staticmethod
    def make(language: TypeLanguage, axioms: Iterable) -> "Theory":
        axioms = frozenset(axioms)
        for a in axioms:
            if not well_formed(language, a):
                raise DomainMismatch(f"axiom {a!r} is not well-formed over the language")
        return Theory(language, axioms)


@dataclass(frozen=True)
class TheoryMorphism:
    language_morphism: LanguageMorphism
    source: Theory
    target: Theory

    @staticmethod
    def make(language_morphism: LanguageMorphism, source: Theory, target: Theory) -> "TheoryMorphism":
        if language_morphism.source != source.language or \
                language_morphism.target != target.language:
            raise DomainMismatch("language morphism does not connect the theories' languages")
        return TheoryMorphism(language_morphism, source, target)


def identity_theory_morphism(t: Theory) -> TheoryMorphism:
    return TheoryMorphism(identity_language_morphism(t.language), t, t)


def compose_theory_morphisms(g1: TheoryMorphism, g2: TheoryMorphism) -> TheoryMorphism:
    if g1.target != g2.source:
        raise DomainMismatch("theory morphisms not composable")
    return TheoryMorphism(compose_language_morphisms(g1.language_morphism, g2.language_morphism),
                          g1.source, g2.target)


# --- verdicts --------------------------------------------------------------

@dataclass(frozen=True)
class Refuted:
    counter_model: Model

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class NoCounterexampleUpTo:
    bound: int

    def __bool__(self) -> bool:
        return True


# --- bounded model enumeration ---------------------------------------------

def entity_token(i: int) -> str:
    return f"_e{i}"


def enumerate_models(t: Theory, max_entities: int,
                     budget: int = DEFAULT_BUDGET) -> Iterator[Model]:
    """Yield every model of t over entity prefixes _e0.._e(n-1), n <= max_entities.

    Candidates are counted against the budget before the axiom check;
    BudgetExceeded aborts the whole enumeration.
    """
    if max_entities < 0:
        raise ValueError("max_entities must be >= 0")
    lang = t.language
    seen = 0
    sorts = sorted_tokens(lang.entity_types)
    rhos = sorted_tokens(lang.relation_types)
    for n in range(max_entities + 1):
        entities = [entity_token(i) for i in range(n)]
        slots = [(e, a) for e in entities for a in sorts]
        for inc_bits in itertools.product((False, True), repeat=len(slots)):
            incidence = [s for s, bit in zip(slots, inc_bits) if bit]
            skeleton = Model.from_extents(lang, entities, incidence, {})
            pools = []
            for rho in rhos:
                assignments = skeleton.well_sorted_assignments(lang.arity[rho])
                subsets = [frozenset(c) for k in range(len(assignments) + 1)
                           for c in itertools.combinations(assignments, k)]
                pools.append(subsets)
            for extent_choice in itertools.product(*pools):
                seen += 1
                if seen > budget:
                    raise BudgetExceeded(f"model enumeration exceeded {budget} candidates")
                m = Model.from_extents(lang, entities, incidence,
                                       dict(zip(rhos, extent_choice)))
                if all(satisfies(m, a) for a in t.axioms):
                    yield m


def entails(t: Theory, e: Expression, max_entities: int,
            budget: int = DEFAULT_BUDGET):
    """Bounded countermodel search; Refuted(m) or NoCounterexampleUpTo(bound)."""
    if not well_formed(t.language, e):
        raise DomainMismatch(f"query {e!r} is not well-formed over the theory's language")
    for m in enumerate_models(t, max_entities, budget):
        if not satisfies(m, e):
            return Refuted(m)
    return NoCounterexampleUpTo(max_entities)


# --- morphism checking ------------------------------------------------------

@dataclass(frozen=True)
class MorphismVerdict:
    ok: bool
    per_axiom: tuple  # of (axiom, verdict-or-"syntactic")
    detail: Optional[object] = None

    def __bool__(self) -> bool:
        return self.ok


def theory_morphism_valid(g: TheoryMorphism, max_entities: int,
                          budget: int = DEFAULT_BUDGET) -> MorphismVerdict:
    """Each source axiom's translate must be a target theorem.

    Translated axioms literally present in the target axiom set pass
    syntactically (exact, not bound-qualified).
    """
    ok, why = language_morphism_valid(g.language_morphism)
    if not ok:
        return MorphismVerdict(False, (), ("language", why))
    per_axiom = []
    overall = True
    for a in sorted_tokens(g.source.axioms):
        image = translate_expression(g.language_morphism, a)
        if image in g.target.axioms:
            per_axiom.append((a, "syntactic"))
            continue
        verdict = entails(g.target, image, max_entities, budget)
        per_axiom.append((a, verdict))
        overall = overall and bool(verdict)
    return MorphismVerdict(overall, tuple(per_axiom))


# --- sums and quotients -----------------------------------------------------

def theory_sum(t1: Theory, t2: Theory) -> tuple[Theory, TheoryMorphism, TheoryMorphism]:
    lang, i1, i2 = language_sum(t1.language, t2.language)
    axioms = {translate_expression(i1, a) for a in t1.axioms}
    axioms |= {translate_expression(i2, a) for a in t2.axioms}
    s = Theory(lang, frozenset(axioms))
    return s, TheoryMorphism(i1, t1, s), TheoryMorphism(i2, t2, s)


def theory_quotient(t: Theory, j: LanguageEndorelation) -> tuple[Theory, TheoryMorphism]:
    lang, canon = language_quotient(t.language, j)
    axioms = frozenset(translate_expression(canon, a) for a in t.axioms)
    q = Theory(lang, axioms)
    return q, TheoryMorphism(canon, t, q)
