"""Theories, bounded entailment, theory morphisms, sums, and quotients.

Entailment is semantic and undecidable in general; here it is realized
as bounded countermodel search over finite models whose entity sets are
prefixes of a canonical token sequence.  Verdicts carry the bound, so
incompleteness is explicit.  The search evaluates each candidate on the
rows it chooses, and builds a Model only for a model it yields or a
countermodel it returns.

Enumerating models visits every entity-incidence choice.  Searching for
countermodels (entails, theory_morphism_valid) visits only the choices
whose entities' membership rows are sorted and whose entity types that
no variable refers to are empty (MACE-style symmetry breaking; Claessen
& Sorensson 2003).  No expression tells a skipped choice from the earlier
one that sorting its rows or clearing those types gives, so the first
countermodel in the full order is never skipped, and both searches
return the same one.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import BudgetExceeded, DomainMismatch
from .language import (Expression, LanguageEndorelation, LanguageMorphism,
                       TypeLanguage, free_vars, identity_language_morphism,
                       language_morphism_valid, language_quotient, language_sum,
                       translate_expression, well_formed)
from .model import Model, _compile, satisfies
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

class _Candidate:
    """A candidate model as the evaluator reads it: the skeleton's sort
    pools and, for each relation type, the rows it chooses.

    :meth:`model` builds the Model whose extents are these rows, which has
    exactly these indexes: its tuples are the rows as assignments, and
    :meth:`Model.from_extents` classifies them by the lax rule.
    """

    __slots__ = ("_pools", "_rows", "_skeleton")

    def __init__(self, skeleton: "_Skeleton", choice: tuple):
        self._pools = skeleton.model._pools
        self._rows = dict(zip(skeleton.rhos, choice))
        self._skeleton = skeleton

    def axioms_hold(self) -> bool:
        return all(f(self, t) for f, ts in self._skeleton.axioms for t in ts)

    def query_holds(self, i: int) -> bool:
        """Whether the search's i-th query holds under every well-sorted assignment."""
        f, ts = self._skeleton.queries[i]
        return all(f(self, t) for t in ts)

    def model(self) -> Model:
        m = self._skeleton.model
        order = m.language.arity_order
        return Model.from_extents(m.language, m.entities, m.entity_incidence,
                                  {rho: [zip(order[rho], row) for row in rows]
                                   for rho, rows in self._rows.items()})


@dataclass(frozen=True)
class _Skeleton:
    """One entity-incidence choice: its Model without relation instances,
    the relation types in token order, and each axiom and query, compiled
    once per search, paired with the well-sorted assignments on its free
    variables."""

    model: Model
    rhos: list
    axioms: list  # of (compiled expression, assignments)
    queries: list  # of (compiled expression, assignments)


def _search(t: Theory, max_entities: int, budget: int, queries: Iterable = (),
            _canonical: bool = False) -> Iterator[_Candidate]:
    """Every candidate over entity prefixes _e0.._e(n-1), n <= max_entities,
    that satisfies t's axioms, in enumeration order; each can also test the
    given queries.

    For each n and entity-incidence choice (a skeleton: each entity's
    membership row over the sorted entity types, rows in entity order, the
    bit vectors in lexicographic order), a candidate chooses a subset of
    each relation type's well-sorted rows (value tuples in the arity order,
    drawn from the sort pools) as its extent.
    Candidates are counted against the budget before the axiom check;
    BudgetExceeded aborts the whole search.

    With _canonical, which only the countermodel searches of
    :func:`_verdicts` pass, the search visits only the skeletons whose
    rows are non-decreasing and whose entity types outside the variables'
    references are empty.  Each skipped candidate has an earlier one with
    the same truth value for every expression: swapping two out-of-order
    entities, or clearing an unread type, lowers the bit vector, and
    entities reach evaluation only through the sort pools and the rows.
    So the first countermodel in the full order is still visited first.
    """
    if max_entities < 0:
        raise ValueError("max_entities must be >= 0")
    lang = t.language
    compiled_axioms = [(_compile(lang, e), free_vars(lang, e)) for e in t.axioms]
    compiled_queries = [(_compile(lang, e), free_vars(lang, e)) for e in queries]
    seen = 0
    sorts = sorted_tokens(lang.entity_types)
    rhos = sorted_tokens(lang.relation_types)
    read = set(lang.reference.values()) if _canonical else lang.entity_types
    memberships = list(itertools.product(*[(False, True) if a in read else (False,)
                                           for a in sorts]))
    for n in range(max_entities + 1):
        entities = [f"_e{i}" for i in range(n)]
        skeletons = (itertools.combinations_with_replacement(memberships, n) if _canonical
                     else itertools.product(memberships, repeat=n))
        for membership_rows in skeletons:
            incidence = [(e, a) for e, row in zip(entities, membership_rows)
                         for a, bit in zip(sorts, row) if bit]
            skeleton = Model.from_extents(lang, entities, incidence, {})
            sk = _Skeleton(skeleton, rhos,
                           [(f, skeleton.well_sorted_assignments(fv))
                            for f, fv in compiled_axioms],
                           [(f, skeleton.well_sorted_assignments(fv))
                            for f, fv in compiled_queries])
            pools = []
            for rho in rhos:
                rows = list(itertools.product(*[skeleton._pools[lang.reference[x]]
                                                for x in lang.arity_order[rho]]))
                pools.append([frozenset(c) for k in range(len(rows) + 1)
                              for c in itertools.combinations(rows, k)])
            for choice in itertools.product(*pools):
                seen += 1
                if seen > budget:
                    raise BudgetExceeded(f"model enumeration exceeded {budget} candidates")
                cand = _Candidate(sk, choice)
                if cand.axioms_hold():
                    yield cand


def enumerate_models(t: Theory, max_entities: int,
                     budget: int = DEFAULT_BUDGET) -> Iterator[Model]:
    """Yield every model of t over entity prefixes _e0.._e(n-1), n <= max_entities.

    Every entity-incidence choice is visited, renamings of one another
    included, so this counts more candidates than :func:`entails` does
    for the same bound.  Candidates are counted against the budget
    before the axiom check; BudgetExceeded aborts the whole enumeration.
    """
    for cand in _search(t, max_entities, budget):
        yield cand.model()


def _countermodel(t: Theory, cand: _Candidate, e: Expression) -> Model:
    """The Model of a candidate that satisfies t and fails e, re-checked."""
    m = cand.model()
    if not all(satisfies(m, a) for a in t.axioms) or satisfies(m, e):
        raise RuntimeError(f"countermodel to {e!r} fails its re-check")
    return m


def _verdicts(t: Theory, queries: list, max_entities: int, budget: int) -> dict:
    """Each query's verdict from one search over t's models: Refuted by its
    first countermodel in enumeration order, else NoCounterexampleUpTo.

    The search stops once every query is refuted, so BudgetExceeded is
    raised exactly when some query has no countermodel within the budget.
    """
    for e in queries:
        if not well_formed(t.language, e):
            raise DomainMismatch(f"query {e!r} is not well-formed over the theory's language")
    open_queries = list(range(len(queries)))
    found = {}  # query index -> Refuted
    for cand in _search(t, max_entities, budget, queries, _canonical=True) if queries else ():
        for i in [i for i in open_queries if not cand.query_holds(i)]:
            found[i] = Refuted(_countermodel(t, cand, queries[i]))
            open_queries.remove(i)
        if not open_queries:
            break
    return {e: found.get(i, NoCounterexampleUpTo(max_entities)) for i, e in enumerate(queries)}


def entails(t: Theory, e: Expression, max_entities: int,
            budget: int = DEFAULT_BUDGET):
    """Bounded countermodel search; Refuted(m) or NoCounterexampleUpTo(bound).

    m is the first countermodel in enumeration order, built by
    Model.from_extents and re-checked with satisfies.  The search skips
    entity-incidence choices that are renamings of an earlier one or that
    populate an entity type no variable refers to (see :func:`_search`):
    none of them can hold the first countermodel, but the budget counts
    fewer candidates than :func:`enumerate_models` does to the same bound.
    """
    return _verdicts(t, [e], max_entities, budget)[e]


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
    syntactically (exact, not bound-qualified); the others are decided
    by one search over the target's models, each as :func:`entails`
    would decide it alone.  A refuted verdict's detail is ("axiom", a),
    a the token-order-first source axiom whose translate is refuted.
    """
    ok, why = language_morphism_valid(g.language_morphism)
    if not ok:
        return MorphismVerdict(False, (), ("language", why))
    axioms = sorted_tokens(g.source.axioms)
    images = [translate_expression(g.language_morphism, a) for a in axioms]
    searched = [e for e in images if e not in g.target.axioms]
    verdicts = _verdicts(g.target, searched, max_entities, budget)
    per_axiom = tuple((a, verdicts.get(e, "syntactic")) for a, e in zip(axioms, images))
    refuted = [a for a, v in per_axiom if not v]
    return MorphismVerdict(not refuted, per_axiom, ("axiom", refuted[0]) if refuted else None)


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
