"""First-order type languages, their morphisms, and the expression algebra.

A type language has variables, entity types, relation types with
set-valued arities, and one global reference function from variables to
entity types; the signature of a relation type is the restriction of
reference to its arity.  Expressions are the usual first-order
connectives and quantifiers over atomic relation types, plus
variable-for-variable substitution.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import (CaptureError, DomainMismatch, IncompatibleQuotient, check_total,
                     raise_first_fault)
from .classification import equivalence_closure, first_clash
from .tokens import FrozenDict, Token, fdict, ltag, rtag, sorted_tokens


@dataclass(frozen=True)
class TypeLanguage:
    variables: frozenset
    entity_types: frozenset
    relation_types: frozenset
    reference: FrozenDict  # variables -> entity_types
    arity: FrozenDict  # relation_types -> frozenset of variables

    @staticmethod
    def make(variables: Iterable, entity_types: Iterable, reference: Mapping,
             arity: Mapping) -> "TypeLanguage":
        lang = TypeLanguage(frozenset(variables), frozenset(entity_types),
                            frozenset(arity), fdict(reference),
                            fdict({r: frozenset(v) for r, v in arity.items()}))
        lang.check()
        return lang

    def check(self) -> None:
        check_total(self.reference, self.variables, self.entity_types, "reference")
        raise_first_fault((rho, f"arity of {rho!r} uses unknown variables")
                          for rho in self.relation_types if not self.arity[rho] <= self.variables)

    @cached_property
    def arity_order(self) -> dict:
        """Relation type -> its arity in token order: the column order of
        its rows wherever a relation's extent is held as value tuples."""
        return {rho: tuple(sorted_tokens(xs)) for rho, xs in self.arity.items()}


# --- Expressions -----------------------------------------------------------

@dataclass(frozen=True)
class Expression:
    pass


@dataclass(frozen=True)
class Atomic(Expression):
    relation: Token


@dataclass(frozen=True)
class Not(Expression):
    body: Expression


@dataclass(frozen=True)
class And(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Or(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Implies(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Exists(Expression):
    var: Token
    body: Expression


@dataclass(frozen=True)
class Forall(Expression):
    var: Token
    body: Expression


@dataclass(frozen=True)
class Subst(Expression):
    mapping: FrozenDict  # variables -> variables, defined on free vars of body
    body: Expression

    @staticmethod
    def make(mapping: Mapping, body: Expression) -> "Subst":
        return Subst(fdict(mapping), body)


_BINARY = (And, Or, Implies)
_QUANT = (Exists, Forall)


def free_vars(lang: TypeLanguage, e: Expression) -> frozenset:
    """Free variables, clause by clause; Subst takes the image of the body's."""
    if isinstance(e, Atomic):
        return lang.arity[e.relation]
    if isinstance(e, Not):
        return free_vars(lang, e.body)
    if isinstance(e, _BINARY):
        return free_vars(lang, e.left) | free_vars(lang, e.right)
    if isinstance(e, _QUANT):
        return free_vars(lang, e.body) - {e.var}
    if isinstance(e, Subst):
        return frozenset(e.mapping[x] for x in free_vars(lang, e.body))
    raise TypeError(f"not an expression: {e!r}")


def well_formed(lang: TypeLanguage, e: Expression) -> bool:
    """All mentioned tokens belong to lang; Subst maps cover free vars sort-preservingly."""
    if isinstance(e, Atomic):
        return e.relation in lang.relation_types
    if isinstance(e, Not):
        return well_formed(lang, e.body)
    if isinstance(e, _BINARY):
        return well_formed(lang, e.left) and well_formed(lang, e.right)
    if isinstance(e, _QUANT):
        return e.var in lang.variables and well_formed(lang, e.body)
    if isinstance(e, Subst):
        if not well_formed(lang, e.body):
            return False
        fv = free_vars(lang, e.body)
        if not fv <= set(e.mapping):
            return False
        return all(e.mapping[x] in lang.variables
                   and lang.reference[e.mapping[x]] == lang.reference[x] for x in fv)
    return False


# --- Morphisms -------------------------------------------------------------

@dataclass(frozen=True)
class LanguageMorphism:
    source: TypeLanguage
    target: TypeLanguage
    var_map: FrozenDict
    entity_map: FrozenDict
    relation_map: FrozenDict  # relation type -> relation type, or Expression when refinement
    refinement: bool = False

    @staticmethod
    def make(source, target, var_map: Mapping, entity_map: Mapping,
             relation_map: Mapping, refinement: bool = False) -> "LanguageMorphism":
        return LanguageMorphism(source, target, fdict(var_map), fdict(entity_map),
                                fdict(relation_map), refinement)


def identity_language_morphism(lang: TypeLanguage) -> LanguageMorphism:
    return LanguageMorphism.make(lang, lang, {x: x for x in lang.variables},
                                 {a: a for a in lang.entity_types},
                                 {r: r for r in lang.relation_types})


def compose_language_morphisms(m1: LanguageMorphism, m2: LanguageMorphism) -> LanguageMorphism:
    if m1.target != m2.source:
        raise DomainMismatch("language morphisms not composable")
    rel = {}
    for r, img in m1.relation_map.items():
        if img in m1.target.relation_types:
            rel[r] = m2.relation_map[img]
        else:
            rel[r] = translate_expression(m2, img)
    return LanguageMorphism.make(
        m1.source, m2.target,
        {x: m2.var_map[m1.var_map[x]] for x in m1.var_map},
        {a: m2.entity_map[m1.entity_map[a]] for a in m1.entity_map},
        rel, refinement=m1.refinement or m2.refinement)


def _image_faults(m: LanguageMorphism):
    """Each relation whose image is neither a target relation type nor, under
    the refinement flag, an expression well-formed over the target."""
    for r, img in m.relation_map.items():
        if img in m.target.relation_types:
            continue
        if not isinstance(img, Expression):
            yield r, f"relation map leaves target relation types at {r!r}"
        elif not m.refinement:
            yield r, f"relation {r!r} maps to an expression without the refinement flag"
        elif not well_formed(m.target, img):
            yield r, f"image of {r!r} is not well-formed over the target"


def language_morphism_valid(m: LanguageMorphism) -> tuple[bool, Optional[tuple]]:
    """Reference and arity preservation; returns (ok, first counterexample)."""
    check_total(m.var_map, m.source.variables, m.target.variables, "variable map")
    check_total(m.entity_map, m.source.entity_types, m.target.entity_types, "entity map")
    if set(m.relation_map) != set(m.source.relation_types):
        raise DomainMismatch("relation map not total on source relation types")
    raise_first_fault(_image_faults(m))
    for x in sorted_tokens(m.source.variables):
        if m.target.reference[m.var_map[x]] != m.entity_map[m.source.reference[x]]:
            return False, ("reference", x)
    for r in sorted_tokens(m.source.relation_types):
        img = m.relation_map[r]
        image_arity = m.target.arity[img] if img in m.target.relation_types \
            else free_vars(m.target, img)
        if image_arity != frozenset(m.var_map[x] for x in m.source.arity[r]):
            return False, ("arity", r)
    return True, None


def translate_expression(m: LanguageMorphism, e: Expression) -> Expression:
    """Homomorphic replacement of an expression along a language morphism.

    Raises CaptureError when the variable map identifies a binder with a
    free variable of its scope.
    """
    if isinstance(e, Atomic):
        img = m.relation_map[e.relation]
        if img in m.target.relation_types:
            return Atomic(img)
        return img
    if isinstance(e, Not):
        return Not(translate_expression(m, e.body))
    if isinstance(e, _BINARY):
        return type(e)(translate_expression(m, e.left), translate_expression(m, e.right))
    if isinstance(e, _QUANT):
        clashes = {x for x in free_vars(m.source, e.body) - {e.var}
                   if m.var_map[x] == m.var_map[e.var]}
        if clashes:
            raise CaptureError(f"binder {e.var!r} captures {sorted_tokens(clashes)} under translation")
        return type(e)(m.var_map[e.var], translate_expression(m, e.body))
    if isinstance(e, Subst):
        body = translate_expression(m, e.body)
        mapping: dict = {}
        for x in sorted_tokens(e.mapping):
            y = e.mapping[x]
            prior = mapping.setdefault(m.var_map[x], m.var_map[y])
            if prior != m.var_map[y]:
                raise CaptureError(f"substitution slots collide at {m.var_map[x]!r}")
        return Subst.make(mapping, body)
    raise TypeError(f"not an expression: {e!r}")


def language_sum(l1: TypeLanguage, l2: TypeLanguage) -> tuple[TypeLanguage, LanguageMorphism, LanguageMorphism]:
    """Tagged disjoint union componentwise; returns (sum, left inj, right inj)."""
    variables = [ltag(x) for x in l1.variables] + [rtag(x) for x in l2.variables]
    entity_types = [ltag(a) for a in l1.entity_types] + [rtag(a) for a in l2.entity_types]
    reference = {ltag(x): ltag(l1.reference[x]) for x in l1.variables}
    reference.update({rtag(x): rtag(l2.reference[x]) for x in l2.variables})
    arity = {ltag(r): frozenset(ltag(x) for x in l1.arity[r]) for r in l1.relation_types}
    arity.update({rtag(r): frozenset(rtag(x) for x in l2.arity[r]) for r in l2.relation_types})
    s = TypeLanguage(frozenset(variables), frozenset(entity_types), frozenset(arity),
                     fdict(reference), fdict(arity))
    inj1 = LanguageMorphism.make(l1, s, {x: ltag(x) for x in l1.variables},
                                 {a: ltag(a) for a in l1.entity_types},
                                 {r: ltag(r) for r in l1.relation_types})
    inj2 = LanguageMorphism.make(l2, s, {x: rtag(x) for x in l2.variables},
                                 {a: rtag(a) for a in l2.entity_types},
                                 {r: rtag(r) for r in l2.relation_types})
    return s, inj1, inj2


@dataclass(frozen=True)
class LanguageEndorelation:
    """Generator pairs on entity types, relation types, and variables."""

    entity_pairs: frozenset
    relation_pairs: frozenset
    variable_pairs: frozenset

    @staticmethod
    def make(entity_pairs: Iterable = (), relation_pairs: Iterable = (),
             variable_pairs: Iterable = ()) -> "LanguageEndorelation":
        return LanguageEndorelation(frozenset(tuple(p) for p in entity_pairs),
                                    frozenset(tuple(p) for p in relation_pairs),
                                    frozenset(tuple(p) for p in variable_pairs))


def span_relation(m0: LanguageMorphism, m1: LanguageMorphism) -> LanguageEndorelation:
    """Links, on the sum of the two targets, the tagged images of each source type."""
    src = m0.source
    return LanguageEndorelation.make(
        entity_pairs=[(ltag(m0.entity_map[a]), rtag(m1.entity_map[a]))
                      for a in src.entity_types],
        relation_pairs=[(ltag(m0.relation_map[r]), rtag(m1.relation_map[r]))
                        for r in src.relation_types],
        variable_pairs=[(ltag(m0.var_map[x]), rtag(m1.var_map[x]))
                        for x in src.variables])


def language_quotient(lang: TypeLanguage, j: LanguageEndorelation) -> tuple[TypeLanguage, LanguageMorphism]:
    """Quotient componentwise by the closures of j; classes are sorted tuples.

    Raises IncompatibleQuotient when related variables have unrelated
    references or related relation types have arities that do not land on
    the same set of variable classes, naming the token-order-first member
    of such a class that differs from the class's first member, and that
    first member.
    """
    var_cls = equivalence_closure(lang.variables, j.variable_pairs)
    ent_cls = equivalence_closure(lang.entity_types, j.entity_pairs)
    rel_cls = equivalence_closure(lang.relation_types, j.relation_pairs)

    def ref(x):
        return ent_cls[lang.reference[x]]

    def arity_of(r):
        return frozenset(var_cls[x] for x in lang.arity[r])

    reference = {}
    for x in lang.variables:
        if reference.setdefault(var_cls[x], ref(x)) != ref(x):
            raise IncompatibleQuotient(*first_clash(lang.variables, var_cls, ref),
                                       "merged variables have unrelated references")
    arity = {}
    for r in lang.relation_types:
        if arity.setdefault(rel_cls[r], arity_of(r)) != arity_of(r):
            raise IncompatibleQuotient(*first_clash(lang.relation_types, rel_cls, arity_of),
                                       "merged relation types have incompatible arities")
    q = TypeLanguage(frozenset(var_cls.values()), frozenset(ent_cls.values()),
                     frozenset(rel_cls.values()), fdict(reference), fdict(arity))
    canon = LanguageMorphism.make(lang, q, dict(var_cls), dict(ent_cls), dict(rel_cls))
    return q, canon
