"""Finite first-order models over a type language, with lax satisfaction.

A model is an entity classification, a relation classification and an
instance hypergraph over one language, and its constructions are
theirs.  Its keyed sum (the sum, or the part of it on a span's
pullback) is one hypergraph product over the keys, whose nodes and
edges are the instances of the two classification sums.  Its dual
quotient quotients the two classifications; on the relation side only
the types whose arity a tuple's valuation covers bear on the tuple, so
respect is lax.  Relation instances are abstract tuple tokens,
each mapped to a valuation into the entities whose domain is its
variable-set arity, so the tuple set and the arities are views of that
one map.  The common case (built by :meth:`Model.from_extents`) uses
well-sorted assignments as their own tokens, with incidence derived by
the lax rule "the restriction of the tuple lies in the extent", which
``_lax_incidence`` alone applies, to extents held as rows.  Keeping
tokens abstract matters because the free model over a theory has
relation instances that share a valuation but differ in incidence.
A model is checked where it enters (the reader, :meth:`Model.from_extents`);
the constructions here and in :mod:`ontofuse.logic` do not check again.

Evaluation reads two indexes that a model builds on first use: for
each relation type its classified rows (valuations restricted to the
relation's arity, as value tuples in the language's ``arity_order``),
each mapped to the mask 1, and for each entity type its entities in
token order.  The row index also gives ``relation_extent`` and the
writer's extent test.  A model is frozen, so the indexes never go
stale; a copy made with ``dataclasses.replace`` builds its own.

An expression is compiled once, by ``_compile``, into a closure that
returns a mask: an int whose bit c says whether the expression holds in
candidate c.  A model is one candidate, so its masks are 0 and 1.  The
bounded search of :mod:`ontofuse.theory` hands the same closure a block
of one skeleton's candidates, whose atom masks set the bit of each
candidate that holds the row, and so evaluates all of them at once with
``&``, ``|`` and ``^`` (bit-slicing, after Biham 1997).  Each caller
compiles once and evaluates many times (the search once per search,
:func:`satisfies` once per call, a tuple test once per image).  A
quantifier whose body holds another quantifier memoises its result on
the values of its free variables, and drops the memo when it is called
on another model or block, so nested quantifiers cost time linear in
their number rather than exponential.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .classification import (Classification, ClassificationInvariant, Infomorphism,
                             classification_quotient, classification_sum, first_clash,
                             infomorphism_valid)
from .errors import (DomainMismatch, IncompatibleQuotient, LaxViolation, check_total,
                     raise_first_fault)
from .hypergraph import Hypergraph, hypergraph_product, unkeyed
from .language import (And, Atomic, Exists, Expression, Forall, Implies,
                       LanguageEndorelation, LanguageMorphism, Not, Or, Subst,
                       TypeLanguage, free_vars, language_morphism_valid,
                       language_quotient, language_sum)
from .tokens import FrozenDict, Token, fdict, ltag, rtag, sorted_tokens, token_key


Assignment = FrozenDict  # variables -> entities, finite domain


def _lax_incidence(language: TypeLanguage, valuation: Mapping,
                   rows: Mapping) -> Iterator[tuple]:
    """The lax rule: each (tuple token, relation type) pair such that the
    token's valuation restricted to the type's arity is one of the type's
    ``rows``, value tuples in the language's arity order."""
    for rho, extent in rows.items():
        arity, order = language.arity[rho], language.arity_order[rho]
        for t, val in valuation.items():
            if arity <= val.keys() and tuple(map(val.__getitem__, order)) in extent:
                yield t, rho


@dataclass(frozen=True)
class Model:
    language: TypeLanguage
    entities: frozenset
    entity_incidence: frozenset  # (entity, entity type)
    tuple_valuation: FrozenDict  # tuple token -> Assignment, its domain the arity
    relation_incidence: frozenset  # (token, relation type)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_extents(language: TypeLanguage, entities: Iterable,
                     entity_incidence: Iterable, extents: Mapping,
                     extra_tuples: Iterable = ()) -> "Model":
        """Build a model whose tuples are the extent assignments themselves.

        ``extents`` maps relation types to iterables of assignments with
        domain exactly the relation's arity; an unknown relation type or
        another domain raises DomainMismatch, naming the token-order-first
        offender.  ``extra_tuples`` adds further well-sorted assignments
        as hyperedges; incidence is the lax one, derived from each
        extent's rows by :func:`_lax_incidence`.
        """
        raise_first_fault((rho, f"extent of unknown relation type {rho!r}")
                          for rho in set(extents) - language.relation_types)
        ext = {rho: frozenset(fdict(t) for t in extents.get(rho, ()))
               for rho in language.relation_types}
        raise_first_fault(((rho, t), f"extent row {t!r} of {rho!r} not total exactly on its arity")
                          for rho, rows in ext.items() for t in rows
                          if t.keys() != language.arity[rho])
        valuation = {t: t for t in itertools.chain(*ext.values())}
        valuation.update((t, t) for t in map(fdict, extra_tuples))
        order = language.arity_order
        rows = {rho: frozenset(tuple(map(t.__getitem__, order[rho])) for t in ts)
                for rho, ts in ext.items()}
        m = Model(language, frozenset(entities), frozenset(tuple(p) for p in entity_incidence),
                  fdict(valuation), frozenset(_lax_incidence(language, valuation, rows)))
        m.check()
        return m

    @staticmethod
    def empty(language: TypeLanguage) -> "Model":
        return Model.from_extents(language, (), (), {})

    def check(self, well_sorted: bool = True) -> None:
        """Structural sanity; pass well_sorted=False to skip sort membership.

        It runs where a model enters, not after the constructions over
        checked models.  Free models (and their sums and quotients) value
        uncovered coordinates outside their sort's extent.  Each kind of
        fault is checked in turn, and DomainMismatch names the
        token-order-first offender of the first kind found.
        """
        raise_first_fault(((e, a), f"entity incidence pair ({e!r}, {a!r}) out of range")
                          for (e, a) in self.entity_incidence
                          if e not in self.entities or a not in self.language.entity_types)
        self.instance_hypergraph().check()
        if well_sorted:
            raise_first_fault(((t, x), f"tuple {t!r} ill-sorted at {x!r}")
                              for t, val in self.tuple_valuation.items()
                              for x, e in val.items()
                              if not self.entity_classifies(e, self.language.reference[x]))
        raise_first_fault(self._incidence_faults())

    def _incidence_faults(self):
        for (t, rho) in self.relation_incidence:
            val = self.tuple_valuation.get(t)
            if val is None or rho not in self.language.relation_types:
                yield (t, rho), f"relation incidence pair ({t!r}, {rho!r}) out of range"
            elif not self.language.arity[rho] <= val.keys():
                yield (t, rho), f"{t!r} classified by {rho!r} of larger arity"

    def restrict(self, entities: Iterable, tuples: Iterable) -> "Model":
        """The sub-model on the given entities and those given tuples valued among them."""
        entities = frozenset(entities)
        valuation = {t: self.tuple_valuation[t] for t in tuples
                     if all(v in entities for v in self.tuple_valuation[t].values())}
        return Model(self.language, entities,
                     frozenset(p for p in self.entity_incidence if p[0] in entities),
                     fdict(valuation),
                     frozenset(p for p in self.relation_incidence if p[0] in valuation))

    # -- indexes -----------------------------------------------------------

    @cached_property
    def tuples(self) -> frozenset:
        """The tuple tokens: the valuation's keys."""
        return frozenset(self.tuple_valuation)

    @cached_property
    def tuple_arity(self) -> FrozenDict:
        """Token -> its arity, the domain of its valuation."""
        return fdict({t: frozenset(val) for t, val in self.tuple_valuation.items()})

    # The model as the one candidate the evaluator reads (see _compile):
    # each classified row holds in it.
    _full = 1

    @cached_property
    def _masks(self) -> dict:
        """Relation type -> each of its classified rows (valuations restricted
        to the relation's arity, as value tuples in the language's arity
        order) -> 1."""
        order = self.language.arity_order
        masks = {rho: {} for rho in order}
        for (t, rho) in self.relation_incidence:
            masks[rho][tuple(map(self.tuple_valuation[t].__getitem__, order[rho]))] = 1
        return masks

    @cached_property
    def _pools(self) -> dict:
        """Entity type -> its entities, in token order."""
        pools = {a: [] for a in self.language.entity_types}
        for (e, a) in self.entity_incidence:
            pools[a].append(e)
        return {a: tuple(sorted_tokens(es)) for a, es in pools.items()}

    # -- views -------------------------------------------------------------

    def entity_classifies(self, e: Token, a: Token) -> bool:
        return (e, a) in self.entity_incidence

    def relation_extent(self, rho: Token) -> frozenset:
        """Extent as assignments with domain exactly arity(rho), from incidence."""
        order = self.language.arity_order[rho]
        return frozenset(fdict(zip(order, row)) for row in self._masks[rho])

    def tuple_classifies(self, t: Token, rho: Token) -> bool:
        return (t, rho) in self.relation_incidence

    def entity_classification(self) -> Classification:
        return Classification(self.entities, self.language.entity_types, self.entity_incidence)

    def relation_classification(self) -> Classification:
        return Classification(self.tuples, self.language.relation_types, self.relation_incidence)

    def instance_hypergraph(self) -> Hypergraph:
        return Hypergraph(self.language.variables, self.entities, self.tuple_valuation)

    def well_sorted_assignments(self, domain: Iterable) -> list[Assignment]:
        """All assignments with the given domain, each value in its sort's extent."""
        dom = sorted_tokens(set(domain))
        pools = [self._pools[self.language.reference[x]] for x in dom]
        return [fdict(zip(dom, combo)) for combo in itertools.product(*pools)]


# --- satisfaction ----------------------------------------------------------

def holds(m: Model, t: Mapping, e: Expression) -> bool:
    """Lax satisfaction: evaluate e under the restriction of assignment t."""
    fv = free_vars(m.language, e)
    if not fv <= set(t):
        raise LaxViolation(f"assignment domain {sorted_tokens(t)} lacks {sorted_tokens(fv - set(t))}")
    return _compile(m.language, e)(m, t) == 1


def satisfies(m: Model, e: Expression) -> bool:
    """True iff e holds under every well-sorted assignment on its free variables.

    Each assignment has exactly the free variables as its domain, so the
    lax domain check of :func:`holds` is not repeated.
    """
    f = _compile(m.language, e)
    return all(f(m, t) for t in m.well_sorted_assignments(free_vars(m.language, e)))


def _compile(lang: TypeLanguage, e: Expression) -> Callable[[object, Mapping], int]:
    """e over lang as a closure f(m, t): the mask of m's candidates in which
    e holds under t.

    m is a Model or a block of search candidates, and t maps e's free
    variables to entities.  Either kind of m has ``_masks`` (relation type
    -> row -> the mask of the candidates that hold it; a row absent holds
    in none), ``_pools`` and ``_full``, the mask of all its candidates.
    Bit c of a mask stands for candidate c; a Model is one candidate, so
    its masks are 0 and 1.  The tree is walked here, once: an atom bakes
    in its arity order, a substitution its variable pairs.  ``and``,
    ``or`` and ``implies`` skip their right side once the left decides
    every candidate, and a quantifier stops once its accumulated mask
    does.  A quantifier whose body holds another quantifier runs its body
    at most once per binding of its own free variables and per m (see the
    module docstring).
    """
    def build(e) -> tuple[Callable, bool]:  # the closure, whether e holds a quantifier
        if isinstance(e, Atomic):
            rho, order = e.relation, lang.arity_order[e.relation]
            if len(order) == 1:
                x, = order
                return (lambda m, t: m._masks[rho].get((t[x],), 0)), False
            if len(order) == 2:
                x, y = order
                return (lambda m, t: m._masks[rho].get((t[x], t[y]), 0)), False
            return (lambda m, t: m._masks[rho].get(tuple(map(t.__getitem__, order)), 0)), False
        if isinstance(e, Not):
            body, quantified = build(e.body)
            return (lambda m, t: m._full ^ body(m, t)), quantified
        if isinstance(e, (And, Or, Implies)):
            (left, ql), (right, qr) = build(e.left), build(e.right)
            if isinstance(e, And):
                def conjunction(m, t):
                    v = left(m, t)
                    return v and v & right(m, t)
                return conjunction, ql or qr
            if isinstance(e, Or):
                def disjunction(m, t):
                    v = left(m, t)
                    return v if v == m._full else v | right(m, t)
                return disjunction, ql or qr

            def implication(m, t):
                v = m._full ^ left(m, t)
                return v if v == m._full else v | right(m, t)
            return implication, ql or qr
        if isinstance(e, (Exists, Forall)):
            body, nested = build(e.body)
            var, sort = e.var, lang.reference[e.var]
            if isinstance(e, Exists):
                def quantify(m, t):  # the candidates where some binding holds
                    bound, acc = dict(t), 0
                    for c in m._pools[sort]:
                        bound[var] = c
                        acc |= body(m, bound)
                        if acc == m._full:
                            break
                    return acc
            else:
                def quantify(m, t):  # the candidates where every binding holds
                    bound, acc = dict(t), m._full
                    for c in m._pools[sort]:
                        bound[var] = c
                        acc &= body(m, bound)
                        if not acc:
                            break
                    return acc
            if not nested:
                return quantify, True
            key_vars = tuple(sorted_tokens(free_vars(lang, e)))
            memo, seen = {}, None

            def memoised(m, t):
                nonlocal seen
                if m is not seen:
                    memo.clear()
                    seen = m
                key = tuple([t[x] for x in key_vars])
                value = memo.get(key)
                if value is None:
                    value = memo[key] = quantify(m, t)
                return value
            return memoised, True
        if isinstance(e, Subst):
            body, quantified = build(e.body)
            pairs = tuple((y, e.mapping[y]) for y in sorted_tokens(free_vars(lang, e.body)))
            return (lambda m, t: body(m, {y: t[x] for y, x in pairs})), quantified
        raise TypeError(f"not an expression: {e!r}")
    return build(e)[0]


# --- morphisms -------------------------------------------------------------

@dataclass(frozen=True)
class ModelMorphism:
    """Types forward via the language morphism, instances backward."""

    language_morphism: LanguageMorphism
    source: Model
    target: Model
    entity_map: FrozenDict  # target.entities -> source.entities
    tuple_map: FrozenDict  # target.tuples -> source.tuples

    @staticmethod
    def make(language_morphism, source, target, entity_map: Mapping,
             tuple_map: Mapping) -> "ModelMorphism":
        return ModelMorphism(language_morphism, source, target,
                             fdict(entity_map), fdict(tuple_map))


def token_satisfies(m: Model, image: Token | Expression) -> Callable[[Token], bool]:
    """The test whether a tuple of m satisfies an image: a relation type or
    an expression, compiled once for every tuple it is given.

    Relation types and atomics read incidence; any other expression is
    satisfied laxly.
    """
    if image in m.language.relation_types:
        return lambda t: (t, image) in m.relation_incidence
    if isinstance(image, Atomic):
        return lambda t: (t, image.relation) in m.relation_incidence
    f, fv = _compile(m.language, image), free_vars(m.language, image)

    def test(t):
        val = m.tuple_valuation[t]
        return fv <= val.keys() and f(m, val) == 1
    return test


def model_morphism_valid(f: ModelMorphism) -> tuple[bool, Optional[tuple]]:
    """Infomorphism conditions on both classifications plus arity coherence.

    Arity coherence pins the image tuple's arity to the varMap preimage
    of the target tuple's arity.  Point valuations are not compared, so
    intent-style morphisms such as the counit are morphisms.
    """
    ok, why = language_morphism_valid(f.language_morphism)
    if not ok:
        return False, ("language", why)
    lm = f.language_morphism
    if lm.source != f.source.language or lm.target != f.target.language:
        raise DomainMismatch("language morphism does not connect the models' languages")
    check_total(f.tuple_map, f.target.tuples, f.source.tuples, "tuple map")
    ok, why = infomorphism_valid(Infomorphism(
        f.source.entity_classification(), f.target.entity_classification(),
        lm.entity_map, f.entity_map))
    if not ok:
        return False, ("entity",) + why
    rhos = sorted_tokens(f.source.language.relation_types)
    images = {rho: token_satisfies(f.target, lm.relation_map[rho]) for rho in rhos}
    for t in sorted_tokens(f.target.tuples):
        s = f.tuple_map[t]
        t_arity = f.target.tuple_arity[t]
        preimage = frozenset(x for x in lm.source.variables if lm.var_map[x] in t_arity)
        if f.source.tuple_arity[s] != preimage:
            return False, ("arity-preimage", t)
        for rho in rhos:
            if f.source.tuple_classifies(s, rho) != images[rho](t):
                return False, ("relation", t, rho)
    return True, None


# --- sums and dual quotients ----------------------------------------------

def model_sum(a: Model, b: Model, entity_keys: tuple[Callable, Callable] = (unkeyed, unkeyed),
              tuple_keys: tuple[Callable, Callable] = (unkeyed, unkeyed)
              ) -> tuple[Model, ModelMorphism, ModelMorphism]:
    """The instance pairs on which the keys agree, over the sum of the
    languages; each injection's instance maps project a pair.

    The pairs are those of the hypergraph product over the keys, and its
    nodes and edges are the instances of the entity and relation
    classification sums, which classify a pair by its members' tagged
    intents.  Both tags of a shared variable value a tuple pair, keeping
    it well-sorted against the tagged reference.  The constant keys (the
    default) give the sum, every instance pair; a span's backward
    instance maps give the sub-sum on its pullback, which is what fusion
    quotients.
    """
    lang, inj1, inj2 = language_sum(a.language, b.language)
    prod = hypergraph_product(a.instance_hypergraph(), b.instance_hypergraph(),
                              entity_keys, tuple_keys)
    ents = classification_sum(a.entity_classification(), b.entity_classification(), prod.nodes)
    rels = classification_sum(a.relation_classification(), b.relation_classification(),
                              prod.valuation)
    valuation = {tok: fdict({**{ltag(x): v for x, v in pairs.items()},
                             **{rtag(x): v for x, v in pairs.items()}})
                 for tok, pairs in prod.valuation.items()}
    s = Model(lang, ents.instances, ents.incidence, fdict(valuation), rels.incidence)
    nu1 = ModelMorphism.make(inj1, a, s, {p: p[0] for p in s.entities},
                             {t: t[0] for t in s.tuples})
    nu2 = ModelMorphism.make(inj2, b, s, {p: p[1] for p in s.entities},
                             {t: t[1] for t in s.tuples})
    return s, nu1, nu2


@dataclass(frozen=True)
class ModelDualInvariant:
    """Retained instances plus a type-language endorelation."""

    entity_subset: frozenset
    tuple_subset: frozenset
    type_relation: LanguageEndorelation

    @staticmethod
    def make(entity_subset: Iterable, tuple_subset: Iterable,
             type_relation: LanguageEndorelation) -> "ModelDualInvariant":
        return ModelDualInvariant(frozenset(entity_subset), frozenset(tuple_subset),
                                  type_relation)

    @staticmethod
    def identity(m: Model) -> "ModelDualInvariant":
        return ModelDualInvariant(m.entities, m.tuples, LanguageEndorelation.make())


def model_dual_quotient(a: Model, j: ModelDualInvariant) -> tuple[Model, ModelMorphism]:
    """Quotient language and classifications, keep j's instances (tuple-closed).

    Tuples referencing dropped entities are dropped (sub-hypergraph
    closure).  Both classifications are quotiented by
    :func:`classification_quotient`, the relation one with the lax rule:
    a relation type applies to a tuple when the tuple's arity covers the
    type's.  So RespectViolation is raised, with that function's witness,
    when a retained instance distinguishes two identified types that
    apply to it; IncompatibleQuotient when a retained tuple values two
    merged variables differently, naming the token-order-first such
    tuple and its token-order-first such variable.
    """
    if not j.entity_subset <= a.entities or not j.tuple_subset <= a.tuples:
        raise DomainMismatch("invariant subsets exceed the model's instances")
    lang, canon = language_quotient(a.language, j.type_relation)
    if j.entity_subset == a.entities and j.tuple_subset == a.tuples:
        kept = a  # every tuple is valued inside the entities (Model.check)
    else:
        kept = a.restrict(j.entity_subset, j.tuple_subset)
    ents, ent_canon = classification_quotient(
        kept.entity_classification(),
        ClassificationInvariant(kept.entities, j.type_relation.entity_pairs))
    rels, rel_canon = classification_quotient(
        kept.relation_classification(),
        ClassificationInvariant(kept.tuples, j.type_relation.relation_pairs),
        lambda t, r: a.language.arity[r] <= kept.tuple_valuation[t].keys())
    var_cls = canon.var_map
    valuation, clashes = {}, []
    for t, old in kept.tuple_valuation.items():
        val = {}
        for x, v in old.items():
            if val.setdefault(var_cls[x], v) != v:
                clashes.append(t)
                break
        valuation[t] = fdict(val)
    if clashes:
        t = min(clashes, key=token_key)
        x, _ = first_clash(a.tuple_valuation[t], var_cls, a.tuple_valuation[t].__getitem__)
        raise IncompatibleQuotient(x, var_cls[x], f"tuple {t!r} values merged variables differently")
    q = Model(lang, ents.instances, ents.incidence, fdict(valuation), rels.incidence)
    morphism = ModelMorphism.make(canon, a, q, ent_canon.instance_map, rel_canon.instance_map)
    return q, morphism
