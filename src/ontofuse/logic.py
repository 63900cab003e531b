"""Logics (theory + model + normal instances) and their calculus.

This layer carries the integration machinery: soundness, free logics
and the adjunction, sums, dual quotients, fusion pushouts, restriction
to a sub-universe, and fiber reclassification along a theory morphism.
A sum or quotient of logics is that of their models, each theory
translated along its language morphism; a fusion quotients a keyed sum.
The adjunction is built from its parts: the transpose of g : T => th(l)
is the counit of the fiber of l along g, followed by the fiber's
inclusion into l.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .classification import power_classification
from .errors import (BudgetExceeded, DomainMismatch, SoundnessViolation, check_total,
                     raise_first_fault)
from .language import (Expression, LanguageMorphism, TypeLanguage,
                       compose_language_morphisms, identity_language_morphism,
                       free_vars, language_morphism_valid, span_relation)
from .model import (Model, ModelDualInvariant, ModelMorphism, _compile, fdict,
                    model_dual_quotient, model_morphism_valid, model_sum,
                    token_satisfies)
from .theory import (DEFAULT_BUDGET, MorphismVerdict, Theory, TheoryMorphism,
                     _translated, theory_morphism_valid)
from .tokens import sorted_tokens


@dataclass(frozen=True)
class Logic:
    theory: Theory
    model: Model
    normal_entities: frozenset
    normal_tuples: frozenset

    @staticmethod
    def make(theory: Theory, model: Model, normal_entities: Optional[Iterable] = None,
             normal_tuples: Optional[Iterable] = None) -> "Logic":
        """Normal subsets default to everything (a sound logic)."""
        ne = model.entities if normal_entities is None else frozenset(normal_entities)
        nt = model.tuples if normal_tuples is None else frozenset(normal_tuples)
        l = Logic(theory, model, ne, nt)
        l.check()
        return l

    def check(self) -> None:
        if self.theory.language != self.model.language:
            raise DomainMismatch("theory and model do not share a language")
        if not self.normal_entities <= self.model.entities:
            raise DomainMismatch("normal entities exceed the universe")
        if not self.normal_tuples <= self.model.tuples:
            raise DomainMismatch("normal tuples exceed the tuples")
        valuation = self.model.tuple_valuation
        raise_first_fault((t, f"normal tuple {t!r} has an abnormal component")
                          for t in self.normal_tuples
                          if not self.normal_entities.issuperset(valuation[t].values()))

    @property
    def language(self) -> TypeLanguage:
        return self.theory.language


def is_sound(l: Logic) -> bool:
    """Sound iff every entity and every tuple is normal."""
    return l.normal_entities == l.model.entities and l.normal_tuples == l.model.tuples


def sound_part(l: Logic) -> Logic:
    """Throw away abnormal instances; restrict both classifications."""
    restricted = l.model.restrict(l.normal_entities, l.normal_tuples)
    return Logic(l.theory, restricted, restricted.entities, restricted.tuples)


# --- morphisms -------------------------------------------------------------

@dataclass(frozen=True)
class LogicMorphism:
    """One language morphism shared by the theory and model aspects."""

    source: Logic
    target: Logic
    language_morphism: LanguageMorphism
    entity_map: Mapping  # target entities -> source entities
    tuple_map: Mapping  # target tuples -> source tuples

    @staticmethod
    def make(source, target, language_morphism, entity_map: Mapping,
             tuple_map: Mapping) -> "LogicMorphism":
        return LogicMorphism(source, target, language_morphism,
                             fdict(entity_map), fdict(tuple_map))

    def theory_aspect(self) -> TheoryMorphism:
        return TheoryMorphism(self.language_morphism, self.source.theory, self.target.theory)

    def model_aspect(self) -> ModelMorphism:
        return ModelMorphism(self.language_morphism, self.source.model,
                             self.target.model, self.entity_map, self.tuple_map)


def identity_logic_morphism(l: Logic) -> LogicMorphism:
    return LogicMorphism.make(l, l, identity_language_morphism(l.language),
                              {e: e for e in l.model.entities},
                              {t: t for t in l.model.tuples})


def compose_logic_morphisms(f: LogicMorphism, g: LogicMorphism) -> LogicMorphism:
    if f.target != g.source:
        raise DomainMismatch("logic morphisms not composable")
    return LogicMorphism.make(
        f.source, g.target,
        compose_language_morphisms(f.language_morphism, g.language_morphism),
        {b: f.entity_map[a] for b, a in g.entity_map.items()},
        {t: f.tuple_map[s] for t, s in g.tuple_map.items()})


def logic_morphism_valid(f: LogicMorphism, max_entities: int,
                         budget: int = DEFAULT_BUDGET) -> MorphismVerdict:
    """Theory aspect (bound-qualified) and model aspect verdicts, conjoined."""
    tv = theory_morphism_valid(f.theory_aspect(), max_entities, budget)
    if not tv:
        return MorphismVerdict(False, tv.per_axiom, ("theory", tv.detail))
    ok, why = model_morphism_valid(f.model_aspect())
    if not ok:
        return MorphismVerdict(False, tv.per_axiom, ("model", why))
    return MorphismVerdict(True, tv.per_axiom)


# --- free logic and the adjunction -----------------------------------------

def free_tuple_tokens(lang: TypeLanguage) -> Iterator[tuple]:
    """All (X, R) pairs: X a variable subset, R relation types with arity within X.

    The pairs are produced lazily, so a caller can stop at a budget
    before the 2^|variables| subsets are all listed.
    """
    variables = sorted_tokens(lang.variables)
    relations = sorted_tokens(lang.relation_types)
    x_sets = (frozenset(xs) for n in range(len(variables) + 1)
              for xs in itertools.combinations(variables, n))
    return ((x_set, frozenset(rs))
            for x_set in x_sets
            for fitting in ([r for r in relations if lang.arity[r] <= x_set],)
            for k in range(len(fitting) + 1)
            for rs in itertools.combinations(fitting, k))


def free_signature(lang: TypeLanguage, x_set: frozenset, rels: frozenset) -> dict:
    """Coordinate at x: the signature sorts of the members whose arity covers x."""
    return {x: frozenset(lang.reference[x] for r in rels if x in lang.arity[r])
            for x in x_set}


def free_logic(t: Theory, budget: int = DEFAULT_BUDGET) -> Logic:
    """The logic freely generated over a theory.

    Entity instances are the subsets of the entity types (classified by
    membership); relation instances are the (X, R) pairs with the
    signature-coordinate valuation.  Tuples failing an applicable axiom
    are marked abnormal and the sound part is returned.
    """
    lang = t.language
    n_entities = 2 ** len(lang.entity_types)
    if n_entities > budget:
        raise BudgetExceeded(f"power classification would have {n_entities} instances")
    power = power_classification(lang.entity_types)
    tokens = list(itertools.islice(free_tuple_tokens(lang), budget + 1))
    if len(tokens) > budget:
        raise BudgetExceeded(f"free model would have more than {budget} tuples")
    valuation = {tok: fdict(free_signature(lang, tok[0], tok[1])) for tok in tokens}
    rel_inc = [(tok, r) for tok in tokens for r in tok[1]]
    model = Model(lang, power.instances, power.incidence, fdict(valuation), frozenset(rel_inc))
    logic = Logic(t, model, model.entities,
                  frozenset(filter(_tuple_conforms(model, t), tokens)))
    return sound_part(logic)


def _tuple_conforms(model: Model, t: Theory) -> Callable[[tuple], bool]:
    """The test whether a tuple's valuation satisfies each axiom of t whose
    free variables it covers, with the axioms compiled once."""
    axioms = [(free_vars(model.language, a), _compile(model.language, a)) for a in t.axioms]

    def conforms(token) -> bool:
        val = model.tuple_valuation[token]
        return all(f(model, val) for fv, f in axioms if fv <= val.keys())
    return conforms


def counit(l: Logic, budget: int = DEFAULT_BUDGET) -> LogicMorphism:
    """Canonical morphism from the free logic over th(l) back to the sound logic l.

    Identity on types; an entity goes to its intent, a tuple to the pair
    of its arity and its intent, each a token of the free logic.  A tuple
    whose pair fails an axiom there has no image; SoundnessViolation names
    the token-order-first such tuple.
    """
    if not is_sound(l):
        raise SoundnessViolation("the counit requires a sound logic")
    free = free_logic(l.theory, budget)
    entity_intent = l.model.entity_classification().intent
    tuple_intent = l.model.relation_classification().intent
    tuple_map = {t: (frozenset(val), tuple_intent(t))
                 for t, val in l.model.tuple_valuation.items()}
    abnormal = [t for t, tok in tuple_map.items() if tok not in free.model.tuples]
    if abnormal:
        raise SoundnessViolation(f"the image of tuple {sorted_tokens(abnormal)[0]!r} "
                                 "was abnormal in the free logic")
    return LogicMorphism.make(free, l, identity_language_morphism(l.language),
                              {e: entity_intent(e) for e in l.model.entities}, tuple_map)


def transpose(g: TheoryMorphism, l: Logic, budget: int = DEFAULT_BUDGET) -> LogicMorphism:
    """Adjoint transpose: lift g : T => th(l) to free_logic(T) => l.

    The counit of the fiber of l along g, followed by the fiber's
    inclusion into l.
    """
    fib, inclusion = fiber(g, l)
    return compose_logic_morphisms(counit(fib, budget), inclusion)


# --- sums, quotients, fusion -----------------------------------------------

def _logic_over_sum(l1: Logic, l2: Logic, s: Model, mu1: ModelMorphism,
                    mu2: ModelMorphism) -> tuple[Logic, LogicMorphism, LogicMorphism]:
    """The logic over s, a keyed model sum of l1's and l2's models with
    injections mu1 and mu2: each theory's axioms translated along its
    injection's language morphism, and a pair normal iff both halves are."""
    axioms = _translated(mu1.language_morphism, l1.theory) | \
        _translated(mu2.language_morphism, l2.theory)
    normal_entities = frozenset(p for p in s.entities
                                if p[0] in l1.normal_entities and p[1] in l2.normal_entities)
    normal_tuples = frozenset(p for p in s.tuples
                              if p[0] in l1.normal_tuples and p[1] in l2.normal_tuples)
    out = Logic(Theory(s.language, axioms), s, normal_entities, normal_tuples)
    return (out, LogicMorphism.make(l1, out, mu1.language_morphism, mu1.entity_map, mu1.tuple_map),
            LogicMorphism.make(l2, out, mu2.language_morphism, mu2.entity_map, mu2.tuple_map))


def logic_sum(l1: Logic, l2: Logic) -> tuple[Logic, LogicMorphism, LogicMorphism]:
    """The logic over the model sum; a pair is normal iff both halves are."""
    return _logic_over_sum(l1, l2, *model_sum(l1.model, l2.model))


LogicDualInvariant = ModelDualInvariant  # the theory part shares the type relation


def logic_dual_quotient(l: Logic, j: ModelDualInvariant) -> tuple[Logic, LogicMorphism]:
    """Quotient the model by j; translate the theory along its canonical morphism."""
    qm, m_canon = model_dual_quotient(l.model, j)
    canon = m_canon.language_morphism
    q = Logic(Theory(qm.language, _translated(canon, l.theory)), qm,
              l.normal_entities & qm.entities, l.normal_tuples & qm.tuples)
    return q, LogicMorphism.make(l, q, canon, m_canon.entity_map, m_canon.tuple_map)


def _check_span(f0: LogicMorphism, f1: LogicMorphism) -> None:
    """Raise DomainMismatch unless the legs share a source and neither refines."""
    if f0.source != f1.source:
        raise DomainMismatch("fusion requires a common source logic")
    for f in (f0, f1):
        if any(isinstance(v, Expression) for v in f.language_morphism.relation_map.values()):
            raise DomainMismatch("fusion requires non-refinement alignment links")


def fusion(f0: LogicMorphism, f1: LogicMorphism) -> tuple[Logic, LogicMorphism, LogicMorphism]:
    """Pushout of a span f0: K => L0, f1: K => L1: the quotient of the sum
    of L0 and L1 by the invariant the span induces.

    That invariant keeps the instance pairs on which the backward maps
    agree (the span's pullback), so the sum is built on them alone, keyed
    by the legs' instance maps, and dual-quotiented by the span's type
    relation.  The sum's injections followed by the quotient's canonical
    morphism are the pushout's: returns (fused, from L0, from L1).
    """
    for f in (f0, f1):
        if not (is_sound(f.source) and is_sound(f.target)):
            raise SoundnessViolation("fusion requires sound logics throughout")
    _check_span(f0, f1)
    k = f0.source
    for f, side in ((f0, "left"), (f1, "right")):
        lm, lang, m = f.language_morphism, f.target.language, f.target.model
        check_total(lm.var_map, k.language.variables, lang.variables, f"{side} variable map")
        check_total(lm.entity_map, k.language.entity_types, lang.entity_types,
                    f"{side} entity-type map")
        check_total(lm.relation_map, k.language.relation_types, lang.relation_types,
                    f"{side} relation map")
        check_total(f.entity_map, m.entities, k.model.entities, f"{side} entity map")
        check_total(f.tuple_map, m.tuples, k.model.tuples, f"{side} tuple map")
    keys = ((f0.entity_map.__getitem__, f1.entity_map.__getitem__),
            (f0.tuple_map.__getitem__, f1.tuple_map.__getitem__))
    s, nu0, nu1 = _logic_over_sum(f0.target, f1.target,
                                  *model_sum(f0.target.model, f1.target.model, *keys))
    relation = span_relation(f0.language_morphism, f1.language_morphism)
    fused, q = logic_dual_quotient(s, ModelDualInvariant(s.model.entities, s.model.tuples,
                                                         relation))
    return fused, compose_logic_morphisms(nu0, q), compose_logic_morphisms(nu1, q)


# --- restriction and fibers ------------------------------------------------

def restrict_logic(l: Logic, c: Iterable) -> tuple[Logic, LogicMorphism]:
    """l@C: keep the entities of C and the tuples valued inside C.

    The portal morphism l => l@C is the identity on types and the
    inclusion on instances.
    """
    c = frozenset(c)
    if not c <= l.model.entities:
        raise DomainMismatch("restriction set is not a subset of the universe")
    restricted = l.model.restrict(c, l.model.tuples)
    out = Logic(l.theory, restricted, c & l.normal_entities,
                restricted.tuples & l.normal_tuples)
    portal = LogicMorphism.make(l, out, identity_language_morphism(l.language),
                                {e: e for e in c}, {t: t for t in restricted.tuples})
    return out, portal


def fiber(g: TheoryMorphism, p: Logic) -> tuple[Logic, LogicMorphism]:
    """Inverse-image reclassification of the sound logic p along g : T => th(p).

    The fiber has p's instances and theory T: a T type classifies an
    instance exactly when p classifies it by the type's image, and tuple
    arities are re-indexed by the varMap preimage.  Returns the fiber
    and its inclusion fiber => p (g on types, identity on instances).
    g must preserve reference and arity, so the fiber is well-sorted
    wherever p is, and a type classifies only tuples whose arity covers
    its own (its image's arity lies inside the tuple's); it is not checked.
    """
    if g.target != p.theory:
        raise DomainMismatch("g's target theory must be the logic's theory")
    if not is_sound(p):
        raise SoundnessViolation("reclassification along g requires a sound logic")
    lm, lang, m = g.language_morphism, g.source.language, p.model
    ok, witness = language_morphism_valid(lm)
    if not ok:
        raise DomainMismatch(f"g does not preserve {witness[0]} at {witness[1]!r}")
    valuation = {t: fdict({x: val[lm.var_map[x]] for x in lang.variables
                           if lm.var_map[x] in val})
                 for t, val in m.tuple_valuation.items()}
    images = {r: token_satisfies(m, lm.relation_map[r]) for r in lang.relation_types}
    model = Model(lang, m.entities,
                  frozenset((e, a) for e in m.entities for a in lang.entity_types
                            if m.entity_classifies(e, lm.entity_map[a])),
                  fdict(valuation),
                  frozenset((t, r) for t in valuation for r in lang.relation_types
                            if images[r](t)))
    fib = Logic(g.source, model, m.entities, m.tuples)
    return fib, LogicMorphism.make(fib, p, lm, {e: e for e in m.entities},
                                   {t: t for t in m.tuples})
