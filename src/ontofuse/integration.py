"""End-to-end ontology integration: alignment, fusion, and the practical path.

Alignment builds the W-shaped diagram: community logics, portals,
portal links, a mediating theory with theoretical links into the
portals' theories, and the derived logical links obtained by the free
adjunction.  Unification fuses the diagram: the pushout of the logical
links, the quotient of the portal sum by the invariant they induce,
which fusion builds only on the pullback of the links: the portals'
sum keyed by the links' instance maps.

The practical path restricts both communities to a common part C and
fuses the two fiber inclusions over it: the C-fusion.  The free fusion
of the transposes is built only when the report's comparison morphism
is read, which happens before the call returns when the links'
variable maps differ.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import AgreementFailure, DomainMismatch, EdgeInvalid
from .language import identity_language_morphism
from .logic import (Logic, LogicMorphism, compose_logic_morphisms, counit, fiber,
                    fusion, is_sound, logic_morphism_valid, restrict_logic,
                    transpose)
from .model import Model, fdict, model_morphism_valid
from .theory import DEFAULT_BUDGET, Theory, TheoryMorphism, theory_morphism_valid
from .tokens import sorted_tokens


@dataclass(frozen=True)
class AlignmentDiagram:
    community_left: Logic
    community_right: Logic
    portal_left: Logic
    portal_right: Logic
    portal_link_left: LogicMorphism  # L1 => P1
    portal_link_right: LogicMorphism  # L2 => P2
    mediating_theory: Theory
    theoretical_link_left: TheoryMorphism  # T => th(P1)
    theoretical_link_right: TheoryMorphism  # T => th(P2)
    logical_link_left: LogicMorphism  # log(T) => P1, derived
    logical_link_right: LogicMorphism  # log(T) => P2, derived


@dataclass(frozen=True)
class IntegrationResult:
    fused: Logic  # the pushout of the logical links
    injection_left: LogicMorphism  # P1 => fused
    injection_right: LogicMorphism  # P2 => fused
    final_left: LogicMorphism  # L1 => fused
    final_right: LogicMorphism  # L2 => fused


def build_alignment(l1: Logic, l2: Logic, p1: Logic, p2: Logic,
                    link1: LogicMorphism, link2: LogicMorphism,
                    t: Theory, g1: TheoryMorphism, g2: TheoryMorphism,
                    bound: int, budget: int = DEFAULT_BUDGET) -> AlignmentDiagram:
    """Validate every edge and derive the logical links by transposition."""
    for l, name in ((l1, "left community"), (l2, "right community"),
                    (p1, "left portal"), (p2, "right portal")):
        if not is_sound(l):
            raise EdgeInvalid(name, "not sound")
    for link, src, tgt, name in ((link1, l1, p1, "left portal link"),
                                 (link2, l2, p2, "right portal link")):
        if link.source != src or link.target != tgt:
            raise EdgeInvalid(name, "endpoints do not match the diagram")
        verdict = logic_morphism_valid(link, bound, budget)
        if not verdict:
            raise EdgeInvalid(name, verdict.detail)
    for g, p, name in ((g1, p1, "left alignment link"), (g2, p2, "right alignment link")):
        if g.source != t or g.target != p.theory:
            raise EdgeInvalid(name, "endpoints do not match the diagram")
        verdict = theory_morphism_valid(g, bound, budget)
        if not verdict:
            raise EdgeInvalid(name, verdict.detail)
    k1 = transpose(g1, p1, budget)
    k2 = transpose(g2, p2, budget)
    # A transpose's theory aspect is its alignment link, checked above.
    for k, name in ((k1, "left logical link"), (k2, "right logical link")):
        ok, why = model_morphism_valid(k.model_aspect())
        if not ok:
            raise EdgeInvalid(name, ("model", why))
    return AlignmentDiagram(l1, l2, p1, p2, link1, link2, t, g1, g2, k1, k2)


def unify(d: AlignmentDiagram) -> IntegrationResult:
    """Fusion of the alignment diagram, with the final integration opspan."""
    fused, v1, v2 = fusion(d.logical_link_left, d.logical_link_right)
    return IntegrationResult(
        fused, v1, v2,
        compose_logic_morphisms(d.portal_link_left, v1),
        compose_logic_morphisms(d.portal_link_right, v2))


# --- the practical alternative ----------------------------------------------

@dataclass(frozen=True)
class PracticalReport:
    mediating_logic: Logic  # the common fiber L@C
    free_to_mediating: LogicMorphism  # log(T) => L@C
    fusion_theory: Theory  # th(L1) +_T th(L2), the fused logic's theory
    universe: frozenset  # of the fused logic, relabelled back to C
    # what `comparison` is built from on first read
    fused: Logic = field(repr=False, compare=False)  # the C-fusion, relabelled
    inclusions: tuple = field(repr=False, compare=False)  # the fibers' L@C => P1, P2
    bound: int = field(repr=False, compare=False)
    budget: int = field(repr=False, compare=False)

    @cached_property
    def comparison(self) -> LogicMorphism:
        """free fusion => C fusion: the identity on types and x -> (x, x).

        The free fusion fuses the mediating counit followed by each fiber
        inclusion, which are the transposes of the alignment links.  It
        is built here, on first read, and the comparison is validated up
        to the report's bound; a failure raises AgreementFailure.
        """
        free_fused, _, _ = fusion(*(compose_logic_morphisms(self.free_to_mediating, m)
                                    for m in self.inclusions))
        comparison = _diagonal(free_fused, self.fused)
        verdict = logic_morphism_valid(comparison, self.bound, self.budget)
        if not verdict:
            raise AgreementFailure(f"comparison morphism invalid: {verdict.detail!r}")
        return comparison

    def __eq__(self, other):
        """Equal compared fields, then equal comparison morphisms (built if unread)."""
        if not isinstance(other, PracticalReport):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in ("mediating_logic", "free_to_mediating", "fusion_theory",
                                "universe", "comparison"))


def practical_integrate(l1: Logic, l2: Logic, c: Iterable, t: Theory,
                        g1: TheoryMorphism, g2: TheoryMorphism, bound: int,
                        budget: int = DEFAULT_BUDGET) -> tuple[IntegrationResult, PracticalReport]:
    """Restrict both communities to C, check the fiber agreement, fuse over it.

    The three agreements: the mediating universe is C, the mediating
    theory is t, and both fiber images of the restricted portals are the
    same logic.  The C-fusion fuses the two fiber inclusions; each is the
    identity on instances, so the keyed sum pairs exactly (x, x) for x in
    C, and it is relabelled (x, x) -> x so its universe is literally C.
    Built from checked inputs, the logics here are not checked again.

    The free fusion, of the transposes of g1 and g2, is built only for
    the report's comparison morphism, on its first read.  It is read
    here when the links' variable maps differ, as the free fusion can
    then value a merged variable differently where the C-fusion does
    not, and its failure is the call's.  When they are equal, every
    merged variable class is {ltag v, rtag v}, which the keyed sum values
    alike, and its pairs share a mediating intent, so the
    comparison holds whenever the C-fusion does.
    """
    c = frozenset(c)
    if not c <= l1.model.entities & l2.model.entities:
        raise DomainMismatch("C must be a subset of both universes")
    p1, link1 = restrict_logic(l1, c)
    p2, link2 = restrict_logic(l2, c)
    if g1.source != t or g2.source != t:
        raise DomainMismatch("alignment links must start at the mediating theory")
    if g1.target != p1.theory or g2.target != p2.theory:
        raise DomainMismatch("alignment links must target the community theories")
    k, m1 = fiber(g1, p1)  # the mediating logic L@C and its inclusion
    fib2, m2 = fiber(g2, p2)
    _check_agreement(k, fib2)
    km = counit(k, budget)
    pairs, v1, v2 = fusion(m1, m2)
    fused = _relabel_logic(pairs)
    relabel = _diagonal(pairs, fused)
    v1, v2 = (compose_logic_morphisms(f, relabel) for f in (v1, v2))
    result = IntegrationResult(fused, v1, v2,
                               compose_logic_morphisms(link1, v1),
                               compose_logic_morphisms(link2, v2))
    report = PracticalReport(k, km, fused.theory, fused.model.entities,
                             fused, (m1, m2), bound, budget)
    if g1.language_morphism.var_map != g2.language_morphism.var_map:
        report.comparison  # builds and checks the free fusion now
    return result, report


def _check_agreement(fib1: Logic, fib2: Logic) -> None:
    """Exact structural equality of the two fiber logics, first difference named."""
    if fib1 == fib2:
        return
    m1, m2 = fib1.model, fib2.model
    for field, a, b in (("entities", m1.entities, m2.entities),
                        ("entity incidence", m1.entity_incidence, m2.entity_incidence),
                        ("tuples", m1.tuples, m2.tuples),
                        ("tuple arity", m1.tuple_arity.items(), m2.tuple_arity.items()),
                        ("tuple valuation", m1.tuple_valuation.items(),
                         m2.tuple_valuation.items()),
                        ("relation incidence", m1.relation_incidence, m2.relation_incidence)):
        if a != b:
            diff = sorted_tokens(a ^ b)[0]
            raise AgreementFailure(f"{field} differ at {diff!r}")
    raise AgreementFailure("fiber logics differ structurally")


def _diagonal(source: Logic, fused: Logic) -> LogicMorphism:
    """source => fused: the identity on types, and x read as the pair (x, x)."""
    return LogicMorphism.make(source, fused, identity_language_morphism(fused.language),
                              {x: (x, x) for x in fused.model.entities},
                              {x: (x, x) for x in fused.model.tuples})


def _relabel_logic(l: Logic) -> Logic:
    """Rename each instance of l, a diagonal pair (x, x), to x."""
    m = l.model
    model = Model(m.language,
                  frozenset(e for e, _ in m.entities),
                  frozenset((e[0], a) for (e, a) in m.entity_incidence),
                  fdict({t[0]: fdict({x: e[0] for x, e in val.items()})
                         for t, val in m.tuple_valuation.items()}),
                  frozenset((t[0], r) for (t, r) in m.relation_incidence))
    return Logic(l.theory, model,
                 frozenset(e for e, _ in l.normal_entities),
                 frozenset(t for t, _ in l.normal_tuples))
