"""End-to-end ontology integration: alignment, fusion, and the practical path.

Alignment builds the W-shaped diagram, each input edge checked once:
community logics, portals, portal links, a mediating theory with
alignment links into the portals' theories, checked by the bounded
countermodel search, and the logical links, built on first read by the
free adjunction.  `align` restricts both communities to a common part
C, and both pipelines start from its diagram.  Unification fuses it:
the pushout of the logical links, a quotient of the portals' sum that
fusion builds on the links' pullback alone, keyed by their instance maps.

The practical path fuses the two fiber inclusions of the diagram over
C: the C-fusion.  The free fusion of the transposes is built only when
the report's comparison morphism is read, which happens before the call
returns when the links' variable maps differ.  Only inputs are checked:
what is built from them here is valid by construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import AgreementFailure, EdgeInvalid
from .language import identity_language_morphism
from .logic import (Logic, LogicMorphism, compose_logic_morphisms, counit, fiber,
                    fusion, is_sound, logic_morphism_valid, restrict_logic,
                    transpose)
from .model import Model, fdict
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
    budget: int  # caps log(T), out of which the logical links are built

    @cached_property
    def logical_link_left(self) -> LogicMorphism:  # log(T) => P1, the transpose of g1
        return transpose(self.theoretical_link_left, self.portal_left, self.budget)

    @cached_property
    def logical_link_right(self) -> LogicMorphism:  # log(T) => P2, the transpose of g2
        return transpose(self.theoretical_link_right, self.portal_right, self.budget)


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
    """The diagram over general portals, which are checked with their links."""
    return _checked(AlignmentDiagram(l1, l2, p1, p2, link1, link2, t, g1, g2, budget), bound,
                    ((p1, "left portal"), (p2, "right portal")),
                    ((link1, l1, p1, "left portal link"), (link2, l2, p2, "right portal link")))


def align(l1: Logic, l2: Logic, c: Iterable, t: Theory, g1: TheoryMorphism,
          g2: TheoryMorphism, bound: int, budget: int = DEFAULT_BUDGET) -> AlignmentDiagram:
    """The diagram whose portals restrict both communities to C, by valid inclusions."""
    (p1, link1), (p2, link2) = restrict_logic(l1, c), restrict_logic(l2, c)
    return _checked(AlignmentDiagram(l1, l2, p1, p2, link1, link2, t, g1, g2, budget), bound)


def _checked(d: AlignmentDiagram, bound: int, portals=(), portal_links=()) -> AlignmentDiagram:
    """d, if the communities and given portals are sound and the given portal links and
    both alignment links join d's logics and hold up to the bound; else the first EdgeInvalid."""
    for l, name in ((d.community_left, "left community"),
                    (d.community_right, "right community"), *portals):
        if not is_sound(l):
            raise EdgeInvalid(name, "not sound")
    t = d.mediating_theory
    for link, source, target, name in (
            *portal_links, (d.theoretical_link_left, t, d.portal_left.theory, "left alignment link"),
            (d.theoretical_link_right, t, d.portal_right.theory, "right alignment link")):
        if link.source != source or link.target != target:
            raise EdgeInvalid(name, "endpoints do not match the diagram")
        valid = logic_morphism_valid if isinstance(link, LogicMorphism) else theory_morphism_valid
        verdict = valid(link, bound, d.budget)
        if not verdict:
            raise EdgeInvalid(name, verdict.detail)
    return d


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

    @cached_property
    def comparison(self) -> LogicMorphism:
        """free fusion => C fusion: the identity on types and x -> (x, x).

        The free fusion fuses the mediating counit followed by each fiber
        inclusion, which are the transposes of the alignment links.  It
        is built here, on first read, and its failure is the read's.
        Both fusions have the links' span relation, so one language and
        one set of axioms, and the pair (x, x) has the intents of x: the
        comparison is valid by construction, and is not checked.
        """
        free_fused, _, _ = fusion(*(compose_logic_morphisms(self.free_to_mediating, m)
                                    for m in self.inclusions))
        return _diagonal(free_fused, self.fused)

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
    """Align over C, check the fiber agreement, fuse over it.

    The three agreements: the mediating universe is C, the mediating
    theory is t, and both fiber images of the diagram's portals are the
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
    alike, so the free fusion succeeds wherever the C-fusion does.  The
    bound caps only `align`'s search of g1 and g2 for countermodels.
    """
    d = align(l1, l2, c, t, g1, g2, bound, budget)
    k, m1 = fiber(g1, d.portal_left)  # the mediating logic L@C and its inclusion
    fib2, m2 = fiber(g2, d.portal_right)
    _check_agreement(k, fib2)
    km = counit(k, budget)
    pairs, v1, v2 = fusion(m1, m2)
    fused = _relabel_logic(pairs)
    relabel = _diagonal(pairs, fused)
    v1, v2 = (compose_logic_morphisms(f, relabel) for f in (v1, v2))
    result = IntegrationResult(fused, v1, v2,
                               compose_logic_morphisms(d.portal_link_left, v1),
                               compose_logic_morphisms(d.portal_link_right, v2))
    report = PracticalReport(k, km, fused.theory, fused.model.entities, fused, (m1, m2))
    if g1.language_morphism.var_map != g2.language_morphism.var_map:
        report.comparison  # builds the free fusion now
    return result, report


def _check_agreement(fib1: Logic, fib2: Logic) -> None:
    """Exact structural equality of the two fiber logics, first difference
    named: both have theory t and every instance normal, so only a model
    field can differ.  An arity is named in token order."""
    if fib1 == fib2:
        return
    m1, m2 = fib1.model, fib2.model
    a1, a2 = ({(t, tuple(sorted_tokens(xs))) for t, xs in m.tuple_arity.items()}
              for m in (m1, m2))
    field, a, b = next(
        (field, a, b) for field, a, b in (
            ("entities", m1.entities, m2.entities),
            ("entity incidence", m1.entity_incidence, m2.entity_incidence),
            ("tuples", m1.tuples, m2.tuples),
            ("tuple arity", a1, a2),
            ("tuple valuation", m1.tuple_valuation.items(), m2.tuple_valuation.items()),
            ("relation incidence", m1.relation_incidence, m2.relation_incidence))
        if a != b)
    raise AgreementFailure(f"{field} differ at {sorted_tokens(a ^ b)[0]!r}")


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
