"""Classifications, infomorphisms, and their power/sum/quotient constructions.

A classification relates a finite set of instance tokens to a finite set
of type tokens through an incidence relation.  Infomorphisms are the
contravariant morphisms between classifications: types map forward,
instances map backward, tied together by the fundamental condition.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Mapping, Optional

from .errors import DomainMismatch, RespectViolation, check_total, raise_first_fault
from .tokens import FrozenDict, Token, fdict, ltag, rtag, sorted_tokens, token_key


@dataclass(frozen=True)
class Classification:
    instances: frozenset
    types: frozenset
    incidence: frozenset  # of (instance, type) pairs

    @staticmethod
    def make(instances: Iterable, types: Iterable, incidence: Iterable) -> "Classification":
        return Classification(frozenset(instances), frozenset(types),
                              frozenset((i, t) for i, t in incidence))

    def classifies(self, instance: Token, type_: Token) -> bool:
        return (instance, type_) in self.incidence

    def intent(self, instance: Token) -> frozenset:
        return frozenset(t for t in self.types if (instance, t) in self.incidence)


@dataclass(frozen=True)
class Infomorphism:
    source: Classification
    target: Classification
    type_map: FrozenDict  # source.types -> target.types
    instance_map: FrozenDict  # target.instances -> source.instances

    @staticmethod
    def make(source, target, type_map: Mapping, instance_map: Mapping) -> "Infomorphism":
        return Infomorphism(source, target, fdict(type_map), fdict(instance_map))


@dataclass(frozen=True)
class ClassificationInvariant:
    """A subset of instances plus generator pairs of a type endorelation."""

    instance_subset: frozenset
    type_relation: frozenset  # generator pairs; closure computed on use

    @staticmethod
    def make(instance_subset: Iterable, type_relation: Iterable) -> "ClassificationInvariant":
        return ClassificationInvariant(frozenset(instance_subset),
                                       frozenset((a, b) for a, b in type_relation))


def infomorphism_valid(f: Infomorphism) -> tuple[bool, Optional[tuple]]:
    """Check the fundamental condition; returns (ok, first witnessing pair).

    Raises DomainMismatch if either map is not total on its domain or
    leaves its codomain; that is an error distinct from condition failure.
    """
    check_total(f.type_map, f.source.types, f.target.types, "type map")
    check_total(f.instance_map, f.target.instances, f.source.instances, "instance map")
    alphas = sorted_tokens(f.source.types)
    for b in sorted_tokens(f.target.instances):
        for alpha in alphas:
            if f.source.classifies(f.instance_map[b], alpha) != \
                    f.target.classifies(b, f.type_map[alpha]):
                return False, (b, alpha)
    return True, None


def power_classification(s: Iterable) -> Classification:
    """Subsets of s classified by membership: X classifies alpha iff alpha in X."""
    elems = sorted_tokens(set(s))
    instances = [frozenset(c) for n in range(len(elems) + 1)
                 for c in itertools.combinations(elems, n)]
    incidence = [(x, a) for x in instances for a in x]
    return Classification.make(instances, elems, incidence)


def classification_sum(a: Classification, b: Classification,
                       instances: Optional[Iterable] = None) -> Classification:
    """Tagged type union over pairs of instances, each pair classified by
    its members' tagged intents.

    ``instances`` gives the pairs to keep, every pair by default; a pair
    outside ``a.instances`` x ``b.instances`` raises DomainMismatch.
    """
    instances = frozenset(itertools.product(a.instances, b.instances) if instances is None
                          else instances)
    if not all(x in a.instances and y in b.instances for x, y in instances):
        raise DomainMismatch("sum instance pairs not contained in the instance product")
    tags_a, tags_b = tagged_intents(a, ltag), tagged_intents(b, rtag)
    incidence = [(p, t) for p in instances
                 for t in itertools.chain(tags_a.get(p[0], ()), tags_b.get(p[1], ()))]
    return Classification.make(instances, [ltag(t) for t in a.types] + [rtag(t) for t in b.types],
                               incidence)


def tagged_intents(c: Classification, tag: Callable) -> dict:
    """Instance -> the tagged types classifying it (instances with none are left out)."""
    intents: dict = {}
    for (i, t) in c.incidence:
        intents.setdefault(i, []).append(tag(t))
    return intents


def equivalence_closure(elements: Iterable, pairs: Collection) -> dict:
    """Reflexive-symmetric-transitive closure as an element -> class map.

    Classes are canonically named by the sorted tuple of their members.
    """
    parent: dict = {e: e for e in elements}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    raise_first_fault(((p, q), f"relation pair ({p!r}, {q!r}) mentions unknown element")
                      for (p, q) in pairs if p not in parent or q not in parent)
    for (p, q) in pairs:
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq
    groups: dict = {}
    for e in parent:
        groups.setdefault(find(e), []).append(e)
    out = {}
    for members in groups.values():
        # singleton classes keep their member's name, so the empty
        # relation quotients to the identity on the nose
        cls = members[0] if len(members) == 1 else tuple(sorted_tokens(members))
        for m in members:
            out[m] = cls
    return out


def class_groups(cls: Mapping) -> list[list]:
    """Member groups of an element -> class map."""
    groups: dict = {}
    for e, c in cls.items():
        groups.setdefault(c, []).append(e)
    return list(groups.values())


def first_clash(elements: Iterable, cls: Mapping, value: Callable) -> Optional[tuple]:
    """The token-order-first element whose value differs from that of its
    class's token-order-first member, and that member; None if all agree."""
    firsts: dict = {}
    for e in sorted_tokens(elements):
        first = firsts.setdefault(cls[e], e)
        if value(e) != value(first):
            return e, first
    return None


def classification_quotient(c: Classification, j: ClassificationInvariant,
                            applies: Callable = lambda a, t: True
                            ) -> tuple[Classification, Infomorphism]:
    """Quotient types by the closure of j's relation, keep j's instances.

    Only the members of a class that ``applies(a, t)`` (every member, by
    default) bear on instance a.  Raises RespectViolation if some retained
    instance is classified by some, but not all, of the members of a class
    that apply to it, naming the token-order-first such instance and, in
    the split class with the token-order-first member, the first applying
    member it is classified by and the first it is not.
    """
    if not j.instance_subset <= c.instances:
        raise DomainMismatch("invariant instance subset not contained in instances")
    cls = equivalence_closure(c.types, j.type_relation)
    groups = [members for members in class_groups(cls) if len(members) > 1]
    group_of = {t: g for g, members in enumerate(groups) for t in members}
    hits = Counter((a, group_of[t]) for (a, t) in c.incidence
                   if t in group_of and a in j.instance_subset and applies(a, t))
    split = [(a, g) for (a, g), n in hits.items() if n < sum(applies(a, t) for t in groups[g])]
    if split:
        a = min((a for a, _ in split), key=token_key)
        members = min((sorted_tokens(groups[g]) for b, g in split if b == a),
                      key=lambda ms: token_key(ms[0]))
        applying = [t for t in members if applies(a, t)]
        pos = next(t for t in applying if c.classifies(a, t))
        neg = next(t for t in applying if not c.classifies(a, t))
        raise RespectViolation(a, pos, neg)
    types = frozenset(cls.values())
    incidence = frozenset((a, cls[t]) for (a, t) in c.incidence if a in j.instance_subset)
    q = Classification(frozenset(j.instance_subset), types, incidence)
    canon = Infomorphism.make(c, q, dict(cls), {a: a for a in j.instance_subset})
    return q, canon
