"""Checkers that compare the program's outputs with the generator's answers.

The checkers read the library's result objects only through their data
fields (entity sets, incidence pairs, valuations); every judgement is
made by code in this file or by the generator.  A checker returns a list
of problems, empty when the output is right.
"""
from __future__ import annotations

import itertools

from gen import ARITY


def plain_token(t):
    """A library token as the generator's plain value."""
    if isinstance(t, str):
        return t
    if isinstance(t, dict):
        return ("map", frozenset((plain_token(k), plain_token(v)) for k, v in t.items()))
    if isinstance(t, tuple):
        return tuple(plain_token(x) for x in t)
    if isinstance(t, frozenset):
        return frozenset(plain_token(x) for x in t)
    raise TypeError(f"unexpected token {t!r}")


def plain_assignment(t) -> frozenset:
    return frozenset(t.items())


# --- an evaluator written apart from the program ------------------------------

class PlainModel:
    """A finite model as sets: sort pools and extents of restricted rows."""

    def __init__(self, entities, incidence, extents, reference, arity):
        self.entities = sorted(entities)
        self.incidence = set(incidence)
        self.extents = extents  # relation -> set of frozenset((var, entity))
        self.reference = reference
        self.arity = arity

    @staticmethod
    def of(model, reference: dict, arity: dict) -> "PlainModel":
        """Read a library model; extents are the restrictions of the tuples
        that the relation incidence classifies."""
        extents = {r: set() for r in arity}
        for t, r in model.relation_incidence:
            val = model.tuple_valuation[t]
            extents[r].add(frozenset((x, val[x]) for x in arity[r]))
        return PlainModel(model.entities, model.entity_incidence, extents, reference, arity)

    def pool(self, var):
        sort = self.reference[var]
        return [e for e in self.entities if (e, sort) in self.incidence]

    def holds(self, env: dict, e) -> bool:
        head = e[0]
        if head == "atom":
            return frozenset((x, env[x]) for x in self.arity[e[1]]) in self.extents[e[1]]
        if head == "not":
            return not self.holds(env, e[1])
        if head == "and":
            return self.holds(env, e[1]) and self.holds(env, e[2])
        if head == "or":
            return self.holds(env, e[1]) or self.holds(env, e[2])
        if head == "implies":
            return not self.holds(env, e[1]) or self.holds(env, e[2])
        if head in ("forall", "exists"):
            results = [self.holds({**env, e[1]: c}, e[2]) for c in self.pool(e[1])]
            return all(results) if head == "forall" else any(results)
        raise ValueError(f"unknown connective {head!r}")

    def free(self, e) -> set:
        if e[0] == "atom":
            return set(self.arity[e[1]])
        if e[0] in ("forall", "exists"):
            return self.free(e[2]) - {e[1]}
        return set().union(*(self.free(s) for s in e[1:]))

    def satisfies(self, e) -> bool:
        fv = sorted(self.free(e))
        return all(self.holds(dict(zip(fv, combo)), e)
                   for combo in itertools.product(*(self.pool(x) for x in fv)))


# --- per-workload checks -------------------------------------------------------

def check_integrate(case, out) -> list:
    result, report, _text = out
    fused = result.fused
    m = fused.model
    problems = []
    if m.entities != case.universe:
        problems.append(f"fused universe has {len(m.entities)} entities, C has {len(case.universe)}")
    if report.universe != case.universe:
        problems.append("reported universe differs from C")
    if frozenset(plain_assignment(t) for t in m.tuples) != case.fused_tuples:
        problems.append("fused tuples differ from the tuples planted inside C")
    if fused.normal_entities != m.entities or fused.normal_tuples != m.tuples:
        problems.append("fused logic is not sound")
    free = report.comparison.source.model
    if len(free.entities) != case.free_entities:
        problems.append(f"free fusion has {len(free.entities)} entities, expected {case.free_entities}")
    if len(free.tuples) != case.free_tuples:
        problems.append(f"free fusion has {len(free.tuples)} tuples, expected {case.free_tuples}")
    return problems


def check_entails(case, verdict) -> list:
    kind = type(verdict).__name__
    if case.consequence:
        if kind != "NoCounterexampleUpTo" or verdict.bound != case.bound:
            return [f"expected no counterexample up to {case.bound}, got {kind}"]
        return []
    if kind != "Refuted":
        return [f"expected a refutation, got {kind}"]
    m = verdict.counter_model
    problems = []
    if len(m.entities) > case.bound:
        problems.append(f"countermodel has {len(m.entities)} entities, bound is {case.bound}")
    pm = PlainModel.of(m, case.reference, case.arity)
    if not all(pm.satisfies(a) for a in case.axioms):
        problems.append("countermodel violates an axiom")
    if pm.satisfies(case.query):
        problems.append("countermodel satisfies the query")
    return problems


def check_roundtrip_planted(case, doc) -> list:
    """The parsed model equals the planted entities, incidence and tuples,
    and the planted extents (extent form) or arities, valuations and
    relation incidence (tuples form)."""
    m = doc.get("M" if case.form == "extents" else "SM", "model")
    problems = []
    if frozenset(plain_token(e) for e in m.entities) != case.entities:
        problems.append("entities differ from the planted ones")
    if frozenset((plain_token(e), plain_token(a)) for e, a in m.entity_incidence) \
            != case.incidence:
        problems.append("entity incidence differs from the planted one")
    if case.form == "extents":
        if frozenset(plain_assignment(t) for t in m.tuples) != case.tuples:
            problems.append("tuples differ from the planted ones")
        extents = PlainModel.of(m, {}, ARITY).extents
        if extents != case.extents:
            problems.append("extents differ from the planted ones")
        return problems
    if frozenset(plain_token(t) for t in m.tuples) != case.tuples:
        problems.append("tuples differ from the planted ones")
    for t in m.tuples:
        p = plain_token(t)
        if frozenset(plain_token(x) for x in m.tuple_arity[t]) != case.arity.get(p) or \
                frozenset((plain_token(x), plain_token(v))
                          for x, v in m.tuple_valuation[t].items()) != case.valuation.get(p):
            problems.append(f"arity or valuation of {p!r} differs from the planted one")
            break
    if frozenset((plain_token(t), plain_token(r)) for t, r in m.relation_incidence) \
            != case.relation_incidence:
        problems.append("relation incidence differs from the planted one")
    return problems
