"""Shared fixtures: the employment example and seeded random generators.

All random generators take a random.Random instance so every test run
is reproducible.  Generated logics share the variable pool ('x', 'y'),
which the sum and fusion constructions require.
"""
from __future__ import annotations

import itertools
import pathlib
import random

from ontofuse.language import LanguageMorphism, TypeLanguage
from ontofuse.logic import Logic, LogicMorphism
from ontofuse.model import Model, fdict
from ontofuse.sexpr import MAX_DEPTH
from ontofuse.theory import Theory, TheoryMorphism
from ontofuse.tokens import sorted_tokens

VARS = ("x", "y")
CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


def w_language() -> TypeLanguage:
    return TypeLanguage.make(VARS, ["Person", "Company"],
                             {"x": "Person", "y": "Company"},
                             {"WorksFor": ("x", "y")})


def wp_language() -> TypeLanguage:
    return TypeLanguage.make(VARS, ["Human", "Firm"],
                             {"x": "Human", "y": "Firm"},
                             {"EmployedBy": ("x", "y")})


def mediating_language() -> TypeLanguage:
    return TypeLanguage.make(VARS, ["Agent", "Org"],
                             {"x": "Agent", "y": "Org"},
                             {"Emp": ("x", "y")})


def w_logic(extra_people=("zoe",)) -> Logic:
    lang = w_language()
    entities = ["bob", "acme", *extra_people]
    incidence = [("bob", "Person"), ("acme", "Company")] + \
        [(p, "Person") for p in extra_people]
    m = Model.from_extents(lang, entities, incidence,
                           {"WorksFor": [{"x": "bob", "y": "acme"}]})
    return Logic.make(Theory.make(lang, []), m)


def wp_logic(extra_people=("carol",)) -> Logic:
    lang = wp_language()
    entities = ["bob", "acme", *extra_people]
    incidence = [("bob", "Human"), ("acme", "Firm")] + \
        [(p, "Human") for p in extra_people]
    m = Model.from_extents(lang, entities, incidence,
                           {"EmployedBy": [{"x": "bob", "y": "acme"}]})
    return Logic.make(Theory.make(lang, []), m)


def mediating_theory() -> Theory:
    return Theory.make(mediating_language(), [])


def alignment_links():
    t = mediating_theory()
    l1, l2 = w_logic(), wp_logic()
    g1 = TheoryMorphism.make(
        LanguageMorphism.make(t.language, l1.language, {"x": "x", "y": "y"},
                              {"Agent": "Person", "Org": "Company"},
                              {"Emp": "WorksFor"}), t, l1.theory)
    g2 = TheoryMorphism.make(
        LanguageMorphism.make(t.language, l2.language, {"x": "x", "y": "y"},
                              {"Agent": "Human", "Org": "Firm"},
                              {"Emp": "EmployedBy"}), t, l2.theory)
    return l1, l2, t, g1, g2


# --- random generators ----------------------------------------------------------

def rand_language(rng: random.Random, tag: str = "", max_ents: int = 2,
                  max_rels: int = 2) -> TypeLanguage:
    n_ents = rng.randint(1, max_ents)
    ents = [f"{tag}E{i}" for i in range(n_ents)]
    reference = {x: rng.choice(ents) for x in VARS}
    n_rels = rng.randint(0, max_rels)
    arity = {}
    for i in range(n_rels):
        k = rng.randint(0, len(VARS))
        arity[f"{tag}R{i}"] = frozenset(rng.sample(VARS, k))
    return TypeLanguage.make(VARS, ents, reference, arity)


def rand_model(rng: random.Random, lang: TypeLanguage, max_entities: int = 3) -> Model:
    n = rng.randint(0, max_entities)
    entities = [f"e{i}" for i in range(n)]
    incidence = [(e, a) for e in entities
                 for a in sorted_tokens(lang.entity_types) if rng.random() < 0.5]
    m0 = Model.from_extents(lang, entities, incidence, {})
    extents = {}
    for rho in sorted_tokens(lang.relation_types):
        rows = m0.well_sorted_assignments(lang.arity[rho])
        extents[rho] = [t for t in rows if rng.random() < 0.4]
    return Model.from_extents(lang, entities, incidence, extents)


def rand_logic(rng: random.Random, tag: str = "", max_entities: int = 3) -> Logic:
    lang = rand_language(rng, tag)
    return Logic.make(Theory.make(lang, []), rand_model(rng, lang, max_entities))


def rand_expression(rng: random.Random, lang: TypeLanguage, depth: int):
    from ontofuse.language import (And, Atomic, Exists, Forall, Implies, Not,
                                   Or, Subst)
    rels = sorted_tokens(lang.relation_types)
    variables = sorted_tokens(lang.variables)
    if depth <= 1 or not rels:
        if not rels:
            raise ValueError("language has no relation types")
        return Atomic(rng.choice(rels))
    kind = rng.randrange(7)
    if kind == 0:
        return Atomic(rng.choice(rels))
    if kind == 1:
        return Not(rand_expression(rng, lang, depth - 1))
    if kind in (2, 3, 4):
        ctor = (And, Or, Implies)[kind - 2]
        return ctor(rand_expression(rng, lang, depth - 1),
                    rand_expression(rng, lang, depth - 1))
    if kind == 5:
        ctor = rng.choice((Exists, Forall))
        return ctor(rng.choice(variables), rand_expression(rng, lang, depth - 1))
    body = rand_expression(rng, lang, depth - 1)
    from ontofuse.language import free_vars
    mapping = {}
    for x in free_vars(lang, body):
        same_sort = [y for y in variables if lang.reference[y] == lang.reference[x]]
        mapping[x] = rng.choice(same_sort)
    return Subst.make(mapping, body)


def rand_theory_morphism(rng: random.Random) -> TheoryMorphism:
    """A language relabelling between two random theories over one or two
    relation types; some source axioms' images are target axioms, so
    they pass syntactically, and the rest need a search."""
    from ontofuse.language import translate_expression
    while True:
        k = rand_logic(rng, tag="K", max_entities=1)
        if k.language.relation_types:
            break
    target, f = relabeled_target(rng, k, "A", duplicates=False)
    lm = f.language_morphism
    axioms = [rand_expression(rng, k.language, rng.randint(1, 3))
              for _ in range(rng.randint(1, 3))]
    images = [translate_expression(lm, a) for a in axioms if rng.random() < 0.3]
    extra = [rand_expression(rng, target.language, rng.randint(1, 3))
             for _ in range(rng.randint(0, 1))]
    return TheoryMorphism.make(lm, Theory.make(k.language, axioms),
                               Theory.make(target.language, images + extra))


def separated_logic(rng: random.Random, tag: str = "") -> Logic:
    """A sound logic whose entities have pairwise distinct intents and
    whose tuples have pairwise distinct (arity, classified-set) profiles.

    Separation is what makes full self alignment collapse the fused
    instance pairs onto the diagonal.
    """
    lang = rand_language(rng, tag, max_ents=2, max_rels=2)
    ents = sorted_tokens(lang.entity_types)
    intents = [frozenset(c) for k in range(len(ents) + 1)
               for c in itertools.combinations(ents, k)]
    rng.shuffle(intents)
    n = rng.randint(1, min(3, len(intents)))
    entities = [f"{tag}e{i}" for i in range(n)]
    incidence = [(e, a) for e, intent in zip(entities, intents) for a in intent]
    # tuple profiles: distinct (arity, relation subset) pairs with a
    # well-sorted witness valuation
    skeleton = Model.from_extents(lang, entities, incidence, {})
    profiles = []
    for x_set in [frozenset(c) for k in range(len(VARS) + 1)
                  for c in itertools.combinations(VARS, k)]:
        rows = skeleton.well_sorted_assignments(x_set)
        if not rows:
            continue
        fitting = [r for r in sorted_tokens(lang.relation_types)
                   if lang.arity[r] <= x_set]
        for k in range(len(fitting) + 1):
            for rels in itertools.combinations(fitting, k):
                profiles.append((x_set, frozenset(rels), rows))
    rng.shuffle(profiles)
    valuation, rel_inc = {}, []
    for i, (x_set, rels, rows) in enumerate(profiles[:rng.randint(0, 3)]):
        tok = f"{tag}t{i}"
        valuation[tok] = rng.choice(rows)
        rel_inc.extend((tok, r) for r in rels)
    m = Model(lang, frozenset(entities), frozenset(incidence), fdict(valuation),
              frozenset(rel_inc))
    m.check()
    return Logic.make(Theory.make(lang, []), m)


def relabeled_target(rng: random.Random, k: Logic, tag: str,
                     duplicates: bool = True, var_map=None):
    """A logic obtained from k by bijectively renaming its types, and its
    variables by the permutation var_map when given, with optional
    duplicated instances; returns (target, morphism k => target)."""
    lang = k.language
    vm = var_map or {x: x for x in lang.variables}
    em = {a: f"{tag}{a}" for a in lang.entity_types}
    rm = {r: f"{tag}{r}" for r in lang.relation_types}
    tgt_lang = TypeLanguage.make(lang.variables, em.values(),
                                 {vm[x]: em[lang.reference[x]] for x in lang.variables},
                                 {rm[r]: frozenset(vm[x] for x in lang.arity[r])
                                  for r in lang.relation_types})
    entity_map = {e: e for e in k.model.entities}
    tuple_map = {t: t for t in k.model.tuples}
    entities = set(k.model.entities)
    tuples = set(k.model.tuples)
    if duplicates:
        for e in sorted_tokens(k.model.entities):
            if rng.random() < 0.3:
                copy = (e, f"{tag}copy")
                entities.add(copy)
                entity_map[copy] = e
        for t in sorted_tokens(k.model.tuples):
            if rng.random() < 0.3:
                copy = (t, f"{tag}copy")
                tuples.add(copy)
                tuple_map[copy] = t
    m = k.model
    incidence = [(e, em[a]) for e in entities
                 for a in lang.entity_types if m.entity_classifies(entity_map[e], a)]
    valuation = {t: fdict({vm[x]: v for x, v in m.tuple_valuation[tuple_map[t]].items()})
                 for t in tuples}
    rel_inc = [(t, rm[r]) for t in tuples for r in lang.relation_types
               if m.tuple_classifies(tuple_map[t], r)]
    tgt_model = Model(tgt_lang, frozenset(entities), frozenset(incidence),
                      fdict(valuation), frozenset(rel_inc))
    tgt_model.check()
    target = Logic.make(Theory.make(tgt_lang, []), tgt_model)
    lm = LanguageMorphism.make(lang, tgt_lang, vm, em, rm)
    f = LogicMorphism.make(k, target, lm, entity_map, tuple_map)
    return target, f


def rand_span(rng: random.Random, duplicates: bool = True):
    """A valid span f0: K => L0, f1: K => L1 of sound logics."""
    k = rand_logic(rng, tag="K", max_entities=2)
    l0, f0 = relabeled_target(rng, k, "A", duplicates)
    l1, f1 = relabeled_target(rng, k, "B", duplicates)
    return k, f0, f1


def practical_scenarios():
    """The fixture and 20 seeded cases for the practical path: two
    relabelled copies of one random logic, aligned by the relabellings,
    over its whole universe."""
    l1, l2, t, g1, g2 = alignment_links()
    scenarios = [(l1, l2, {"bob", "acme"}, t, g1, g2)]
    rng = random.Random(131)
    while len(scenarios) < 21:
        k = rand_logic(rng, tag="K", max_entities=2)
        # duplicates stay out: an empty-arity duplicate would survive the
        # restriction to C and break the exact fiber agreement
        l1, f1 = relabeled_target(rng, k, "A", duplicates=False)
        l2, f2 = relabeled_target(rng, k, "B", duplicates=False)
        g1 = TheoryMorphism.make(f1.language_morphism, k.theory, l1.theory)
        g2 = TheoryMorphism.make(f2.language_morphism, k.theory, l2.theory)
        scenarios.append((l1, l2, k.model.entities, k.theory, g1, g2))
    return scenarios


def permuted_practical_scenarios(seed: int, n: int, both: bool = False):
    """Seeded practical-path cases whose right link permutes the variables.

    Either the right community carries the same permutation, so the
    fibers agree but the fused tuples may value merged variables
    differently, or it does not, so the right fiber is re-indexed and
    differs from the left one (when the permuted link is valid at all).
    With ``both``, the left community and link carry the permutation
    too, so the two links have one variable map, and not the identity.
    """
    rng = random.Random(seed)
    perm = dict(zip(VARS, VARS[1:] + VARS[:1]))
    scenarios = []
    for _ in range(n):
        # one sort holding every entity, so that swapping the variables
        # preserves reference and most tuples can tell x from y
        lang = rand_language(rng, "K", max_ents=1, max_rels=3)
        entities = [f"e{i}" for i in range(rng.randint(1, 3))]
        rows = {r: [dict(zip(sorted_tokens(xs), vs)) for vs in
                    itertools.product(entities, repeat=len(xs)) if rng.random() < 0.5]
                for r, xs in sorted_tokens(lang.arity.items())}
        k = Logic.make(Theory.make(lang, []), Model.from_extents(
            lang, entities, [(e, a) for e in entities for a in lang.entity_types], rows))
        l1, f1 = relabeled_target(rng, k, "A", duplicates=False,
                                  var_map=perm if both else None)
        if rng.random() < 0.5:
            l2, f2 = relabeled_target(rng, k, "B", duplicates=False, var_map=perm)
            lm2 = f2.language_morphism
        else:
            l2, f2 = relabeled_target(rng, k, "B", duplicates=False)
            lm2 = LanguageMorphism.make(k.language, l2.language, perm,
                                        f2.language_morphism.entity_map,
                                        f2.language_morphism.relation_map)
        g1 = TheoryMorphism.make(f1.language_morphism, k.theory, l1.theory)
        g2 = TheoryMorphism.make(lm2, k.theory, l2.theory)
        scenarios.append((l1, l2, k.model.entities, k.theory, g1, g2))
    return scenarios


def partial_span_text() -> str:
    """corpus/span.iff with the right leg, m2, mapping acme but not bob back."""
    text = (CORPUS / "span.iff").read_text()
    cut = text.rindex("(entity-map (acme acme) (bob bob))")
    return text[:cut] + text[cut:].replace("(entity-map (acme acme) (bob bob))",
                                           "(entity-map (acme acme))")


NOISE = ["", "(", ")", "((", "))", " ", "\n", "\t", "\r", "\x1c", ";", "x", "set",
         "(map (a b))", "(tuple)", "(" * (MAX_DEPTH + 1)]


def mutate(rng: random.Random, text: str) -> str:
    """The text with one to three spans of up to 20 characters replaced by noise."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = rng.randint(i, min(len(text), i + 20))
        text = text[:i] + rng.choice(NOISE) + text[j:]
    return text
