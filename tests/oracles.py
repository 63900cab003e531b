"""Independent reference implementations used to cross-check the library.

Everything here is written from first principles with plain loops over
explicitly materialized sets, on purpose duplicating no code from the
package under test.  The exceptions are the practical path's earlier
one-fusion form, the earlier token key, the writer's earlier test for
extent form and its earlier token renderer and layout, and the bounded
search's earlier scan of one candidate at a time, kept as they were
so that the present code is compared with the code it replaced, and the
definitions that only tests read,
``compose_theory_morphisms``, ``entity_extent``, ``fusion_invariant`` and
the two extreme alignments ``trivial_integration`` and
``self_integration``, kept here rather than in the package.
"""
from __future__ import annotations

import dataclasses
import itertools
from types import SimpleNamespace

from ontofuse.document import FormError, _render_form
from ontofuse.language import (And, Atomic, Exists, Forall, Implies, Not, Or,
                               Subst)
from ontofuse.errors import (AgreementFailure, BudgetExceeded, DomainMismatch,
                             IncompatibleQuotient, OntofuseError, SoundnessViolation)
from ontofuse.integration import (IntegrationResult, PracticalReport,
                                  _check_agreement, _relabel_logic, build_alignment,
                                  unify)
from ontofuse.model import (Model, ModelDualInvariant, ModelMorphism, _compile,
                            model_morphism_valid)
from ontofuse.logic import (Logic, LogicMorphism, _check_span, compose_logic_morphisms,
                            counit, fiber, fusion, identity_logic_morphism,
                            is_sound, logic_dual_quotient,
                            logic_morphism_valid, logic_sum, restrict_logic)
from ontofuse.language import (LanguageMorphism, TypeLanguage, compose_language_morphisms,
                               free_vars, identity_language_morphism,
                               language_morphism_valid, span_relation, well_formed)
from ontofuse.sexpr import WIDTH
from ontofuse.theory import (DEFAULT_BUDGET, NoCounterexampleUpTo, Refuted, Theory,
                             TheoryMorphism, _countermodel, identity_theory_morphism,
                             theory_morphism_valid)
from ontofuse.tokens import FrozenDict, fdict, sorted_tokens, token_key


# --- naive first-order evaluation --------------------------------------------

def naive_free_vars(lang, e):
    if isinstance(e, Atomic):
        return set(lang.arity[e.relation])
    if isinstance(e, Not):
        return naive_free_vars(lang, e.body)
    if isinstance(e, (And, Or, Implies)):
        return naive_free_vars(lang, e.left) | naive_free_vars(lang, e.right)
    if isinstance(e, (Exists, Forall)):
        return naive_free_vars(lang, e.body) - {e.var}
    if isinstance(e, Subst):
        return {e.mapping[x] for x in naive_free_vars(lang, e.body)}
    raise TypeError(e)


def naive_extent(m, rho):
    """Restrictions of classified tuples, straight from the incidence set."""
    rows = set()
    for (t, r) in m.relation_incidence:
        if r == rho:
            val = m.tuple_valuation[t]
            rows.add(frozenset((x, val[x]) for x in m.language.arity[rho]))
    return rows


def naive_lax_incidence(extents, tuples):
    """The lax rule on plain sets: (t, rho) for each tuple t and relation
    type rho such that some assignment of rho's extent, whose domain is
    rho's arity, has all its (variable, value) pairs among t's."""
    incidence = set()
    for t in tuples:
        pairs = set(t.items())
        for rho, extent in extents.items():
            if any(set(a.items()) <= pairs for a in extent):
                incidence.add((t, rho))
    return incidence


def naive_sort_pool(m, sort):
    return [e for e in sorted_tokens(m.entities) if (e, sort) in m.entity_incidence]


def naive_holds(m, env, e):
    """Plain-dict Tarski evaluation; env must cover the free variables."""
    lang = m.language
    if isinstance(e, Atomic):
        row = frozenset((x, env[x]) for x in lang.arity[e.relation])
        return row in naive_extent(m, e.relation)
    if isinstance(e, Not):
        return not naive_holds(m, env, e.body)
    if isinstance(e, And):
        return naive_holds(m, env, e.left) and naive_holds(m, env, e.right)
    if isinstance(e, Or):
        return naive_holds(m, env, e.left) or naive_holds(m, env, e.right)
    if isinstance(e, Implies):
        return not naive_holds(m, env, e.left) or naive_holds(m, env, e.right)
    if isinstance(e, Exists):
        pool = naive_sort_pool(m, lang.reference[e.var])
        return any(naive_holds(m, {**env, e.var: c}, e.body) for c in pool)
    if isinstance(e, Forall):
        pool = naive_sort_pool(m, lang.reference[e.var])
        return all(naive_holds(m, {**env, e.var: c}, e.body) for c in pool)
    if isinstance(e, Subst):
        inner = {y: env[e.mapping[y]] for y in naive_free_vars(lang, e.body)}
        return naive_holds(m, inner, e.body)
    raise TypeError(e)


def entity_extent(m, a):
    """The entities of sort a, as the model's sort-pool index holds them."""
    return frozenset(m._pools.get(a, ()))


def naive_satisfies(m, e):
    fv = sorted(naive_free_vars(m.language, e), key=str)
    pools = [naive_sort_pool(m, m.language.reference[x]) for x in fv]
    return all(naive_holds(m, dict(zip(fv, combo)), e)
               for combo in itertools.product(*pools))


# --- bounded model enumeration ----------------------------------------------------

def brute_force_models(theory, bound):
    """Every model of the theory over _e0.._e(n-1), n <= bound, by brute force.

    A candidate takes a set of (entity, type) incidence pairs and, for
    each relation type, a set of rows: assignments on its arity valued
    in the sorts' entities.  Its tuples are all those rows, each
    classified by every relation type whose arity it covers and whose
    rows hold its restriction.  Candidates whose axioms hold under
    naive_satisfies are kept, as plain objects with a model's fields.
    """
    lang = theory.language
    types = sorted(lang.entity_types, key=str)
    rels = sorted(lang.relation_types, key=str)
    out = []
    for n in range(bound + 1):
        entities = [f"_e{i}" for i in range(n)]
        for incidence in powerset((e, a) for e in entities for a in types):
            rows = []
            for r in rels:
                xs = sorted(lang.arity[r], key=str)
                pools = [[e for e in entities if (e, lang.reference[x]) in incidence]
                         for x in xs]
                rows.append([fdict(zip(xs, combo)) for combo in itertools.product(*pools)])
            for choice in itertools.product(*(powerset(r) for r in rows)):
                extents = dict(zip(rels, choice))
                tuples = set()
                for ext in choice:
                    tuples |= ext
                rel_inc = {(t, r) for t in tuples for r in rels
                           if set(lang.arity[r]) <= set(t)
                           and fdict({x: t[x] for x in lang.arity[r]}) in extents[r]}
                m = SimpleNamespace(
                    language=lang, entities=frozenset(entities),
                    entity_incidence=frozenset(incidence), tuples=frozenset(tuples),
                    tuple_arity={t: frozenset(t) for t in tuples},
                    tuple_valuation={t: t for t in tuples},
                    relation_incidence=frozenset(rel_inc))
                if all(naive_satisfies(m, a) for a in theory.axioms):
                    out.append(m)
    return out


# --- the bounded search, one candidate at a time --------------------------------

class _Candidate:
    """A candidate model as the evaluator reads it: the skeleton's sort
    pools and, for each relation type, the rows it chooses, each held by
    the one candidate."""

    __slots__ = ("_pools", "_masks", "_rows", "_skeleton")
    _full = 1

    def __init__(self, skeleton, choice: tuple):
        self._pools = skeleton.model._pools
        self._rows = dict(zip(skeleton.rhos, choice))
        self._masks = {rho: dict.fromkeys(rows, 1) for rho, rows in self._rows.items()}
        self._skeleton = skeleton

    def axioms_hold(self) -> bool:
        return all(f(self, t) for f, ts in self._skeleton.axioms for t in ts)

    def query_holds(self, i: int) -> bool:
        f, ts = self._skeleton.queries[i]
        return all(f(self, t) for t in ts)

    def model(self) -> Model:
        m = self._skeleton.model
        order = m.language.arity_order
        return Model.from_extents(m.language, m.entities, m.entity_incidence,
                                  {rho: [zip(order[rho], row) for row in rows]
                                   for rho, rows in self._rows.items()})


def candidate_scan(t, max_entities, budget, queries=(), canonical=False, count=None):
    """The bounded search as the library first had it: every candidate of
    every skeleton in enumeration order, each counted against the budget
    and then evaluated alone; those that satisfy t's axioms are yielded.
    A one-element list ``count`` is kept at the number counted so far."""
    count = [0] if count is None else count
    if max_entities < 0:
        raise ValueError("max_entities must be >= 0")
    lang = t.language
    compiled_axioms = [(_compile(lang, e), free_vars(lang, e)) for e in t.axioms]
    compiled_queries = [(_compile(lang, e), free_vars(lang, e)) for e in queries]
    sorts = sorted_tokens(lang.entity_types)
    rhos = sorted_tokens(lang.relation_types)
    read = set(lang.reference.values()) if canonical else lang.entity_types
    memberships = list(itertools.product(*[(False, True) if a in read else (False,)
                                           for a in sorts]))
    for n in range(max_entities + 1):
        entities = [f"_e{i}" for i in range(n)]
        skeletons = (itertools.combinations_with_replacement(memberships, n) if canonical
                     else itertools.product(memberships, repeat=n))
        for membership_rows in skeletons:
            incidence = [(e, a) for e, row in zip(entities, membership_rows)
                         for a, bit in zip(sorts, row) if bit]
            skeleton = Model.from_extents(lang, entities, incidence, {})
            sk = SimpleNamespace(model=skeleton, rhos=rhos,
                                 axioms=[(f, skeleton.well_sorted_assignments(fv))
                                         for f, fv in compiled_axioms],
                                 queries=[(f, skeleton.well_sorted_assignments(fv))
                                          for f, fv in compiled_queries])
            pools = []
            for rho in rhos:
                rows = list(itertools.product(*[skeleton._pools[lang.reference[x]]
                                                for x in lang.arity_order[rho]]))
                pools.append([frozenset(c) for k in range(len(rows) + 1)
                              for c in itertools.combinations(rows, k)])
            for choice in itertools.product(*pools):
                count[0] += 1
                if count[0] > budget:
                    raise BudgetExceeded(f"model enumeration exceeded {budget} candidates")
                cand = _Candidate(sk, choice)
                if cand.axioms_hold():
                    yield cand


def candidate_scan_models(t, max_entities, budget=DEFAULT_BUDGET, count=None):
    """Every model of t over entity prefixes _e0.._e(n-1), n <= max_entities,
    by the one-candidate scan in the full order: every entity-incidence
    choice, renamings of one another included."""
    for cand in candidate_scan(t, max_entities, budget, count=count):
        yield cand.model()


def candidate_scan_verdicts(t, queries: list, max_entities: int, budget: int,
                            count=None) -> dict:
    """theory._verdicts by the one-candidate scan: each query refuted by
    its first countermodel, re-checked, the scan stopping once every
    query is refuted."""
    for e in queries:
        if not well_formed(t.language, e):
            raise DomainMismatch(f"query {e!r} is not well-formed over the theory's language")
    open_queries = list(range(len(queries)))
    found = {}  # query index -> Refuted
    for cand in candidate_scan(t, max_entities, budget, queries, True, count) \
            if queries else ():
        for i in [i for i in open_queries if not cand.query_holds(i)]:
            found[i] = Refuted(_countermodel(t, cand.model(), queries[i]))
            open_queries.remove(i)
        if not open_queries:
            break
    return {e: found.get(i, NoCounterexampleUpTo(max_entities)) for i, e in enumerate(queries)}


# --- free-logic brute force ---------------------------------------------------

def powerset(items):
    items = list(items)
    return [frozenset(c) for n in range(len(items) + 1)
            for c in itertools.combinations(items, n)]


def brute_free_tokens(lang):
    """Every (variable subset, fitting relation subset) pair, by direct loops."""
    out = set()
    for x_set in powerset(lang.variables):
        fitting = [r for r in lang.relation_types if set(lang.arity[r]) <= x_set]
        for rels in powerset(fitting):
            out.add((x_set, rels))
    return out


def brute_free_signature(lang, x_set, rels):
    coord = {}
    for x in x_set:
        coord[x] = frozenset(lang.reference[x] for r in rels if x in lang.arity[r])
    return coord


# --- exhaustive morphism enumeration -----------------------------------------

def all_functions(domain, codomain):
    """Every total function as a dict, in a deterministic order."""
    domain = sorted_tokens(domain)
    codomain = sorted_tokens(codomain)
    if not domain:
        return [{}]
    return [dict(zip(domain, images))
            for images in itertools.product(codomain, repeat=len(domain))]


def all_language_morphisms(src, tgt):
    out = []
    for vm in all_functions(src.variables, tgt.variables):
        for em in all_functions(src.entity_types, tgt.entity_types):
            for rm in all_functions(src.relation_types, tgt.relation_types):
                m = LanguageMorphism.make(src, tgt, vm, em, rm)
                ok, _ = language_morphism_valid(m)
                if ok:
                    out.append(m)
    return out


def all_model_morphisms(src, tgt):
    """Every valid model morphism between two small models, brute force."""
    out = []
    for lm in all_language_morphisms(src.language, tgt.language):
        for em in all_functions(tgt.entities, src.entities):
            for tu in all_functions(tgt.tuples, src.tuples):
                f = ModelMorphism.make(lm, src, tgt, em, tu)
                ok, _ = model_morphism_valid(f)
                if ok:
                    out.append(f)
    return out


def all_logic_morphisms(src, tgt, bound, budget=100000):
    """Every valid logic morphism between two small logics, brute force."""
    out = []
    for lm in all_language_morphisms(src.language, tgt.language):
        tm = TheoryMorphism(lm, src.theory, tgt.theory)
        if not theory_morphism_valid(tm, bound, budget):
            continue
        for em in all_functions(tgt.model.entities, src.model.entities):
            for tu in all_functions(tgt.model.tuples, src.model.tuples):
                f = LogicMorphism.make(src, tgt, lm, em, tu)
                ok, _ = model_morphism_valid(f.model_aspect())
                if ok:
                    out.append(f)
    return out


def compose_theory_morphisms(g1, g2):
    if g1.target != g2.source:
        raise DomainMismatch("theory morphisms not composable")
    return TheoryMorphism(compose_language_morphisms(g1.language_morphism, g2.language_morphism),
                          g1.source, g2.target)


def trivial_integration(l1, l2, bound=2, budget=DEFAULT_BUDGET) -> IntegrationResult:
    """The 'nothing' extreme: empty alignment; the fused logic is the sum."""
    empty = TypeLanguage.make((), (), {}, {})
    t = Theory.make(empty, ())
    g1, g2 = (TheoryMorphism(LanguageMorphism.make(empty, l.language, {}, {}, {}), t, l.theory)
              for l in (l1, l2))
    d = build_alignment(l1, l2, l1, l2, identity_logic_morphism(l1),
                        identity_logic_morphism(l2), t, g1, g2, bound, budget)
    return unify(d)


def self_integration(l, bound=2, budget=DEFAULT_BUDGET) -> IntegrationResult:
    """The 'everything' extreme: full identity alignment of l with itself."""
    g = identity_theory_morphism(l.theory)
    d = build_alignment(l, l, l, l, identity_logic_morphism(l),
                        identity_logic_morphism(l), l.theory, g, g, bound, budget)
    return unify(d)


def morphisms_equal(f, g):
    return (f.language_morphism == g.language_morphism
            and dict(f.entity_map) == dict(g.entity_map)
            and dict(f.tuple_map) == dict(g.tuple_map))


def mediators(fused, cocone_target, left_inj, right_inj, h_left, h_right,
              bound, budget=100000):
    """All valid morphisms u: fused -> target with inj_k ; u == h_k."""
    found = []
    for u in all_logic_morphisms(fused, cocone_target, bound, budget):
        lu = compose_logic_morphisms(left_inj, u)
        ru = compose_logic_morphisms(right_inj, u)
        if morphisms_equal(lu, h_left) and morphisms_equal(ru, h_right):
            found.append(u)
    return found


def cocone_mediators(apex, inj0, inj1, h0, h1, bound, budget=100000):
    """All valid u: apex -> Z with inj_k ; u == h_k, by constraint propagation.

    Works for sums and fusions: every type of the apex is the image of
    some component type through an injection, so commutation forces u's
    type maps outright and restricts each instance image to the tokens
    both injections send where the cone does.  Any commuting valid
    morphism therefore lies in the searched product, which makes the
    search exhaustive without enumerating unconstrained maps.
    """
    z = h0.target
    var_map, ent_map, rel_map = {}, {}, {}
    for (inj, h) in ((inj0, h0), (inj1, h1)):
        li, lh = inj.language_morphism, h.language_morphism
        for src_map, forced, out in ((li.var_map, lh.var_map, var_map),
                                     (li.entity_map, lh.entity_map, ent_map),
                                     (li.relation_map, lh.relation_map, rel_map)):
            for k, img in src_map.items():
                if out.setdefault(img, forced[k]) != forced[k]:
                    return []
    lang = apex.language
    if set(var_map) != set(lang.variables) or \
            set(ent_map) != set(lang.entity_types) or \
            set(rel_map) != set(lang.relation_types):
        return []
    lm = LanguageMorphism.make(lang, z.language, var_map, ent_map, rel_map)
    ent_choices = []
    for b in sorted_tokens(z.model.entities):
        ent_choices.append([e for e in sorted_tokens(apex.model.entities)
                            if inj0.entity_map[e] == h0.entity_map[b]
                            and inj1.entity_map[e] == h1.entity_map[b]])
    tup_choices = []
    for t in sorted_tokens(z.model.tuples):
        tup_choices.append([s for s in sorted_tokens(apex.model.tuples)
                            if inj0.tuple_map[s] == h0.tuple_map[t]
                            and inj1.tuple_map[s] == h1.tuple_map[t]])
    found = []
    for ents in itertools.product(*ent_choices):
        em = dict(zip(sorted_tokens(z.model.entities), ents))
        for tups in itertools.product(*tup_choices):
            tm = dict(zip(sorted_tokens(z.model.tuples), tups))
            u = LogicMorphism.make(apex, z, lm, em, tm)
            if logic_morphism_valid(u, bound, budget):
                found.append(u)
    return found


def adjunction_mediators(free, l, language_morphism, bound, budget=100000):
    """All valid logic morphisms free -> l with the given type component.

    The free instances are power-set tokens classified by membership, so
    the infomorphism conditions pin each instance image to the candidates
    filtered here; the filter restates those conditions, which makes the
    product search exhaustive for the fixed type component.
    """
    lm = language_morphism
    src_lang = lm.source
    ent_choices = []
    for b in sorted_tokens(l.model.entities):
        ent_choices.append([e for e in sorted_tokens(free.model.entities)
                            if all((a in e) == l.model.entity_classifies(b, lm.entity_map[a])
                                   for a in src_lang.entity_types)])
    tup_choices = []
    for t in sorted_tokens(l.model.tuples):
        pre = frozenset(x for x in src_lang.variables
                        if lm.var_map[x] in l.model.tuple_arity[t])
        tup_choices.append(
            [tok for tok in sorted_tokens(free.model.tuples)
             if tok[0] == pre
             and all((r in tok[1]) == l.model.tuple_classifies(t, lm.relation_map[r])
                     for r in src_lang.relation_types if src_lang.arity[r] <= tok[0])])
    found = []
    for ents in itertools.product(*ent_choices):
        em = dict(zip(sorted_tokens(l.model.entities), ents))
        for tups in itertools.product(*tup_choices):
            tm = dict(zip(sorted_tokens(l.model.tuples), tups))
            u = LogicMorphism.make(free, l, lm, em, tm)
            if logic_morphism_valid(u, bound, budget):
                found.append(u)
    return found


# --- isomorphism of small logics ----------------------------------------------

def bijections(a, b):
    a = sorted_tokens(a)
    b = sorted_tokens(b)
    if len(a) != len(b):
        return
    for perm in itertools.permutations(b):
        yield dict(zip(a, perm))


def models_isomorphic(m1, m2):
    """Brute-force search for a full structure-preserving bijection."""
    l1, l2 = m1.language, m2.language
    for vm in bijections(l1.variables, l2.variables):
        for em in bijections(l1.entity_types, l2.entity_types):
            if any(em[l1.reference[x]] != l2.reference[vm[x]] for x in vm):
                continue
            for rm in bijections(l1.relation_types, l2.relation_types):
                if any({vm[x] for x in l1.arity[r]} != set(l2.arity[rm[r]])
                       for r in rm):
                    continue
                for ent in bijections(m1.entities, m2.entities):
                    if {(ent[e], em[a]) for (e, a) in m1.entity_incidence} != \
                            set(m2.entity_incidence):
                        continue
                    for tup in bijections(m1.tuples, m2.tuples):
                        if any({vm[x] for x in m1.tuple_arity[t]} !=
                               set(m2.tuple_arity[tup[t]]) for t in tup):
                            continue
                        if any(ent[m1.tuple_valuation[t][x]] !=
                               m2.tuple_valuation[tup[t]][vm[x]]
                               for t in tup for x in m1.tuple_arity[t]):
                            continue
                        if {(tup[t], rm[r]) for (t, r) in m1.relation_incidence} != \
                                set(m2.relation_incidence):
                            continue
                        return True
    return False


def logics_isomorphic(l1, l2):
    if len(l1.normal_entities) != len(l2.normal_entities) or \
            len(l1.normal_tuples) != len(l2.normal_tuples):
        return False
    return models_isomorphic(l1.model, l2.model)


# --- model sum and dual quotient ----------------------------------------------

def model_as_sets(m):
    """A model's instance side as plain sets and dicts, for comparison."""
    return {
        "entities": set(m.entities),
        "entity_incidence": set(m.entity_incidence),
        "tuples": set(m.tuples),
        "arity": {t: set(m.tuple_arity[t]) for t in m.tuples},
        "valuation": {t: dict(m.tuple_valuation[t]) for t in m.tuples},
        "relation_incidence": set(m.relation_incidence),
    }


def naive_model_sum(a, b):
    """Entity pairs, equal-arity tuple pairs valued under both tags, tagged incidence."""
    out = {"entities": set(), "entity_incidence": set(), "tuples": set(),
           "arity": {}, "valuation": {}, "relation_incidence": set()}
    for x in a.entities:
        for y in b.entities:
            out["entities"].add((x, y))
            for (e, t) in a.entity_incidence:
                if e == x:
                    out["entity_incidence"].add(((x, y), ("left", t)))
            for (e, t) in b.entity_incidence:
                if e == y:
                    out["entity_incidence"].add(((x, y), ("right", t)))
    for s in a.tuples:
        for t in b.tuples:
            if set(a.tuple_arity[s]) != set(b.tuple_arity[t]):
                continue
            tok = (s, t)
            out["tuples"].add(tok)
            out["arity"][tok] = set()
            out["valuation"][tok] = {}
            for x in a.tuple_arity[s]:
                value = (a.tuple_valuation[s][x], b.tuple_valuation[t][x])
                for tag in ("left", "right"):
                    out["arity"][tok].add((tag, x))
                    out["valuation"][tok][(tag, x)] = value
            for (u, r) in a.relation_incidence:
                if u == s:
                    out["relation_incidence"].add((tok, ("left", r)))
            for (u, r) in b.relation_incidence:
                if u == t:
                    out["relation_incidence"].add((tok, ("right", r)))
    return out


def naive_classes(elements, pairs):
    """Each element's equivalence class, as the frozenset of its members."""
    cls = {e: frozenset([e]) for e in elements}
    changed = True
    while changed:
        changed = False
        for (p, q) in pairs:
            if cls[p] != cls[q]:
                merged = cls[p] | cls[q]
                for e in merged:
                    cls[e] = merged
                changed = True
    return cls


def naive_dual_quotient(m, entity_subset, tuple_subset, relation):
    """The dual quotient with classes named by their member sets.

    Returns ("incompatible", witnesses), ("respect", witnesses), or ("ok",
    the quotient's language and instance side as plain sets), checking in
    the order the construction does: the type language, entity respect,
    lax tuple respect (only relation types the tuple's arity covers are
    compared), then tuples that value merged variables differently.
    The witnesses are every witness the construction may name:
    identified types of incompatible reference or arity; or, for the
    token-order-first offending instance, (instance, a type classifying
    it, an identified type not classifying it); or, for the
    token-order-first tuple valuing merged variables differently, (one
    of those variables, its class as the sorted tuple of its members,
    the tuple).  See :func:`names_a_witness`.
    """
    lang = m.language
    var_cls = naive_classes(lang.variables, relation.variable_pairs)
    ent_cls = naive_classes(lang.entity_types, relation.entity_pairs)
    rel_cls = naive_classes(lang.relation_types, relation.relation_pairs)
    bad = {(x, y) for x in lang.variables for y in var_cls[x]
           if ent_cls[lang.reference[x]] != ent_cls[lang.reference[y]]}
    if bad:
        return "incompatible", bad
    bad = {(r, s) for r in lang.relation_types for s in rel_cls[r]
           if {var_cls[x] for x in lang.arity[r]} != {var_cls[x] for x in lang.arity[s]}}
    if bad:
        return "incompatible", bad
    entities = set(entity_subset)
    tuples = {t for t in tuple_subset
              if all(v in entities for v in m.tuple_valuation[t].values())}

    def first_instance(witnesses):
        least = sorted_tokens({w[0] for w in witnesses})[0]
        return {w for w in witnesses if w[0] == least}

    split = {(e, al, be) for e in entities for al in lang.entity_types for be in ent_cls[al]
             if (e, al) in m.entity_incidence and (e, be) not in m.entity_incidence}
    if split:
        return "respect", first_instance(split)
    for t in tuples:
        covered = [r for r in lang.relation_types if set(lang.arity[r]) <= set(m.tuple_arity[t])]
        split |= {(t, r, s) for r in covered for s in covered
                  if rel_cls[r] == rel_cls[s] and (t, r) in m.relation_incidence
                  and (t, s) not in m.relation_incidence}
    if split:
        return "respect", first_instance(split)
    clashes = {(t, x, tuple(sorted_tokens(var_cls[x])))
               for t in tuples for x in m.tuple_arity[t] for y in m.tuple_arity[t]
               if var_cls[x] == var_cls[y] and m.tuple_valuation[t][x] != m.tuple_valuation[t][y]}
    if clashes:
        return "incompatible", {(x, c, t) for t, x, c in first_instance(clashes)}
    out = {
        "variables": set(var_cls.values()),
        "entity_types": set(ent_cls.values()),
        "relation_types": set(rel_cls.values()),
        "reference": {var_cls[x]: ent_cls[lang.reference[x]] for x in lang.variables},
        "type_arity": {rel_cls[r]: {var_cls[x] for x in lang.arity[r]}
                       for r in lang.relation_types},
        "entities": entities,
        "entity_incidence": {(e, ent_cls[al]) for (e, al) in m.entity_incidence
                             if e in entities},
        "tuples": tuples,
        "arity": {t: {var_cls[x] for x in m.tuple_arity[t]} for t in tuples},
        "valuation": {t: {var_cls[x]: m.tuple_valuation[t][x] for x in m.tuple_arity[t]}
                      for t in tuples},
        "relation_incidence": {(t, rel_cls[r]) for (t, r) in m.relation_incidence
                               if t in tuples},
    }
    return "ok", out


def names_a_witness(e, witnesses) -> bool:
    """Whether a quotient's error names one of naive_dual_quotient's
    witnesses; the tuple that values merged variables differently is
    named in the message only."""
    if isinstance(e, IncompatibleQuotient) and "values merged variables" in str(e):
        return any(e.witness == w[:2] and f"tuple {w[2]!r} " in str(e) for w in witnesses)
    return e.witness in witnesses


def quotient_as_sets(q, canon):
    """A library quotient renamed to member-set classes, as naive_dual_quotient gives it."""
    lm = canon.language_morphism

    def members(mapping):
        out = {}
        for k, cls in mapping.items():
            out.setdefault(cls, set()).add(k)
        return {cls: frozenset(ks) for cls, ks in out.items()}
    var, ent, rel = members(lm.var_map), members(lm.entity_map), members(lm.relation_map)
    lang = q.language
    out = {
        "variables": {var[x] for x in lang.variables},
        "entity_types": {ent[a] for a in lang.entity_types},
        "relation_types": {rel[r] for r in lang.relation_types},
        "reference": {var[x]: ent[lang.reference[x]] for x in lang.variables},
        "type_arity": {rel[r]: {var[x] for x in lang.arity[r]} for r in lang.relation_types},
    }
    sets = model_as_sets(q)
    out["entities"] = sets["entities"]
    out["entity_incidence"] = {(e, ent[a]) for (e, a) in sets["entity_incidence"]}
    out["tuples"] = sets["tuples"]
    out["arity"] = {t: {var[x] for x in xs} for t, xs in sets["arity"].items()}
    out["valuation"] = {t: {var[x]: v for x, v in val.items()}
                        for t, val in sets["valuation"].items()}
    out["relation_incidence"] = {(t, rel[r]) for (t, r) in sets["relation_incidence"]}
    return out


# --- fusion as sum then quotient ------------------------------------------------

def fusion_invariant(f0, f1, s):
    """The dual invariant a span induces on the sum s of its targets.

    Instances: the pairs on which the two backward instance maps agree
    (entities and tuples separately).  Types: tagged pairs linked by a
    type of the common source.
    """
    _check_span(f0, f1)
    relation = span_relation(f0.language_morphism, f1.language_morphism)
    entities = frozenset(p for p in s.model.entities
                         if f0.entity_map[p[0]] == f1.entity_map[p[1]])
    tuples = frozenset(p for p in s.model.tuples
                       if f0.tuple_map[p[0]] == f1.tuple_map[p[1]])
    return ModelDualInvariant(entities, tuples, relation)


def sum_quotient_fusion(f0, f1):
    """Fusion as the quotient of the whole sum of the span's targets by the
    invariant the span induces.  Returns (fused, q: sum => fused, nu0;q,
    nu1;q), with the join's soundness guard in front."""
    for f in (f0, f1):
        if not (is_sound(f.source) and is_sound(f.target)):
            raise SoundnessViolation("fusion requires sound logics throughout")
    s, nu0, nu1 = logic_sum(f0.target, f1.target)
    fused, q = logic_dual_quotient(s, fusion_invariant(f0, f1, s))
    return fused, q, compose_logic_morphisms(nu0, q), compose_logic_morphisms(nu1, q)


# --- S-expression reading -------------------------------------------------------

def naive_parse(text, max_depth):
    """Values by stripping comments, padding parentheses and splitting.

    None when the parentheses do not balance or nest deeper than max_depth.
    """
    words = " ".join(line.split(";", 1)[0] for line in text.split("\n"))
    stack = [[]]
    for w in words.replace("(", " ( ").replace(")", " ) ").split():
        if w == "(":
            stack.append([])
            if len(stack) > max_depth + 1:
                return None
        elif w == ")":
            if len(stack) == 1:
                return None
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(w)
    return stack[0] if len(stack) == 1 else None


# --- token order and extent form, as the writer first had them --------------------

def naive_token_key(t):
    """The token order as one isinstance chain, recomputing every member's key."""
    if isinstance(t, bool):
        return ("bool", t)
    if isinstance(t, int):
        return ("int", t)
    if isinstance(t, str):
        return ("str", t)
    if isinstance(t, frozenset):
        return ("set", tuple(sorted(naive_token_key(x) for x in t)))
    if isinstance(t, tuple):
        return ("tuple", tuple(naive_token_key(x) for x in t))
    if isinstance(t, FrozenDict):
        return ("map", tuple(sorted((naive_token_key(k), naive_token_key(v))
                                    for k, v in t.items())))
    if dataclasses.is_dataclass(t) and not isinstance(t, type):
        return ("dc", type(t).__name__,
                tuple(naive_token_key(getattr(t, f.name)) for f in dataclasses.fields(t)))
    raise TypeError(f"unorderable token: {t!r}")


def naive_extent_faithful(m, extents):
    """Does from_extents on the derived extents rebuild this exact model?
    Decided by rebuilding it and comparing."""
    try:
        rebuilt = Model.from_extents(
            m.language, m.entities, m.entity_incidence, extents,
            extra_tuples=[t for t in m.tuples
                          if isinstance(t, FrozenDict) and m.tuple_valuation[t] == t])
    except OntofuseError:
        return False
    return rebuilt == m


# --- the writer before its memos ---------------------------------------------------

def naive_render_token(t, key=token_key):
    """t as a value, every member rendered afresh, each time it is met."""
    if isinstance(t, str):
        return t
    if isinstance(t, frozenset):
        return ["set"] + [naive_render_token(x, key) for x in sorted_tokens(t, key)]
    if isinstance(t, FrozenDict):
        return ["map"] + [[naive_render_token(k, key), naive_render_token(t[k], key)]
                          for k in sorted_tokens(t, key)]
    if isinstance(t, tuple):
        return ["tuple"] + [naive_render_token(x, key) for x in t]
    raise FormError("token", f"cannot render token {t!r}")


def naive_write(v, indent: int) -> tuple[str, str]:
    """v's one-line text and its text laid out at this indent, every list's
    one-line text built from its children's, each time it is met."""
    if isinstance(v, str):
        return v, v
    parts = [naive_write(i, indent + 2) for i in v]
    flat = "(" + " ".join(p[0] for p in parts) + ")"
    if len(flat) + indent <= WIDTH:
        return flat, flat
    pad = "\n" + " " * (indent + 2)
    if not v or not isinstance(v[0], str):
        return flat, "(" + pad.join(p[1] for p in parts) + ")"
    split = 2 if len(v) > 1 and isinstance(v[1], str) else 1
    rest = pad.join(p[1] for p in parts[split:])
    return flat, "(" + " ".join(v[:split]) + pad + rest + ")"


def naive_serialize(doc) -> str:
    """serialize_document with no memo: each form rendered with
    naive_render_token, and its value laid out by naive_write."""
    forms = [_render_form(doc, kind, name, token_key, naive_render_token)
             for kind, name in doc.order]
    return "\n\n".join(naive_write(f, 0)[1] for f in forms) + "\n"


# --- the practical path, fusing twice -------------------------------------------

def two_fusion_practical_integrate(l1, l2, c, t, g1, g2, bound, budget):
    """The practical path as two fusions: the C-fusion of the fiber
    inclusions, then the free fusion of the transposes, compared by the
    diagonal morphism.  Built from the library's fiber, fusion and
    counit, it checks that the single-fusion path reproduces the
    results and the failures of fusing twice."""
    c = frozenset(c)
    if not c <= l1.model.entities & l2.model.entities:
        raise DomainMismatch("C must be a subset of both universes")
    p1, link1 = restrict_logic(l1, c)
    p2, link2 = restrict_logic(l2, c)
    if g1.source != t or g2.source != t:
        raise DomainMismatch("alignment links must start at the mediating theory")
    if g1.target != p1.theory or g2.target != p2.theory:
        raise DomainMismatch("alignment links must target the community theories")
    k, m1 = fiber(g1, p1)
    fib2, m2 = fiber(g2, p2)
    _check_agreement(k, fib2)
    pairs, v1, v2 = fusion(m1, m2)
    if any(p[0] != p[1] for p in pairs.model.entities) or \
            any(p[0] != p[1] for p in pairs.model.tuples):
        raise AgreementFailure("fused instances are not diagonal pairs")
    diag_entities = {p[0]: p for p in pairs.model.entities}
    diag_tuples = {p[0]: p for p in pairs.model.tuples}
    fused = _relabel_logic(pairs)
    relabel = LogicMorphism.make(pairs, fused, identity_language_morphism(fused.language),
                                 diag_entities, diag_tuples)
    v1, v2 = (compose_logic_morphisms(f, relabel) for f in (v1, v2))
    result = IntegrationResult(fused, v1, v2,
                               compose_logic_morphisms(link1, v1),
                               compose_logic_morphisms(link2, v2))
    if fused.model.entities != c:
        raise AgreementFailure("fused universe differs from C")
    km = counit(k, budget)
    free_fused, _, _ = fusion(compose_logic_morphisms(km, m1),
                              compose_logic_morphisms(km, m2))
    if free_fused.language != fused.language:
        raise AgreementFailure("free fusion and C fusion have different type languages")
    missing = [p for p in diag_entities.values() if p not in free_fused.model.entities]
    missing += [p for p in diag_tuples.values() if p not in free_fused.model.tuples]
    if missing:
        raise AgreementFailure(f"diagonal instance {missing[0]!r} missing from the free fusion")
    comparison = LogicMorphism.make(free_fused, fused,
                                    identity_language_morphism(fused.language),
                                    diag_entities, diag_tuples)
    verdict = logic_morphism_valid(comparison, bound, budget)
    if not verdict:
        raise AgreementFailure(f"comparison morphism invalid: {verdict.detail!r}")
    return result, _report(k, km, comparison, fused, (m1, m2), bound, budget)


def one_fusion_practical_integrate(l1, l2, c, t, g1, g2, bound, budget):
    """The practical path as one free fusion restricted to its diagonal:
    the library's path before the C-fusion was built directly, which
    builds and validates the comparison morphism on every call."""
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
    free_fused, v1, v2 = fusion(compose_logic_morphisms(km, m1),
                                compose_logic_morphisms(km, m2))
    m = free_fused.model
    diag = m.restrict((p for p in m.entities if p[0] == p[1]),
                      (p for p in m.tuples if p[0] == p[1]))
    fused = _relabel_logic(Logic(free_fused.theory, diag,
                                 free_fused.normal_entities & diag.entities,
                                 free_fused.normal_tuples & diag.tuples))
    if fused.model.entities != c:
        raise AgreementFailure("fused universe differs from C")
    comparison = LogicMorphism.make(free_fused, fused,
                                    identity_language_morphism(fused.language),
                                    {x: (x, x) for x in fused.model.entities},
                                    {x: (x, x) for x in fused.model.tuples})
    verdict = logic_morphism_valid(comparison, bound, budget)
    if not verdict:
        raise AgreementFailure(f"comparison morphism invalid: {verdict.detail!r}")
    v1, v2 = (compose_logic_morphisms(f, comparison) for f in (v1, v2))
    result = IntegrationResult(fused, v1, v2,
                               compose_logic_morphisms(link1, v1),
                               compose_logic_morphisms(link2, v2))
    return result, _report(k, km, comparison, fused, (m1, m2), bound, budget)


def _report(k, km, comparison, fused, inclusions, bound, budget):
    """A practical report whose comparison morphism is the one given,
    stored where the report caches the one it would build on first read."""
    report = PracticalReport(k, km, fused.theory, fused.model.entities,
                             fused, inclusions, bound, budget)
    vars(report)["comparison"] = comparison
    return report
