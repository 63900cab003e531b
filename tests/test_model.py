"""Models: lax satisfaction, morphisms, sums, dual quotients."""
import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from ontofuse.errors import (AgreementFailure, DomainMismatch, IncompatibleQuotient,
                             LaxViolation, NameSetMismatch, RespectViolation)
from ontofuse.hypergraph import hypergraph_product
from ontofuse.integration import practical_integrate
from ontofuse.language import (And, Atomic, Exists, Forall, Implies, LanguageEndorelation,
                               LanguageMorphism, Not, Or, Subst, TypeLanguage,
                               compose_language_morphisms, free_vars,
                               identity_language_morphism)
from ontofuse.model import (Model, ModelDualInvariant, ModelMorphism, _compile, holds,
                            model_dual_quotient, model_morphism_valid, model_sum,
                            satisfies, token_satisfies)
from ontofuse.logic import fiber, free_logic, fusion
from ontofuse.theory import Theory, identity_theory_morphism
from ontofuse.tokens import fdict, ltag, rtag, sorted_tokens

from fixtures import (VARS, permuted_practical_scenarios, practical_scenarios,
                      rand_expression, rand_language, rand_logic, rand_model, rand_span,
                      relabeled_target, separated_logic, w_language, w_logic, wp_logic)
from oracles import (all_model_morphisms, entity_extent, model_as_sets,
                     models_isomorphic, morphisms_equal, naive_classes, naive_dual_quotient,
                     names_a_witness,
                     naive_extent, naive_holds, naive_lax_incidence, naive_model_sum,
                     naive_satisfies, naive_sort_pool, quotient_as_sets)


def w_model():
    return w_logic().model


def prop_language():
    return TypeLanguage.make(VARS, ["T"], {"x": "T", "y": "T"},
                             {"p": (), "q": ()})


# --- holds ------------------------------------------------------------------

def test_holds_atomic_on_extent_member():
    m = w_model()
    assert holds(m, {"x": "bob", "y": "acme"}, Atomic("WorksFor"))


def test_holds_atomic_outside_extent():
    m = w_model()
    assert not holds(m, {"x": "zoe", "y": "acme"}, Atomic("WorksFor"))


def test_holds_forall_over_empty_sort_is_vacuous():
    lang = w_language()
    m = Model.from_extents(lang, ["acme"], [("acme", "Company")], {})
    assert holds(m, {"y": "acme"}, Forall("x", Atomic("WorksFor")))


def test_holds_requires_free_variable_coverage():
    m = w_model()
    with pytest.raises(LaxViolation):
        holds(m, {"x": "bob"}, Atomic("WorksFor"))


def test_holds_uses_restriction_of_larger_assignment():
    # lax rule: extra coordinates are ignored
    m = w_model()
    assert holds(m, {"x": "bob", "y": "acme"}, Atomic("WorksFor")) == \
        holds(m, fdict({"x": "bob", "y": "acme"}), Atomic("WorksFor"))


def test_holds_matches_naive_evaluator_randomized():
    rng = random.Random(41)
    for _ in range(300):
        lang = rand_language(rng, max_ents=2, max_rels=2)
        if not lang.relation_types:
            continue
        m = rand_model(rng, lang, max_entities=3)
        e = rand_expression(rng, lang, rng.randint(1, 3))
        for env in m.well_sorted_assignments(free_vars(lang, e)):
            assert holds(m, env, e) == naive_holds(m, dict(env), e)


def test_lax_coherence_extension_preserves_holding():
    rng = random.Random(43)
    for _ in range(200):
        lang = rand_language(rng, max_ents=2, max_rels=2)
        if not lang.relation_types:
            continue
        m = rand_model(rng, lang, max_entities=3)
        e = rand_expression(rng, lang, rng.randint(1, 3))
        fv = free_vars(lang, e)
        for small in m.well_sorted_assignments(fv):
            for big in m.well_sorted_assignments(lang.variables):
                if all(big[x] == small[x] for x in fv):
                    assert holds(m, big, e) == holds(m, small, e)


# --- satisfies --------------------------------------------------------------

def test_satisfies_closed_tautology():
    lang = prop_language()
    m = Model.from_extents(lang, [], [], {})
    assert satisfies(m, Or(Atomic("p"), Not(Atomic("p"))))


def test_satisfies_conjunction_implies_conjuncts_randomized():
    rng = random.Random(47)
    for _ in range(200):
        lang = rand_language(rng, max_ents=2, max_rels=2)
        if not lang.relation_types:
            continue
        m = rand_model(rng, lang, max_entities=2)
        if not m.well_sorted_assignments(VARS):
            continue  # empty sort pools make quantification vacuous
        a = rand_expression(rng, lang, 2)
        b = rand_expression(rng, lang, 2)
        if satisfies(m, And(a, b)):
            assert satisfies(m, a) and satisfies(m, b)


def test_satisfies_full_extent_is_maximal_intent():
    lang = w_language()
    entities = ["bob", "zoe", "acme"]
    incidence = [("bob", "Person"), ("zoe", "Person"), ("acme", "Company")]
    skeleton = Model.from_extents(lang, entities, incidence, {})
    full = skeleton.well_sorted_assignments(lang.arity["WorksFor"])
    m = Model.from_extents(lang, entities, incidence, {"WorksFor": full})
    assert satisfies(m, Atomic("WorksFor"))


def test_satisfies_matches_naive_evaluator_randomized():
    rng = random.Random(53)
    for _ in range(200):
        lang = rand_language(rng, max_ents=2, max_rels=2)
        if not lang.relation_types:
            continue
        m = rand_model(rng, lang, max_entities=2)
        e = rand_expression(rng, lang, rng.randint(1, 3))
        assert satisfies(m, e) == naive_satisfies(m, e)


def test_satisfies_equals_check_over_all_larger_assignments():
    # the exact-domain definition agrees with quantifying over every
    # well-sorted assignment whose domain covers the free variables
    rng = random.Random(59)
    for _ in range(60):
        lang = rand_language(rng, max_ents=2, max_rels=2)
        if not lang.relation_types:
            continue
        m = rand_model(rng, lang, max_entities=3)
        e = rand_expression(rng, lang, 2)
        fv = free_vars(lang, e)
        domains = [d | fv for d in
                   ({frozenset(), frozenset(VARS)} | {frozenset({x}) for x in VARS})]
        over_all = all(holds(m, t, e)
                       for d in domains for t in m.well_sorted_assignments(d))
        assert satisfies(m, e) == over_all


# --- incidence from extents ---------------------------------------------------------

def test_from_extents_incidence_is_the_plain_lax_rule_randomized():
    # three variables, and extra tuples over every domain, so that tuples
    # cover some relation arities and not others
    rng = random.Random(61)
    variables = ("x", "y", "z")
    domains = [frozenset(d) for k in range(4) for d in itertools.combinations(variables, k)]
    for _ in range(150):
        ents = [f"E{i}" for i in range(rng.randint(1, 3))]
        lang = TypeLanguage.make(
            variables, ents, {x: rng.choice(ents) for x in variables},
            {f"R{i}": rng.sample(variables, rng.randint(0, 3)) for i in range(rng.randint(0, 4))})
        m0 = rand_model(rng, lang, max_entities=3)
        extents = {rho: {t for t in m0.well_sorted_assignments(lang.arity[rho])
                         if rng.random() < 0.4}
                   for rho in sorted_tokens(lang.relation_types)}
        extra = [t for d in domains for t in m0.well_sorted_assignments(d) if rng.random() < 0.3]
        m = Model.from_extents(lang, m0.entities, m0.entity_incidence, extents, extra)
        tuples = set(extra).union(*extents.values())
        assert m.tuples == tuples
        assert m.relation_incidence == naive_lax_incidence(extents, tuples)


# --- check ---------------------------------------------------------------------

def faulty_model(**fields):
    """The employment language over bob and acme, with twelve tuples
    t00..t11 and the given fields replaced.  Maps list their keys last
    first, so a scan in insertion order meets t00 last."""
    tokens = [f"t{i:02}" for i in range(12)]
    m = Model(w_language(), frozenset({"bob", "acme"}),
              frozenset({("bob", "Person"), ("acme", "Company")}),
              fdict({t: fdict({"x": "bob", "y": "acme"}) for t in tokens}),
              frozenset((t, "WorksFor") for t in tokens))
    return replace(m, **fields)


@pytest.mark.parametrize("fields, message", [
    ({"entity_incidence": frozenset((f"e{i:02}", "Person") for i in range(12))},
     "entity incidence pair ('e00', 'Person') out of range"),
    ({"tuple_valuation": fdict({f"t{i:02}": fdict({"x": "acme", "y": "bob"})
                                for i in reversed(range(12))})},
     "tuple 't00' ill-sorted at 'x'"),
    ({"relation_incidence": frozenset((f"t{i:02}", "Foo") for i in range(12))},
     "relation incidence pair ('t00', 'Foo') out of range"),
], ids=["entity-incidence", "ill-sorted", "relation-incidence"])
def test_check_names_the_token_order_first_offender(fields, message):
    with pytest.raises(DomainMismatch) as err:
        faulty_model(**fields).check()
    assert str(err.value) == message


# --- morphisms ----------------------------------------------------------------

def test_identity_model_morphism_valid():
    m = w_model()
    identity = ModelMorphism.make(identity_language_morphism(m.language), m, m,
                                  {e: e for e in m.entities}, {t: t for t in m.tuples})
    assert model_morphism_valid(identity)[0]


def test_broken_entity_infomorphism_reported_with_witness():
    m = w_model()
    lm = LanguageMorphism.make(m.language, m.language,
                               {x: x for x in VARS},
                               {"Person": "Person", "Company": "Company"},
                               {"WorksFor": "WorksFor"})
    bad = ModelMorphism.make(lm, m, m,
                             {**{e: e for e in m.entities}, "acme": "bob"},
                             {t: t for t in m.tuples})
    ok, witness = model_morphism_valid(bad)
    assert not ok
    assert witness[0] == "entity"


# --- sums ---------------------------------------------------------------------

def test_sum_with_empty_model_has_no_instances():
    a = w_model()
    empty = Model.empty(w_language())
    s, n1, n2 = model_sum(a, empty)
    assert not s.entities and not s.tuples
    assert ltag("Person") in s.language.entity_types
    assert model_morphism_valid(n1)[0]
    assert model_morphism_valid(n2)[0]


def test_sum_entity_incidence_is_componentwise():
    a, b = w_logic().model, wp_logic().model
    s, _, _ = model_sum(a, b)
    for (x, y) in s.entities:
        for al in sorted_tokens(a.language.entity_types):
            assert s.entity_classifies((x, y), ltag(al)) == \
                a.entity_classifies(x, al)
        for al in sorted_tokens(b.language.entity_types):
            assert s.entity_classifies((x, y), rtag(al)) == \
                b.entity_classifies(y, al)


def test_sum_requires_shared_variable_pool():
    a = w_model()
    other = TypeLanguage.make(["u"], ["T"], {"u": "T"}, {})
    b = Model.from_extents(other, [], [], {})
    with pytest.raises(NameSetMismatch):
        model_sum(a, b)


def test_sum_injections_valid_randomized():
    rng = random.Random(67)
    for _ in range(30):
        a = rand_model(rng, rand_language(rng, "a"), max_entities=2)
        b = rand_model(rng, rand_language(rng, "b"), max_entities=2)
        _, n1, n2 = model_sum(a, b)
        assert model_morphism_valid(n1)[0]
        assert model_morphism_valid(n2)[0]


def test_sum_pairs_equal_arity_tuples_only():
    a, b = w_logic().model, wp_logic().model
    s, _, _ = model_sum(a, b)
    for (t1, t2) in s.tuples:
        assert a.tuple_arity[t1] == b.tuple_arity[t2]


def rand_summand(rng, tag):
    """A small model with assignment tuples or, every third draw, abstract ones."""
    if rng.random() < 1 / 3:
        return separated_logic(rng, tag).model
    return rand_model(rng, rand_language(rng, tag), max_entities=3)


def test_sum_matches_naive_oracle_randomized():
    rng = random.Random(73)
    for _ in range(150):
        a, b = rand_summand(rng, "a"), rand_summand(rng, "b")
        s, n1, n2 = model_sum(a, b)
        assert model_as_sets(s) == naive_model_sum(a, b)
        assert dict(n1.entity_map) == {p: p[0] for p in s.entities}
        assert dict(n2.entity_map) == {p: p[1] for p in s.entities}
        assert dict(n1.tuple_map) == {t: t[0] for t in s.tuples}
        assert dict(n2.tuple_map) == {t: t[1] for t in s.tuples}


def test_keyed_sum_is_the_sum_restricted_to_the_pairs_whose_keys_agree():
    rng = random.Random(61)
    proper = 0
    for _ in range(200):
        _, f0, f1 = rand_span(rng)
        a, b = f0.target.model, f1.target.model
        ekeys = [{e: rng.randrange(2) for e in m.entities}.__getitem__ for m in (a, b)]
        tkeys = [{t: rng.randrange(2) for t in m.tuples}.__getitem__ for m in (a, b)]
        whole, w1, w2 = model_sum(a, b)
        kept_entities = {p for p in whole.entities if ekeys[0](p[0]) == ekeys[1](p[1])}
        kept_tuples = {t for t in whole.tuples if tkeys[0](t[0]) == tkeys[1](t[1])}
        expected = whole.restrict(kept_entities, kept_tuples)
        s, n1, n2 = model_sum(a, b, tuple(ekeys), tuple(tkeys))
        assert s == expected
        for n, w in ((n1, w1), (n2, w2)):
            assert n.language_morphism == w.language_morphism
            assert dict(n.entity_map) == {p: w.entity_map[p] for p in s.entities}
            assert dict(n.tuple_map) == {t: w.tuple_map[t] for t in s.tuples}
        proper += s != whole
    assert proper >= 50


def compose(f, g):
    """The composite model morphism f;g: instances pulled back through g, then f."""
    return ModelMorphism.make(compose_language_morphisms(f.language_morphism, g.language_morphism),
                              f.source, g.target,
                              {b: f.entity_map[g.entity_map[b]] for b in g.entity_map},
                              {t: f.tuple_map[g.tuple_map[t]] for t in g.tuple_map})


def test_sum_coproduct_universal_property_small_random():
    rng = random.Random(71)
    cones = 0
    while cones < 6:
        la = rand_language(rng, "a", max_ents=1, max_rels=1)
        lb = rand_language(rng, "b", max_ents=1, max_rels=1)
        a = rand_model(rng, la, max_entities=1)
        b = rand_model(rng, lb, max_entities=1)
        c = rand_model(rng, rand_language(rng, "c", 1, 1), max_entities=2)
        s, n1, n2 = model_sum(a, b)
        h1s = all_model_morphisms(a, c)
        h2s = all_model_morphisms(b, c)
        if not h1s or not h2s:
            continue
        candidates = all_model_morphisms(s, c)
        for h1 in h1s[:2]:
            for h2 in h2s[:2]:
                mediating = [u for u in candidates
                             if morphisms_equal(compose(n1, u), h1)
                             and morphisms_equal(compose(n2, u), h2)]
                assert len(mediating) == 1
                cones += 1


# --- dual quotients -------------------------------------------------------------

def test_identity_invariant_gives_isomorphic_model():
    m = w_model()
    q, canon = model_dual_quotient(m, ModelDualInvariant.identity(m))
    assert models_isomorphic(m, q)
    assert model_morphism_valid(canon)[0]


def test_dropping_entity_drops_referencing_tuples():
    m = w_model()
    keep = m.entities - {"acme"}
    q, _ = model_dual_quotient(m, ModelDualInvariant.make(
        keep, m.tuples, LanguageEndorelation.make()))
    assert q.entities == keep
    assert not q.tuples  # the one tuple valued acme


def test_quotient_of_fixture_sum_matches_representative_oracle():
    a, b = w_logic(extra_people=()).model, wp_logic(extra_people=()).model
    s, _, _ = model_sum(a, b)
    j = LanguageEndorelation.make(
        entity_pairs=[(ltag("Person"), rtag("Human")),
                      (ltag("Company"), rtag("Firm"))],
        relation_pairs=[(ltag("WorksFor"), rtag("EmployedBy"))],
        variable_pairs=[(ltag(x), rtag(x)) for x in VARS])
    diagonal_ents = {(e, e) for e in a.entities}
    diagonal_tuples = {(t1, t2) for (t1, t2) in s.tuples if t1 == t2}
    q, canon = model_dual_quotient(s, ModelDualInvariant.make(
        diagonal_ents, diagonal_tuples, j))
    assert model_morphism_valid(canon)[0]
    # oracle: quotient incidence must agree with the sum's incidence at
    # every representative of every merged class
    lm = canon.language_morphism
    ent_classes = [[ltag("Person"), rtag("Human")], [ltag("Company"), rtag("Firm")]]
    for e in q.entities:
        for reps in ent_classes:
            expected = {s.entity_classifies(e, r) for r in reps}
            assert len(expected) == 1
            assert q.entity_classifies(e, lm.entity_map[reps[0]]) == expected.pop()
    rel_reps = [ltag("WorksFor"), rtag("EmployedBy")]
    for t in q.tuples:
        expected = {s.tuple_classifies(t, r) for r in rel_reps}
        assert len(expected) == 1
        assert q.tuple_classifies(t, lm.relation_map[rel_reps[0]]) == expected.pop()


def test_quotient_respect_violation_on_disagreeing_entity():
    a, b = w_logic().model, wp_logic().model
    s, _, _ = model_sum(a, b)
    j = LanguageEndorelation.make(
        entity_pairs=[(ltag("Person"), rtag("Human"))])
    # (bob, acme) is a left Person but not a right Human
    with pytest.raises(RespectViolation):
        model_dual_quotient(s, ModelDualInvariant.make(
            s.entities, frozenset(), j))


def test_quotient_rejects_tuple_valuing_merged_variables_differently():
    lang = TypeLanguage.make(VARS, ["T"], {"x": "T", "y": "T"},
                             {"R": ("x", "y")})
    m = Model.from_extents(lang, ["a", "b"], [("a", "T"), ("b", "T")],
                           {"R": [{"x": "a", "y": "b"}]})
    j = LanguageEndorelation.make(variable_pairs=[("x", "y")])
    with pytest.raises(IncompatibleQuotient):
        model_dual_quotient(m, ModelDualInvariant.make(m.entities, m.tuples, j))


def test_quotient_respect_is_lax_on_uncovered_relation_types():
    # R(x) and S(y) are merged and so are x and y; the tuple {x: a} lies
    # in R and its arity does not cover S, so S is not compared
    lang = TypeLanguage.make(VARS, ["T"], {"x": "T", "y": "T"},
                             {"R": ("x",), "S": ("y",)})
    m = Model.from_extents(lang, ["a"], [("a", "T")], {"R": [{"x": "a"}]})
    j = LanguageEndorelation.make(relation_pairs=[("R", "S")],
                                  variable_pairs=[("x", "y")])
    q, canon = model_dual_quotient(m, ModelDualInvariant.make(m.entities, m.tuples, j))
    (t,) = q.tuples
    assert q.tuple_classifies(t, canon.language_morphism.relation_map["R"])
    assert q.tuple_arity[t] == {canon.language_morphism.var_map["x"]}


def rand_summand_pair(rng):
    """Two small models; every other draw the right one relabels the left.

    A relabelled copy is the shape fusion quotients: linking each type
    with its copy is respected on the diagonal.  The copy's types are
    the left's with a "c" in front.
    """
    k = separated_logic(rng, "a") if rng.random() < 1 / 3 else rand_logic(rng, "a")
    if rng.random() < 0.5:
        return k.model, rand_summand(rng, "b"), False
    copy, _ = relabeled_target(rng, k, "c")
    return k.model, copy.model, True


def rand_sum_invariant(rng, s, a, b, copied):
    """A type relation across the two halves of a sum, and retained instances.

    Variables are mostly merged with their namesakes, references
    alongside, and relation types only at equal arity over merged
    variables, so the type language mostly quotients; most draws then
    keep only instances that respect the relation, so most quotients
    succeed.
    """
    la, lb = a.language, b.language
    merged = [x for x in VARS if rng.random() < 0.8]
    variable_pairs = [(x, x) for x in merged]
    if rng.random() < 0.15:
        variable_pairs.append((rng.choice(VARS), rng.choice(VARS)))
    entity_pairs = [(la.reference[x], lb.reference[y]) for x, y in variable_pairs]
    if copied:
        entity_pairs += [(p, "c" + p) for p in sorted_tokens(la.entity_types)
                         if rng.random() < 0.8]
    else:
        entity_pairs += [(p, q) for p in sorted_tokens(la.entity_types)
                         for q in sorted_tokens(lb.entity_types) if rng.random() < 0.2]
    relation_pairs = [(r, q) for r in sorted_tokens(la.relation_types)
                      for q in sorted_tokens(lb.relation_types)
                      if la.arity[r] == lb.arity[q] and la.arity[r] <= set(merged)
                      and rng.random() < 0.6]
    rel = LanguageEndorelation.make(
        [(ltag(p), rtag(q)) for p, q in entity_pairs],
        [(ltag(p), rtag(q)) for p, q in relation_pairs],
        [(ltag(p), rtag(q)) for p, q in variable_pairs])
    if rng.random() < 0.15:
        return (frozenset(e for e in s.entities if rng.random() < 0.8),
                frozenset(t for t in s.tuples if rng.random() < 0.8), rel)
    ent_cls = naive_classes(s.language.entity_types, rel.entity_pairs)
    rel_cls = naive_classes(s.language.relation_types, rel.relation_pairs)
    entities = frozenset(
        e for e in s.entities if rng.random() < 0.95
        and all(s.entity_classifies(e, p) == s.entity_classifies(e, q)
                for p in ent_cls for q in ent_cls[p]))
    tuples = frozenset(
        t for t in s.tuples if rng.random() < 0.95
        and all(s.tuple_classifies(t, p) == s.tuple_classifies(t, q)
                for p in rel_cls for q in rel_cls[p]
                if s.language.arity[p] | s.language.arity[q] <= s.tuple_arity[t]))
    return entities, tuples, rel


def test_dual_quotient_matches_naive_oracle_randomized():
    rng = random.Random(79)
    succeeded = 0
    for _ in range(400):
        a, b, copied = rand_summand_pair(rng)
        s, _, _ = model_sum(a, b)
        entities, tuples, rel = rand_sum_invariant(rng, s, a, b, copied)
        j = ModelDualInvariant.make(entities, tuples, rel)
        verdict, expected = naive_dual_quotient(s, entities, tuples, rel)
        if verdict == "respect":
            with pytest.raises(RespectViolation) as raised:
                model_dual_quotient(s, j)
            assert names_a_witness(raised.value, expected)
            continue
        if verdict == "incompatible":
            with pytest.raises(IncompatibleQuotient) as raised:
                model_dual_quotient(s, j)
            assert names_a_witness(raised.value, expected)
            continue
        q, canon = model_dual_quotient(s, j)
        assert quotient_as_sets(q, canon) == expected
        assert dict(canon.entity_map) == {e: e for e in q.entities}
        assert dict(canon.tuple_map) == {t: t for t in q.tuples}
        succeeded += 1
    assert succeeded >= 300


# --- evaluation against the naive evaluator, beyond from_extents models -----------

def assert_evaluates_like_naive(rng, m, expressions=3):
    """Extents, sort pools, holds and satisfies of m agree with the oracles."""
    lang = m.language
    for rho in lang.relation_types:
        assert {frozenset(a.items()) for a in m.relation_extent(rho)} == \
            naive_extent(m, rho)
    for a in lang.entity_types:
        assert entity_extent(m, a) == set(naive_sort_pool(m, a))
    for x in lang.variables:
        assert [t[x] for t in m.well_sorted_assignments([x])] == \
            naive_sort_pool(m, lang.reference[x])
    if not lang.relation_types:
        return
    for _ in range(expressions):
        e = rand_expression(rng, lang, rng.randint(1, 3))
        fv = free_vars(lang, e)
        assert satisfies(m, e) == naive_satisfies(m, e)
        for env in m.well_sorted_assignments(fv):
            assert holds(m, env, e) == naive_holds(m, dict(env), e)
        # lax: a tuple's valuation may cover more than fv, and free
        # models value coordinates outside the sorts
        for t in m.tuples:
            if fv <= m.tuple_arity[t]:
                val = m.tuple_valuation[t]
                assert holds(m, val, e) == naive_holds(m, dict(val), e)


def half_incidence(rng, m):
    """A copy of m keeping about half of each incidence; callers evaluate m
    first, so an index left over from m would show."""
    return replace(m, entity_incidence=frozenset(p for p in m.entity_incidence
                                                 if rng.random() < 0.5),
                   relation_incidence=frozenset(p for p in m.relation_incidence
                                                if rng.random() < 0.5))


def test_evaluation_on_sums_quotients_and_free_logics_randomized():
    rng = random.Random(83)
    quotients = 0
    for _ in range(60):
        a, b, copied = rand_summand_pair(rng)
        s, _, _ = model_sum(a, b)
        assert_evaluates_like_naive(rng, s)
        assert_evaluates_like_naive(rng, half_incidence(rng, s))
        entities, tuples, rel = rand_sum_invariant(rng, s, a, b, copied)
        if naive_dual_quotient(s, entities, tuples, rel)[0] == "ok":
            q, _ = model_dual_quotient(s, ModelDualInvariant.make(entities, tuples, rel))
            assert_evaluates_like_naive(rng, q)
            quotients += 1
    assert quotients >= 30
    for _ in range(40):
        lang = rand_language(rng, max_ents=2, max_rels=2)
        if not lang.relation_types:
            continue
        axioms = [rand_expression(rng, lang, 2) for _ in range(rng.randint(0, 2))]
        m = free_logic(Theory.make(lang, axioms)).model
        assert_evaluates_like_naive(rng, m)
        assert_evaluates_like_naive(rng, half_incidence(rng, m))


# --- constructions over checked models ----------------------------------------

def test_constructions_over_checked_models_build_checked_models_randomized():
    """A model is checked where it enters, and the constructions over checked
    models do not check what they build, so each result must pass the check."""
    rng = random.Random(97)
    built = Counter()

    def checked(kind, m):
        m.check(well_sorted=False)
        built[kind] += 1

    for _ in range(80):
        a, b, copied = rand_summand_pair(rng)
        s, _, _ = model_sum(a, b)
        checked("sum", s)
        hypergraph_product(a.instance_hypergraph(), b.instance_hypergraph()).check()
        entities, tuples, rel = rand_sum_invariant(rng, s, a, b, copied)
        checked("restrict", s.restrict(entities, tuples))
        for kept in ((s.entities, s.tuples), (entities, tuples)):
            try:
                q, _ = model_dual_quotient(s, ModelDualInvariant.make(*kept, rel))
            except (RespectViolation, IncompatibleQuotient):
                continue
            checked("quotient, every instance" if kept == (s.entities, s.tuples)
                    else "quotient, some dropped", q)
    for _ in range(40):
        k, f0, f1 = rand_span(rng)
        keys = ((f0.entity_map.__getitem__, f1.entity_map.__getitem__),
                (f0.tuple_map.__getitem__, f1.tuple_map.__getitem__))
        m0, m1 = f0.target.model, f1.target.model
        checked("span-keyed sum", model_sum(m0, m1, *keys)[0])
        hypergraph_product(m0.instance_hypergraph(), m1.instance_hypergraph(), *keys).check()
        checked("fusion", fusion(f0, f1)[0].model)
        checked("fiber", fiber(f0.theory_aspect(), f0.target)[0].model)
        lang = k.language
        axioms = [rand_expression(rng, lang, 2) for _ in range(rng.randint(0, 2))] \
            if lang.relation_types else []
        free = free_logic(Theory.make(lang, axioms))
        checked("free logic", free.model)
        checked("fiber of a free logic", fiber(identity_theory_morphism(free.theory), free)[0].model)
    for l1, l2, c, t, g1, g2 in practical_scenarios() + permuted_practical_scenarios(103, 40):
        try:
            result, _ = practical_integrate(l1, l2, c, t, g1, g2, 1)
        except (AgreementFailure, DomainMismatch, IncompatibleQuotient):
            continue
        checked("practical", result.fused.model)
        assert result.fused.model.entities == frozenset(c)
    assert len(built) == 10 and min(built.values()) >= 20, built


def quantified_nodes(e, under=False):
    """Each node of e, with whether a quantifier lies above it."""
    yield e, under
    if isinstance(e, (Exists, Forall)):
        yield from quantified_nodes(e.body, True)
    elif isinstance(e, (Not, Subst)):
        yield from quantified_nodes(e.body, under)
    elif isinstance(e, (And, Or, Implies)):
        yield from quantified_nodes(e.left, under)
        yield from quantified_nodes(e.right, under)


def test_compiled_evaluation_matches_naive_on_deep_expressions_randomized():
    """Expressions of depth 4-6 on from_extents models and on free-logic
    models, whose tuples are valued outside their sorts.  One compiled
    expression runs on m and then on a copy with less incidence, so a
    quantifier memo kept from one model to the next would show."""
    rng = random.Random(101)
    seen = Counter()
    for i in range(300):
        lang = rand_language(rng, max_ents=2, max_rels=2)
        if not lang.relation_types:
            continue
        if i % 2:
            m = rand_model(rng, lang, max_entities=3)
        else:
            axioms = [rand_expression(rng, lang, 2) for _ in range(rng.randint(0, 2))]
            m = free_logic(Theory.make(lang, axioms)).model
        for _ in range(2):
            e = rand_expression(rng, lang, rng.randint(4, 6))
            fv = free_vars(lang, e)
            nodes = list(quantified_nodes(e))
            seen["nested quantifier"] += any(isinstance(n, (Exists, Forall)) and under
                                             for n, under in nodes)
            seen["subst under a quantifier"] += any(isinstance(n, Subst) and under
                                                    for n, under in nodes)
            f = _compile(lang, e)
            for model in (m, half_incidence(rng, m)):
                seen["empty sort pool"] += any(not entity_extent(model, a)
                                               for a in lang.entity_types)
                assert satisfies(model, e) == naive_satisfies(model, e)
                lax = [model.tuple_valuation[t] for t in sorted_tokens(model.tuples)
                       if fv <= model.tuple_arity[t]]
                for env in model.well_sorted_assignments(fv) + lax:
                    assert f(model, env) == holds(model, env, e) == \
                        naive_holds(model, dict(env), e)
                test = token_satisfies(model, e)  # an atomic image reads incidence
                for t, val in model.tuple_valuation.items():
                    assert test(t) == ((t, e.relation) in model.relation_incidence
                                       if isinstance(e, Atomic) else
                                       fv <= val.keys() and naive_holds(model, dict(val), e))
    assert min(seen[k] for k in ("nested quantifier", "subst under a quantifier",
                                 "empty sort pool")) >= 40, seen


def abstract_tuple_model():
    """Tuples t1, t2 share the valuation {x: a, y: b} but only t1 lies in S;
    t2 lies in R, whose arity is smaller than the tuples'."""
    lang = TypeLanguage.make(VARS, ["T"], {"x": "T", "y": "T"},
                             {"R": ("x",), "S": ("x", "y")})
    val = fdict({"x": "a", "y": "b"})
    m = Model(lang, frozenset({"a", "b"}), frozenset({("a", "T"), ("b", "T")}),
              fdict({"t1": val, "t2": val, "t3": fdict({"y": "a"})}),
              frozenset({("t1", "S"), ("t2", "R")}))
    m.check()
    return m


def test_evaluation_with_shared_valuations_and_larger_arity():
    m = abstract_tuple_model()
    assert m.relation_extent("R") == {fdict({"x": "a"})}
    assert m.relation_extent("S") == {fdict({"x": "a", "y": "b"})}
    assert holds(m, {"x": "a", "y": "a"}, Atomic("R"))
    assert not holds(m, {"x": "b", "y": "b"}, And(Atomic("R"), Atomic("S")))
    assert satisfies(m, Exists("x", Forall("y", Or(Atomic("S"), Not(Atomic("S"))))))
    assert_evaluates_like_naive(random.Random(89), m, expressions=60)


def test_replaced_model_answers_from_its_own_incidence():
    m = abstract_tuple_model()
    assert satisfies(m, Exists("x", Atomic("R")))
    assert entity_extent(m, "T") == {"a", "b"}
    moved = replace(m, relation_incidence=frozenset({("t1", "R")}),
                    entity_incidence=frozenset({("b", "T")}))
    assert moved.relation_extent("R") == {fdict({"x": "a"})}
    assert moved.relation_extent("S") == set()
    assert not satisfies(moved, Exists("x", Atomic("R")))
    assert entity_extent(moved, "T") == {"b"}
    assert not holds(moved, {"x": "a", "y": "b"}, Atomic("S"))
    assert holds(m, {"x": "a", "y": "b"}, Atomic("S"))
    assert_evaluates_like_naive(random.Random(97), moved, expressions=30)

