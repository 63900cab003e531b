"""Logics: soundness, free logics and the adjunction, sums, quotients,
fusion, restriction, and fibers."""
import pathlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from ontofuse.document import parse_document
from ontofuse.errors import (BudgetExceeded, DomainMismatch, IncompatibleQuotient,
                             OntofuseError, RespectViolation, SoundnessViolation)
from ontofuse.language import Atomic, LanguageEndorelation, LanguageMorphism, TypeLanguage
from ontofuse.logic import (Logic, LogicDualInvariant, LogicMorphism,
                            compose_logic_morphisms, counit, fiber,
                            free_logic, free_signature,
                            free_tuple_tokens, fusion,
                            identity_logic_morphism, is_sound,
                            logic_dual_quotient, logic_morphism_valid,
                            logic_sum, restrict_logic, sound_part, transpose)
from ontofuse.model import Model, model_dual_quotient
from ontofuse.theory import Theory, TheoryMorphism, identity_theory_morphism
from ontofuse.tokens import fdict, ltag, rtag, sorted_tokens

from fixtures import (VARS, alignment_links, rand_language, rand_logic,
                      rand_span, relabeled_target, w_language, w_logic, wp_logic)
from oracles import (all_language_morphisms, brute_free_signature,
                     brute_free_tokens, compose_theory_morphisms, entity_extent,
                     fusion_invariant, logics_isomorphic, naive_dual_quotient,
                     names_a_witness, sum_quotient_fusion)

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"


# --- soundness ---------------------------------------------------------------

def test_all_normal_logic_is_sound():
    assert is_sound(w_logic())


def test_sound_part_idempotent():
    l = w_logic()
    partial = Logic.make(l.theory, l.model, normal_entities=["bob", "acme"],
                         normal_tuples=l.model.tuples)
    sp = sound_part(partial)
    assert is_sound(sp)
    assert sound_part(sp) == sp


def test_sound_part_drops_abnormal_entity_and_touching_tuples():
    l = w_logic()
    # bypass make(): sound_part must itself enforce the closure
    partial = Logic(l.theory, l.model, l.model.entities - {"acme"},
                    l.model.tuples)
    sp = sound_part(partial)
    assert "acme" not in sp.model.entities
    assert not sp.model.tuples  # the single tuple valued acme


def test_normal_tuple_requires_normal_components():
    l = w_logic()
    with pytest.raises(DomainMismatch):
        Logic.make(l.theory, l.model, normal_entities=["bob"],
                   normal_tuples=l.model.tuples)


# --- morphisms -----------------------------------------------------------------

def test_identity_logic_morphism_valid():
    assert logic_morphism_valid(identity_logic_morphism(w_logic()), 1).ok


def test_aspects_share_one_language_morphism():
    f = identity_logic_morphism(w_logic())
    assert f.theory_aspect().language_morphism is f.language_morphism
    assert f.model_aspect().language_morphism is f.language_morphism


# --- free logic ------------------------------------------------------------------

def test_free_logic_over_relation_free_language():
    lang = TypeLanguage.make(["x"], ["A"], {"x": "A"}, {})
    l = free_logic(Theory.make(lang, []))
    assert l.model.entities == {frozenset(), frozenset({"A"})}
    assert l.model.tuples == {(frozenset(), frozenset()),
                              (frozenset({"x"}), frozenset())}


def test_free_tuple_signature_coordinate():
    # a one-member relation set contributes its reference sort at each
    # covered coordinate
    lang = TypeLanguage.make(["x"], ["A"], {"x": "A"}, {"r": ("x",)})
    l = free_logic(Theory.make(lang, []))
    tok = (frozenset({"x"}), frozenset({"r"}))
    assert l.model.tuple_valuation[tok]["x"] == frozenset({"A"})
    assert free_signature(lang, *tok) == {"x": frozenset({"A"})}


def test_free_tuple_tokens_match_brute_force():
    lang = TypeLanguage.make(VARS, ["A"], {"x": "A", "y": "A"},
                             {"r1": ("x",), "r2": ("x", "y")})
    assert set(free_tuple_tokens(lang)) == brute_free_tokens(lang)


def test_free_logic_matches_brute_force_on_fixture():
    lang = w_language()
    l = free_logic(Theory.make(lang, []))
    expected = brute_free_tokens(lang)
    assert set(l.model.tuples) == expected
    for (x_set, rels) in expected:
        assert dict(l.model.tuple_valuation[(x_set, rels)]) == \
            brute_free_signature(lang, x_set, rels)
        for r in sorted_tokens(lang.relation_types):
            assert l.model.tuple_classifies((x_set, rels), r) == (r in rels)


def test_free_logic_classification_is_membership():
    l = free_logic(Theory.make(w_language(), []))
    for e in l.model.entities:
        for a in sorted_tokens(l.language.entity_types):
            assert l.model.entity_classifies(e, a) == (a in e)


def test_free_logic_budget_guard():
    lang = TypeLanguage.make(VARS, [f"A{i}" for i in range(8)],
                             {"x": "A0", "y": "A0"}, {})
    with pytest.raises(BudgetExceeded):
        free_logic(Theory.make(lang, []), budget=100)


def test_free_logic_budget_guard_stops_before_listing_the_tuples():
    # 2^40 variable subsets: the guard must fire after budget + 1 tuples
    variables = [f"x{i}" for i in range(40)]
    lang = TypeLanguage.make(variables, ["T"], {x: "T" for x in variables},
                             {"R": ("x0",)})
    with pytest.raises(BudgetExceeded):
        free_logic(Theory.make(lang, []))


def test_free_logic_is_sound():
    assert is_sound(free_logic(Theory.make(w_language(), [])))


# --- counit and transpose ---------------------------------------------------------

def test_counit_valid_on_fixture():
    l = w_logic()
    eps = counit(l)
    assert logic_morphism_valid(eps, 1).ok


def test_counit_type_component_is_identity():
    l = w_logic()
    eps = counit(l)
    lm = eps.language_morphism
    assert all(lm.entity_map[a] == a for a in l.language.entity_types)
    assert all(lm.relation_map[r] == r for r in l.language.relation_types)


def test_counit_entity_goes_to_intent():
    l = w_logic()
    eps = counit(l)
    assert eps.entity_map["bob"] == frozenset({"Person"})
    empty_lang = l.language
    m = Model.from_extents(empty_lang, ["ghost", "bob", "acme"],
                           [("bob", "Person"), ("acme", "Company")],
                           {"WorksFor": [{"x": "bob", "y": "acme"}]})
    eps2 = counit(Logic.make(l.theory, m))
    assert eps2.entity_map["ghost"] == frozenset()


def test_counit_requires_soundness():
    l = w_logic()
    partial = Logic.make(l.theory, l.model, normal_entities=["bob", "acme"],
                         normal_tuples=l.model.tuples)
    with pytest.raises(SoundnessViolation):
        counit(partial)


def test_transpose_of_identity_is_counit():
    l = w_logic()
    hat = transpose(identity_theory_morphism(l.theory), l)
    eps = counit(l)
    assert dict(hat.entity_map) == dict(eps.entity_map)
    assert dict(hat.tuple_map) == dict(eps.tuple_map)
    assert hat.language_morphism == eps.language_morphism


def test_transpose_valid_on_fixture():
    l1, l2, t, g1, g2 = alignment_links()
    for g, l in ((g1, l1), (g2, l2)):
        hat = transpose(g, l)
        assert logic_morphism_valid(hat, 1).ok


def test_transpose_recovers_type_maps():
    l1, _, _, g1, _ = alignment_links()
    hat = transpose(g1, l1)
    assert hat.language_morphism == g1.language_morphism


def refined_fine_logic():
    """corpus/refinement.iff's refine (Good -> Cheap and Sturdy) and a Fine
    logic with Cheap = {a, b} and Sturdy = {b}."""
    doc = parse_document((CORPUS / "refinement.iff").read_text())
    lang = doc.get("Fine", "language")
    m = Model.from_extents(lang, ["a", "b"], [("a", "Thing"), ("b", "Thing")],
                           {"Cheap": [{"x": "a"}, {"x": "b"}],
                            "Sturdy": [{"x": "b"}]})
    return doc.get("refine", "theory-morphism"), Logic.make(doc.get("TF", "theory"), m)


def test_fiber_and_transpose_read_an_expression_image():
    g, l = refined_fine_logic()
    assert fiber(g, l)[0].model.relation_extent("Good") == {fdict({"x": "b"})}
    hat = transpose(g, l)
    assert hat.tuple_map[fdict({"x": "b"})] == (frozenset({"x"}), frozenset({"Good"}))
    assert hat.tuple_map[fdict({"x": "a"})] == (frozenset({"x"}), frozenset())
    assert logic_morphism_valid(hat, 1).ok


def test_fiber_intents_are_the_transpose_maps_randomized():
    rng = random.Random(151)
    checked = 0
    for _ in range(30):
        l = rand_logic(rng)
        links = [identity_theory_morphism(l.theory)]
        source = rand_language(rng, tag="S")
        candidates = all_language_morphisms(source, l.language)
        if candidates:
            links.append(TheoryMorphism.make(rng.choice(candidates),
                                             Theory.make(source, []), l.theory))
        for g in links:
            fib, hat = fiber(g, l)[0].model, transpose(g, l)
            ents = fib.entity_classification()
            rels = fib.relation_classification()
            assert dict(hat.entity_map) == {e: ents.intent(e) for e in fib.entities}
            assert dict(hat.tuple_map) == {t: (fib.tuple_arity[t], rels.intent(t))
                                           for t in fib.tuples}
            checked += 1
    assert checked > 40


# --- sums --------------------------------------------------------------------------

def empty_logic():
    lang = TypeLanguage.make(VARS, ["Z"], {"x": "Z", "y": "Z"}, {})
    return Logic.make(Theory.make(lang, []), Model.from_extents(lang, [], [], {}))


def test_sum_with_empty_logic_has_no_instances():
    s, n1, n2 = logic_sum(w_logic(), empty_logic())
    assert not s.model.entities and not s.model.tuples
    assert ltag("Person") in s.language.entity_types
    assert logic_morphism_valid(n1, 1).ok
    assert logic_morphism_valid(n2, 1).ok


def test_sum_of_sound_logics_is_sound():
    s, _, _ = logic_sum(w_logic(), wp_logic())
    assert is_sound(s)


def test_sum_injections_valid_randomized():
    rng = random.Random(73)
    for _ in range(10):
        l1 = rand_logic(rng, "a", max_entities=2)
        l2 = rand_logic(rng, "b", max_entities=2)
        s, n1, n2 = logic_sum(l1, l2)
        assert logic_morphism_valid(n1, 1).ok
        assert logic_morphism_valid(n2, 1).ok


# --- dual quotients ------------------------------------------------------------------

def test_identity_invariant_quotient_isomorphic():
    l = w_logic()
    q, canon = logic_dual_quotient(l, LogicDualInvariant.identity(l.model))
    assert logics_isomorphic(l, q)
    assert logic_morphism_valid(canon, 1).ok


def test_quotient_of_fixture_sum_by_alignment_invariant():
    l1, l2 = w_logic(extra_people=()), wp_logic(extra_people=())
    s, _, _ = logic_sum(l1, l2)
    j = LogicDualInvariant.make(
        {(e, e) for e in l1.model.entities},
        {p for p in s.model.tuples if p[0] == p[1]},
        LanguageEndorelation.make(
            entity_pairs=[(ltag("Person"), rtag("Human")),
                          (ltag("Company"), rtag("Firm"))],
            relation_pairs=[(ltag("WorksFor"), rtag("EmployedBy"))],
            variable_pairs=[(ltag(x), rtag(x)) for x in VARS]))
    q, canon = logic_dual_quotient(s, j)
    assert len(q.language.entity_types) == 2
    assert len(q.language.relation_types) == 1
    assert logic_morphism_valid(canon, 1).ok


# --- fusion --------------------------------------------------------------------------

def test_identity_span_fusion_isomorphic_to_source():
    l = w_logic()
    f = identity_logic_morphism(l)
    fused, v0, v1 = fusion(f, f)
    assert logics_isomorphic(fused, l)
    assert logic_morphism_valid(v0, 1).ok
    assert logic_morphism_valid(v1, 1).ok


def test_fixture_fusion_gives_three_type_classes():
    l1, l2, t, g1, g2 = alignment_links()
    k1, k2 = transpose(g1, l1), transpose(g2, l2)
    fused, _, _ = fusion(k1, k2)
    assert len(fused.language.entity_types) == 2
    assert len(fused.language.relation_types) == 1
    merged = {frozenset(c) if isinstance(c, tuple) else frozenset({c})
              for c in fused.language.entity_types}
    assert {frozenset({ltag("Person"), rtag("Human")}),
            frozenset({ltag("Company"), rtag("Firm")})} == merged


def test_fusion_requires_common_source():
    f0 = identity_logic_morphism(w_logic())
    f1 = identity_logic_morphism(wp_logic())
    with pytest.raises(DomainMismatch):
        fusion_invariant(f0, f1, logic_sum(w_logic(), wp_logic())[0])


def test_fusion_requires_sound_logics():
    l = w_logic()
    partial = Logic.make(l.theory, l.model, normal_entities=["bob", "acme"],
                         normal_tuples=l.model.tuples)
    f = identity_logic_morphism(partial)
    with pytest.raises(SoundnessViolation):
        fusion(f, f)


def test_fusion_invariant_respects_and_stays_sound_randomized():
    rng = random.Random(79)
    for _ in range(20):
        k, f0, f1 = rand_span(rng)
        fused, v0, v1 = fusion(f0, f1)
        assert is_sound(fused)
        # respect held: the quotient construction raises otherwise, and
        # the sum quotients independently without error
        s, _, _ = logic_sum(f0.target, f1.target)
        j = fusion_invariant(f0, f1, s)
        model_dual_quotient(s.model, j)


def test_each_construction_gives_its_theory_and_model_one_language():
    """A sum, a fusion or a quotient builds its language once: the theory,
    the model and every returned morphism's target share it."""
    rng = random.Random(139)
    results = []
    for _ in range(30):
        _, f0, f1 = rand_span(rng)
        results += [logic_sum(f0.target, f1.target), fusion(f0, f1)]
    s = logic_sum(w_logic(), wp_logic())[0]
    results.append(logic_dual_quotient(s, LogicDualInvariant.make(
        {p for p in s.model.entities if p[0] == p[1]},
        {p for p in s.model.tuples if p[0] == p[1]},
        LanguageEndorelation.make(
            entity_pairs=[(ltag("Person"), rtag("Human")), (ltag("Company"), rtag("Firm"))],
            relation_pairs=[(ltag("WorksFor"), rtag("EmployedBy"))],
            variable_pairs=[(ltag(x), rtag(x)) for x in VARS]))))
    for logic, *morphisms in results:
        assert logic.theory.language is logic.model.language
        for f in morphisms:
            assert f.target is logic
            assert f.language_morphism.target is logic.model.language


# --- the join against sum then quotient -----------------------------------------------

def retargeted(f, model, lm=None, normal_entities=None):
    """f into a logic over the given model, with an axiom-free theory; the
    target's normal entities, and f's language morphism, as given."""
    normal_tuples = None if normal_entities is None else [
        t for t in model.tuples if set(model.tuple_valuation[t].values()) <= normal_entities]
    target = Logic.make(Theory.make(model.language, []), model, normal_entities, normal_tuples)
    return LogicMorphism.make(f.source, target, lm or f.language_morphism,
                              f.entity_map, f.tuple_map)


def span_breaking_respect(rng):
    """The right target loses the extent of one of its types: each instance
    that type classified, paired with its counterpart, tells the type
    apart from the one it is linked to."""
    _, f0, f1 = rand_span(rng)
    while not (f1.target.model.entity_incidence and f1.target.model.relation_incidence):
        _, f0, f1 = rand_span(rng)
    m = f1.target.model
    incidence = rng.choice((m.entity_incidence, m.relation_incidence))
    gone = rng.choice(sorted_tokens({t for _, t in incidence}))
    return f0, retargeted(f1, replace(
        m, entity_incidence=frozenset(p for p in m.entity_incidence if p[1] != gone),
        relation_incidence=frozenset(p for p in m.relation_incidence if p[1] != gone)))


def span_swapping_variables(rng):
    """Over one sort and a binary relation, the right leg sends x to y and
    y to x: a joined tuple values the merged variables differently unless
    its x and y agree."""
    lang = TypeLanguage.make(VARS, ["S"], {"x": "S", "y": "S"}, {"R": VARS})
    entities = ["e0", "e1", "e2"][:rng.randint(1, 3)]
    rows = [{"x": a, "y": b} for a in entities for b in entities if rng.random() < 0.5]
    k = Logic.make(Theory.make(lang, []), Model.from_extents(
        lang, entities, [(e, "S") for e in entities], {"R": rows}))
    _, f0 = relabeled_target(rng, k, "A")
    _, f1 = relabeled_target(rng, k, "B")
    lm = f1.language_morphism
    swap = LanguageMorphism.make(lm.source, lm.target, {"x": "y", "y": "x"},
                                 lm.entity_map, lm.relation_map)
    return f0, LogicMorphism.make(k, f1.target, swap, f1.entity_map, f1.tuple_map)


def span_with_another_variable_pool(rng):
    """The right target has a variable z besides x and y."""
    _, f0, f1 = rand_span(rng)
    lang, lm = f1.target.language, f1.language_morphism
    wide = TypeLanguage.make([*lang.variables, "z"], lang.entity_types,
                             {**lang.reference, "z": lang.reference["x"]}, lang.arity)
    return f0, retargeted(f1, replace(f1.target.model, language=wide), LanguageMorphism.make(
        lm.source, wide, lm.var_map, lm.entity_map, lm.relation_map))


def span_with_a_refinement_link(rng):
    """The right leg sends each relation type to an atomic expression."""
    _, f0, f1 = rand_span(rng)
    while not f1.source.language.relation_types:
        _, f0, f1 = rand_span(rng)
    lm = f1.language_morphism
    refine = LanguageMorphism.make(lm.source, lm.target, lm.var_map, lm.entity_map,
                                   {r: Atomic(v) for r, v in lm.relation_map.items()},
                                   refinement=True)
    return f0, LogicMorphism.make(f1.source, f1.target, refine, f1.entity_map, f1.tuple_map)


def span_with_an_unsound_leg(rng):
    """The left target's token-order-first entity is abnormal."""
    _, f0, f1 = rand_span(rng)
    while not f0.target.model.entities:
        _, f0, f1 = rand_span(rng)
    m = f0.target.model
    return retargeted(f0, m, normal_entities=m.entities - {sorted_tokens(m.entities)[0]}), f1


def span_without_a_common_source(rng):
    return rand_span(rng)[1], rand_span(rng)[2]


def test_join_fusion_equals_sum_then_quotient_randomized():
    rng = random.Random(137)
    spans = [rand_span(rng, duplicates=bool(i % 2))[1:] for i in range(120)]
    spans += [broken(rng) for broken in (
        span_breaking_respect, span_swapping_variables, span_with_another_variable_pool,
        span_with_a_refinement_link, span_with_an_unsound_leg,
        span_without_a_common_source) for _ in range(10)]
    outcomes = Counter()
    for f0, f1 in spans:
        try:
            fused, q, v0, v1 = sum_quotient_fusion(f0, f1)
        except OntofuseError as e:
            with pytest.raises(OntofuseError) as raised:
                fusion(f0, f1)
            assert type(raised.value) is type(e)
            assert str(raised.value) == str(e)
            assert getattr(raised.value, "witness", None) == getattr(e, "witness", None)
            if isinstance(e, (RespectViolation, IncompatibleQuotient)):
                s = logic_sum(f0.target, f1.target)[0]
                j = fusion_invariant(f0, f1, s)
                _, witnesses = naive_dual_quotient(s.model, j.entity_subset,
                                                   j.tuple_subset, j.type_relation)
                assert names_a_witness(e, witnesses)
            outcomes[type(e).__name__] += 1
            continue
        assert fusion(f0, f1) == (fused, v0, v1)
        if outcomes["ok"] < 30:
            assert logic_morphism_valid(q, 1).ok
        outcomes["ok"] += 1
    assert outcomes["ok"] >= 120
    assert {"RespectViolation", "IncompatibleQuotient", "NameSetMismatch",
            "DomainMismatch", "SoundnessViolation"} <= set(outcomes)


# --- restriction and fibers --------------------------------------------------------

def test_restrict_to_full_universe_isomorphic():
    l = w_logic()
    out, portal = restrict_logic(l, l.model.entities)
    assert logics_isomorphic(l, out)
    assert logic_morphism_valid(portal, 1).ok


def test_restrict_to_empty_keeps_theory():
    l = w_logic()
    out, _ = restrict_logic(l, ())
    assert not out.model.entities and not out.model.tuples
    assert out.theory == l.theory


def test_restrict_drops_tuples_leaving_the_subset():
    l = w_logic()
    out, _ = restrict_logic(l, {"bob", "zoe"})
    assert out.model.entities == {"bob", "zoe"}
    assert not out.model.tuples


def test_restriction_morphism_valid_randomized():
    rng = random.Random(83)
    for _ in range(15):
        l = rand_logic(rng, max_entities=3)
        c = {e for e in l.model.entities if rng.random() < 0.6}
        out, portal = restrict_logic(l, c)
        assert is_sound(out)
        assert logic_morphism_valid(portal, 1).ok


def test_fiber_along_identity_is_the_logic():
    l = w_logic()
    f, inclusion = fiber(identity_theory_morphism(l.theory), l)
    assert inclusion == identity_logic_morphism(l)
    assert f.model == l.model
    assert f.theory == l.theory
    assert is_sound(f)


def test_fiber_pulls_extents_back_on_fixture():
    l1, _, t, g1, _ = alignment_links()
    f, _ = fiber(g1, l1)
    assert set(f.language.entity_types) == {"Agent", "Org"}
    assert f.model.relation_extent("Emp") == l1.model.relation_extent("WorksFor")
    assert entity_extent(f.model, "Agent") == entity_extent(l1.model, "Person")
    assert entity_extent(f.model, "Org") == entity_extent(l1.model, "Company")


def test_fiber_of_sound_logic_sound_randomized():
    rng = random.Random(89)
    from fixtures import relabeled_target
    for _ in range(15):
        k = rand_logic(rng, tag="K", max_entities=2)
        target, f = relabeled_target(rng, k, "T")
        g = TheoryMorphism.make(f.language_morphism, k.theory, target.theory)
        fib, inclusion = fiber(g, target)
        assert is_sound(fib)
        fib.model.check(well_sorted=False)
        assert logic_morphism_valid(inclusion, 1).ok


def test_fiber_of_free_logic_along_identity_is_the_free_logic():
    # a free logic values uncovered coordinates outside their sort
    t = Theory.make(w_language(), [])
    fl = free_logic(t)
    f, _ = fiber(identity_theory_morphism(t), fl)
    assert f.model == fl.model
    assert transpose(identity_theory_morphism(t), fl) == counit(fl)


def rand_chain(rng: random.Random):
    """Theory morphisms g: T1 => T2 and h: T2 => th(l) into a random sound
    logic l, each drawn from every valid morphism; None when there is none."""
    l = rand_logic(rng)
    middle = Theory.make(rand_language(rng, tag="M"), [])
    first = Theory.make(rand_language(rng, tag="F"), [])
    hs = all_language_morphisms(middle.language, l.language)
    gs = all_language_morphisms(first.language, middle.language)
    if not (hs and gs):
        return None
    return (TheoryMorphism.make(rng.choice(gs), first, middle),
            TheoryMorphism.make(rng.choice(hs), middle, l.theory), l)


def test_fiber_along_a_composite_is_the_fiber_of_the_fiber_randomized():
    rng = random.Random(163)
    checked = classified = 0
    while checked < 150:
        chain = rand_chain(rng)
        if chain is None:
            continue
        g, h, l = chain
        mid, inc_h = fiber(h, l)
        first, inc_g = fiber(g, mid)
        gh = compose_theory_morphisms(g, h)
        assert fiber(gh, l) == (first, compose_logic_morphisms(inc_g, inc_h))
        assert transpose(gh, l) == compose_logic_morphisms(transpose(g, mid), inc_h)
        checked += 1
        classified += bool(first.model.relation_incidence)
    assert classified > 5


def test_composition_is_associative_with_identities_randomized():
    rng = random.Random(173)
    checked = 0
    while checked < 150:
        chain = rand_chain(rng)
        if chain is None:
            continue
        g, h, l = chain
        mid, inc_h = fiber(h, l)
        first, inc_g = fiber(g, mid)
        eps = counit(first)
        assert compose_logic_morphisms(compose_logic_morphisms(eps, inc_g), inc_h) == \
            compose_logic_morphisms(eps, compose_logic_morphisms(inc_g, inc_h))
        for f in (eps, inc_g, inc_h):
            assert compose_logic_morphisms(identity_logic_morphism(f.source), f) == f
            assert compose_logic_morphisms(f, identity_logic_morphism(f.target)) == f
        checked += 1


def test_fiber_along_an_identity_is_the_logic_randomized():
    rng = random.Random(167)
    for _ in range(20):
        l = rand_logic(rng)
        assert fiber(identity_theory_morphism(l.theory), l) == \
            (l, identity_logic_morphism(l))


def test_fiber_rejects_a_link_that_breaks_reference():
    l = w_logic()
    lang = l.language
    swap = LanguageMorphism.make(lang, lang, {"x": "y", "y": "x"},
                                 {a: a for a in lang.entity_types},
                                 {r: r for r in lang.relation_types})
    g = TheoryMorphism(swap, l.theory, l.theory)
    with pytest.raises(DomainMismatch):
        fiber(g, l)
    with pytest.raises(DomainMismatch):
        transpose(g, l)
