"""End-to-end integration: alignment diagrams, unification, practical path."""
import random
from collections import Counter

import pytest

from ontofuse.document import parse_document
from ontofuse.errors import (AgreementFailure, DomainMismatch, EdgeInvalid,
                             IncompatibleQuotient, OntofuseError)
from ontofuse.language import (Atomic, Exists, LanguageEndorelation, LanguageMorphism,
                               TypeLanguage)
from ontofuse import integration, logic
from ontofuse.integration import build_alignment, practical_integrate, unify
from ontofuse.logic import (Logic, LogicMorphism, compose_logic_morphisms,
                            counit, fiber, fusion,
                            identity_logic_morphism, is_sound, logic_sum,
                            logic_morphism_valid, restrict_logic, transpose)
from ontofuse.model import Model
from ontofuse.theory import (DEFAULT_BUDGET, Theory, TheoryMorphism,
                             identity_theory_morphism, theory_quotient, theory_sum)
from ontofuse.tokens import fdict, ltag, rtag, sorted_tokens

from fixtures import (CORPUS, VARS, alignment_links, permuted_practical_scenarios,
                      practical_scenarios, rand_span, separated_logic, w_logic, wp_logic,
                      wp_language)
from oracles import (logics_isomorphic, morphisms_equal,
                     one_fusion_practical_integrate, self_integration,
                     trivial_integration, two_fusion_practical_integrate)


def fixture_diagram(bound=1):
    l1, l2, t, g1, g2 = alignment_links()
    return build_alignment(l1, l2, l1, l2, identity_logic_morphism(l1),
                           identity_logic_morphism(l2), t, g1, g2, bound)


# --- alignment -----------------------------------------------------------------

def test_degenerate_alignment_with_empty_mediator():
    l = w_logic()
    t = Theory.make(TypeLanguage.make((), (), {}, {}), [])
    g = TheoryMorphism.make(
        LanguageMorphism.make(t.language, l.language, {}, {}, {}), t, l.theory)
    d = build_alignment(l, l, l, l, identity_logic_morphism(l),
                        identity_logic_morphism(l), t, g, g, 1)
    assert d.mediating_theory == t


def test_fixture_alignment_valid():
    d = fixture_diagram()
    assert d.theoretical_link_left.language_morphism.entity_map["Agent"] == "Person"
    assert logic_morphism_valid(d.logical_link_left, 1).ok
    assert logic_morphism_valid(d.logical_link_right, 1).ok


def test_logical_links_are_transposes():
    d = fixture_diagram()
    k1 = transpose(d.theoretical_link_left, d.portal_left)
    k2 = transpose(d.theoretical_link_right, d.portal_right)
    assert morphisms_equal(d.logical_link_left, k1)
    assert morphisms_equal(d.logical_link_right, k2)


def test_alignment_searches_each_alignment_link_once(monkeypatch):
    # the logical links' theory aspects are the alignment links, so each
    # alignment link goes through the bounded check once, as does each
    # portal link's theory aspect
    checked = []
    for module in (integration, logic):
        def counted(g, *args, valid=module.theory_morphism_valid, **kwargs):
            checked.append(g)
            return valid(g, *args, **kwargs)
        monkeypatch.setattr(module, "theory_morphism_valid", counted)
    doc = parse_document((CORPUS / "fixture.iff").read_text())
    l1, l2, a = doc.get("L1", "logic"), doc.get("L2", "logic"), doc.get("A", "alignment")
    p1, link1 = restrict_logic(l1, a.universe)
    p2, link2 = restrict_logic(l2, a.universe)
    d = build_alignment(l1, l2, p1, p2, link1, link2, a.mediating_theory,
                        a.left_link, a.right_link, 2)
    assert checked == [link1.theory_aspect(), link2.theory_aspect(),
                       a.left_link, a.right_link]
    assert d.logical_link_left.theory_aspect() == a.left_link
    assert d.logical_link_right.theory_aspect() == a.right_link


def test_invalid_alignment_link_rejected_by_name():
    l1, l2, t, g1, g2 = alignment_links()
    bad_lm = LanguageMorphism.make(t.language, l1.language,
                                   {"x": "x", "y": "y"},
                                   {"Agent": "Company", "Org": "Company"},
                                   {"Emp": "WorksFor"})
    bad_g1 = TheoryMorphism.make(bad_lm, t, l1.theory)
    with pytest.raises(EdgeInvalid) as err:
        build_alignment(l1, l2, l1, l2, identity_logic_morphism(l1),
                        identity_logic_morphism(l2), t, bad_g1, g2, 1)
    assert "left alignment link" in str(err.value)


def test_a_refuted_alignment_link_names_its_refuted_axiom():
    l1, l2, t, g1, g2 = alignment_links()
    axiom = Exists("x", Exists("y", Atomic("Emp")))  # the communities' axiom-free theories refute it
    t = Theory.make(t.language, [axiom])
    g1, g2 = (TheoryMorphism.make(g.language_morphism, t, g.target) for g in (g1, g2))
    with pytest.raises(EdgeInvalid) as err:
        build_alignment(l1, l2, l1, l2, identity_logic_morphism(l1),
                        identity_logic_morphism(l2), t, g1, g2, 1)
    assert (err.value.edge, err.value.witness) == ("left alignment link", ("axiom", axiom))


def test_unsound_community_rejected():
    l1, l2, t, g1, g2 = alignment_links()
    partial = Logic(l1.theory, l1.model, frozenset({"bob", "acme"}),
                    l1.model.tuples)
    with pytest.raises(EdgeInvalid):
        build_alignment(partial, l2, partial, l2,
                        identity_logic_morphism(partial),
                        identity_logic_morphism(l2), t, g1, g2, 1)


# --- unification -----------------------------------------------------------------

def test_trivial_integration_fused_is_the_sum():
    l1, l2 = w_logic(), wp_logic()
    result = trivial_integration(l1, l2)
    s, _, _ = logic_sum(l1, l2)
    assert result.fused == s
    assert is_sound(result.fused)


def test_self_integration_isomorphic_for_separated_fixture():
    l = w_logic(extra_people=())  # distinct intents, single tuple profile
    result = self_integration(l)
    assert logics_isomorphic(result.fused, l)


def test_self_integration_isomorphic_for_random_separated_logics():
    rng = random.Random(97)
    for _ in range(10):
        l = separated_logic(rng)
        result = self_integration(l)
        assert logics_isomorphic(result.fused, l)


def test_fixture_unify_merges_three_type_classes():
    result = unify(fixture_diagram())
    fused = result.fused
    assert len(fused.language.entity_types) == 2
    assert len(fused.language.relation_types) == 1
    assert next(iter(fused.language.relation_types)) == \
        tuple(sorted_tokens({ltag("WorksFor"), rtag("EmployedBy")}))


def test_fixture_unify_instances_are_agreeing_pairs():
    d = fixture_diagram()
    result = unify(d)
    k1, k2 = d.logical_link_left, d.logical_link_right
    expected = {(a, b) for a in sorted_tokens(d.portal_left.model.entities)
                for b in sorted_tokens(d.portal_right.model.entities)
                if k1.entity_map[a] == k2.entity_map[b]}
    assert set(result.fused.model.entities) == expected


def test_final_opspan_commutes_over_the_mediator():
    d = fixture_diagram()
    result = unify(d)
    left = compose_logic_morphisms(d.logical_link_left, result.injection_left)
    right = compose_logic_morphisms(d.logical_link_right, result.injection_right)
    assert left.language_morphism == right.language_morphism
    assert dict(left.entity_map) == dict(right.entity_map)
    assert dict(left.tuple_map) == dict(right.tuple_map)


def test_unify_symmetric_up_to_isomorphism():
    l1, l2, t, g1, g2 = alignment_links()
    d12 = build_alignment(l1, l2, l1, l2, identity_logic_morphism(l1),
                          identity_logic_morphism(l2), t, g1, g2, 1)
    d21 = build_alignment(l2, l1, l2, l1, identity_logic_morphism(l2),
                          identity_logic_morphism(l1), t, g2, g1, 1)
    assert logics_isomorphic(unify(d12).fused, unify(d21).fused)


def test_unify_outputs_valid_morphisms():
    result = unify(fixture_diagram())
    for f in (result.injection_left, result.injection_right,
              result.final_left, result.final_right):
        assert logic_morphism_valid(f, 1).ok


# --- the practical path -------------------------------------------------------------

def practical_fixture():
    l1, l2, t, g1, g2 = alignment_links()
    c = {"bob", "acme"}
    # links must target the restricted portals' theories, which equal the
    # community theories (restriction keeps the theory)
    return l1, l2, c, t, g1, g2


def test_practical_symmetric_case_keeps_universe():
    l = w_logic()
    g = identity_theory_morphism(l.theory)
    result, report = practical_integrate(l, l, l.model.entities, l.theory,
                                         g, g, 1)
    assert result.fused.model.entities == l.model.entities
    assert is_sound(result.fused)


def test_practical_fixture_universe_and_theory():
    l1, l2, c, t, g1, g2 = practical_fixture()
    result, report = practical_integrate(l1, l2, c, t, g1, g2, 1)
    assert result.fused.model.entities == frozenset(c)
    # oracle: recompute th(L1) +_T th(L2) from scratch
    s, _, _ = theory_sum(l1.theory, l2.theory)
    rel = LanguageEndorelation.make(
        entity_pairs=[(ltag("Person"), rtag("Human")),
                      (ltag("Company"), rtag("Firm"))],
        relation_pairs=[(ltag("WorksFor"), rtag("EmployedBy"))],
        variable_pairs=[(ltag(x), rtag(x)) for x in VARS])
    expected, _ = theory_quotient(s, rel)
    assert result.fused.theory == expected
    assert report.fusion_theory == expected


def test_practical_comparison_morphism_identity_on_types():
    l1, l2, c, t, g1, g2 = practical_fixture()
    _, report = practical_integrate(l1, l2, c, t, g1, g2, 1)
    lm = report.comparison.language_morphism
    assert all(lm.entity_map[a] == a for a in lm.source.entity_types)
    assert logic_morphism_valid(report.comparison, 1).ok
    assert logic_morphism_valid(report.free_to_mediating, 1).ok


def test_practical_agreement_failure_names_difference():
    l1, _, c, t, g1, g2 = practical_fixture()
    # a right community where bob is not a Human: the fibers then
    # disagree on bob's classification as an Agent
    lang = wp_language()
    m = Model.from_extents(lang, ["bob", "acme", "carol"],
                           [("acme", "Firm"), ("carol", "Human")], {})
    l2 = Logic.make(Theory.make(lang, []), m)
    with pytest.raises(AgreementFailure) as err:
        practical_integrate(l1, l2, c, t, g1, g2, 1)
    assert "bob" in str(err.value)


TUPLES_FORM = """
(language W (variables x y) (entity-types Thing) (reference (x Thing) (y Thing))
  (relations (R (x y))))
(language Wp (variables x y) (entity-types Item) (reference (x Item) (y Item))
  (relations (S (x y))))
(language TL (variables x y) (entity-types Any) (reference (x Any) (y Any)) (relations))
(theory TW (language W) (axioms))
(theory TWp (language Wp) (axioms))
(theory T (language TL) (axioms))
(model M1 (language W) (entities a b) (incidence (a Thing) (b Thing)) %s)
(model M2 (language Wp) (entities a b) (incidence (a Item) (b Item)) %s)
(logic L1 (theory TW) (model M1))
(logic L2 (theory TWp) (model M2))
(theory-morphism g1 (source T) (target TW)
  (variables (x x) (y y)) (entity-types (Any Thing)) (relations))
(theory-morphism g2 (source T) (target TWp)
  (variables (x x) (y y)) (entity-types (Any Item)) (relations))
"""


def tuples_form_scenario(left_tuples, right_tuples):
    doc = parse_document(TUPLES_FORM % (left_tuples, right_tuples))
    return (doc.get("L1", "logic"), doc.get("L2", "logic"), {"a", "b"},
            doc.get("T", "theory"), doc.get("g1", "theory-morphism"),
            doc.get("g2", "theory-morphism"))


def test_practical_agreement_failure_names_tuple_arity():
    # the fibers have the same instances and incidences; only t's arity differs
    scenario = tuples_form_scenario(
        "(tuples (t (arity x y) (valuation (x a) (y b)))) (relation-incidence)",
        "(tuples (t (arity x) (valuation (x a)))) (relation-incidence)")
    with pytest.raises(AgreementFailure) as err:
        practical_integrate(*scenario, 1)
    assert "tuple arity" in str(err.value)
    assert "'t'" in str(err.value)


def test_practical_keeps_only_diagonal_tuples():
    # t and u have one valuation and the same (empty) mediating intent, so
    # the free fusion also keeps the pairs (t, u) and (u, t), valued on
    # the diagonal; only t is in the unaligned relations R and S
    tuples = "(tuples (t (arity x y) (valuation (x a) (y b))) " \
             "(u (arity x y) (valuation (x a) (y b))))"
    scenario = tuples_form_scenario(tuples + " (relation-incidence (t R))",
                                    tuples + " (relation-incidence (t S))")
    result, report = practical_integrate(*scenario, 1)
    fused = result.fused.model
    assert fused.tuples == {"t", "u"}
    assert fused.relation_classification().intent("u") == frozenset()
    assert ("t", "u") in report.comparison.source.model.tuples
    assert (result, report) == two_fusion_practical_integrate(*scenario, 1, DEFAULT_BUDGET)


def test_practical_requires_shared_tokens():
    l1, l2, _, t, g1, g2 = practical_fixture()
    with pytest.raises(DomainMismatch):
        practical_integrate(l1, l2, {"zoe"}, t, g1, g2, 1)


def test_practical_fused_instance_content_matches_restriction():
    l1, l2, c, t, g1, g2 = practical_fixture()
    result, _ = practical_integrate(l1, l2, c, t, g1, g2, 1)
    fused = result.fused
    assert len(fused.model.tuples) == 1
    tok = next(iter(fused.model.tuples))
    val = fused.model.tuple_valuation[tok]
    assert set(val.values()) == {"bob", "acme"}


def test_practical_free_fusion_fuses_the_transposes():
    # the fibers agree, so each transpose is the mediating counit followed
    # by the inclusion of the fiber into its portal
    for (l1, l2, c, t, g1, g2) in practical_scenarios():
        result, report = practical_integrate(l1, l2, c, t, g1, g2, 1)
        p1, p2 = restrict_logic(l1, c)[0], restrict_logic(l2, c)[0]
        km = counit(fiber(g1, p1)[0])
        for g, p in ((g1, p1), (g2, p2)):
            m = LogicMorphism.make(km.target, p, g.language_morphism,
                                   {e: e for e in p.model.entities},
                                   {tok: tok for tok in p.model.tuples})
            assert transpose(g, p) == compose_logic_morphisms(km, m)
        assert report.comparison.source == \
            fusion(transpose(g1, p1), transpose(g2, p2))[0]
        assert report.fusion_theory == result.fused.theory


def _practical_outcome(run, scenario):
    try:
        return run(*scenario, 1, DEFAULT_BUDGET)
    except OntofuseError as e:
        return e


def test_practical_fuses_once_like_fusing_twice():
    # the single free fusion, restricted to its diagonal, gives what the
    # C-fusion and the free fusion gave together; a right link that
    # swaps the variables makes some cases fail, and both fail alike
    outcomes = []
    for scenario in practical_scenarios() + permuted_practical_scenarios(211, 120):
        expected = _practical_outcome(two_fusion_practical_integrate, scenario)
        got = _practical_outcome(practical_integrate, scenario)
        if isinstance(expected, Exception):
            assert type(got) is type(expected), (got, expected)
            assert str(got) == str(expected)
        else:
            assert got == expected
        outcomes.append(type(got))
    assert outcomes.count(tuple) > 21
    assert IncompatibleQuotient in outcomes and AgreementFailure in outcomes


def _report_fields(report):
    return (report.mediating_logic, report.free_to_mediating, report.fusion_theory,
            report.universe, report.fused, report.inclusions, report.bound, report.budget)


def test_practical_builds_the_free_fusion_only_when_needed_like_fusing_once():
    # the free fusion is built on the comparison's first read, or before
    # the call returns when the links' variable maps differ; either way
    # the outcome is the one-fusion path's, which builds it every time
    groups = {"fixed": practical_scenarios() + permuted_practical_scenarios(300, 60),
              "same permutation": permuted_practical_scenarios(301, 120, both=True)}
    kinds = Counter()
    for group, scenarios in groups.items():
        for scenario in scenarios:
            expected = _practical_outcome(one_fusion_practical_integrate, scenario)
            got = _practical_outcome(practical_integrate, scenario)
            if isinstance(expected, Exception):
                assert (type(got), str(got)) == (type(expected), str(expected))
                kinds[group, type(got)] += 1
                continue
            assert isinstance(got, tuple), (got, expected)
            (result, report), (result0, report0) = got, expected
            g1, g2 = scenario[4:]
            eager = g1.language_morphism.var_map != g2.language_morphism.var_map
            assert ("comparison" in vars(report)) == eager
            assert result == result0
            assert _report_fields(report) == _report_fields(report0)
            assert report.comparison == report0.comparison
            assert report == report0
            kinds[group, "eager" if eager else "lazy"] += 1
    assert kinds["fixed", "eager"] > 5 and kinds["fixed", "lazy"] == 21
    assert kinds["fixed", IncompatibleQuotient] > 2
    assert kinds["same permutation", "lazy"] > 60
    assert kinds["same permutation", "eager"] == 0
    assert kinds["same permutation", DomainMismatch] > 10
    assert kinds["same permutation", AgreementFailure] > 0


def test_practical_comparison_is_built_on_first_read():
    l1, l2, c, t, g1, g2 = practical_fixture()
    _, report = practical_integrate(l1, l2, c, t, g1, g2, 1)
    assert "comparison" not in vars(report)
    assert logic_morphism_valid(report.comparison, 1).ok
    assert "comparison" in vars(report)
    # a right link that permutes the variables has it read before returning
    outs = [_practical_outcome(practical_integrate, s)
            for s in permuted_practical_scenarios(211, 10)]
    reports = [out[1] for out in outs if isinstance(out, tuple)]
    assert reports and all("comparison" in vars(r) for r in reports)


# --- invariance: fusion is defined up to isomorphism ---------------------------------

def renamed_entities(l: Logic, rename: dict) -> Logic:
    """l with each entity e renamed rename[e]; its types and tuple tokens stay."""
    m = l.model
    return Logic(l.theory, Model(
        m.language, frozenset(map(rename.get, m.entities)),
        frozenset((rename[e], a) for e, a in m.entity_incidence),
        fdict({t: fdict({x: rename[e] for x, e in val.items()})
               for t, val in m.tuple_valuation.items()}),
        m.relation_incidence), frozenset(map(rename.get, l.normal_entities)), l.normal_tuples)


def test_renaming_the_communities_entities_renames_the_fused_logic_and_nothing_else():
    fused = 0
    for l1, l2, c, t, g1, g2 in practical_scenarios() + permuted_practical_scenarios(211, 40):
        # reverse the entities' token order, which every witness and writer follows
        names = sorted_tokens(l1.model.entities | l2.model.entities)
        rename = {e: f"r{len(names) - i:03d}" for i, e in enumerate(names)}
        expected = _practical_outcome(practical_integrate, (l1, l2, c, t, g1, g2))
        got = _practical_outcome(practical_integrate, (
            renamed_entities(l1, rename), renamed_entities(l2, rename),
            frozenset(map(rename.get, c)), t, g1, g2))
        if isinstance(expected, OntofuseError):
            assert type(got) is type(expected)
        else:
            assert got[0].fused == renamed_entities(expected[0].fused, rename)
            fused += 1
    assert fused > 40


def test_swapping_left_and_right_gives_an_isomorphic_fused_logic():
    for l1, l2, c, t, g1, g2 in practical_scenarios():
        assert logics_isomorphic(practical_integrate(l1, l2, c, t, g1, g2, 1)[0].fused,
                                 practical_integrate(l2, l1, c, t, g2, g1, 1)[0].fused)
    rng = random.Random(23)
    for _ in range(20):
        _, f0, f1 = rand_span(rng)
        assert logics_isomorphic(fusion(f0, f1)[0], fusion(f1, f0)[0])
