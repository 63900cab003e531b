"""Type languages, expressions, morphisms, sums, quotients."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from ontofuse.errors import IncompatibleQuotient
from ontofuse.language import (And, Atomic, Exists, Forall,
                               LanguageEndorelation, LanguageMorphism, Or,
                               Subst, TypeLanguage, compose_language_morphisms,
                               free_vars, identity_language_morphism,
                               language_morphism_valid, language_quotient,
                               language_sum, translate_expression, well_formed)
from ontofuse.tokens import ltag, rtag

from fixtures import (mediating_language, rand_expression, rand_language,
                      w_language, wp_language)


def test_free_vars_atomic():
    lang = w_language()
    assert free_vars(lang, Atomic("WorksFor")) == {"x", "y"}


def test_free_vars_quantifier():
    lang = w_language()
    assert free_vars(lang, Exists("y", Atomic("WorksFor"))) == {"x"}


def test_free_vars_subst_image():
    lang = TypeLanguage.make(["x", "y", "z"], ["T"],
                             {"x": "T", "y": "T", "z": "T"},
                             {"R": ("x", "y")})
    e = Subst.make({"x": "z", "y": "z"}, Atomic("R"))
    assert free_vars(lang, e) == {"z"}


def test_identity_morphism_valid():
    assert language_morphism_valid(identity_language_morphism(w_language()))[0]


def test_reference_preservation_failure():
    src = TypeLanguage.make(["x"], ["Person"], {"x": "Person"}, {})
    tgt = TypeLanguage.make(["x"], ["Human", "Firm"], {"x": "Firm"}, {})
    m = LanguageMorphism.make(src, tgt, {"x": "x"}, {"Person": "Human"}, {})
    ok, witness = language_morphism_valid(m)
    assert not ok
    assert witness == ("reference", "x")


def test_refinement_to_expression_with_matching_arity():
    src = w_language()
    tgt = TypeLanguage.make(["x", "y", "z"], ["Person", "Company"],
                            {"x": "Person", "y": "Company", "z": "Person"},
                            {"Hires": ("z", "y"), "Knows": ("x", "z")})
    image = Exists("z", And(Atomic("Knows"), Atomic("Hires")))
    assert free_vars(tgt, image) == {"x", "y"}
    m = LanguageMorphism.make(src, tgt, {"x": "x", "y": "y"},
                              {"Person": "Person", "Company": "Company"},
                              {"WorksFor": image}, refinement=True)
    assert language_morphism_valid(m)[0]


def test_translate_identity_unchanged():
    lang = w_language()
    e = Forall("x", Exists("y", Atomic("WorksFor")))
    assert translate_expression(identity_language_morphism(lang), e) == e


def test_translate_atomic_rename():
    m = LanguageMorphism.make(w_language(), wp_language(), {"x": "x", "y": "y"},
                              {"Person": "Human", "Company": "Firm"},
                              {"WorksFor": "EmployedBy"})
    assert translate_expression(m, Atomic("WorksFor")) == Atomic("EmployedBy")


def test_translate_commutes_with_free_vars_randomized():
    rng = random.Random(11)
    m = LanguageMorphism.make(w_language(), wp_language(), {"x": "x", "y": "y"},
                              {"Person": "Human", "Company": "Firm"},
                              {"WorksFor": "EmployedBy"})
    for _ in range(1000):
        e = rand_expression(rng, w_language(), rng.randint(1, 3))
        image = translate_expression(m, e)
        assert free_vars(wp_language(), image) == \
            {m.var_map[x] for x in free_vars(w_language(), e)}


def test_translate_respects_composition_randomized():
    rng = random.Random(13)
    m1 = LanguageMorphism.make(w_language(), wp_language(), {"x": "x", "y": "y"},
                               {"Person": "Human", "Company": "Firm"},
                               {"WorksFor": "EmployedBy"})
    m2 = LanguageMorphism.make(wp_language(), mediating_language(),
                               {"x": "x", "y": "y"},
                               {"Human": "Agent", "Firm": "Org"},
                               {"EmployedBy": "Emp"})
    composite = compose_language_morphisms(m1, m2)
    for _ in range(200):
        e = rand_expression(rng, w_language(), rng.randint(1, 3))
        assert translate_expression(m2, translate_expression(m1, e)) == \
            translate_expression(composite, e)


def test_sum_with_empty_language_is_retagging():
    lang = w_language()
    empty = TypeLanguage.make((), (), {}, {})
    s, i1, _ = language_sum(lang, empty)
    assert s.variables == {ltag(x) for x in lang.variables}
    assert s.entity_types == {ltag(a) for a in lang.entity_types}
    assert s.relation_types == {ltag(r) for r in lang.relation_types}
    assert language_morphism_valid(i1)[0]


def test_sum_is_tagged_disjoint_union():
    s, i1, i2 = language_sum(w_language(), wp_language())
    assert ltag("Person") in s.entity_types
    assert rtag("Firm") in s.entity_types
    assert s.arity[ltag("WorksFor")] == frozenset({ltag("x"), ltag("y")})
    assert language_morphism_valid(i1)[0]
    assert language_morphism_valid(i2)[0]


def test_quotient_of_fixture_sum():
    s, _, _ = language_sum(w_language(), wp_language())
    j = LanguageEndorelation.make(
        entity_pairs=[(ltag("Person"), rtag("Human")),
                      (ltag("Company"), rtag("Firm"))],
        relation_pairs=[(ltag("WorksFor"), rtag("EmployedBy"))],
        variable_pairs=[(ltag("x"), rtag("x")), (ltag("y"), rtag("y"))])
    q, canon = language_quotient(s, j)
    assert len(q.entity_types) == 2
    assert len(q.relation_types) == 1
    assert language_morphism_valid(canon)[0]


def test_quotient_arity_incompatibility():
    lang = TypeLanguage.make(["x", "y"], ["T"], {"x": "T", "y": "T"},
                             {"R": ("x",), "S": ("x", "y")})
    j = LanguageEndorelation.make(relation_pairs=[("R", "S")])
    with pytest.raises(IncompatibleQuotient):
        language_quotient(lang, j)


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=30)
def test_random_expressions_well_formed(seed):
    rng = random.Random(seed)
    lang = rand_language(rng, max_ents=2, max_rels=2)
    if not lang.relation_types:
        return
    e = rand_expression(rng, lang, 3)
    assert well_formed(lang, e)
    assert free_vars(lang, e) <= lang.variables
