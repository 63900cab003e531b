"""Classifications, infomorphisms, power, sum, and quotient."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ontofuse.classification import (Classification, ClassificationInvariant,
                                     Infomorphism, classification_quotient,
                                     classification_sum, infomorphism_valid,
                                     power_classification)
from ontofuse.errors import DomainMismatch, RespectViolation
from ontofuse.tokens import ltag, rtag


def small_classifications(max_instances=2, max_types=2):
    """Every classification over fixed small token pools."""
    out = []
    for ni in range(max_instances + 1):
        for nt in range(max_types + 1):
            instances = [f"i{k}" for k in range(ni)]
            types = [f"t{k}" for k in range(nt)]
            slots = [(i, t) for i in instances for t in types]
            for bits in itertools.product((False, True), repeat=len(slots)):
                inc = [s for s, b in zip(slots, bits) if b]
                out.append(Classification.make(instances, types, inc))
    return out


def test_identity_infomorphism_valid():
    c = Classification.make(["a", "b"], ["t"], [("a", "t")])
    identity = Infomorphism.make(c, c, {t: t for t in c.types}, {i: i for i in c.instances})
    ok, witness = infomorphism_valid(identity)
    assert ok and witness is None


def test_broken_fundamental_condition_witnessed():
    src = Classification.make(["a"], ["alpha"], [("a", "alpha")])
    tgt = Classification.make(["b"], ["beta"], [])
    f = Infomorphism.make(src, tgt, {"alpha": "beta"}, {"b": "a"})
    ok, witness = infomorphism_valid(f)
    assert not ok
    assert witness == ("b", "alpha")


def test_partial_type_map_is_domain_error():
    src = Classification.make([], ["alpha", "beta"], [])
    tgt = Classification.make([], ["gamma"], [])
    f = Infomorphism.make(src, tgt, {"alpha": "gamma"}, {})
    with pytest.raises(DomainMismatch):
        infomorphism_valid(f)


def test_valid_infomorphisms_match_brute_force():
    src = Classification.make(["a0", "a1"], ["s0", "s1"],
                              [("a0", "s0"), ("a1", "s1")])
    tgt = Classification.make(["b0", "b1"], ["u0", "u1"],
                              [("b0", "u0"), ("b0", "u1")])
    # oracle: test the condition directly over all map pairs
    expected = set()
    for tm in itertools.product(["u0", "u1"], repeat=2):
        for im in itertools.product(["a0", "a1"], repeat=2):
            type_map = dict(zip(["s0", "s1"], tm))
            inst_map = dict(zip(["b0", "b1"], im))
            if all(((inst_map[b], s) in src.incidence) ==
                   ((b, type_map[s]) in tgt.incidence)
                   for b in ["b0", "b1"] for s in ["s0", "s1"]):
                expected.add((tm, im))
    got = set()
    for tm in itertools.product(["u0", "u1"], repeat=2):
        for im in itertools.product(["a0", "a1"], repeat=2):
            f = Infomorphism.make(src, tgt, dict(zip(["s0", "s1"], tm)),
                                  dict(zip(["b0", "b1"], im)))
            if infomorphism_valid(f)[0]:
                got.add((tm, im))
    assert got == expected


def test_power_classification_empty():
    c = power_classification([])
    assert c.instances == {frozenset()}
    assert not c.types


def test_power_classification_membership():
    c = power_classification(["alpha", "beta"])
    assert c.classifies(frozenset({"alpha"}), "alpha")
    assert not c.classifies(frozenset({"alpha"}), "beta")


def test_power_classification_counts():
    c = power_classification(["a", "b", "c"])
    assert len(c.instances) == 8
    assert len(c.incidence) == 12


def test_power_intent_is_the_subset_itself():
    c = power_classification(["a", "b", "c"])
    for x in c.instances:
        assert c.intent(x) == x


def test_sum_with_empty_classification():
    a = Classification.make(["i"], ["t"], [("i", "t")])
    empty = Classification.make((), (), ())
    s = classification_sum(a, empty)
    assert len(s.types) == 1
    assert not s.instances  # product with zero instances


def test_sum_counts():
    a = Classification.make(["a0", "a1"], ["s"], [])
    b = Classification.make(["b0", "b1", "b2"], ["u0", "u1"], [])
    s = classification_sum(a, b)
    assert len(s.instances) == 6
    assert len(s.types) == 3


def test_sum_injections_valid_exhaustively():
    for a in small_classifications():
        for b in small_classifications(max_instances=1, max_types=1):
            s = classification_sum(a, b)
            # each injection's fundamental condition: a pair is classified by
            # a tagged type iff its member on that side is by the type
            assert set(s.instances) == set(itertools.product(a.instances, b.instances))
            for (x, y) in s.instances:
                assert all(s.classifies((x, y), ltag(t)) == a.classifies(x, t) for t in a.types)
                assert all(s.classifies((x, y), rtag(t)) == b.classifies(y, t) for t in b.types)


def test_sum_over_given_pairs_is_the_full_sum_restricted_randomized():
    rng = random.Random(29)
    for _ in range(200):
        a, b = rng.choice(small_classifications()), rng.choice(small_classifications())
        full = classification_sum(a, b)
        pairs = {p for p in full.instances if rng.random() < 0.5}
        s = classification_sum(a, b, pairs)
        assert s.instances == pairs and s.types == full.types
        assert s.incidence == {(p, t) for p, t in full.incidence if p in pairs}


@pytest.mark.parametrize("pair", [("a0", "ghost"), ("ghost", "b0")])
def test_sum_pair_outside_the_instance_product_raises(pair):
    a = Classification.make(["a0"], ["s"], [("a0", "s")])
    b = Classification.make(["b0"], ["u"], [])
    with pytest.raises(DomainMismatch):
        classification_sum(a, b, [("a0", "b0"), pair])


def test_quotient_ignores_members_that_do_not_apply():
    c = Classification.make(["a"], ["s", "t"], [("a", "s")])
    j = ClassificationInvariant.make(["a"], [("s", "t")])
    with pytest.raises(RespectViolation):
        classification_quotient(c, j)
    q, _ = classification_quotient(c, j, lambda i, t: t == "s")
    assert q.incidence == {("a", ("s", "t"))}


def test_quotient_witness_is_the_first_applying_member_not_classifying():
    # r1 classifies nothing but does not apply to a; r3 applies and does not classify a
    c = Classification.make(["a"], ["r1", "r2", "r3"], [("a", "r2")])
    j = ClassificationInvariant.make(["a"], [("r1", "r2"), ("r2", "r3")])
    with pytest.raises(RespectViolation) as raised:
        classification_quotient(c, j, lambda i, t: t != "r1")
    assert raised.value.witness == ("a", "r2", "r3")


def test_quotient_by_empty_relation_is_identity():
    c = Classification.make(["a"], ["s", "t"], [("a", "s")])
    j = ClassificationInvariant.make(c.instances, ())
    q, canon = classification_quotient(c, j)
    assert q == c
    assert infomorphism_valid(canon)[0]


def test_quotient_respect_violation():
    c = Classification.make(["a"], ["s", "t"], [("a", "s")])
    j = ClassificationInvariant.make(["a"], [("s", "t")])
    with pytest.raises(RespectViolation):
        classification_quotient(c, j)


def test_quotient_incidence_matches_representative_oracle():
    c = Classification.make(["a", "b"], ["s", "t", "u"],
                            [("a", "s"), ("a", "t"), ("b", "u")])
    j = ClassificationInvariant.make(["a", "b"], [("s", "t")])
    q, _ = classification_quotient(c, j)
    assert len(q.types) == 2
    # oracle: rebuild incidence from every representative and compare
    cls = {"s": ("s", "t"), "t": ("s", "t"), "u": "u"}
    for rep in ["s", "t", "u"]:
        for inst in ["a", "b"]:
            assert q.classifies(inst, cls[rep]) == c.classifies(inst, rep)


def test_quotient_representative_independence():
    c = Classification.make(["a"], ["s", "t"], [("a", "s"), ("a", "t")])
    j1 = ClassificationInvariant.make(["a"], [("s", "t")])
    j2 = ClassificationInvariant.make(["a"], [("t", "s")])
    assert classification_quotient(c, j1)[0] == classification_quotient(c, j2)[0]


@given(st.sets(st.sampled_from("abcde"), max_size=5))
@settings(max_examples=50)
def test_power_classification_sizes(s):
    c = power_classification(s)
    assert len(c.instances) == 2 ** len(s)
    assert len(c.incidence) == sum(len(x) for x in c.instances)
