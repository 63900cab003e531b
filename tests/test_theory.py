"""Theories: bounded entailment, morphism and refinement checks, sums, quotients."""
import itertools
import random
import re
import time
import tracemalloc
from collections import Counter

import pytest

from ontofuse import theory
from ontofuse.document import parse_document
from ontofuse.errors import BudgetExceeded, DomainMismatch
from ontofuse.language import (And, Atomic, Exists, Forall, Implies, LanguageEndorelation,
                               LanguageMorphism, Not, TypeLanguage,
                               identity_language_morphism, translate_expression)
from ontofuse.model import Model, satisfies
from ontofuse.theory import (NoCounterexampleUpTo, Refuted, Theory,
                             TheoryMorphism, entails, identity_theory_morphism,
                             theory_morphism_valid, theory_quotient, theory_sum)
from ontofuse.tokens import ltag, sorted_tokens

from fixtures import (CORPUS, VARS, rand_expression, rand_theory_morphism, w_language,
                      wp_language)
from oracles import (brute_force_models, candidate_scan_models, candidate_scan_verdicts,
                     compose_theory_morphisms, model_as_sets, naive_satisfies)


def prop_theory(axioms):
    lang = TypeLanguage.make(VARS, ["T"], {"x": "T", "y": "T"},
                             {"p": (), "q": ()})
    return Theory.make(lang, axioms)


# --- the bounded search ------------------------------------------------------------

def test_enumerate_zero_entities_negated_proposition():
    # at zero entities every model of (not p) leaves p empty, and one of
    # them refutes q
    t = prop_theory([Not(Atomic("p"))])
    assert entails(t, Not(Atomic("p")), 0) == NoCounterexampleUpTo(0)
    verdict = entails(t, Atomic("q"), 0)
    assert isinstance(verdict, Refuted)
    assert not verdict.counter_model.relation_extent("p")


def test_enumerate_contradiction_is_empty_at_every_bound():
    # no model, so no countermodel to anything
    t = prop_theory([And(Atomic("p"), Not(Atomic("p")))])
    for k in range(3):
        for q in (Atomic("p"), Not(Atomic("p")), Atomic("q")):
            assert entails(t, q, k) == NoCounterexampleUpTo(k)


def test_enumerate_count_matches_hand_enumeration():
    # one entity type, one unary relation, no axioms, at most one entity:
    # n=0 gives 1 candidate; n=1 gives 2 incidence choices, and the extent
    # is any subset of the well-sorted rows (2 rows when _e0: T, else 1);
    # the query is entailed, so the search visits every candidate
    lang = TypeLanguage.make(["x"], ["T"], {"x": "T"}, {"r": ("x",)})
    t = Theory.make(lang, [])
    query = Implies(Atomic("r"), Atomic("r"))
    assert entails(t, query, 1, budget=1 + (1 + 2)) == NoCounterexampleUpTo(1)
    with pytest.raises(BudgetExceeded, match="^model enumeration exceeded 3 candidates$"):
        entails(t, query, 1, budget=3)


@pytest.mark.parametrize("arity, budget", [(("x", "y"), 5),
                                           (("x", "y", "z"), theory.DEFAULT_BUDGET)],
                         ids=["binary", "ternary"])
def test_enumerate_budget_guard(arity, budget):
    # three entities of T give a ternary relation 27 rows, so 2**27
    # candidates in one skeleton: the budget, not the rows, caps the work
    lang = TypeLanguage.make(arity, ["T"], {x: "T" for x in arity}, {"r": arity})
    t = Theory.make(lang, [])
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded,
                           match=f"^model enumeration exceeded {budget} candidates$"):
            entails(t, Implies(Atomic("r"), Atomic("r")), 3, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_enumerated_models_satisfy_axioms():
    # each countermodel the search returns is a model of the axioms
    t = prop_theory([Atomic("p")])
    for k in range(3):
        verdict = entails(t, Atomic("q"), k)
        assert isinstance(verdict, Refuted)
        assert satisfies(verdict.counter_model, Atomic("p"))


def frozen_model(m):
    """model_as_sets(m) as one hashable value."""
    s = model_as_sets(m)
    return (frozenset(s["entities"]), frozenset(s["entity_incidence"]),
            frozenset(s["tuples"]),
            frozenset((t, frozenset(xs)) for t, xs in s["arity"].items()),
            frozenset((t, frozenset(v.items())) for t, v in s["valuation"].items()),
            frozenset(s["relation_incidence"]))


def small_theory(rng):
    """One sort, one or two relation types over x and y, up to two axioms."""
    arity = {f"R{i}": rng.sample(VARS, rng.randint(0, 2))
             for i in range(rng.randint(1, 2))}
    lang = TypeLanguage.make(VARS, ["T"], {"x": "T", "y": "T"}, arity)
    return Theory.make(lang, [rand_expression(rng, lang, rng.randint(1, 3))
                              for _ in range(rng.randint(0, 2))])


def test_enumeration_and_entailment_match_brute_force_oracle():
    rng = random.Random(97)
    verdicts = Counter()
    for _ in range(80):
        t = small_theory(rng)
        bound = rng.randint(0, 2)
        found = Counter(frozen_model(m) for m in candidate_scan_models(t, bound))
        models = brute_force_models(t, bound)
        assert found == Counter(frozen_model(m) for m in models)
        for _ in range(4):
            q = rand_expression(rng, t.language, rng.randint(1, 3))
            verdict = entails(t, q, bound)
            assert bool(verdict) == all(naive_satisfies(m, q) for m in models)
            if isinstance(verdict, Refuted):
                cm = verdict.counter_model
                assert len(cm.entities) <= bound
                assert all(naive_satisfies(cm, a) for a in t.axioms)
                assert not naive_satisfies(cm, q)
            else:
                assert verdict == NoCounterexampleUpTo(bound)
            verdicts[type(verdict)] += 1
    assert verdicts[Refuted] >= 100 and verdicts[NoCounterexampleUpTo] >= 100


def alternating(levels):
    """levels quantifiers over one binary relation, forall x and exists y in
    turn, each over a not."""
    e = Atomic("R")
    for i in range(levels):
        e = (Forall, Exists)[i % 2]("xy"[i % 2], Not(e))
    return e


def test_quantifier_alternation_is_decided_in_linear_time():
    lang = TypeLanguage.make(VARS, ["T"], {"x": "T", "y": "T"}, {"R": ("x", "y")})
    queries = [Exists("x", Exists("y", Atomic("R"))), Forall("x", Exists("y", Atomic("R"))),
               Not(Exists("x", Forall("y", Atomic("R")))), Atomic("R"), Not(Atomic("R"))]
    shallow = Theory.make(lang, [alternating(12)])
    models = brute_force_models(shallow, 2)
    found = Counter(frozen_model(m) for m in candidate_scan_models(shallow, 2))
    assert found == Counter(frozen_model(m) for m in models)
    expected = [entails(shallow, q, 2) for q in queries]
    for q, verdict in zip(queries, expected):
        assert bool(verdict) == all(naive_satisfies(m, q) for m in models)
        if isinstance(verdict, Refuted):
            assert all(naive_satisfies(verdict.counter_model, a) for a in shallow.axioms)
            assert not naive_satisfies(verdict.counter_model, q)
    assert {type(v) for v in expected} == {Refuted, NoCounterexampleUpTo}
    # From two levels on the axiom is closed, and each further pair of
    # levels gives it back; evaluating the body once per binding took
    # about 70 s at 24 levels.
    for levels in (24, 40):
        t0 = time.perf_counter()
        deep = [entails(Theory.make(lang, [alternating(levels)]), q, 2) for q in queries]
        assert time.perf_counter() - t0 < 5
        assert deep == expected


def test_countermodel_is_the_first_enumerated_model_failing_the_query():
    rng = random.Random(41)
    verdicts = Counter()
    for _ in range(60):
        t = small_theory(rng)
        bound = rng.randint(0, 2)
        models = list(candidate_scan_models(t, bound))
        for _ in range(3):
            q = rand_expression(rng, t.language, rng.randint(1, 3))
            first = next((m for m in models if not naive_satisfies(m, q)), None)
            verdict = entails(t, q, bound)
            assert verdict == (NoCounterexampleUpTo(bound) if first is None else Refuted(first))
            verdicts[type(verdict)] += 1
    assert verdicts[Refuted] >= 40 and verdicts[NoCounterexampleUpTo] >= 40


def closed_by(rng, lang, quantifier):
    """A random expression, under the quantifier half the time: existential
    axioms and universal queries make countermodels that need entities."""
    e = rand_expression(rng, lang, rng.randint(1, 3))
    return quantifier(rng.choice(VARS), e) if rng.random() < 0.5 else e


def sorted_theory(rng):
    """One to three entity types, of which one is read by no variable when
    there are two or more, one or two relation types, and up to two axioms."""
    types = rng.sample(["A", "B", "C"], rng.randint(1, 3))
    read = types[:max(1, len(types) - 1)]
    lang = TypeLanguage.make(VARS, types, dict(zip(VARS, read * 2)),
                             {f"R{i}": rng.sample(VARS, rng.randint(0, 2))
                              for i in range(rng.randint(1, 2))})
    return Theory.make(lang, [closed_by(rng, lang, Exists) for _ in range(rng.randint(0, 2))])


def membership_rows(m):
    """The distinct rows of m's entities over the sorted entity types."""
    sorts = sorted_tokens(m.language.entity_types)
    return {tuple(m.entity_classifies(e, a) for a in sorts) for e in m.entities}


def test_countermodel_search_matches_the_full_enumeration():
    # entails and theory_morphism_valid skip renamed skeletons and unread
    # types; the full-order scan visits every candidate
    rng = random.Random(83)
    cases = Counter()
    while cases["bound 3"] < 12 or cases["unread"] < 60 or cases["distinct rows"] < 4:
        t = sorted_theory(rng)
        bound = rng.randint(0, 3)
        try:
            models = list(candidate_scan_models(t, bound, budget=400))
        except BudgetExceeded:
            continue
        found = Counter(frozen_model(m) for m in models)
        assert found == Counter(frozen_model(m) for m in brute_force_models(t, bound))
        queries = [closed_by(rng, t.language, Forall) for _ in range(3)]
        for q in queries:
            first = next((m for m in models if not naive_satisfies(m, q)), None)
            verdict = entails(t, q, bound)
            assert verdict == (NoCounterexampleUpTo(bound) if first is None else Refuted(first))
            cases[type(verdict).__name__] += 1
            # a countermodel whose order of entities matters
            cases["distinct rows"] += first is not None and len(membership_rows(first)) > 1
        g = TheoryMorphism.make(identity_language_morphism(t.language),
                                Theory.make(t.language, queries), t)
        assert theory_morphism_valid(g, bound).per_axiom == tuple(
            (q, "syntactic" if q in t.axioms else entails(t, q, bound))
            for q in sorted_tokens(set(queries)))
        cases[f"bound {bound}"] += 1
        cases["unread"] += len(t.language.entity_types) > 1
    assert min(cases["Refuted"], cases["NoCounterexampleUpTo"], cases["bound 0"]) >= 20


def unary_theory():
    """Up to one entity: 4 candidates (see the hand enumeration above), of
    which the axiom keeps the 3 with an empty extent of r."""
    lang = TypeLanguage.make(["x"], ["T"], {"x": "T"}, {"r": ("x",)})
    return Theory.make(lang, [Not(Exists("x", Atomic("r")))])


def test_budget_counts_every_candidate_before_the_axiom_check():
    t = unary_theory()
    query = Not(Atomic("r"))  # entailed, so each search visits every candidate
    g = TheoryMorphism.make(identity_language_morphism(t.language),
                            Theory.make(t.language, [query]), t)
    assert entails(t, query, 1, budget=4) == NoCounterexampleUpTo(1)
    assert theory_morphism_valid(g, 1, budget=4).ok
    for search in (lambda: entails(t, query, 1, budget=3),
                   lambda: theory_morphism_valid(g, 1, budget=3)):
        with pytest.raises(BudgetExceeded, match="^model enumeration exceeded 3 candidates$"):
            search()


def test_a_refutation_within_the_budget_is_not_cut_by_it():
    t = unary_theory()
    query = Not(Exists("x", Not(Atomic("r"))))
    # _e0 in T with r empty is the third candidate, and the first to fail
    # the query: the empty model and _e0 outside T both satisfy it
    verdict = entails(t, query, 1, budget=3)
    assert verdict == Refuted(Model.from_extents(t.language, ["_e0"], [("_e0", "T")],
                                                 {"r": []}))
    with pytest.raises(BudgetExceeded, match="^model enumeration exceeded 2 candidates$"):
        entails(t, query, 1, budget=2)


def test_entailment_counts_one_entity_ordering_per_skeleton():
    # bound 2, one sort: every entity-incidence choice gives
    # 1 + (1 + 2) + (1 + 2 + 2 + 16) = 25 candidates; the search skips the
    # skeleton with _e0 in T and _e1 outside it, a renaming of the one
    # before it, and so counts 23
    lang = TypeLanguage.make(VARS, ["T"], {"x": "T", "y": "T"}, {"r": ("x", "y")})
    t = Theory.make(lang, [])
    query = Implies(Atomic("r"), Atomic("r"))
    assert entails(t, query, 2, budget=23) == NoCounterexampleUpTo(2)
    with pytest.raises(BudgetExceeded, match="^model enumeration exceeded 22 candidates$"):
        entails(t, query, 2, budget=22)


@pytest.mark.parametrize("sorts, arity, built", [(["T"], ("x",), 4), (["A", "B"], ("x", "y"), 20)],
                         ids=["one-sort", "two-sort"])
def test_no_skeleton_holding_an_entity_of_no_sort_is_built(monkeypatch, sorts, arity, built):
    # up to 3 entities, each of no sort or of some of the sorts: one sort
    # gives 4 skeletons whose every entity is of T, two sorts give the
    # 1 + 3 + 6 + 10 multisets of the 3 non-empty membership rows; each
    # other skeleton, without its entity of no sort, is one searched before
    lang = TypeLanguage.make(VARS, sorts, {"x": sorts[0], "y": sorts[-1]}, {"r": arity})
    t = Theory.make(lang, [])
    query = Implies(Atomic("r"), Atomic("r"))
    skeletons = []
    skeleton = theory._Skeleton
    monkeypatch.setattr(theory, "_Skeleton", lambda *args: skeletons.append(skeleton(*args)) or
                        skeletons[-1])
    assert entails(t, query, 3, budget=100_000) == NoCounterexampleUpTo(3)
    assert len(skeletons) == built
    assert all(set(sk.entities) == set().union(*sk.pools.values()) for sk in skeletons)


def test_the_budget_counts_the_candidates_of_a_skipped_skeleton():
    # one unary relation over T: n entities of which k are of T give 2**k
    # candidates, so bound 3 counts 1 + 3 + 7 + 15 = 26, of which the
    # skeletons whose every entity is of T hold 1 + 2 + 4 + 8; the budget
    # of 11 runs out at _e0 .. _e2 all outside T, a skipped skeleton, and
    # that of 25 at the last one, all in T
    lang = TypeLanguage.make(["x"], ["T"], {"x": "T"}, {"r": ("x",)})
    t = Theory.make(lang, [])
    query = Implies(Atomic("r"), Atomic("r"))
    assert entails(t, query, 3, budget=26) == NoCounterexampleUpTo(3)
    for budget in (11, 25):
        with pytest.raises(BudgetExceeded, match=f"^model enumeration exceeded {budget} candidates$"):
            entails(t, query, 3, budget=budget)


def test_a_query_off_the_theory_language_is_refused_by_its_text():
    t = parse_document((CORPUS / "employment.iff").read_text()).get("TW", "theory")
    with pytest.raises(DomainMismatch, match="^" + re.escape(
            "query Atomic(relation='Nope') is not well-formed over the theory's language") + "$"):
        entails(t, Atomic("Nope"), 2)


def per_axiom_outcome(g, bound, budget):
    """What theory_morphism_valid gave when each axiom had its own search."""
    per_axiom = []
    try:
        for a in sorted_tokens(g.source.axioms):
            image = translate_expression(g.language_morphism, a)
            per_axiom.append((a, "syntactic" if image in g.target.axioms
                              else entails(g.target, image, bound, budget)))
    except BudgetExceeded as e:
        return str(e)
    return tuple(per_axiom)


def test_one_search_per_target_matches_per_axiom_entails():
    rng = random.Random(59)
    kinds = Counter()
    for _ in range(60):
        g = rand_theory_morphism(rng)
        bound = rng.randint(0, 2)
        for budget in (theory.DEFAULT_BUDGET, 16, 4, 1):
            expected = per_axiom_outcome(g, bound, budget)
            try:
                verdict = theory_morphism_valid(g, bound, budget)
            except BudgetExceeded as e:
                assert str(e) == expected
                kinds["budget"] += 1
                continue
            assert verdict.per_axiom == expected
            assert verdict.ok == all(v for _, v in expected)
            kinds.update(type(v).__name__ for _, v in verdict.per_axiom)
    assert min(kinds[k] for k in ("budget", "str", "Refuted", "NoCounterexampleUpTo")) >= 5


# --- the mask search against the one-candidate scan -----------------------------

def scan_theory(rng):
    """Two or three relation types, one of arity 0, over one or two sorts,
    with up to two axioms."""
    sorts = ["A", "B"][:rng.randint(1, 2)]
    arity = {"P": (), **{f"R{i}": rng.sample(VARS, rng.randint(1, 2))
                         for i in range(rng.randint(1, 2))}}
    lang = TypeLanguage.make(VARS, sorts, {x: rng.choice(sorts) for x in VARS}, arity)
    return Theory.make(lang, [closed_by(rng, lang, Exists) for _ in range(rng.randint(0, 2))])


def outcome(search):
    """A search's result, or the text of the BudgetExceeded it raises."""
    try:
        return search()
    except BudgetExceeded as e:
        return str(e)


def scanned_per_axiom(g, bound, budget, count=None):
    """theory_morphism_valid's per_axiom by the one-candidate scan."""
    axioms = sorted_tokens(g.source.axioms)
    images = [translate_expression(g.language_morphism, a) for a in axioms]
    searched = list(dict.fromkeys(e for e in images if e not in g.target.axioms))
    verdicts = candidate_scan_verdicts(g.target, searched, bound, budget, count)
    return tuple((a, verdicts.get(e, "syntactic")) for a, e in zip(axioms, images))


@pytest.mark.parametrize("block_bits", [theory._BLOCK_BITS, 2], ids=["blocks", "block-of-4"])
def test_mask_search_matches_the_one_candidate_scan(monkeypatch, block_bits):
    # each search against the scan it replaced, at budgets just below, at
    # and just past the candidate where the scan stops; with blocks of 4
    # candidates, block boundaries fall inside one relation type's pool
    monkeypatch.setattr(theory, "_BLOCK_BITS", block_bits)
    rng = random.Random(113)
    cap = 1500
    cases = Counter()
    while cases["bound 3"] < 6 or cases["stopped"] < 60:
        t = scan_theory(rng)
        bound = rng.randint(0, 3)
        queries = [closed_by(rng, t.language, Forall) for _ in range(rng.randint(1, 3))]
        g = TheoryMorphism.make(identity_language_morphism(t.language),
                                Theory.make(t.language, queries), t)
        searches = [  # (the library's outcome, the scan's) at a budget, the scan counting
            (lambda b: outcome(lambda: entails(t, queries[0], bound, b)),
             lambda b, n=None: outcome(
                 lambda: candidate_scan_verdicts(t, queries[:1], bound, b, n)[queries[0]])),
            (lambda b: outcome(lambda: theory_morphism_valid(g, bound, b).per_axiom),
             lambda b, n=None: outcome(lambda: scanned_per_axiom(g, bound, b, n))),
        ]
        for library, scan in searches:
            count = [0]
            expected = scan(cap, count)
            assert library(cap) == expected
            if count[0] > cap:
                continue
            for budget in (count[0] - 1, count[0], count[0] + 1):
                assert library(budget) == scan(budget)
                cases[type(scan(budget)).__name__] += 1
            cases["stopped"] += 1
            cases["past a block"] += count[0] > 1 << block_bits
            cases["refuted"] += "Refuted(" in repr(expected)
        cases[f"bound {bound}"] += 1
    assert min(cases["refuted"], cases["str"]) >= 20, cases
    assert cases["past a block"] >= (20 if block_bits == 2 else 0), cases


def test_two_axioms_with_one_image_are_searched_once(monkeypatch):
    # R and S both go to R, so both source axioms translate to one query;
    # it is entailed, so its search visits all 4 candidates of bound 1
    src = TypeLanguage.make(VARS, ["T"], {"x": "T", "y": "T"}, {"R": ("x",), "S": ("x",)})
    tgt = TypeLanguage.make(VARS, ["T"], {"x": "T", "y": "T"}, {"R": ("x",)})
    lm = LanguageMorphism.make(src, tgt, {"x": "x", "y": "y"}, {"T": "T"}, {"R": "R", "S": "R"})
    image = Not(Exists("x", Not(Atomic("R"))))
    g = TheoryMorphism.make(lm, Theory.make(src, [Not(Exists("x", Not(Atomic(r))))
                                                  for r in ("R", "S")]),
                            Theory.make(tgt, [Forall("x", Atomic("R"))]))
    searched = []
    verdicts = theory._verdicts
    monkeypatch.setattr(theory, "_verdicts",
                        lambda t, queries, *args: searched.append(queries) or
                        verdicts(t, queries, *args))
    for budget in (theory.DEFAULT_BUDGET, 4, 3):
        assert outcome(lambda: theory_morphism_valid(g, 1, budget).per_axiom) == \
            per_axiom_outcome(g, 1, budget)
    assert theory_morphism_valid(g, 1, 4).per_axiom == tuple(
        (a, NoCounterexampleUpTo(1)) for a in sorted_tokens(g.source.axioms))
    assert per_axiom_outcome(g, 1, 3) == "model enumeration exceeded 3 candidates"
    assert searched and all(queries == [image] for queries in searched)


def test_bound_4_is_within_reach_of_a_larger_budget():
    # 1 167 719 candidates: the default budget still stops the search
    t = parse_document((CORPUS / "employment.iff").read_text()).get("TW", "theory")
    query = Implies(Atomic("WorksFor"), Atomic("Employed"))
    start = time.perf_counter()
    assert entails(t, query, 4, budget=2_000_000) == NoCounterexampleUpTo(4)
    assert time.perf_counter() - start < 10
    with pytest.raises(BudgetExceeded, match="^model enumeration exceeded 10000 candidates$"):
        entails(t, query, 4)


def test_a_negative_bound_is_refused_only_where_a_search_is_needed():
    t = prop_theory([Atomic("p")])
    with pytest.raises(ValueError, match="^max_entities must be >= 0$"):
        entails(t, Atomic("q"), -1)
    # q is not among the target's axioms, so its image must be searched
    g = TheoryMorphism.make(identity_language_morphism(t.language),
                            prop_theory([Atomic("p"), Atomic("q")]), t)
    with pytest.raises(ValueError, match="^max_entities must be >= 0$"):
        theory_morphism_valid(g, -1)
    verdict = theory_morphism_valid(identity_theory_morphism(t), -1)
    assert verdict.ok and verdict.per_axiom == ((Atomic("p"), "syntactic"),)


def test_a_countermodel_that_fails_its_recheck_raises(monkeypatch):
    monkeypatch.setattr(theory, "satisfies", lambda m, e: True)
    with pytest.raises(RuntimeError, match="re-check"):
        entails(prop_theory([]), Atomic("p"), 0)


def test_the_search_validates_only_the_countermodel_it_returns(monkeypatch):
    # skeletons are built unvalidated; Model.check runs once, in
    # Model.from_extents, for the countermodel a Refuted verdict holds
    t = parse_document((CORPUS / "employment.iff").read_text()).get("TW", "theory")
    calls = []
    check = Model.check
    monkeypatch.setattr(Model, "check", lambda m, *args, **kwargs:
                        calls.append(m) or check(m, *args, **kwargs))
    query = Implies(Atomic("WorksFor"), Atomic("Employed"))
    assert entails(t, query, 3) == NoCounterexampleUpTo(3)
    assert len(calls) == 0
    query = Implies(Exists("x", Atomic("Employed")), Forall("x", Atomic("Employed")))
    verdict = entails(t, query, 2)
    assert isinstance(verdict, Refuted) and calls == [verdict.counter_model]


# --- entailment -----------------------------------------------------------------

def test_conjunction_axiom_entails_conjunct():
    t = prop_theory([And(Atomic("p"), Atomic("q"))])
    for k in range(3):
        assert isinstance(entails(t, Atomic("p"), k), NoCounterexampleUpTo)


def test_empty_theory_refutes_bare_proposition():
    t = prop_theory([])
    verdict = entails(t, Atomic("p"), 0)
    assert isinstance(verdict, Refuted)
    assert not verdict.counter_model.relation_extent("p")


def test_axioms_are_entailed():
    t = prop_theory([Atomic("p"), Not(Atomic("q"))])
    for a in t.axioms:
        assert bool(entails(t, a, 1))


def test_entails_matches_truth_table_oracle():
    # propositional case: a model at bound 0 is a subset of {p, q}
    lang = prop_theory([]).language
    atoms = ["p", "q"]
    def rows(e):
        out = set()
        for true_set in (frozenset(c) for k in range(3)
                         for c in itertools.combinations(atoms, k)):
            def ev(x):
                if isinstance(x, Atomic):
                    return x.relation in true_set
                if isinstance(x, Not):
                    return not ev(x.body)
                return ev(x.left) and ev(x.right)  # And only
            if ev(e):
                out.add(true_set)
        return out
    for axiom in [Atomic("p"), Not(Atomic("p")), And(Atomic("p"), Atomic("q"))]:
        for query in [Atomic("p"), Atomic("q"), Not(Atomic("q"))]:
            t = Theory.make(lang, [axiom])
            expected = rows(axiom) <= rows(query)
            assert bool(entails(t, query, 0)) == expected


def test_entails_monotone_in_bound():
    lang = TypeLanguage.make(["x"], ["T"], {"x": "T"}, {"r": ("x",)})
    t = Theory.make(lang, [])
    q = Not(Exists("x", Atomic("r")))
    assert isinstance(entails(t, q, 0), NoCounterexampleUpTo)
    for k in (1, 2):
        assert isinstance(entails(t, q, k), Refuted)


# --- morphism checking ------------------------------------------------------------

def test_identity_morphism_passes_syntactically():
    t = prop_theory([Atomic("p")])
    verdict = theory_morphism_valid(identity_theory_morphism(t), 0)
    assert verdict.ok
    assert verdict.per_axiom == ((Atomic("p"), "syntactic"),)


def test_morphism_into_contradicting_target_refuted():
    src = prop_theory([Atomic("p")])
    tgt = prop_theory([Not(Atomic("p"))])
    lm = LanguageMorphism.make(src.language, tgt.language,
                               {x: x for x in VARS}, {"T": "T"},
                               {"p": "p", "q": "q"})
    g = TheoryMorphism.make(lm, src, tgt)
    verdict = theory_morphism_valid(g, 0)
    assert not verdict.ok
    assert any(isinstance(v, Refuted) for (_, v) in verdict.per_axiom)
    assert verdict.detail == ("axiom", Atomic("p"))


def test_a_refuted_morphism_names_its_token_order_first_refuted_axiom():
    # the target {q} refutes both p and (not p), and holds q syntactically
    axioms = [Atomic("q"), Not(Atomic("p")), Atomic("p")]
    src = prop_theory(axioms)
    tgt = prop_theory([Atomic("q")])
    g = TheoryMorphism.make(identity_theory_morphism(src).language_morphism, src, tgt)
    verdict = theory_morphism_valid(g, 1)
    refuted = [a for a, v in verdict.per_axiom if isinstance(v, Refuted)]
    assert sorted_tokens(refuted) == sorted_tokens([Not(Atomic("p")), Atomic("p")])
    assert verdict.detail == ("axiom", sorted_tokens(refuted)[0])


def test_a_morphism_between_other_languages_is_refused_by_its_text():
    t = prop_theory([])
    other = Theory.make(w_language(), [])
    with pytest.raises(DomainMismatch,
                       match="^language morphism does not connect the theories' languages$"):
        TheoryMorphism.make(identity_language_morphism(t.language), t, other)


def test_refinement_morphism_preserves_axiom():
    # WorksFor refines to an existential composite over a 2-entity target
    src = Theory.make(w_language(), [Exists("x", Exists("y", Atomic("WorksFor")))])
    tgt_lang = wp_language()
    tgt = Theory.make(tgt_lang, [Exists("x", Exists("y", Atomic("EmployedBy")))])
    lm = LanguageMorphism.make(src.language, tgt_lang, {x: x for x in VARS},
                               {"Person": "Human", "Company": "Firm"},
                               {"WorksFor": Atomic("EmployedBy")},
                               refinement=True)
    verdict = theory_morphism_valid(TheoryMorphism.make(lm, src, tgt), 2)
    assert verdict.ok


def test_refinement_rejects_entity_to_expression():
    src = Theory.make(w_language(), [])
    lm = LanguageMorphism.make(src.language, src.language,
                               {x: x for x in VARS},
                               {"Person": Atomic("WorksFor"), "Company": "Company"},
                               {"WorksFor": "WorksFor"}, refinement=True)
    with pytest.raises(DomainMismatch, match="entity map leaves its codomain"):
        theory_morphism_valid(TheoryMorphism.make(lm, src, src), 0)


def test_refinement_composite_of_syntactic_passes():
    t = prop_theory([Atomic("p")])
    g = identity_theory_morphism(t)
    composite = compose_theory_morphisms(g, g)
    assert theory_morphism_valid(composite, 0).ok


# --- sums and quotients ------------------------------------------------------------

def test_sum_with_empty_theory_is_retagging():
    t = prop_theory([Atomic("p")])
    empty = Theory.make(TypeLanguage.make((), (), {}, {}), [])
    s, i1, _ = theory_sum(t, empty)
    assert s.axioms == {Atomic(ltag("p"))}
    assert theory_morphism_valid(i1, 0).ok


def test_sum_axiom_count_additive():
    t1 = prop_theory([Atomic("p"), Not(Atomic("q"))])
    t2 = prop_theory([Atomic("q")])
    s, _, _ = theory_sum(t1, t2)
    assert len(s.axioms) == 3


def test_sum_injections_pass_syntactic_fast_path():
    t1 = prop_theory([Atomic("p")])
    t2 = prop_theory([Not(Atomic("q"))])
    _, i1, i2 = theory_sum(t1, t2)
    for inj in (i1, i2):
        verdict = theory_morphism_valid(inj, 0)
        assert verdict.ok
        assert all(v == "syntactic" for (_, v) in verdict.per_axiom)


def test_quotient_empty_endorelation_is_isomorphic():
    t = prop_theory([Atomic("p")])
    q, canon = theory_quotient(t, LanguageEndorelation.make())
    assert q.axioms == t.axioms
    assert q.language == t.language
    assert theory_morphism_valid(canon, 0).ok


def test_quotient_collapses_identified_axioms():
    t = prop_theory([Atomic("p"), Atomic("q")])
    q, canon = theory_quotient(t, LanguageEndorelation.make(
        relation_pairs=[("p", "q")]))
    assert len(q.axioms) == 1
    assert theory_morphism_valid(canon, 0).ok


def test_quotient_axioms_are_canonical_images():
    t = prop_theory([And(Atomic("p"), Not(Atomic("q")))])
    q, canon = theory_quotient(t, LanguageEndorelation.make())
    assert q.axioms == {translate_expression(canon.language_morphism, a)
                        for a in t.axioms}


def test_theory_sum_universal_property_small():
    # over tiny propositional languages the mediator out of the sum is
    # the copairing on types; check existence and uniqueness exhaustively
    lang1 = TypeLanguage.make(VARS, ["A"], {"x": "A", "y": "A"}, {"p": ()})
    lang2 = TypeLanguage.make(VARS, ["B"], {"x": "B", "y": "B"}, {"q": ()})
    t1 = Theory.make(lang1, [Atomic("p")])
    t2 = Theory.make(lang2, [])
    s, i1, i2 = theory_sum(t1, t2)
    target = Theory.make(
        TypeLanguage.make(VARS, ["C"], {"x": "C", "y": "C"},
                          {"r": (), "u": ()}),
        [Atomic("r"), Atomic("u")])
    from oracles import all_language_morphisms
    h1s = [TheoryMorphism.make(m, t1, target)
           for m in all_language_morphisms(lang1, target.language)]
    h2s = [TheoryMorphism.make(m, t2, target)
           for m in all_language_morphisms(lang2, target.language)]
    candidates = [TheoryMorphism.make(m, s, target)
                  for m in all_language_morphisms(s.language, target.language)]
    for h1 in h1s:
        for h2 in h2s:
            if not (theory_morphism_valid(h1, 0).ok and
                    theory_morphism_valid(h2, 0).ok):
                continue
            mediating = [
                u for u in candidates
                if theory_morphism_valid(u, 0).ok
                and compose_theory_morphisms(i1, u).language_morphism ==
                    h1.language_morphism
                and compose_theory_morphisms(i2, u).language_morphism ==
                    h2.language_morphism]
            assert len(mediating) == 1
