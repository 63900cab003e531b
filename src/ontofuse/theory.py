"""Theories, bounded entailment, theory morphisms, sums, and quotients.

Entailment is semantic and undecidable in general; here it is realized
as bounded countermodel search over finite models whose entity sets are
prefixes of a canonical token sequence.  Verdicts carry the bound, so
incompleteness is explicit.  The search evaluates each axiom and query
once per block of a skeleton's candidates, on masks with one bit per
candidate (see :func:`_block`).  A skeleton is plain data, no Model; a
validated Model (by :meth:`Model.from_extents`) is built only for a
countermodel the search returns.  A block holds at most
2**16 candidates, whatever the budget, and lists only the subsets of
rows they choose, so its masks cost its rows times its size, never
2**rows.  The budget counts candidates,
each one in enumeration order, as a scan of one candidate at a time
would reach them.

The search visits only the entity-incidence choices whose entities'
membership rows are sorted and whose entity types that no variable
refers to are empty (MACE-style symmetry breaking; Claessen & Sorensson
2003).  No expression tells a skipped choice from the earlier one that
sorting its rows or clearing those types gives, so the first
countermodel over every choice is never skipped.  Nor does it build a
skeleton that holds an entity of no sort (see :func:`_verdicts`).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BudgetExceeded, DomainMismatch, raise_first_fault
from .language import (Expression, LanguageEndorelation, LanguageMorphism,
                       TypeLanguage, free_vars, identity_language_morphism,
                       language_morphism_valid, language_quotient, language_sum,
                       translate_expression, well_formed)
from .model import Model, _compile, satisfies
from .tokens import sorted_tokens

DEFAULT_BUDGET = 10000


@dataclass(frozen=True)
class Theory:
    language: TypeLanguage
    axioms: frozenset  # of Expressions over language

    @staticmethod
    def make(language: TypeLanguage, axioms: Iterable) -> "Theory":
        axioms = frozenset(axioms)
        raise_first_fault((a, f"axiom {a!r} is not well-formed over the language")
                          for a in axioms if not well_formed(language, a))
        return Theory(language, axioms)


@dataclass(frozen=True)
class TheoryMorphism:
    language_morphism: LanguageMorphism
    source: Theory
    target: Theory

    @staticmethod
    def make(language_morphism: LanguageMorphism, source: Theory, target: Theory) -> "TheoryMorphism":
        if language_morphism.source != source.language or \
                language_morphism.target != target.language:
            raise DomainMismatch("language morphism does not connect the theories' languages")
        return TheoryMorphism(language_morphism, source, target)


def identity_theory_morphism(t: Theory) -> TheoryMorphism:
    return TheoryMorphism(identity_language_morphism(t.language), t, t)


# --- verdicts --------------------------------------------------------------

@dataclass(frozen=True)
class Refuted:
    counter_model: Model

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class NoCounterexampleUpTo:
    bound: int

    def __bool__(self) -> bool:
        return True


# --- bounded countermodel search --------------------------------------------

# The most candidates of one skeleton evaluated at once: 2**_BLOCK_BITS.
_BLOCK_BITS = 16


@functools.lru_cache(maxsize=64)
def _row_masks(n: int, start: int, width: int, stride: int, size: int) -> tuple:
    """For each of n rows, the size-bit mask whose bit c says whether the
    subset at pool index start + (c // stride) % width holds it, the pool
    ordered by subset size, then in ``combinations`` order.

    Only the window's width subsets are listed; each one's bit is spread
    to stride bits, and the spread window is tiled by the repunit
    multiply to size bits, so the masks cost n * size bits, never 2**n."""
    subsets = itertools.islice(itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)), start, start + width)
    digits = [bytearray(b"0") * width for _ in range(n)]  # least significant first
    for j, subset in enumerate(subsets):
        for i in subset:
            digits[i][j] = ord("1")
    one, zero = b"1" * stride, b"0" * stride
    repunit = ((1 << size) - 1) // ((1 << width * stride) - 1)
    return tuple(int(d[::-1].replace(b"1", one).replace(b"0", zero), 2) * repunit
                 for d in digits)


class _Block:
    """Some consecutive candidates of one skeleton, as the evaluator reads
    them: for each relation type, each row's mask over the candidates
    (bit c for the block's candidate c), the sort pools, and the mask of
    all of them."""

    __slots__ = ("_masks", "_pools", "_full")

    def __init__(self, masks: dict, pools: dict, size: int):
        self._masks = masks
        self._pools = pools
        self._full = (1 << size) - 1


def _block(rows: dict, pools: dict, base: int, size: int) -> _Block:
    """The block of size candidates from base, a multiple of size, of the
    skeleton whose relation types, in token order, have the given rows
    (value tuples in the arity order, drawn from the sort pools).

    A skeleton's candidates come in the order of ``itertools.product``
    over the relation types' pools, each pool holding every subset of a
    type's rows, by size, then in ``combinations`` order: candidate i
    chooses for the k-th relation type, of n_k rows, the subset at pool
    index (i // stride_k) % 2**n_k, stride_k being the product of the
    later pools' sizes.  They are evaluated in aligned blocks of
    2**_BLOCK_BITS (or all of them if fewer), and a block lists, for each
    relation type, only the subsets its candidates choose (see
    :func:`_row_masks`).
    """
    masks, stride = {}, 1
    for rho, rs in reversed(rows.items()):
        n = len(rs)
        spread = min(stride, size)  # a stride spanning the block: one subset
        masks[rho] = dict(zip(rs, _row_masks(
            n, base // stride % (1 << n), min(1 << n, size // spread), spread, size)))
        stride <<= n
    return _Block(masks, pools, size)


def _every(block: _Block, compiled: list, mask: int) -> int:
    """The candidates of mask in which each compiled expression holds
    under each of its assignments."""
    for f, ts in compiled:
        for t in ts:
            if not mask:
                return 0
            mask &= f(block, t)
    return mask


def _countermodel(t: Theory, m: Model, e: Expression) -> Model:
    """m, a model of t that fails e, re-checked."""
    if not all(satisfies(m, a) for a in t.axioms) or satisfies(m, e):
        raise RuntimeError(f"countermodel to {e!r} fails its re-check")
    return m


def _verdicts(t: Theory, queries: list, max_entities: int, budget: int) -> dict:
    """Each query's verdict from one search over t's models: Refuted by its
    first countermodel in enumeration order, else NoCounterexampleUpTo.

    For each n <= max_entities, the search visits the skeletons over the
    entities _e0.._e(n-1): each entity's membership row over the sorted
    entity types, the rows non-decreasing in entity order, and every
    entity type outside the variables' references empty.  Each skipped
    entity-incidence choice has an earlier one with the same truth value
    for every expression: swapping two out-of-order entities, or clearing
    an unread type, lowers the bit vector, and entities reach evaluation
    only through the sort pools and the rows.  Nor is a skeleton built
    whose _e0 is of no sort (row ``memberships[0]``, all False): without
    _e0 it is one at n - 1, searched in full before.  Its candidates
    still count against the budget, from the pool sizes alone, so the
    budget stops the search where it would if they were evaluated.

    A skeleton is its entities, its sort pools (built from the membership
    rows), each relation type's well-sorted rows, and each axiom and
    query, compiled once per search, paired with the well-sorted
    assignments on its free variables, plain dicts that the compiled
    closures only read.  Each block of its candidates (see :func:`_block`)
    evaluates every axiom once, then each open query once: the query's
    first countermodel there is the lowest candidate that satisfies the
    axioms but not the query, built by :meth:`Model.from_extents` from
    the rows it chooses and re-checked.  Candidates are counted against
    the budget in full, before the axiom check.  BudgetExceeded is raised
    before a block that starts at or past the budget; the search returns
    as soon as every query is refuted; otherwise it raises after a block
    that ends past the budget.  So it raises exactly when some query has
    no countermodel within the budget.
    """
    for e in queries:
        if not well_formed(t.language, e):
            raise DomainMismatch(f"query {e!r} is not well-formed over the theory's language")
    verdicts = {e: NoCounterexampleUpTo(max_entities) for e in queries}
    if not queries:
        return verdicts
    if max_entities < 0:
        raise ValueError("max_entities must be >= 0")
    exceeded = f"model enumeration exceeded {budget} candidates"
    lang = t.language
    sort = lang.reference

    def compiled(e):  # e compiled, with its free variables in token order and their sorts
        dom = sorted_tokens(free_vars(lang, e))
        return _compile(lang, e), dom, [sort[x] for x in dom]

    def assigned(fs, pools):  # each compiled expression with its well-sorted assignments
        return [(f, [dict(zip(dom, v)) for v in itertools.product(*[pools[a] for a in ss])])
                for f, dom, ss in fs]
    axioms, query_forms = list(map(compiled, t.axioms)), list(map(compiled, queries))
    columns = {rho: [sort[x] for x in lang.arity_order[rho]]
               for rho in sorted_tokens(lang.relation_types)}
    sorts = sorted_tokens(lang.entity_types)
    read = set(sort.values())
    memberships = list(itertools.product(*[(False, True) if a in read else (False,)
                                           for a in sorts]))
    open_queries = list(range(len(queries)))
    seen = 0
    for n in range(max_entities + 1):
        entities = tuple(f"_e{i}" for i in range(n))
        # each pool filters the entities in token order, where _e10 precedes _e2
        ranked = [(e, entities.index(e)) for e in sorted_tokens(entities)]
        for membership in itertools.combinations_with_replacement(memberships, n):
            pools = {a: tuple(e for e, i in ranked if membership[i][k])
                     for k, a in enumerate(sorts)}
            total = sum(math.prod(len(pools[a]) for a in cs) for cs in columns.values())
            if n and membership[0] == memberships[0]:
                # _e0 is of no sort: its candidates are counted, not evaluated
                seen += 1 << total
                if seen > budget:
                    raise BudgetExceeded(exceeded)
                continue
            rows = {rho: list(itertools.product(*[pools[a] for a in cs]))
                    for rho, cs in columns.items()}
            axiom_ts, query_ts = assigned(axioms, pools), assigned(query_forms, pools)
            size = 1 << min(total, _BLOCK_BITS)
            for base in range(0, 1 << total, size):
                if seen >= budget:
                    raise BudgetExceeded(exceeded)
                block = _block(rows, pools, base, size)
                within = block._full if budget - seen >= size else (1 << budget - seen) - 1
                holds = _every(block, axiom_ts, within)
                for i in list(open_queries):
                    refuting = holds ^ _every(block, [query_ts[i]], holds)
                    if refuting:
                        # candidate c's extents are the rows whose block mask has bit c
                        c = (refuting & -refuting).bit_length() - 1
                        extents = {rho: [zip(lang.arity_order[rho], row)
                                         for row, mask in masks.items() if mask >> c & 1]
                                   for rho, masks in block._masks.items()}
                        incidence = [(e, a) for a, es in pools.items() for e in es]
                        m = Model.from_extents(lang, entities, incidence, extents)
                        verdicts[queries[i]] = Refuted(_countermodel(t, m, queries[i]))
                        open_queries.remove(i)
                if not open_queries:
                    return verdicts
                seen += size
                if seen > budget:
                    raise BudgetExceeded(exceeded)
    return verdicts


def entails(t: Theory, e: Expression, max_entities: int,
            budget: int = DEFAULT_BUDGET):
    """Bounded countermodel search; Refuted(m) or NoCounterexampleUpTo(bound).

    m is the first countermodel in enumeration order, built by
    Model.from_extents and re-checked with satisfies.  The search skips
    entity-incidence choices that are renamings of an earlier one or that
    populate an entity type no variable refers to, and evaluates no
    skeleton holding an entity of no sort (see :func:`_verdicts`): none
    of them can hold the first countermodel.  That skeleton's candidates,
    none refutable there, still count against the budget.
    """
    return _verdicts(t, [e], max_entities, budget)[e]


# --- morphism checking ------------------------------------------------------

@dataclass(frozen=True)
class MorphismVerdict:
    ok: bool
    per_axiom: tuple  # of (axiom, verdict-or-"syntactic")
    detail: Optional[object] = None

    def __bool__(self) -> bool:
        return self.ok


def theory_morphism_valid(g: TheoryMorphism, max_entities: int,
                          budget: int = DEFAULT_BUDGET) -> MorphismVerdict:
    """Each source axiom's translate must be a target theorem.

    Translated axioms literally present in the target axiom set pass
    syntactically (exact, not bound-qualified); the others are decided
    by one search over the target's models, each distinct one once and
    as :func:`entails` would decide it alone.  A refuted verdict's detail is ("axiom", a),
    a the token-order-first source axiom whose translate is refuted.
    """
    ok, why = language_morphism_valid(g.language_morphism)
    if not ok:
        return MorphismVerdict(False, (), ("language", why))
    axioms = sorted_tokens(g.source.axioms)
    images = [translate_expression(g.language_morphism, a) for a in axioms]
    searched = list(dict.fromkeys(e for e in images if e not in g.target.axioms))
    verdicts = _verdicts(g.target, searched, max_entities, budget)
    per_axiom = tuple((a, verdicts.get(e, "syntactic")) for a, e in zip(axioms, images))
    refuted = [a for a, v in per_axiom if not v]
    return MorphismVerdict(not refuted, per_axiom, ("axiom", refuted[0]) if refuted else None)


# --- sums and quotients -----------------------------------------------------

def _translated(f: LanguageMorphism, t: Theory) -> frozenset:
    """t's axioms translated along f, a language morphism out of t's language."""
    return frozenset(translate_expression(f, a) for a in t.axioms)


def theory_sum(t1: Theory, t2: Theory) -> tuple[Theory, TheoryMorphism, TheoryMorphism]:
    lang, i1, i2 = language_sum(t1.language, t2.language)
    s = Theory(lang, _translated(i1, t1) | _translated(i2, t2))
    return s, TheoryMorphism(i1, t1, s), TheoryMorphism(i2, t2, s)


def theory_quotient(t: Theory, j: LanguageEndorelation) -> tuple[Theory, TheoryMorphism]:
    lang, canon = language_quotient(t.language, j)
    q = Theory(lang, _translated(canon, t))
    return q, TheoryMorphism(canon, t, q)
