"""Tokens: their order, and the immutable, hashable FrozenDict."""
from collections import namedtuple
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from ontofuse.tokens import _memo_key, fdict, sorted_tokens, token_key

from oracles import naive_token_key


# --- token order ------------------------------------------------------------------

@dataclass(frozen=True)
class Tagged:
    """A dataclass token."""

    tag: object
    body: object


class Symbol(str):
    pass


Pair = namedtuple("Pair", "left right")

TOKENS = st.recursive(
    st.one_of(st.text(max_size=3), st.booleans(), st.integers(-2, 2)),
    lambda inner: st.one_of(st.lists(inner, max_size=3).map(tuple),
                            st.frozensets(inner, max_size=3),
                            st.dictionaries(inner, inner, max_size=3).map(fdict),
                            st.builds(Tagged, inner, inner)),
    max_leaves=12)


@given(TOKENS)
@example(Symbol("a"))
@example(Pair(True, (1, "b")))
@example(fdict({("x", 0): fdict({"y": False}), Tagged(1, "a"): frozenset({1, "1"})}))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_token_key_agrees_with_the_isinstance_chain(t):
    assert token_key(t) == naive_token_key(t)


@given(st.lists(TOKENS, min_size=1, max_size=4))
@example([(True,), (1,)])
@example([frozenset({1}), fdict({"x": frozenset({True})})])
@settings(derandomize=True, max_examples=200, deadline=None)
def test_one_memoised_key_agrees_with_the_isinstance_chain_where_tokens_repeat(ts):
    key = _memo_key()
    first = ts[0]
    nested = [*ts, tuple(ts), (first, tuple(ts)), fdict({first: tuple(ts)}),
              frozenset(ts), Tagged(first, tuple(ts)), *ts]
    for t in nested:
        assert key(t) == naive_token_key(t)
    assert sorted_tokens(nested, key) == sorted(nested, key=naive_token_key)


# --- FrozenDict -------------------------------------------------------------------
def test_frozendict_in_place_union_is_blocked():
    d = fdict({"x": "a"})
    h = hash(d)
    with pytest.raises(TypeError):
        d |= {"x": "b"}
    assert d == {"x": "a"}
    assert hash(d) == h


def test_frozendict_mutators_are_blocked():
    d = fdict({"x": "a"})
    for mutate in (lambda: d.__setitem__("x", "b"), lambda: d.__delitem__("x"),
                   lambda: d.update(x="b"), lambda: d.pop("x"), d.popitem,
                   d.clear, lambda: d.setdefault("y", "b")):
        with pytest.raises(TypeError):
            mutate()
    assert d == {"x": "a"}


def test_equal_frozendicts_hash_equal_whatever_the_insertion_order():
    items = [(f"x{i}", f"e{i % 3}") for i in range(12)]
    d1, d2 = fdict(items), fdict(reversed(items))
    assert d1 == d2
    assert hash(d1) == hash(d2)
    assert hash(d1) == hash(d1)  # the cached value
    assert len({d1, d2, fdict(dict(items))}) == 1
