"""Tokens: their order, and the immutable, hashable FrozenDict."""
from collections import namedtuple
from dataclasses import dataclass, make_dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from ontofuse.tokens import _MemoKey, fdict, sorted_tokens, token_key

from oracles import naive_token_key


# --- token order ------------------------------------------------------------------

@dataclass(frozen=True)
class Tagged:
    """A dataclass token."""

    tag: object
    body: object


class Symbol(str):
    def __str__(self):  # a key reads the characters, never str()
        return "symbol " + str.__str__(self)


Pair = namedtuple("Pair", "left right")

TOKENS = st.recursive(
    st.one_of(st.text(max_size=3), st.booleans(), st.integers(-2, 2)),
    lambda inner: st.one_of(st.lists(inner, max_size=3).map(tuple),
                            st.frozensets(inner, max_size=3),
                            st.dictionaries(inner, inner, max_size=3).map(fdict),
                            st.builds(Tagged, inner, inner)),
    max_leaves=12)


@dataclass(frozen=True)
class Tag:
    """A dataclass token whose type name is a prefix of Tagged's."""

    body: object


# The edges of the key's encoding, each list one example of a test below.
SYMBOLS = ["", "a", "a\x00", "a\x01", "a\x02", "a\x00b", "\x00", "\x01", "\x01\x01", "\x02",
           "b", "é", ("a", "b"), ("a\x00",), ("a\x01",), ("a", "\x00"), ("a\x02",), ("a", "")]
INTS = [0, 1, -1, 2, -2, 15, 16, -16, -17, 255, 256, -256, 2**64, -2**64,
        2**4000 - 1, 2**4000, -2**4000, -(2**4000) - 1]
BOOLS_AND_INTS = [True, False, 1, 0, (1,), (True,), (0,), (False,)]
EMPTIES = [(), frozenset(), fdict(), ("",), frozenset({""}), fdict({"": ""})]
SUBCLASSES = [Symbol("a"), "a", Symbol("a\x01"), Symbol(""), Pair("a", "b"), ("a", "b")]
# Another type named Tag, with one more field.
TagOfTwo = make_dataclass("Tag", ["body", "more"], frozen=True)
DATACLASSES = [Tag("a"), Tagged("a", "b"), Tag(Tag(1)), Tagged(Tag("a"), ()), Tag(Tagged(1, 2)),
               TagOfTwo("a", "b"), (Tag("a"), "z"), (TagOfTwo("a", "b"),)]
EDGES = SYMBOLS + INTS + BOOLS_AND_INTS + EMPTIES + SUBCLASSES + DATACLASSES


def assert_ordered_as_the_isinstance_chain(tokens, keys):
    """For every pair of tokens, < and == on their keys agree with naive_token_key."""
    naive = [naive_token_key(t) for t in tokens]
    for a, na in zip(keys, naive):
        for b, nb in zip(keys, naive):
            assert (a < b) == (na < nb) and (a == b) == (na == nb)


@given(TOKENS)
@example(Symbol("a"))
@example(Pair(True, (1, "b")))
@example(fdict({("x", 0): fdict({"y": False}), Tagged(1, "a"): frozenset({1, "1"})}))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_token_key_agrees_with_the_isinstance_chain(t):
    tokens = [t, *EDGES]
    assert_ordered_as_the_isinstance_chain(tokens, [token_key(u) for u in tokens])


@given(st.lists(TOKENS, min_size=1, max_size=4))
@example([(True,), (1,)])
@example([frozenset({1}), fdict({"x": frozenset({True})})])
@example(SYMBOLS)
@example(INTS)
@example(BOOLS_AND_INTS)
@example(EMPTIES)
@example(SUBCLASSES)
@example(DATACLASSES)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_one_memoised_key_agrees_with_the_isinstance_chain_where_tokens_repeat(ts):
    key = _MemoKey().key
    first = ts[0]
    nested = [*ts, tuple(ts), (first, tuple(ts)), fdict({first: tuple(ts)}),
              frozenset(ts), Tagged(first, tuple(ts)), *ts]
    keys = [key(t) for t in nested]
    assert keys == [token_key(t) for t in nested]
    assert_ordered_as_the_isinstance_chain(nested, keys)
    assert sorted_tokens(nested, key) == sorted(nested, key=naive_token_key)


def test_a_memoised_key_holds_each_token_so_that_no_id_is_reused():
    key = _MemoKey().key
    for i in range(50):  # each tuple is freed at once but for the memo
        assert key((str(i),)) == token_key((str(i),))


def test_a_token_of_no_kind_is_unorderable():
    for t in (1.5, None, Tagged, (1, [2])):
        with pytest.raises(TypeError, match="unorderable token"):
            token_key(t)
        with pytest.raises(TypeError, match="unorderable token"):
            _MemoKey().key(t)


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
