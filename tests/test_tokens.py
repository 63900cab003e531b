"""Tokens: the immutable, hashable FrozenDict."""
import pytest

from ontofuse.tokens import fdict


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
