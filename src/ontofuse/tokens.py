"""Opaque tokens, deterministic ordering, and immutable maps.

Instances, types, variables and entities are opaque hashable tokens:
plain symbols (strings), positional tags, pairs, frozensets of tokens,
or tuples of tokens.  Constructions that need a canonical order (class
naming, serialization) use :func:`token_key`, a total order on the
token universe that is stable across runs.
"""
from __future__ import annotations

import dataclasses
from typing import Any, Hashable, Iterable, Mapping

Token = Hashable

LEFT = "left"
RIGHT = "right"


def ltag(t: Token) -> Token:
    return (LEFT, t)


def rtag(t: Token) -> Token:
    return (RIGHT, t)


def token_key(t: Token) -> tuple:
    """Total order key over the token universe.

    Orders by kind first, then recursively; frozensets compare by their
    sorted member keys, so the order is independent of insertion order.
    """
    if type(t) is str:
        return ("str", t)
    return _key(t, token_key)


def _key(t: Token, sub) -> tuple:
    """t's token_key, with sub giving the keys of its members.  The kinds
    are tested most common first: a token is of at most one of them, but
    for a bool, which is also an int and so is tested for first."""
    if isinstance(t, tuple):
        return ("tuple", tuple(map(sub, t)))
    if isinstance(t, FrozenDict):
        return ("map", tuple(sorted(zip(map(sub, t), map(sub, t.values())))))
    if isinstance(t, frozenset):
        return ("set", tuple(sorted(map(sub, t))))
    if isinstance(t, str):
        return ("str", t)
    if isinstance(t, bool):
        return ("bool", t)
    if isinstance(t, int):
        return ("int", t)
    if dataclasses.is_dataclass(t) and not isinstance(t, type):
        return ("dc", type(t).__name__,
                tuple(sub(getattr(t, f.name)) for f in dataclasses.fields(t)))
    raise TypeError(f"unorderable token: {t!r}")


def _memo_key():
    """A token_key that remembers the key of each composite token it meets,
    for one piece of work whose sorts meet the same tokens many times.

    It keeps only the keys of tuples, frozensets and FrozenDicts built of
    symbols and such composites: equal tokens of those kinds have equal
    keys, while other tokens can be equal with unequal keys (1 == True).
    """
    memo = {}
    unkept = 0  # keys computed and not kept

    def key(t):
        nonlocal unkept
        kind = type(t)
        if kind is str:
            return ("str", t)
        if kind is not tuple and kind is not frozenset and kind is not FrozenDict:
            unkept += 1  # neither t's key nor that of a token holding t is kept
            return _key(t, key)
        k = memo.get(t)
        if k is None:
            before = unkept
            k = _key(t, key)
            if unkept == before:
                memo[t] = k
        return k
    return key


def sorted_tokens(ts: Iterable[Token], key=token_key) -> list:
    """The tokens in token order; key is token_key or one that agrees with it."""
    return sorted(ts, key=key)


class FrozenDict(dict):
    """Hashable, mutation-blocked dict used for maps inside frozen values.

    The hash is computed on first use and kept, which is sound because
    every mutating method, ``|=`` included, is blocked.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:  # type: ignore[override]
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(frozenset(self.items()))
            return h

    def _blocked(self, *a: Any, **k: Any) -> None:
        raise TypeError("FrozenDict is immutable")

    __setitem__ = _blocked  # type: ignore[assignment]
    __delitem__ = _blocked  # type: ignore[assignment]
    update = _blocked  # type: ignore[assignment]
    pop = _blocked  # type: ignore[assignment]
    popitem = _blocked  # type: ignore[assignment]
    clear = _blocked  # type: ignore[assignment]
    setdefault = _blocked  # type: ignore[assignment]
    __ior__ = _blocked  # type: ignore[assignment]


def fdict(m: Mapping | Iterable = ()) -> FrozenDict:
    return m if isinstance(m, FrozenDict) else FrozenDict(m)
