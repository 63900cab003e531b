"""Opaque tokens, deterministic ordering, and immutable maps.

Instances, types, variables and entities are opaque hashable tokens:
plain symbols (strings), positional tags, pairs, frozensets of tokens,
or tuples of tokens.  Constructions that need a canonical order (class
naming, serialization) use :func:`token_key`, which gives each token one
string, stable across runs: plain string order on these keys is a total
order on the token universe.
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


def token_key(t: Token) -> str:
    """Total order key over the token universe: one string, so that plain
    string order on keys is token order.

    Orders by kind first (bool, dataclass, int, map, set, str, tuple, in
    the order of those names), then by value: tuples by their members,
    frozensets and maps by their sorted member and entry keys, so the
    order is independent of insertion order.
    """
    if type(t) is str:
        return _STR + _symbol(t)
    return _key(t, token_key)


# Each kind's tag, the tags ordered as the kinds' names are.
_BOOL, _DC, _INT, _MAP, _SET, _STR, _TUPLE = "1234567"
# Ends a symbol, a composite's members and a dataclass's fields.  It sorts
# below every other character of a key, so of two keys that agree up to
# where one ends, that one sorts first.
_END = "\x00"
# A symbol's \x00 and \x01 become \x01\x01 and \x01\x02: an escaped symbol
# holds no _END, and its characters keep their order.
_ESCAPE = str.maketrans({"\x00": "\x01\x01", "\x01": "\x01\x02"})
# A negative int's digits, complemented so that larger magnitudes sort lower.
_COMPLEMENT = str.maketrans("0123456789abcdef", "fedcba9876543210")


def _symbol(s: str) -> str:
    """s escaped, then ended: ordered as the symbols are, and a prefix of no
    other symbol's."""
    if "\x00" in s or "\x01" in s:
        s = s.translate(_ESCAPE)
    return s + _END


def _int(n: int) -> str:
    """n's sign, then its hex digit count (the count's own length, one hex
    digit, then the count), then its digits, all complemented when n is
    negative: prefix-free, and ordered as the ints are."""
    digits = format(abs(n), "x")
    count = format(len(digits), "x")
    magnitude = format(len(count) - 1, "x") + count + digits
    return "p" + magnitude if n >= 0 else "n" + magnitude.translate(_COMPLEMENT)


def _key(t: Token, sub) -> str:
    """t's token_key, with sub giving the keys of its members.  The kinds
    are tested most common first: a token is of at most one of them, but
    for a bool, which is also an int and so is tested for first.  Every
    key is prefix-free, so members' keys joined compare as their tuple."""
    if isinstance(t, tuple):
        return _TUPLE + "".join(map(sub, t)) + _END
    if isinstance(t, FrozenDict):
        return _MAP + "".join(sorted(map(str.__add__, map(sub, t), map(sub, t.values())))) + _END
    if isinstance(t, frozenset):
        return _SET + "".join(sorted(map(sub, t))) + _END
    if isinstance(t, str):
        return _STR + _symbol(t)
    if isinstance(t, bool):
        return _BOOL + ("1" if t else "0")
    if isinstance(t, int):
        return _INT + _int(t)
    if dataclasses.is_dataclass(t) and not isinstance(t, type):
        return (_DC + _symbol(type(t).__name__)
                + "".join(sub(getattr(t, f.name)) for f in dataclasses.fields(t)) + _END)
    raise TypeError(f"unorderable token: {t!r}")


class _MemoKey:
    """Its key is a token_key that remembers the key of each token object
    it meets but symbols, for one piece of work whose sorts meet the same
    tokens many times.  Keys are kept by the token's id, with the token
    held so that no other token takes its id: equal tokens with unequal
    keys (1 == True) never share one, and no token is hashed.  The key is
    a method: a closure that passed itself on would refer to itself, and
    leave its memo to the cyclic collector."""

    __slots__ = ("keys", "held")

    def __init__(self):
        self.keys = {}  # id(t) -> t's key
        self.held = []  # each token in keys, so that its id is not reused

    def key(self, t):
        if type(t) is str:
            return _STR + _symbol(t)
        k = self.keys.get(id(t))
        if k is None:
            k = self.keys[id(t)] = _key(t, self.key)
            self.held.append(t)
        return k


def sorted_tokens(ts: Iterable[Token], key=token_key) -> list:
    """The tokens in token order; key is token_key or one that gives the same
    strings, such as the _MemoKey().key of one piece of work."""
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
