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
    if isinstance(t, bool):
        return ("bool", t)
    if isinstance(t, int):
        return ("int", t)
    if isinstance(t, str):
        return ("str", t)
    if isinstance(t, frozenset):
        return ("set", tuple(sorted(token_key(x) for x in t)))
    if isinstance(t, tuple):
        return ("tuple", tuple(token_key(x) for x in t))
    if isinstance(t, FrozenDict):
        return ("map", tuple(sorted((token_key(k), token_key(v)) for k, v in t.items())))
    if dataclasses.is_dataclass(t) and not isinstance(t, type):
        return ("dc", type(t).__name__,
                tuple(token_key(getattr(t, f.name)) for f in dataclasses.fields(t)))
    raise TypeError(f"unorderable token: {t!r}")


def sorted_tokens(ts: Iterable[Token]) -> list:
    return sorted(ts, key=token_key)


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
