"""Hypergraphs with variable-indexed tuples and their keyed products.

Each hyperedge carries a tuple function assigning a node to each name
of its arity, a subset of the name pool; the arity is the tuple
function's domain, so it is stored only there.  These are the
instance-side skeleton of models, and their product picks the instance
pairs of a model sum: the pairs on which two key functions agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import NameSetMismatch, raise_first_fault
from .tokens import FrozenDict, Token, fdict, sorted_tokens


@dataclass(frozen=True)
class Hypergraph:
    names: frozenset
    nodes: frozenset
    valuation: FrozenDict  # edge -> FrozenDict name -> node, its domain the arity

    @staticmethod
    def make(names: Iterable, nodes: Iterable, edges: Mapping) -> "Hypergraph":
        """Build from edges: mapping edge token -> {name: node}."""
        hg = Hypergraph(frozenset(names), frozenset(nodes),
                        fdict({e: fdict(tup) for e, tup in edges.items()}))
        hg.check()
        return hg

    def check(self) -> None:
        """Raise DomainMismatch naming the token-order-first edge whose
        names leave the pool or whose nodes leave the node set."""
        raise_first_fault(self._faults())

    def _faults(self):
        for e, tup in self.valuation.items():
            if not tup.keys() <= self.names:
                yield e, f"edge {e!r} uses names outside the pool"
            elif not self.nodes.issuperset(tup.values()):
                yield e, f"tuple of {e!r} leaves the node set"


def unkeyed(_: Token) -> None:
    """The constant key: a product over it pairs everything."""
    return None


def keyed_pairs(xs: Iterable, ys: Iterable, key_x: Callable, key_y: Callable) -> list:
    """The pairs (x, y) on which the keys agree: the pullback of xs and ys
    over their keys, found by grouping ys by key.  Constant keys give the
    whole product."""
    groups: dict = {}
    for y in ys:
        groups.setdefault(key_y(y), []).append(y)
    return [(x, y) for x in xs for y in groups.get(key_x(x), ())]


def hypergraph_product(a: Hypergraph, b: Hypergraph,
                       node_keys: tuple[Callable, Callable] = (unkeyed, unkeyed),
                       edge_keys: tuple[Callable, Callable] = (unkeyed, unkeyed),
                       ) -> Hypergraph:
    """Pairwise product over a shared name pool, over keys.

    Nodes pair when their node keys agree.  Edges pair when their edge
    keys and arities agree, so every coordinate of an edge pair is valued
    by a node pair.  The constant keys (the default) give the whole
    product.
    """
    if a.names != b.names:
        raise NameSetMismatch(f"name pools differ: {sorted_tokens(a.names)} vs {sorted_tokens(b.names)}")
    (node_a, node_b), (edge_a, edge_b) = node_keys, edge_keys
    nodes = keyed_pairs(a.nodes, b.nodes, node_a, node_b)
    edges = {}
    for e, f in keyed_pairs(a.valuation, b.valuation,
                            lambda e: (edge_a(e), frozenset(a.valuation[e])),
                            lambda f: (edge_b(f), frozenset(b.valuation[f]))):
        tup = {x: (v, b.valuation[f][x]) for x, v in a.valuation[e].items()}
        if all(node_a(v) == node_b(w) for v, w in tup.values()):
            edges[(e, f)] = fdict(tup)
    return Hypergraph(a.names, frozenset(nodes), fdict(edges))
