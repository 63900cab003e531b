"""Hypergraphs with variable-indexed tuples and their keyed products.

Hyperedges carry a set-valued arity (a subset of the name pool) and a
tuple function assigning a node to each name in the arity.  These are
the instance-side skeleton of models.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .classification import keyed_pairs, unkeyed
from .errors import DomainMismatch, NameSetMismatch
from .tokens import FrozenDict, fdict, sorted_tokens


@dataclass(frozen=True)
class Hypergraph:
    names: frozenset
    nodes: frozenset
    hyperedges: frozenset
    arity: FrozenDict  # edge -> frozenset of names
    valuation: FrozenDict  # edge -> FrozenDict name -> node (total on arity)

    @staticmethod
    def make(names: Iterable, nodes: Iterable, edges: Mapping) -> "Hypergraph":
        """Build from edges: mapping edge token -> {name: node}."""
        arity = {e: frozenset(tup) for e, tup in edges.items()}
        val = {e: fdict(tup) for e, tup in edges.items()}
        hg = Hypergraph(frozenset(names), frozenset(nodes), frozenset(edges),
                        fdict(arity), fdict(val))
        hg.check()
        return hg

    def check(self) -> None:
        for e in self.hyperedges:
            arity, tup = self.arity[e], self.valuation[e]
            if not arity <= self.names:
                raise DomainMismatch(f"edge {e!r} uses names outside the pool")
            if tup.keys() != arity:
                raise DomainMismatch(f"tuple of {e!r} not total exactly on its arity")
            if not self.nodes.issuperset(tup.values()):
                raise DomainMismatch(f"tuple of {e!r} leaves the node set")


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
    for e, f in keyed_pairs(a.hyperedges, b.hyperedges, lambda e: (edge_a(e), a.arity[e]),
                            lambda f: (edge_b(f), b.arity[f])):
        tup = {x: (a.valuation[e][x], b.valuation[f][x]) for x in a.arity[e]}
        if all(node_a(v) == node_b(w) for v, w in tup.values()):
            edges[(e, f)] = tup
    return Hypergraph.make(a.names, nodes, edges)

