"""Hypergraphs with variable-indexed tuples and their morphisms.

Hyperedges carry a set-valued arity (a subset of the name pool) and a
tuple function assigning a node to each name in the arity.  These are
the instance-side skeleton of models.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .classification import keyed_pairs, unkeyed
from .errors import DomainMismatch, NameSetMismatch, check_total
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


@dataclass(frozen=True)
class HypergraphMorphism:
    source: Hypergraph
    target: Hypergraph
    node_map: FrozenDict
    edge_map: FrozenDict
    name_map: FrozenDict

    @staticmethod
    def make(source, target, node_map: Mapping, edge_map: Mapping, name_map: Mapping) -> "HypergraphMorphism":
        return HypergraphMorphism(source, target, fdict(node_map), fdict(edge_map), fdict(name_map))


def hypergraph_morphism_valid(m: HypergraphMorphism) -> tuple[bool, Optional[tuple]]:
    """Check arity and tuple preservation; returns (ok, first counterexample)."""
    check_total(m.node_map, m.source.nodes, m.target.nodes, "node map")
    check_total(m.edge_map, m.source.hyperedges, m.target.hyperedges, "edge map")
    check_total(m.name_map, m.source.names, m.target.names, "name map")
    for e in sorted_tokens(m.source.hyperedges):
        image = m.edge_map[e]
        if m.target.arity[image] != frozenset(m.name_map[x] for x in m.source.arity[e]):
            return False, ("arity", e)
        for x in sorted_tokens(m.source.arity[e]):
            if m.target.valuation[image][m.name_map[x]] != m.node_map[m.source.valuation[e][x]]:
                return False, ("tuple", e, x)
    return True, None


def identity_hypergraph_morphism(h: Hypergraph) -> HypergraphMorphism:
    return HypergraphMorphism.make(h, h, {n: n for n in h.nodes},
                                   {e: e for e in h.hyperedges}, {x: x for x in h.names})


def hypergraph_product(a: Hypergraph, b: Hypergraph,
                       node_keys: tuple[Callable, Callable] = (unkeyed, unkeyed),
                       edge_keys: tuple[Callable, Callable] = (unkeyed, unkeyed),
                       ) -> tuple[Hypergraph, HypergraphMorphism, HypergraphMorphism]:
    """Pairwise product over a shared name pool, over keys.

    Nodes pair when their node keys agree.  Edges pair when their edge
    keys and arities agree, so the projection tuples are well-defined,
    and every coordinate is a node pair.  The constant keys (the default)
    give the whole product.  Returns (product, left projection, right
    projection).
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
    prod = Hypergraph.make(a.names, nodes, edges)
    proj_a = HypergraphMorphism.make(prod, a, {p: p[0] for p in nodes},
                                     {ef: ef[0] for ef in edges}, {x: x for x in a.names})
    proj_b = HypergraphMorphism.make(prod, b, {p: p[1] for p in nodes},
                                     {ef: ef[1] for ef in edges}, {x: x for x in b.names})
    return prod, proj_a, proj_b


def sub_hypergraph_check(sub: Hypergraph, sup: Hypergraph) -> bool:
    """True iff sub is a tuple-closed restriction of sup."""
    if not (sub.nodes <= sup.nodes and sub.hyperedges <= sup.hyperedges
            and sub.names <= sup.names):
        return False
    for e in sub.hyperedges:
        if sub.arity[e] != sup.arity[e] or dict(sub.valuation[e]) != dict(sup.valuation[e]):
            return False
        if any(n not in sub.nodes for n in sub.valuation[e].values()):
            return False
    return True
