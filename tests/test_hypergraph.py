"""Hypergraphs: well-formedness and products."""
import itertools
import random

import pytest

from ontofuse.errors import DomainMismatch, NameSetMismatch
from ontofuse.hypergraph import Hypergraph, hypergraph_product
from ontofuse.tokens import fdict


def two_node_graph():
    return Hypergraph.make(["x", "y"], ["n0", "n1"],
                           {"e": {"x": "n0", "y": "n1"}})


def test_product_with_empty_arity_partner():
    a = Hypergraph.make(["x"], ["n"], {"e0": {}, "e1": {"x": "n"}})
    b = Hypergraph.make(["x"], ["m"], {"f": {}})
    prod = hypergraph_product(a, b)
    # only the empty-arity edge of a finds a partner
    assert set(prod.valuation) == {("e0", "f")}


def test_product_pairs_equal_arities_only():
    a = Hypergraph.make(["x", "y"], ["n"],
                        {"u": {"x": "n"}, "b": {"x": "n", "y": "n"}})
    c = Hypergraph.make(["x", "y"], ["m"], {"v": {"x": "m"}})
    prod = hypergraph_product(a, c)
    assert set(prod.valuation) == {("u", "v")}
    assert prod.valuation[("u", "v")]["x"] == ("n", "m")


def test_product_name_pool_mismatch():
    a = Hypergraph.make(["x"], [], {})
    b = Hypergraph.make(["y"], [], {})
    with pytest.raises(NameSetMismatch):
        hypergraph_product(a, b)


def test_projections_valid_on_random_inputs():
    rng = random.Random(7)
    names = ["x", "y"]
    for _ in range(30):
        def rand_graph(tag):
            nodes = [f"{tag}{i}" for i in range(rng.randint(1, 3))]
            edges = {}
            for i in range(rng.randint(0, 3)):
                ar = rng.sample(names, rng.randint(0, 2))
                edges[f"{tag}e{i}"] = {x: rng.choice(nodes) for x in ar}
            return Hypergraph.make(names, nodes, edges)
        a, b = rand_graph("a"), rand_graph("b")
        prod = hypergraph_product(a, b)
        # both projections preserve every edge pair's arity and tuple
        assert set(prod.nodes) == {(n, m) for n in a.nodes for m in b.nodes}
        for (e, f) in prod.valuation:
            assert prod.valuation[(e, f)].keys() == a.valuation[e].keys() == b.valuation[f].keys()
            assert dict(prod.valuation[(e, f)]) == \
                {x: (a.valuation[e][x], b.valuation[f][x]) for x in a.valuation[e]}


def test_product_symmetric_up_to_swap():
    a = Hypergraph.make(["x"], ["n0", "n1"], {"e": {"x": "n0"}})
    b = Hypergraph.make(["x"], ["m"], {"f": {"x": "m"}})
    ab = hypergraph_product(a, b)
    ba = hypergraph_product(b, a)
    assert {(q, p) for (p, q) in ab.nodes} == set(ba.nodes)
    assert {(f, e) for (e, f) in ab.valuation} == set(ba.valuation)


def test_sub_hypergraph_closure_violation():
    h = two_node_graph()
    broken = Hypergraph(h.names, frozenset({"n0"}), h.valuation)
    with pytest.raises(DomainMismatch, match="leaves the node set"):
        broken.check()


def test_check_names_the_token_order_first_stray_edge():
    edges = {f"e{i:02}": {"x": f"n{i:02}"} for i in reversed(range(12))}
    with pytest.raises(DomainMismatch, match=r"^tuple of 'e00' leaves the node set$"):
        Hypergraph.make(["x"], [], edges)
    edges["e00"] = {"z": "n00"}
    with pytest.raises(DomainMismatch, match=r"^edge 'e00' uses names outside the pool$"):
        Hypergraph.make(["x"], [], edges)


def test_all_sub_hypergraphs_counted():
    h = two_node_graph()
    closed = 0
    for nodes in (frozenset(c) for k in range(3)
                  for c in itertools.combinations(["n0", "n1"], k)):
        for edges in (frozenset(), frozenset({"e"})):
            try:
                Hypergraph(h.names, nodes, fdict({e: h.valuation[e] for e in edges})).check()
                closed += 1
            except DomainMismatch:
                pass
    assert closed == 5  # four node sets without the edge, and both nodes with it
