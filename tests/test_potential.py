import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf.graphs import Graph, GraphError, SubgraphF, edge_key, n_ge3
from maxleaf import reductions
from maxleaf.generators import flowerbed, g7, necklace_ring, q3, random_invariant_graph
from maxleaf.potential import (
    expand,
    expand_many,
    greedy_spanning_tree,
    heuristic_bound,
    leaf_potential,
    try_augment,
)
from maxleaf.solver import tree_leaf_count, verify_spanning_tree

from conftest import random_connected, random_loopless_multigraph


def path(n):
    return Graph(edges=[(i, i + 1) for i in range(1, n)])


# -- potential arithmetic ---------------------------------------------------------


def test_empty_subgraph_has_zero_potential():
    g = q3()
    rep = leaf_potential(SubgraphF.empty(g))
    assert rep.twice_value == 0 and rep.cc == 0


def test_path4_spanning_potential_is_zero():
    g = path(4)
    f = SubgraphF(g, g.vertices, list(g.edges()))
    rep = leaf_potential(f)
    assert (rep.leaves, rep.dead_leaves, rep.nongoob, rep.cc) == (2, 2, 0, 1)
    assert rep.twice_value == 0
    assert rep.value == 0


def test_spanning_forest_formula():
    # spanning subgraph: potential reduces to 3*leaves - high-degree count - 6cc
    g = q3()
    f = SubgraphF(g, g.vertices, [(1, 2), (1, 3), (1, 5), (2, 4), (3, 7), (5, 6), (4, 8)])
    rep = leaf_potential(f)
    assert rep.dead_leaves == rep.leaves
    assert rep.twice_value == 2 * (3 * rep.leaves - n_ge3(g) - 6 * rep.cc)


def test_potential_is_exact_half_integers(rng):
    for _ in range(50):
        g = random_connected(rng.randint(3, 9), rng.randint(0, 5), rng)
        vs = {v for v in g.vertices if rng.random() < 0.6}
        es = {e for e in set(g.edges()) if e[0] in vs and e[1] in vs and rng.random() < 0.6}
        rep = leaf_potential(SubgraphF(g, vs, es))
        assert isinstance(rep.twice_value, int)
        assert rep.value == Fraction(rep.twice_value, 2)
        assert rep.dead_leaves <= rep.leaves
        assert rep.nongoob <= len(vs)


# -- expansion ---------------------------------------------------------------------


def hub_with_degree(k):
    """Hub of degree k whose neighbors have degree 3 via private pendants."""
    g = Graph()
    nxt = k + 2
    for i in range(2, k + 2):
        g.add_edge(1, i)
        for _ in range(2):
            g.add_edge(i, nxt)
            nxt += 1
    return g


def test_expand_degree5_hub_from_empty():
    g = hub_with_degree(5)
    f0 = SubgraphF.empty(g)
    f1 = expand(f0, 1)
    assert f1.cc == 1  # new component
    p0, p1 = leaf_potential(f0), leaf_potential(f1)
    assert (p1.nongoob - p0.nongoob, p1.leaves - p0.leaves, p1.dead_leaves - p0.dead_leaves) == (6, 5, 0)
    assert p1.twice_value - p0.twice_value == 13 - 12  # 6.5 beats the new-component charge of 6


def test_expand_non_leaf_boundary_is_free():
    # cycle with one outward spur: the spur root sits on the boundary
    # without being a leaf, so expanding it can only add leaves
    g = Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 1), (2, 9), (9, 10), (9, 11)])
    f = SubgraphF(g, {1, 2, 3}, [(1, 2), (2, 3)])
    assert 2 in f.boundary() and 2 not in f.leaves
    f2 = expand(f, 2)
    p, p2 = leaf_potential(f), leaf_potential(f2)
    assert f2.cc == f.cc
    assert p2.leaves - p.leaves == 1 and 9 in f2.leaves
    assert p2.twice_value >= p.twice_value


def test_expand_inside_vertex_is_identity():
    g = q3()
    f = expand_many(SubgraphF.empty(g), [1, 2])
    inner = [v for v in f.vertices if all(w in f.vertices for w in g.neighbors(v))]
    if inner:
        assert expand(f, inner[0]) == f


def assert_matches_scratch(f: SubgraphF) -> None:
    """The caches of a grown subgraph equal those of the same subgraph built
    from scratch, its non-goober count equals a recount of the host degrees,
    and so do the potential reports of the two."""
    fresh = SubgraphF(f.host, f.vertices, f.edges)
    assert f.leaves == fresh.leaves
    assert f.dead_leaves == fresh.dead_leaves
    assert f.cc == fresh.cc
    assert f.nongoob == fresh.nongoob == sum(1 for v in f.vertices if f.host.degree(v) > 2)
    assert leaf_potential(f) == leaf_potential(fresh)


def test_expand_deltas_match_recomputation(rng):
    for _ in range(1000):
        g = random_connected(rng.randint(3, 9), rng.randint(0, 6), rng)
        f = SubgraphF.empty(g)
        for _ in range(rng.randint(0, 3)):
            f = expand(f, rng.choice(sorted(g.vertices)))
        v = rng.choice(sorted(g.vertices))
        f2 = expand(f, v)
        assert_matches_scratch(f2)
        if v not in f.vertices:
            assert f2.cc == f.cc + 1 or f2 == f
        newly = f2.vertices - f.vertices - {v}
        assert newly <= f2.leaves | {v}


@pytest.fixture
def checked_growth(monkeypatch):
    """Checks every subgraph that ``with_additions`` returns against a
    from-scratch build, and tallies the growths that add an edge between two
    vertices the subgraph already had."""
    grow = SubgraphF.with_additions
    tally = {"calls": 0, "old_joins": 0}

    def checked(self, new_vertices, new_edges):
        new_vertices, new_edges = list(new_vertices), list(new_edges)
        grown = grow(self, new_vertices, new_edges)
        assert grown.vertices == self.vertices | set(new_vertices)
        assert grown.edges == self.edges | {edge_key(u, v) for u, v in new_edges}
        assert_matches_scratch(grown)
        tally["calls"] += 1
        tally["old_joins"] += any(u in self.vertices and v in self.vertices for u, v in new_edges)
        return grown

    monkeypatch.setattr(SubgraphF, "with_additions", checked)
    return tally


def random_growth(g: Graph, rng: random.Random) -> SubgraphF:
    """A random sequence of the moves the builder makes, plus raw additions of
    host vertices and edges, some of whose edges close cycles or join
    components through a new vertex."""
    f = SubgraphF.empty(g)
    order = sorted(g.vertices)
    for _ in range(rng.randint(1, 8)):
        move = rng.randrange(4)
        if move == 0:
            f = expand(f, rng.choice(order))
        elif move == 1:
            f = expand_many(f, rng.sample(order, min(3, len(order))))
        elif move == 2 and f.vertices and not f.is_spanning():
            f = try_augment(f) or f  # goober attachment comes first
        else:
            vs = f.vertices | {v for v in order if rng.random() < 0.3}
            es = [e for e in set(g.edges()) if e[0] in vs and e[1] in vs and rng.random() < 0.4]
            f = f.with_additions(vs - f.vertices, es)
    return f


def test_incremental_subgraphs_match_scratch(rng, checked_growth):
    for trial in range(300):
        n = rng.randint(2, 10)
        if trial % 2:
            g = random_loopless_multigraph(n, rng.randint(0, 2 * n), rng)
        else:
            g = random_connected(n, rng.randint(0, 2 * n), rng)
        f = random_growth(g, rng)
        f.with_additions(g.vertices - f.vertices, ())
    assert checked_growth["calls"] > 1000 and checked_growth["old_joins"] > 100


def test_greedy_growths_match_scratch(rng, checked_growth, monkeypatch):
    """Every growth the builder makes matches a from-scratch build and keeps
    one tree: it adds a vertex hanging off the subgraph, never an edge
    between two vertices already in it."""
    grow = SubgraphF.with_additions

    def one_tree(self, new_vertices, new_edges):
        grown = grow(self, new_vertices, new_edges)
        assert grown.cc == 1 and len(grown.edges) == len(grown.vertices) - 1
        return grown

    monkeypatch.setattr(SubgraphF, "with_additions", one_tree)
    for _ in range(30):
        greedy_spanning_tree(random_connected(rng.randint(2, 12), rng.randint(0, 8), rng))
    for _ in range(10):
        greedy_spanning_tree(random_loopless_multigraph(rng.randint(2, 10), rng.randint(0, 10), rng))
    greedy_spanning_tree(necklace_ring(3))
    assert checked_growth["calls"] > 1000 and checked_growth["old_joins"] == 0


def test_with_additions_rejects_what_the_host_lacks():
    g = Graph(edges=[(1, 2), (2, 3), (3, 4)])
    f = SubgraphF(g, {1, 2, 3}, [(1, 2)])
    with pytest.raises(GraphError, match="not in host"):
        f.with_additions((), [(1, 3)])  # both endpoints present, no such host edge
    with pytest.raises(GraphError, match="outside the vertex set"):
        f.with_additions((), [(3, 4)])  # a host edge whose endpoint 4 is not added
    with pytest.raises(GraphError, match="vertex 9 not in host"):
        f.with_additions({9}, ())


# -- augmentation ------------------------------------------------------------------


def test_goober_attach_fires():
    g = path(5)
    f = expand(SubgraphF.empty(g), 3)
    f2 = try_augment(f)
    assert f2 is not None
    assert leaf_potential(f2).twice_value >= leaf_potential(f).twice_value
    assert f2.cc == f.cc


def test_two_outside_neighbors_fires():
    g = hub_with_degree(3)
    f = expand(SubgraphF.empty(g), 1)
    f2 = try_augment(f)
    assert f2 is not None and f2.vertices > f.vertices


def test_augment_none_when_nothing_applies():
    # both boundary leaves see a single non-goober degree-3 neighbor and
    # there is no high-degree vertex anywhere
    g = Graph(
        edges=[
            (1, 2), (1, 3), (2, 4),
            (3, 5), (3, 6), (4, 7), (4, 8),
            (5, 6), (5, 7), (6, 8), (7, 8),
        ]
    )
    assert all(g.degree(v) <= 3 for v in g.vertices)
    f = SubgraphF(g, {1, 2}, [(1, 2)])
    assert f.boundary() == {1, 2} and f.leaves == frozenset({1, 2})
    assert try_augment(f) is None


def test_augment_contract_on_fuzz(rng):
    for _ in range(120):
        g = random_connected(rng.randint(4, 10), rng.randint(0, 5), rng)
        f = expand(SubgraphF.empty(g), rng.choice(sorted(g.vertices)))
        for _ in range(4):
            nxt = try_augment(f)
            if nxt is None:
                break
            assert nxt.vertices >= f.vertices and (nxt.vertices, nxt.edges) != (f.vertices, f.edges)
            assert nxt.cc <= f.cc
            assert leaf_potential(nxt).twice_value >= leaf_potential(f).twice_value
            f = nxt


# -- greedy builder ----------------------------------------------------------------


def test_star_tree():
    g = Graph(edges=[(1, i) for i in range(2, 8)])
    edges, rep = greedy_spanning_tree(g)
    assert rep.leaves == 6
    assert verify_spanning_tree(g, sorted(edges))


def test_q3_reaches_optimum():
    edges, rep = greedy_spanning_tree(q3())
    assert rep.leaves >= 4
    assert verify_spanning_tree(q3(), sorted(edges))


def test_g7_reaches_four_leaves():
    edges, rep = greedy_spanning_tree(g7())
    assert rep.leaves == 4
    assert verify_spanning_tree(g7(), sorted(edges))


def test_greedy_outputs_spanning_trees(rng):
    for _ in range(40):
        g = random_connected(rng.randint(2, 12), rng.randint(0, 6), rng)
        edges, rep = greedy_spanning_tree(g)
        assert verify_spanning_tree(g, sorted(edges))
        assert tree_leaf_count(sorted(edges)) == rep.leaves
        if g.n >= 2:
            assert rep.leaves >= 2


def rebuilt_from_scratch(self, new_vertices, new_edges):
    """``with_additions`` as a full construction of the grown subgraph."""
    return SubgraphF(
        self.host,
        self.vertices | set(new_vertices),
        set(self.edges) | {edge_key(u, v) for u, v in new_edges},
    )


def test_incremental_growth_keeps_the_same_trees(rng, monkeypatch):
    graphs = [random_connected(rng.randint(2, 12), rng.randint(0, 8), rng) for _ in range(40)]
    graphs += [necklace_ring(r) for r in range(2, 6)] + [flowerbed(i) for i in (2, 3)]
    grown = [greedy_spanning_tree(g) for g in graphs]
    monkeypatch.setattr(SubgraphF, "with_additions", rebuilt_from_scratch)
    assert [greedy_spanning_tree(g) for g in graphs] == grown


def test_greedy_never_reduces(monkeypatch):
    """The builder grows its tree on the input graph: no reduction runs,
    also on invariant graphs that a rule applies to."""

    def refuse(g):
        raise AssertionError("greedy_spanning_tree reduced its input")

    monkeypatch.setattr(reductions, "reduce_to_irreducible", refuse)
    for g in (random_invariant_graph(12, 3, 0), necklace_ring(3), flowerbed(2)):
        edges, rep = greedy_spanning_tree(g)
        assert verify_spanning_tree(g, sorted(edges)) and rep.leaves == tree_leaf_count(sorted(edges))


def test_greedy_rejects_disconnected():
    g = Graph(edges=[(1, 2), (3, 4)])
    with pytest.raises(GraphError):
        greedy_spanning_tree(g)


def test_heuristic_bound_value():
    assert heuristic_bound(q3()) == Fraction(8, 3) + Fraction(4, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_accepted_extensions_never_lose_potential(seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(3, 9), rng.randint(0, 4), rng)
    f = expand(SubgraphF.empty(g), min(g.vertices))
    nxt = try_augment(f)
    if nxt is not None:
        assert f.vertices < nxt.vertices or f.edges < nxt.edges
        assert leaf_potential(nxt).twice_value >= leaf_potential(f).twice_value
