import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf.graphs import Graph, GraphError, n_ge3
from maxleaf import potential, reductions
from maxleaf.generators import flowerbed, g7, necklace_ring, q3, random_invariant_graph
from maxleaf.potential import (
    GreedyTree,
    PotentialReport,
    expand,
    greedy_spanning_tree,
    heuristic_bound,
    leaf_potential,
    try_augment,
)
from maxleaf.solver import tree_leaf_count, verify_spanning_tree

from conftest import (
    assert_tree_matches_reference,
    random_connected,
    random_loopless_multigraph,
    reference_greedy,
    reference_potential,
    tree_edges,
    tree_state,
)


def path(n):
    return Graph(edges=[(i, i + 1) for i in range(1, n)])


def tree(g, first, *hangs):
    """A ``GreedyTree`` of g from ``first`` and (vertex, parent) additions."""
    t = GreedyTree(g)
    t.add(first)
    for v, parent in hangs:
        t.add(v, parent)
    return t


def random_tree(g: Graph, rng: random.Random) -> GreedyTree:
    """A tree grown from a random vertex by random expansions and random
    single vertices hung off the boundary."""
    t = GreedyTree(g)
    expand(t, rng.choice(sorted(g.vertices)))
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.5:
            expand(t, rng.choice(sorted(t.vertices)))
        elif t.boundary():
            w = rng.choice(sorted(t.boundary()))
            t.add(rng.choice(sorted(g.neighbors(w) - t.vertices.keys())), w)
    return t


# -- potential arithmetic ---------------------------------------------------------


def test_empty_subgraph_has_zero_potential():
    rep = leaf_potential(GreedyTree(q3()))
    assert rep.twice_value == 0 and rep.cc == 0


def test_path4_spanning_potential_is_zero():
    g = path(4)
    t = GreedyTree(g)
    expand(t, 2)
    expand(t, 3)
    rep = leaf_potential(t)
    assert tree_edges(t) == {(1, 2), (2, 3), (3, 4)}
    assert (rep.leaves, rep.dead_leaves, rep.nongoob, rep.cc) == (2, 2, 0, 1)
    assert rep.twice_value == 0
    assert rep.value == 0


def test_spanning_forest_formula():
    # spanning tree: potential reduces to 3*leaves - high-degree count - 6
    g = q3()
    t = tree(g, 1, (2, 1), (3, 1), (5, 1), (4, 2), (7, 3), (6, 5), (8, 4))
    rep = leaf_potential(t)
    assert rep.dead_leaves == rep.leaves and rep.cc == 1
    assert rep.twice_value == 2 * (3 * rep.leaves - n_ge3(g) - 6)


def test_potential_is_exact_half_integers(rng):
    for _ in range(50):
        g = random_connected(rng.randint(3, 9), rng.randint(0, 5), rng)
        t = random_tree(g, rng)
        rep = leaf_potential(t)
        assert isinstance(rep.twice_value, int)
        assert rep.value == Fraction(rep.twice_value, 2)
        assert rep.dead_leaves <= rep.leaves
        assert rep.nongoob <= len(t.vertices)
        assert rep.twice_value == reference_potential(g, t.vertices, tree_edges(t))[3]


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
    t = GreedyTree(g)
    p0 = leaf_potential(t)
    expand(t, 1)
    p1 = leaf_potential(t)
    assert p1.cc == 1  # the tree's one component
    assert (p1.nongoob - p0.nongoob, p1.leaves - p0.leaves, p1.dead_leaves - p0.dead_leaves) == (6, 5, 0)
    assert p1.twice_value - p0.twice_value == 13 - 12  # 6.5 beats the component charge of 6


def test_expand_non_leaf_boundary_is_free():
    # cycle with one outward spur: the spur root sits on the boundary
    # without being a leaf, so expanding it can only add leaves
    g = Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 1), (2, 9), (9, 10), (9, 11)])
    t = tree(g, 1, (2, 1), (3, 2))
    assert 2 in t.boundary() and 2 not in t.leaves
    p = leaf_potential(t)
    expand(t, 2)
    p2 = leaf_potential(t)
    assert p2.leaves - p.leaves == 1 and 9 in t.leaves
    assert p2.twice_value >= p.twice_value


def test_expand_isolated_vertex(checked_growth):
    # a vertex with no edges has no degree entry in its graph
    t = GreedyTree(Graph(vertices=[1, 2]))
    expand(t, 1)
    assert list(t.vertices) == [1] and not t.leaves and t.boundary() == []
    t.undo(0)
    assert checked_growth == {"add": 1, "undo": 1}


def test_expand_inside_vertex_is_identity():
    g = q3()
    t = GreedyTree(g)
    expand(t, 1)
    expand(t, 2)
    inner = [v for v in t.vertices if g.neighbors(v) <= t.vertices.keys()]
    assert inner
    before = tree_state(t)
    expand(t, inner[0])
    assert tree_state(t) == before


def test_expand_deltas_match_recomputation(rng):
    for _ in range(1000):
        g = random_connected(rng.randint(3, 9), rng.randint(0, 6), rng)
        t = random_tree(g, rng)
        assert_tree_matches_reference(t)
        v = rng.choice(sorted(g.vertices))
        before, old = tree_state(t), set(t.vertices)
        if v not in t.vertices:
            with pytest.raises(GraphError, match="not in the tree"):
                expand(t, v)
            assert tree_state(t) == before
            continue
        expand(t, v)
        assert_tree_matches_reference(t)
        assert set(t.vertices) - old <= t.leaves
        assert all(t.vertices[w] == v for w in set(t.vertices) - old)


def test_incremental_subgraphs_match_scratch(rng, checked_growth):
    """Random additions and take-backs, on simple graphs and multigraphs,
    each checked against the count from scratch."""
    for trial in range(300):
        n = rng.randint(2, 10)
        if trial % 2:
            g = random_loopless_multigraph(n, rng.randint(0, 2 * n), rng)
        else:
            g = random_connected(n, rng.randint(0, 2 * n), rng)
        t = random_tree(g, rng)
        for _ in range(rng.randint(1, 4)):
            t.undo(rng.randint(0, len(t.vertices)))
            if not t.vertices:
                t.add(rng.choice(sorted(g.vertices)))
            if t.boundary():
                expand(t, rng.choice(t.boundary()))
    assert checked_growth["add"] > 1000 and checked_growth["undo"] > 500


def test_undo_requeues_the_vertices_it_reopens(rng):
    """The moves pop heap entries that have gone stale; a take-back that
    makes such a vertex a boundary vertex again queues it again."""
    for _ in range(60):
        g = random_connected(rng.randint(3, 12), rng.randint(0, 8), rng)
        t = potential._greedy_from(g, rng.choice(sorted(g.vertices)))
        t.undo(rng.randint(1, g.n - 1))
        assert_tree_matches_reference(t)


def test_scoring_a_candidate_leaves_the_tree_as_it_was(rng):
    """Expanding a boundary vertex and taking it back restores every field
    of the tree, orders included; so does an augmentation that finds no
    move."""
    nothing = 0
    for _ in range(200):
        g = random_connected(rng.randint(2, 12), rng.randint(0, 8), rng)
        t = random_tree(g, rng)
        before, size = tree_state(t), len(t.vertices)
        for w in t.boundary():
            expand(t, w)
            leaf_potential(t)
            t.undo(size)
            assert tree_state(t) == before
        if try_augment(t) is None:
            nothing += 1
            assert tree_state(t) == before
    assert nothing > 20


def test_greedy_growths_match_scratch(rng, checked_growth):
    """Every addition and take-back the builder makes leaves one tree whose
    counts match a count from scratch. The builder takes a move back only
    when it refuses a pull toward a vertex of degree 4 or more: on a cycle
    with every edge doubled, each pull adds one leaf and loses one, and two
    more non-goobers lower the potential."""
    for _ in range(30):
        greedy_spanning_tree(random_connected(rng.randint(2, 12), rng.randint(0, 8), rng))
    for _ in range(10):
        greedy_spanning_tree(random_loopless_multigraph(rng.randint(2, 10), rng.randint(0, 10), rng))
    greedy_spanning_tree(necklace_ring(3))
    greedy_spanning_tree(Graph(edges=[(i, i % 8 + 1) for i in range(1, 9)] * 2))
    assert checked_growth["add"] > 1000 and checked_growth["undo"] > 100


# -- augmentation ------------------------------------------------------------------


def test_two_outside_neighbors_fires():
    g = hub_with_degree(3)
    t = GreedyTree(g)
    expand(t, 1)
    old = set(t.vertices)
    assert try_augment(t) is t and set(t.vertices) > old


def test_one_vertex_tree_with_one_outside_neighbor_expands():
    """A tree of one vertex has no leaf, so its single outside neighbour is
    hung off it without scoring, as a boundary scan would."""
    t = GreedyTree(path(3))
    t.add(1)
    assert try_augment(t) is t and t.vertices == {1: None, 2: 1}
    assert_tree_matches_reference(t)


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
    t = tree(g, 1, (2, 1))
    assert sorted(t.boundary()) == [1, 2] and t.leaves == {1, 2}
    before = tree_state(t)
    assert try_augment(t) is None
    assert tree_state(t) == before


def test_augment_contract_on_fuzz(rng):
    for _ in range(120):
        g = random_connected(rng.randint(4, 10), rng.randint(0, 5), rng)
        t = GreedyTree(g)
        expand(t, rng.choice(sorted(g.vertices)))
        for _ in range(4):
            old, base = set(t.vertices), leaf_potential(t).twice_value
            if try_augment(t) is None:
                break
            assert set(t.vertices) > old
            assert leaf_potential(t).twice_value >= base
            assert_tree_matches_reference(t)


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


def scratch_potential(t: GreedyTree) -> PotentialReport:
    """``leaf_potential`` counted from scratch."""
    leaves, dead, nongoob, twice = reference_potential(t.host, t.vertices, tree_edges(t))
    return PotentialReport(len(leaves), len(dead), nongoob, min(len(t.vertices), 1), twice)


def test_incremental_growth_keeps_the_same_trees(rng, monkeypatch):
    graphs = [random_connected(rng.randint(2, 12), rng.randint(0, 8), rng) for _ in range(40)]
    graphs += [necklace_ring(r) for r in range(2, 6)] + [flowerbed(i) for i in (2, 3)]
    grown = [greedy_spanning_tree(g) for g in graphs]
    monkeypatch.setattr(potential, "leaf_potential", scratch_potential)
    assert [greedy_spanning_tree(g) for g in graphs] == grown


def test_greedy_matches_the_boundary_scan(rng):
    """The queued moves make the trees the whole-boundary scan makes, with
    the same potential: on sparse graphs with degree-1 vertices, on
    multigraphs whose parallel edges make vertices of degree 4, and on the
    named and random invariant families."""
    graphs = [random_connected(n, rng.randint(0, n), rng) for n in range(2, 31) for _ in range(2)]
    graphs += [random_loopless_multigraph(n, rng.randint(0, 2 * n), rng) for n in range(2, 16) for _ in range(2)]
    graphs += [necklace_ring(r) for r in range(2, 9)] + [flowerbed(i) for i in range(2, 5)]
    graphs += [random_invariant_graph(n, t, s) for n in (12, 24, 40, 60) for t in (2, 3) for s in (0, 1)]
    assert any(g.min_degree() == 1 for g in graphs)
    assert any(not g.is_simple() and max(map(g.degree, g.vertices)) >= 4 for g in graphs)
    for g in graphs:
        assert greedy_spanning_tree(g) == reference_greedy(g)


def test_greedy_output_is_pinned():
    """The builder's trees on the named families and the first random
    invariant graphs: their leaf counts, and for g7 and q3, whose trees a
    changed tie-break alters, their edges. Each is a spanning tree whose
    leaves are all dead and whose non-goobers are the host's, so its
    potential follows from its leaf count."""
    assert greedy_spanning_tree(g7())[0] == {(1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 7)}
    assert greedy_spanning_tree(q3())[0] == {(1, 2), (1, 3), (1, 5), (2, 4), (2, 6), (3, 7), (4, 8)}
    named = [g7(), q3()] + [necklace_ring(r) for r in range(2, 7)] + [flowerbed(i) for i in (2, 3)]
    cases = list(zip(named, [4, 4, 4, 5, 6, 7, 8, 10, 14]))
    for t, leaves in ((2, [6, 11, 13, 18]), (3, [8, 15, 18, 23])):
        cases += [(random_invariant_graph(n, t, 0), k) for n, k in zip((12, 20, 28, 36), leaves)]
    for g, leaves in cases:
        edges, rep = greedy_spanning_tree(g)
        assert verify_spanning_tree(g, sorted(edges)) and tree_leaf_count(edges) == leaves
        assert rep == PotentialReport(leaves, leaves, n_ge3(g), 1, 6 * leaves - 2 * n_ge3(g) - 12)


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
    t = GreedyTree(g)
    expand(t, min(g.vertices))
    old, base = set(t.vertices), leaf_potential(t).twice_value
    if try_augment(t) is not None:
        assert old < set(t.vertices)
        assert leaf_potential(t).twice_value >= base
