import itertools
import random

import pytest

from maxleaf.graphs import connected_components, is_connected, n_ge3
from maxleaf import generators
from maxleaf.generators import (
    FLOWERBED_MAX_I,
    NECKLACE_MAX_K,
    RANDOM_MAX_N,
    RING_MAX_K,
    FamilySpec,
    GeneratorError,
    blossom,
    family_names,
    flower,
    flowerbed,
    g7,
    generate,
    necklace,
    necklace_ring,
    q3,
    random_invariant_graph,
)
from maxleaf.patterns import check_invariant, find_2blossoms, find_2necklaces, find_cubic_diamonds
from maxleaf.solver import exact_max_leaves

from conftest import flower_roles, naive_bridges_and_cuts, reference_random_connected


def test_q3_shape():
    g = q3()
    assert g.n == 8 and g.m == 12
    assert all(g.degree(v) == 3 for v in g.vertices)
    # bipartite: 2-color by BFS
    color = {1: 0}
    queue = [1]
    while queue:
        v = queue.pop()
        for w in g.neighbors(v):
            if w not in color:
                color[w] = 1 - color[v]
                queue.append(w)
            else:
                assert color[w] != color[v]


def test_necklace_shape():
    g = necklace(2)
    assert g.n == 7 and g.m == 10
    assert sorted(v for v in g.vertices if g.degree(v) == 2) == [1, 7]
    assert g.degree(4) == 4  # the glued vertex


def test_necklace_param_validation():
    with pytest.raises(GeneratorError):
        necklace(0)
    with pytest.raises(GeneratorError):
        necklace_ring(1)
    with pytest.raises(GeneratorError):
        flowerbed(1)


def test_ring_is_cubic_with_k_diamonds():
    for k in (2, 3, 4):
        g = necklace_ring(k)
        assert g.n == 4 * k
        assert all(g.degree(v) == 3 for v in g.vertices)
        assert len(find_cubic_diamonds(g)) == k


def test_ring_optimum_is_quarter_n_plus_two():
    for k in range(2, 8):
        g = necklace_ring(k)
        assert exact_max_leaves(g)[0] == k + 2


def test_blossom_shape():
    g = blossom()
    assert g.n == 7 and g.m == 10
    assert g.degree(1) == 4
    assert sorted(g.degree(v) for v in g.vertices) == [2, 2, 3, 3, 3, 3, 4]


def test_g7_degree_sequence_and_deletion_property():
    g = g7()
    assert sorted(g.degree(v) for v in g.vertices) == [3, 3, 3, 3, 4, 4, 4]
    assert n_ge3(g) == 7
    deg4 = [v for v in g.vertices if g.degree(v) == 4]
    pairs = [(u, v) for u, v in itertools.combinations(sorted(deg4), 2) if g.has_edge(u, v)]
    assert len(pairs) == 3
    for u, v in pairs:
        h = g.copy()
        h.remove_edge(u, v)
        assert find_2blossoms(h), (u, v)


def test_flower_contract():
    g = flower()
    roles = flower_roles()
    assert g.n == 13
    degs = {v: g.degree(v) for v in g.vertices}
    assert degs[roles["b"]] == 4
    # inside a flowerbed every vertex reaches degree 3; standalone, only the
    # ring ports are one short
    assert degs[roles["g1"]] == 2 and degs[roles["g2"]] == 2
    assert all(degs[v] == 3 for v in g.vertices if v not in (roles["b"], roles["g1"], roles["g2"]))
    _, cuts = naive_bridges_and_cuts(g)
    assert {roles["h"], roles["s"]} <= cuts
    # {f1, f2} is a vertex cut separating the blossom part
    h = g.copy()
    h.remove_vertex(roles["f1"])
    h.remove_vertex(roles["f2"])
    assert len(connected_components(h)) > 1


def test_flowerbed_shape():
    for i in (2, 5):
        g = flowerbed(i)
        assert g.n == 13 * i
        assert is_connected(g)
        assert g.min_degree() == 3
        assert len(find_2blossoms(g)) == i
        assert find_2necklaces(g) == []
    # the joining cycle through the ring ports has length 2i
    g = flowerbed(5)
    ports = [v for j in range(5) for v in (flower_roles(j)["g1"], flower_roles(j)["g2"])]
    assert len(ports) == 10
    sub_edges = [
        (u, v) for u in ports for v in ports if u < v and g.has_edge(u, v)
    ]
    assert len(sub_edges) == 10  # a single 10-cycle
    deg = {v: 0 for v in ports}
    for u, v in sub_edges:
        deg[u] += 1
        deg[v] += 1
    assert all(d == 2 for d in deg.values())


def test_generate_dispatch_and_names():
    assert set(family_names()) == {
        "blossom", "flower", "flowerbed", "g7", "necklace", "necklace-ring", "q3", "random",
    }
    assert generate(FamilySpec("q3")) == q3()
    assert generate(FamilySpec("necklace", k=2)) == necklace(2)
    with pytest.raises(GeneratorError):
        generate(FamilySpec("unknown"))


def test_random_generator_respects_contract():
    for i in range(100):
        target = 3 if i % 2 == 0 else 2
        g = random_invariant_graph(12, target, seed=i)
        assert is_connected(g)
        assert check_invariant(g).ok
        if target == 3:
            assert g.min_degree() >= 3


def test_random_generator_deterministic():
    a = random_invariant_graph(10, 3, seed=7)
    b = random_invariant_graph(10, 3, seed=7)
    assert a == b
    c = random_invariant_graph(10, 3, seed=8)
    assert a != c or a.edge_multiset() == c.edge_multiset()


@pytest.mark.parametrize(
    "build, family, top, size",
    [
        (necklace, "necklace", NECKLACE_MAX_K, lambda k: 3 * k + 1),
        (necklace_ring, "necklace-ring", RING_MAX_K, lambda k: 4 * k),
        (flowerbed, "flowerbed", FLOWERBED_MAX_I, lambda i: 13 * i),
    ],
)
def test_family_parameter_above_its_maximum_is_refused(monkeypatch, build, family, top, size):
    # the maximum is the largest parameter whose graph has at most
    # RANDOM_MAX_N vertices; one above it is refused before a graph is made
    assert size(top) <= RANDOM_MAX_N < size(top + 1)

    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(generators, "Graph", no_graph)
    for param in (top + 1, 10**9):
        with pytest.raises(GeneratorError, match=f"<= {top}"):
            build(param)
        with pytest.raises(GeneratorError, match=f"<= {top}"):
            generate(FamilySpec(family, k=param))


def test_random_generator_param_validation():
    with pytest.raises(GeneratorError):
        random_invariant_graph(3, 3, seed=0)
    with pytest.raises(GeneratorError):
        random_invariant_graph(8, 5, seed=0)
    with pytest.raises(GeneratorError):  # refused before any vertex is made
        random_invariant_graph(RANDOM_MAX_N + 1, 3, seed=0)


def test_random_sampler_draws_what_the_rebuilding_reference_draws():
    """The sampler gives the reference's edges and leaves its random source
    in the reference's state, so the invariant repair that follows, and
    every seeded random_invariant_graph, are unchanged: on each first
    attempt of the corpus below, then on 300 draws in a row from one source."""
    for n in [*range(4, 121), 200, 333, 500]:
        for target in (2, 3):
            for seed in range(5):
                rng, ref_rng = (random.Random((n, target, seed).__repr__()) for _ in range(2))
                got = generators._random_connected(n, target, rng)
                want = reference_random_connected(n, target, ref_rng)
                assert sorted(got.edges()) == sorted(want.edges()), (n, target, seed)
                assert rng.getstate() == ref_rng.getstate(), (n, target, seed)
    rng, ref_rng = random.Random(7), random.Random(7)
    for i in range(300):
        n, target = 4 + i % 57, 2 + i % 2
        got = generators._random_connected(n, target, rng)
        want = reference_random_connected(n, target, ref_rng)
        assert sorted(got.edges()) == sorted(want.edges()), i
    assert rng.getstate() == ref_rng.getstate()
