import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf.graphs import Graph
from maxleaf.generators import blossom, flowerbed, g7, necklace, necklace_ring, q3
from maxleaf.patterns import (
    check_invariant,
    find_2blossoms,
    find_2necklaces,
    find_2terminal,
    find_cubic_diamonds,
)

from conftest import (
    brute_2blossoms,
    brute_cubic_diamonds,
    plant_chain,
    random_connected,
    random_loopless_multigraph,
    reference_2necklaces,
    verify_match,
)


# -- cubic diamonds -----------------------------------------------------------------


def test_k4_has_no_cubic_diamond():
    k4 = Graph(edges=[(u, v) for u, v in itertools.combinations(range(1, 5), 2)])
    assert find_cubic_diamonds(k4) == []


def test_q3_has_no_cubic_diamond():
    assert find_cubic_diamonds(q3()) == []


def test_pendant_grown_diamond_detected():
    # diamond 1..4 with connectors 1, 4; pendants lift everyone to degree 3
    g = Graph(edges=[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 5), (4, 6)])
    found = find_cubic_diamonds(g)
    assert len(found) == 1
    assert found[0].vertex_set() == frozenset({1, 2, 3, 4})
    assert set(found[0].terminals) == {1, 4}
    # raising a connector above degree 3 kills the match
    g.add_edge(1, 6)
    assert find_cubic_diamonds(g) == []


def test_ring_contains_k_cubic_diamonds():
    assert len(find_cubic_diamonds(necklace_ring(3))) == 3


# -- 2-necklaces -------------------------------------------------------------------


def test_closed_necklace_reports_maximal_k():
    g = necklace(2)
    g.add_edge(1, 7)
    found = find_2necklaces(g)
    assert len(found) == 1
    assert found[0].k == 2
    assert found[0].vertex_set() == frozenset(range(1, 8))


def test_q3_and_flowerbed_have_no_necklace():
    assert find_2necklaces(q3()) == []
    assert find_2necklaces(flowerbed(2)) == []


def test_open_necklace_needs_degree_3_terminals():
    # bare necklace: chain ends have degree 2, so no 2-necklace
    assert find_2necklaces(necklace(3)) == []
    # give each end a pendant: ends reach degree 3
    g = necklace(3)
    ends = [v for v in g.vertices if g.degree(v) == 2]
    base = max(g.vertices)
    for i, v in enumerate(ends, start=1):
        g.add_edge(v, base + i)
    found = find_2necklaces(g)
    assert [m.k for m in found] == [3]


def test_no_necklace_is_contained_in_another():
    g = necklace(3)
    ends = [v for v in g.vertices if g.degree(v) == 2]
    base = max(g.vertices)
    for i, v in enumerate(ends, start=1):
        g.add_edge(v, base + i)
    found = find_2necklaces(g)
    for a, b in itertools.permutations(found, 2):
        assert not (a.vertex_set() < b.vertex_set())


def test_necklace_walk_matches_two_pass_reference():
    rng = random.Random(20)
    graphs = []
    for _ in range(300):
        g = random_connected(rng.randint(2, 24), rng.randint(0, 30), rng)
        for _ in range(rng.randint(0, 2)):
            plant_chain(g, rng.randint(1, 5), rng)
        graphs.append(g)
    graphs += [random_loopless_multigraph(rng.randint(2, 16), rng.randint(0, 24), rng) for _ in range(100)]
    # closed cycles of blocks: the last connector glued onto the first
    for k in range(2, 6):
        g = necklace(k)
        for w in g.neighbors(3 * k + 1):
            g.add_edge(1, w)
        g.remove_vertex(3 * k + 1)
        graphs.append(g)
    chain_lengths = set()
    for trial, g in enumerate(graphs):
        found = find_2necklaces(g)
        assert found == reference_2necklaces(g), trial
        chain_lengths.update(m.k for m in found)
    assert {1, 2, 3, 4, 5} <= chain_lengths


# -- 2-blossoms ---------------------------------------------------------------------


def test_g7_minus_triangle_edge_yields_one_2blossom():
    g = g7()
    g.remove_edge(2, 5)  # the edge between the two degree-4 triangle vertices
    found = find_2blossoms(g)
    assert len(found) == 1
    assert set(found[0].terminals) == {6, 7}


def test_g7_itself_has_none():
    assert find_2blossoms(g7()) == []


def test_flowerbed_has_one_per_flower():
    assert len(find_2blossoms(flowerbed(2))) == 2
    assert len(find_2blossoms(flowerbed(3))) == 3


# -- two-terminal variants --------------------------------------------------------------


def test_necklace_decomposes_into_two_terminal_diamonds():
    for k in (1, 2, 3):
        g = necklace(k)
        ends = [v for v in g.vertices if g.degree(v) == 2]
        base = max(g.vertices)
        for i, v in enumerate(ends, start=1):
            g.add_edge(v, base + i)
        found = find_2terminal(g, "2-terminal-diamond")
        assert len(found) == k


def test_g7_minus_edge_has_one_two_terminal_blossom():
    g = g7()
    g.remove_edge(2, 5)
    found = find_2terminal(g, "2-terminal-blossom")
    assert len(found) == 1
    assert g7().degree(6) == 3  # terminals have arbitrary degree in general


def test_two_terminal_diamond_with_high_degree_ends():
    # diamond between hubs of degree 5
    g = Graph()
    for hub in (1, 2):
        for leaf in range(10 * hub, 10 * hub + 3):
            g.add_edge(hub, leaf)
    for e in [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        g.add_edge(*e)
    found = find_2terminal(g, "2-terminal-diamond")
    assert len(found) == 1
    assert set(found[0].terminals) == {1, 2}
    assert g.degree(1) == 5 and g.degree(2) == 5


def test_diamond_component_is_not_two_terminal():
    g = Graph(edges=[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert find_2terminal(g, "2-terminal-diamond") == []


# -- invariant ----------------------------------------------------------------------


def test_k2_plus_e_satisfies_invariant():
    g = Graph(edges=[(1, 2), (1, 2)])
    assert check_invariant(g).ok


def test_triple_edge_violates_invariant():
    g = Graph(edges=[(1, 2), (1, 2), (1, 2)])
    rep = check_invariant(g)
    assert not rep.ok and rep.violated_clause == "multi-edge"


def test_loop_violates_invariant():
    # a single loop is no parallel edge, but the component is not simple
    g = Graph(edges=[(1, 2), (2, 3), (3, 1), (1, 1)])
    rep = check_invariant(g)
    assert not rep.ok and rep.violated_clause == "multi-edge"


def test_necklace_witness():
    g = necklace(2)
    g.add_edge(1, 7)
    rep = check_invariant(g)
    assert not rep.ok
    assert rep.violated_clause == "2-necklace"
    assert rep.witness.k == 2


def test_blossom_witness():
    g = g7()
    g.remove_edge(2, 5)
    rep = check_invariant(g)
    assert not rep.ok and rep.violated_clause == "2-blossom"


def test_q3_satisfies_invariant():
    assert check_invariant(q3()).ok


def test_component_without_goober_fails():
    g = Graph(edges=[(1, 2), (2, 3), (1, 3)])  # triangle: goobers, fine
    g2 = Graph(edges=list(q3().edges()) + [(20, 21)])
    rep = check_invariant(g2)
    assert not rep.ok and rep.violated_clause == "component-without-goober"
    assert check_invariant(g).ok


def test_ring_violates_via_necklace():
    rep = check_invariant(necklace_ring(3))
    assert not rep.ok and rep.violated_clause == "2-necklace"


# -- soundness and completeness ------------------------------------------------------------


def test_detector_soundness_on_fuzz(rng):
    for trial in range(80):
        g = random_connected(rng.randint(4, 12), rng.randint(0, 6), rng)
        for m in (
            find_cubic_diamonds(g)
            + find_2necklaces(g)
            + find_2blossoms(g)
            + find_2terminal(g, "2-terminal-diamond")
            + find_2terminal(g, "2-terminal-blossom")
        ):
            assert verify_match(g, m), (trial, m)


def test_cubic_diamond_completeness_vs_brute(rng):
    from conftest import plant_diamond

    hits = 0
    for trial in range(300):
        g = random_connected(rng.randint(4, 7), rng.randint(0, 5), rng)
        if trial % 3 == 0:
            g = plant_diamond(g, rng)
        mine = {m.vertex_set() for m in find_cubic_diamonds(g)}
        brute = brute_cubic_diamonds(g)
        assert mine == brute, trial
        hits += bool(brute)
    assert hits > 5  # the sample really exercises the detector


def test_blossom_completeness_vs_brute(rng):
    # seeded blossoms with occasional corruption, plus raw random graphs
    hits = 0
    for trial in range(60):
        if trial % 2 == 0:
            g = blossom()
            base = 7
            for v in (6, 7):  # lift the terminals to degree 3
                base += 1
                g.add_edge(v, base)
            if trial % 4 == 0:
                u, v = sorted(rng.sample(sorted(g.vertices), 2))
                if not g.has_edge(u, v):
                    g.add_edge(u, v)
        else:
            g = random_connected(rng.randint(7, 9), rng.randint(2, 6), rng)
        mine = {m.vertex_set() for m in find_2blossoms(g)}
        assert mine == brute_2blossoms(g), trial
        hits += bool(mine)
    assert hits >= 10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_necklace_matches_verify_and_are_maximal(seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(4, 10), rng.randint(0, 4), rng)
    if rng.random() < 0.5:
        from conftest import plant_diamond

        g = plant_diamond(g, rng)
    found = find_2necklaces(g)
    for m in found:
        assert verify_match(g, m)
    for a, b in itertools.permutations(found, 2):
        assert not (a.vertex_set() < b.vertex_set())


def test_match_json_shape():
    g = g7()
    g.remove_edge(2, 5)
    d = find_2blossoms(g)[0].to_json_dict()
    assert set(d) == {"kind", "vertices", "terminals"}
    assert d["kind"] == "2-blossom" and len(d["vertices"]) == 7
