import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf import graphs, solver
from maxleaf.graphs import Graph, GraphError, graph_leaves, parse_graph, suppress, vertices_ge3
from maxleaf.generators import flower, flowerbed, g7, necklace, necklace_ring, q3, random_invariant_graph
from maxleaf.solver import (
    CapacityError,
    SolveStats,
    achievable_leaves,
    exact_max_leaves,
    forced_leaf_feasible,
    forced_leaf_tree,
    fpt_decide,
    tree_leaf_count,
    verify_spanning_tree,
)

from conftest import (
    brute_max_leaves,
    combination_cds_oracle,
    exhaustive_forced_search,
    plant_blossom,
    plant_diamond,
    random_connected,
    random_loopless_multigraph,
    random_multigraph,
    reach_mask,
    reference_exact,
    reference_forced_feasible,
    spanning_trees,
    tree_leaves,
)


# -- exact oracle ------------------------------------------------------------------


def test_exact_g7():
    best, tree = exact_max_leaves(g7())
    assert best == 4
    assert verify_spanning_tree(g7(), tree) and tree_leaf_count(tree) == 4


def test_exact_q3():
    assert exact_max_leaves(q3())[0] == 4


def test_exact_ring3():
    g = necklace_ring(3)
    assert g.n == 12
    assert exact_max_leaves(g)[0] == 5  # n/4 + 2


def test_exact_k2():
    assert exact_max_leaves(Graph(edges=[(1, 2)]))[0] == 2


def test_exact_capacity_cap():
    g = Graph(edges=[(i, i + 1) for i in range(1, 40)])
    with pytest.raises(CapacityError):
        exact_max_leaves(g)
    assert exact_max_leaves(g, cap=50)[0] == 2


def test_exact_requires_connected():
    with pytest.raises(GraphError):
        exact_max_leaves(Graph(edges=[(1, 2), (3, 4)]))


def test_huge_declared_n_fails_after_one_walk(monkeypatch):
    # the connectivity test walks one component; it lists no others
    def refuse(g):
        raise AssertionError("connectivity test listed every component")

    monkeypatch.setattr(graphs, "connected_components", refuse)
    g = parse_graph("p 200000 0\n")
    with pytest.raises(GraphError, match="connected"):
        fpt_decide(g, 3)


def test_too_few_edges_fail_without_a_walk():
    # a connected graph needs n - 1 edges; with fewer no vertex is listed
    g = parse_graph("p 200000 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="connected"):
            fpt_decide(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_exact_matches_brute_force(rng):
    for _ in range(50):
        g = random_connected(rng.randint(2, 8), rng.randint(0, 4), rng)
        mine, tree = exact_max_leaves(g)
        assert mine == brute_max_leaves(g)
        assert verify_spanning_tree(g, tree)
        assert tree_leaf_count(tree) == mine


def _oracle_differential_graphs():
    rng = random.Random(0xD1FF)
    out = []
    for n in range(2, 13):
        most = n * (n - 1) // 2 - (n - 1)
        for share in (0, 0.1, 0.25, 0.5, 0.75, 1):
            out += [random_connected(n, round(share * most), rng) for _ in range(2)]
    while len(out) < 250:  # loop-free multigraphs
        n = rng.randint(3, 10)
        g = random_multigraph(n, rng.randint(n, 3 * n), rng)
        g = Graph(g.vertices, [e for e in g.edges() if e[0] != e[1]])
        if graphs.is_connected(g):
            out.append(g)
    for n in range(2, 13):
        out.append(Graph(edges=itertools.combinations(range(1, n + 1), 2)))  # K_n
        out.append(Graph(edges=[(1, v) for v in range(2, n + 1)]))  # star
        out.append(Graph(edges=[(v, v + 1) for v in range(1, n)]))  # path
        if n >= 3:
            out.append(Graph(edges=[(v, v % n + 1) for v in range(1, n + 1)]))  # cycle
        if n >= 4:  # wheel: hub 1 on the cycle 2..n
            out.append(Graph(edges=[(1, v) for v in range(2, n + 1)] + [(v, v + 1) for v in range(2, n)] + [(n, 2)]))
    out += [g7(), q3(), flower(), necklace(4), necklace(5)] + [necklace_ring(k) for k in (2, 3, 4)]
    return out


def test_exact_matches_combination_search():
    cases = _oracle_differential_graphs()
    assert len(cases) >= 300
    for g in cases:
        assert exact_max_leaves(g) == combination_cds_oracle(g), sorted(g.edges())


def test_exact_search_memory_stays_small():
    # every clique vertex carries a pendant, so the whole clique is the only
    # connected dominating set. The oracle takes it at once, as the cut
    # vertices; the enumerator without them searches every smaller size out
    g = Graph(edges=list(itertools.combinations(range(1, 11), 2)) + [(v, v + 10) for v in range(1, 11)])
    adj = _position_masks(g)
    caps = solver._caps(a.bit_count() for a in adj)
    sizes = range(solver._fewest_internal(g.n, caps), 11)
    tracemalloc.start()
    try:
        best, tree = exact_max_leaves(g)
        found = [next(solver._connected_sets(adj, caps, size, lex_first=True), 0) for size in sizes]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert best == 10 and verify_spanning_tree(g, tree)
    assert len(sizes) > 5 and found == [0] * (len(sizes) - 1) + [(1 << 10) - 1]
    assert peak < 500_000


def test_exact_long_path_above_default_cap():
    g = Graph(edges=[(v, v + 1) for v in range(1, 1500)])
    best, tree = exact_max_leaves(g, cap=2000)
    assert best == 2 and verify_spanning_tree(g, tree)


def test_exact_matches_the_unpruned_search(rng):
    """The oracle drops the branches that cannot beat the set in hand, and
    still gives the value and tree of the search that compares every set,
    on graphs up to n = 28 where the combinations search is too slow."""
    graphs = [necklace_ring(r) for r in range(4, 7)] + [necklace(6), necklace(7)]
    graphs += [random_invariant_graph(n, t, n % 3) for n in range(13, 27) for t in (2, 3)]
    trees = [random_connected(rng.randint(10, 24), rng.randint(0, 8), rng) for _ in range(40)]
    graphs += [g for g in trees if g.min_degree() == 1][:12]
    graphs.append(random_loopless_multigraph(16, 30, rng))
    assert not graphs[-1].is_simple()
    # the oracle fixes the cut vertices in every set; the reference does not
    cut = [random_connected(n, rng.randint(0, 4), rng) for n in range(17, 25) for _ in range(2)]
    cut += [random_invariant_graph(n, 2, s) for n in range(17, 25) for s in (0, 1)]
    assert all(solver._cut_vertices(_position_masks(g)) for g in cut)
    for g in graphs + cut:
        assert exact_max_leaves(g) == reference_exact(g), sorted(g.edges())


def test_cut_vertices_match_removing_each_vertex():
    """A position is reported iff the rest of the graph falls apart without
    it: on the differential corpus, one edge, a path, a star, a chain of
    triangles joined by bridges, a bowtie whose lowest vertex is its only
    cut vertex (the walk's root), and a multigraph with a parallel edge and
    a loop at its cut vertices."""
    cases = _oracle_differential_graphs() + [
        Graph(edges=[(1, 2)]),
        Graph(edges=[(v, v + 1) for v in range(1, 9)]),
        Graph(edges=[(1, v) for v in range(2, 9)]),
        Graph(edges=[(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4), (6, 7)]),
        Graph(edges=[(1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 1)]),
        Graph(edges=[(1, 2), (2, 3), (2, 3), (3, 3), (3, 4), (4, 5), (5, 3)]),
    ]
    for g in cases:
        adj = _position_masks(g)
        full = (1 << g.n) - 1
        expected = 0
        for p in range(g.n):
            rest = full ^ 1 << p
            if reach_mask(adj, rest & -rest, rest) != rest:
                expected |= 1 << p
        assert solver._cut_vertices(adj) == expected, sorted(g.edges())
    assert solver._cut_vertices(_position_masks(cases[-2])) == 1
    assert solver._cut_vertices(_position_masks(cases[-1])) == 0b110


class _CountedReads(list):
    """Neighbour masks that count their reads: one per member a search adds,
    and one for the root."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def _position_masks(g: Graph) -> _CountedReads:
    """Neighbour mask per position, the i-th smallest vertex at position i."""
    idx = {v: i for i, v in enumerate(sorted(g.vertices))}
    adj = [0] * g.n
    for u, w in g.simple_edges():
        adj[idx[u]] |= 1 << idx[w]
        adj[idx[w]] |= 1 << idx[u]
    return _CountedReads(adj)


def test_oracle_grows_every_set_from_a_cut_vertex(monkeypatch):
    # random_invariant_graph(30, 2, 6) has cut vertices, so every set grows
    # from one root and holds them all: 482 mask reads, where starting at the
    # degree bound with every root took 855,193
    calls = []
    enumerate_sets = solver._connected_sets

    def counted(adj, *args, **kwargs):
        calls.append(_CountedReads(adj))
        return enumerate_sets(calls[-1], *args, **kwargs)

    monkeypatch.setattr(solver, "_connected_sets", counted)
    g = random_invariant_graph(30, 2, 6)
    best, tree = exact_max_leaves(g)
    assert best == 14 and verify_spanning_tree(g, tree) and tree_leaf_count(tree) == 14
    assert sum(adj.reads for adj in calls) <= 1_000


def test_lex_first_yields_the_lexicographically_first_set():
    def lex_key(m: int) -> list[bool]:  # the set holding the lowest differing bit sorts first
        return [not m >> p & 1 for p in range(16)]

    # random_invariant_graph(16, 3, 1) has eight connected dominating sets of
    # 5 members, the oracle's size; the first found is not the answer
    adj = _position_masks(random_invariant_graph(16, 3, 1))
    caps = solver._caps(a.bit_count() for a in adj)
    every = list(solver._connected_sets(adj, caps, 5))
    yielded = list(solver._connected_sets(adj, caps, 5, lex_first=True))
    assert len(every) == 8 and yielded == [min(every, key=lex_key)] != every[:1]


def test_lex_first_drops_the_branches_that_cannot_win():
    # random_invariant_graph(17, 2, 1) has one set of 8 members, grown from
    # position 2 after roots 0 and 1 are refuted in the same call: 395 reads
    # with the prune, 711 when every branch is walked to its end
    adj = _position_masks(random_invariant_graph(17, 2, 1))
    caps = solver._caps(a.bit_count() for a in adj)
    assert len(list(solver._connected_sets(adj, caps, 8, lex_first=True))) == 1
    pruned, adj.reads = adj.reads, 0
    assert len(list(solver._connected_sets(adj, caps, 8))) == 1
    assert pruned <= 395 and adj.reads >= 711


def test_connected_sets_yield_each_dominating_set_once(rng):
    """One call yields every connected dominating set of one size holding
    ``must`` exactly once, whichever root each grows from: checked against
    all position combinations on hosts of up to 12 vertices, with and
    without ``must``, and on suppressed graphs with loops or parallel
    edges. Under ``lex_first`` it yields the lexicographically first."""
    cases = []
    for _ in range(24):
        g = random_connected(rng.randint(3, 12), rng.randint(0, 5), rng)
        adj = [0] * g.n
        for u, w in g.simple_edges():
            adj[u - 1] |= 1 << w - 1
            adj[w - 1] |= 1 << u - 1
        cases += [(adj, 0), (adj, rng.getrandbits(g.n) & rng.getrandbits(g.n))]
    multi = 0
    while multi < 6:
        g = random_connected(rng.randint(5, 12), rng.randint(1, 3), rng)
        if vertices_ge3(g):
            s = suppress(g)
            multi += bool(s.loops) or len({e[1] for e in s.edges}) < len(s.edges)
            cases.append((list(s.adj), s.full & ~s.mask(vertices_ge3(g)) | s.loops))
    for adj, must in cases:
        n = len(adj)
        caps = solver._caps(a.bit_count() for a in adj)
        for size in range(1, n + 1):
            expected = []
            for combo in itertools.combinations(range(n), size):
                members = sum(1 << p for p in combo)
                dom = members
                for p in combo:
                    dom |= adj[p]
                connected = reach_mask(adj, members & -members, members) == members
                if connected and dom == (1 << n) - 1 and not must & ~members:
                    expected.append(members)
            got = list(solver._connected_sets(adj, caps, size, must))
            assert sorted(got) == sorted(expected), (adj, must, size)
            first = min(expected, key=lambda m: [not m >> p & 1 for p in range(n)], default=None)
            assert next(solver._connected_sets(adj, caps, size, must, lex_first=True), None) == first


def test_verify_spanning_tree_rejects_non_trees():
    g = Graph(edges=[(1, 2), (2, 3), (3, 1), (3, 4)])
    assert verify_spanning_tree(g, [(1, 2), (2, 3), (3, 4)])
    assert not verify_spanning_tree(g, [(1, 2), (1, 2), (3, 4)])  # repeated edge
    assert not verify_spanning_tree(g, [(1, 2), (2, 4), (3, 4)])  # non-edge
    assert not verify_spanning_tree(g, [(1, 2), (2, 3), (3, 9)])  # vertex not in g
    assert not verify_spanning_tree(g, [(1, 2), (2, 3)])  # too few edges
    assert not verify_spanning_tree(g, [(1, 2), (2, 3), (3, 1)])  # cycle, 4 left out


# -- forced-leaf machinery ---------------------------------------------------------------


def theta_host():
    """Two hubs joined by a direct edge, a 1-subdivided path and a
    5-subdivided path; suppression gives parallel costs 0, 1, 2."""
    g = Graph(edges=[(1, 2), (1, 3), (3, 2)])
    for a, b in [(1, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 2)]:
        g.add_edge(a, b)
    return g


def test_empty_forced_set_is_feasible():
    g = theta_host()
    s = suppress(g)
    assert forced_leaf_feasible(s, 0)


def test_costly_edge_between_forced_pair_infeasible():
    g = theta_host()
    s = suppress(g)
    assert not forced_leaf_feasible(s, s.mask({1, 2}))


def test_cut_vertex_cannot_be_forced():
    # 1 is a cut vertex of the suppressed graph
    g = Graph(edges=[(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
    g.add_edge(2, 9)
    g.add_edge(3, 9)
    g.add_edge(4, 8)
    g.add_edge(5, 8)
    s = suppress(g)
    assert not forced_leaf_feasible(s, s.mask({1}))


def test_loop_at_forced_vertex_infeasible():
    g = Graph(edges=[(1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 6), (6, 4)])
    s = suppress(g)  # loops at 1 and 4
    assert forced_leaf_feasible(s, 0)
    assert not forced_leaf_feasible(s, s.mask({1}))


def test_forced_mask_outside_the_suppressed_graph_is_an_error():
    g = theta_host()
    s = suppress(g)  # 3..8 lie on suppressed runs
    assert s.mask({1, 2}) == s.full
    with pytest.raises(GraphError, match="forced set must live inside the suppressed graph"):
        s.mask({1, 3})


def test_achievable_theta_counts_path_gains():
    g = theta_host()
    s = suppress(g)
    value = achievable_leaves(s, 0, len(graph_leaves(g)))
    # tree keeps the free edge; the other two paths donate 1 and 2 leaves
    assert value == 3 == brute_max_leaves(g)


def test_achievable_loop_contributes_two():
    # figure-eight: two suppressed cycles hanging on one anchor
    g = Graph(edges=[(1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 1)])
    s = suppress(g)
    value = achievable_leaves(s, 0, 0)
    assert value == 4 == brute_max_leaves(g)


def test_forced_tree_realizes_value(rng):
    built = 0
    for _ in range(60):
        g = random_connected(rng.randint(4, 9), rng.randint(0, 3), rng)
        if not any(g.degree(v) >= 3 for v in g.vertices):
            continue
        s = suppress(g)
        big = sorted(vertices_ge3(g))
        hl = len(graph_leaves(g))
        for r in range(0, min(3, len(big)) + 1):
            for combo in itertools.combinations(big, r):
                value = achievable_leaves(s, s.mask(combo), hl)
                if value is None:
                    continue
                tree = forced_leaf_tree(s, s.mask(combo))
                assert verify_spanning_tree(g, tree)
                leaves = tree_leaves(tree)
                assert set(combo) <= leaves
                assert len(combo) + len(leaves - set(big)) == value
                built += 1
    assert built >= 50


def test_achievable_matches_exhaustive_forced_oracle(rng):
    checked = 0
    for _ in range(60):
        n = rng.randint(4, 9)
        g = random_connected(n, rng.randint(0, 3), rng)
        if not any(g.degree(v) >= 3 for v in g.vertices):
            continue
        s = suppress(g)
        big = set(vertices_ge3(g))
        hl = len(graph_leaves(g))
        best: dict[frozenset, int] = {}
        for combo in spanning_trees(g):
            ls = tree_leaves(combo)
            small = len(ls - big)
            for r in range(0, min(4, len(ls & big)) + 1):
                for L in itertools.combinations(sorted(ls & big), r):
                    key = frozenset(L)
                    if best.get(key, -1) < len(L) + small:
                        best[key] = len(L) + small
        for r in range(0, min(4, len(big)) + 1):
            for L in itertools.combinations(sorted(big), r):
                assert achievable_leaves(s, s.mask(L), hl) == best.get(frozenset(L)), (sorted(g.edges()), L)
                checked += 1
    assert checked >= 200


def test_achievable_invariant_under_tie_breaks(rng):
    # permuting the edge list must not change the value (all minimum trees
    # give equal gain totals)
    for _ in range(30):
        g = random_connected(rng.randint(5, 9), rng.randint(1, 4), rng)
        if not any(g.degree(v) >= 3 for v in g.vertices):
            continue
        s = suppress(g)
        hl = len(graph_leaves(g))
        value = achievable_leaves(s, 0, hl)
        for _ in range(4):
            shuffled = list(s.sedges)
            rng.shuffle(shuffled)
            s2 = type(s)(s.vertices, shuffled)
            assert achievable_leaves(s2, 0, hl) == value


def _feasibility_instances(rng):
    """Suppressible graphs with degree-3 vertices: random connected ones
    with n <= 11; random ones with cycles hung on some vertices, which
    suppress to loops; and random ones with theta paths of 0, 1, 2 or 3
    inner vertices between two vertices, which suppress to parallel edges of
    cost 0, 1 and 2."""
    for kind in ("random", "hanging", "theta"):
        made = 0
        while made < 40:
            g = random_connected(rng.randint(3, 11 if kind == "random" else 7), rng.randint(0, 5), rng)
            if kind == "hanging":
                for v in rng.sample(sorted(g.vertices), rng.randint(1, 2)):
                    base = max(g.vertices)
                    ring = [v, *range(base + 1, base + rng.randint(3, 4))]
                    for a, b in zip(ring, ring[1:] + ring[:1]):
                        g.add_edge(a, b)
            elif kind == "theta":
                u, w = rng.sample(sorted(g.vertices), 2)
                for inner in rng.sample(range(4), rng.randint(2, 3)):
                    if inner == 0 and g.has_edge(u, w):
                        continue
                    base = max(g.vertices)
                    run = [u, *range(base + 1, base + 1 + inner), w]
                    for a, b in zip(run, run[1:]):
                        g.add_edge(a, b)
            if any(g.degree(v) >= 3 for v in g.vertices):
                made += 1
                yield kind, g


def test_feasibility_matches_reference(rng):
    """forced_leaf_feasible, achievable_leaves and forced_leaf_tree agree
    with the rule-by-rule reference on every forced set of up to five
    high-degree vertices."""
    seen = {}
    for kind, g in _feasibility_instances(rng):
        s = suppress(g)
        big = sorted(vertices_ge3(g))
        for r in range(min(5, len(big)) + 1):
            for combo in itertools.combinations(big, r):
                want = reference_forced_feasible(s, combo)
                forced = s.mask(combo)
                case = (kind, sorted(g.edges()), combo)
                assert forced_leaf_feasible(s, forced) == want, case
                assert (achievable_leaves(s, forced, 0) is not None) == want, case
                try:
                    forced_leaf_tree(s, forced)
                    built = True
                except GraphError:
                    built = False
                assert built == want, case
                seen[kind, want] = seen.get((kind, want), 0) + 1
    assert all(seen.get((kind, want), 0) >= 40 for kind in ("random", "hanging", "theta") for want in (True, False)), seen


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_feasibility_closed_under_subsets(seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(4, 10), rng.randint(0, 6), rng)
    if not any(g.degree(v) >= 3 for v in g.vertices):
        return
    s = suppress(g)
    big = sorted(vertices_ge3(g))
    for r in range(1, min(5, len(big)) + 1):
        for combo in itertools.combinations(big, r):
            forced = s.mask(combo)
            if forced_leaf_feasible(s, forced):
                for v in combo:
                    assert forced_leaf_feasible(s, forced ^ s.mask({v})), (sorted(g.edges()), combo, v)


def test_search_matches_exhaustive_reference(rng):
    searched = pruned = 0
    for _ in range(60):
        g = random_connected(rng.randint(4, 10), rng.randint(0, 6), rng)
        if not any(g.degree(v) >= 3 for v in g.vertices):
            continue
        s = suppress(g)
        big = sorted(vertices_ge3(g))
        hl = len(graph_leaves(g))
        for k in range(1, g.n):
            stats = SolveStats()
            hit = solver._search_forced_sets(s, s.mask(big), k, hl, stats)
            ref, ref_count = exhaustive_forced_search(s, big, k, hl)
            assert hit == ref, (sorted(g.edges()), k)
            assert stats.subsets_enumerated <= ref_count
            if hit is None:  # every set of the exhaustive order is visited or pruned
                assert stats.subsets_enumerated + stats.subsets_pruned == ref_count
            searched += 1
            pruned += stats.subsets_pruned
    assert searched >= 200 and pruned > 0


# forced sets the search evaluates on flowerbed(i) at k = 4i + 3, one above
# the optimum, and those it leaves out; a wrong feasibility answer or a wrong
# subset check changes these counts
FLOWERBED_NO_VISITS = {2: 77, 3: 297, 4: 1_097, 5: 3_953}
FLOWERBED_NO_PRUNED = {2: 50_566, 3: 9_740_389, 4: 1_846_942_356, 5: 349_550_137_125}


@pytest.mark.parametrize("i", sorted(FLOWERBED_NO_VISITS))
def test_flowerbed_no_threshold_is_fast(i):
    v = fpt_decide(flowerbed(i), 4 * i + 3)
    assert not v.is_yes
    assert v.stats.search_side == "forced"
    assert v.stats.subsets_enumerated == FLOWERBED_NO_VISITS[i]
    assert v.stats.subsets_pruned == FLOWERBED_NO_PRUNED[i]
    if i == 3:
        # the exhaustive enumeration visited 9,740,686 forced sets here
        assert v.stats.subsets_enumerated + v.stats.subsets_pruned == 9_740_686


def _search_instances(rng):
    """Connected graphs with a degree-3 vertex for the side tests: random
    ones with n <= 11 (pendants and degree-2 runs), then the same kind with
    some edges doubled, kept when they still suppress (no parallel edge at
    a degree-2 vertex)."""
    made = 0
    while made < 120:
        g = random_connected(rng.randint(4, 11), rng.randint(0, 6), rng)
        if made >= 60:
            pairs = sorted(set(g.edges()))
            for _ in range(rng.randint(1, 4)):
                g.add_edge(*rng.choice(pairs))
        if not any(g.degree(v) >= 3 for v in g.vertices):
            continue
        try:
            s = suppress(g)
        except GraphError:
            continue
        made += 1
        yield g, s


def test_each_side_matches_exhaustive_reference(rng, monkeypatch):
    """Both enumerations with the expansion-tree probe stubbed out, then the
    forced side with the probe."""
    probe = solver.expansion_tree
    outcomes = {(case, found): 0 for case in ("forced", "kept", "probe") for found in (True, False)}
    probe_answers = 0
    for g, s in _search_instances(rng):
        big = sorted(vertices_ge3(g))
        hl = len(graph_leaves(g))
        for k in range(1, g.n + 1):
            ref, _ = exhaustive_forced_search(s, big, k, hl)
            for case in ("forced", "kept", "probe"):
                monkeypatch.setattr(solver, "expansion_tree", probe if case == "probe" else lambda g: [])
                side = "forced" if case == "probe" else case
                stats = SolveStats()
                hit = solver._search(g, s, k, stats, side=side)
                assert stats.search_side == side
                assert (hit is None) == (ref is None), (sorted(g.edges()), k, case)
                outcomes[case, hit is not None] += 1
                if side == "kept":
                    assert stats.subsets_pruned == 0 and stats.probe_leaves is None
                if case == "probe" and stats.probe_leaves >= k:
                    assert stats.subsets_enumerated == 0
                    probe_answers += 1
                if hit is None:
                    continue
                assert achievable_leaves(s, hit, hl) >= k
                tree = forced_leaf_tree(s, hit)
                assert verify_spanning_tree(g, tree) and tree_leaf_count(tree) >= k, (sorted(g.edges()), k, case)
    assert min(outcomes.values()) >= 150 and probe_answers >= 150, (outcomes, probe_answers)


def test_expansion_tree_spans(rng):
    """A spanning tree on random connected graphs and on connected loop-free
    multigraphs, the same one for the same graph built another way."""
    for i in range(300):
        if i % 2:
            g = random_connected(rng.randint(2, 30), rng.randint(0, 20), rng)
        else:
            g = random_loopless_multigraph(rng.randint(2, 12), rng.randint(1, 24), rng)
        tree = solver.expansion_tree(g)
        assert verify_spanning_tree(g, tree), sorted(g.edges())
        assert solver.expansion_tree(Graph(sorted(g.vertices, reverse=True), reversed(list(g.edges())))) == tree
    with pytest.raises(GraphError):
        solver.expansion_tree(Graph(edges=[(1, 2), (3, 4)]))


def test_expansion_tree_meets_kleitman_west():
    """At least n/4 + 2 leaves on every graph of minimum degree 3 among the
    seeded random invariant graphs with n = 8..120."""
    checked = 0
    for n in range(8, 121, 4):
        for seed in range(4):
            g = random_invariant_graph(n, 3, seed)
            if g.min_degree() < 3:
                continue
            tree = solver.expansion_tree(g)
            assert verify_spanning_tree(g, tree) and 4 * tree_leaf_count(tree) >= g.n + 8, (n, seed)
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("k", range(9, 13))
def test_yes_far_below_the_optimum_needs_no_enumeration(k):
    # the forced side used to climb every level below k here: 875,704 sets
    # at k=9 up to 2,440,118 at k=12
    g = random_invariant_graph(24, 3, 0)
    v = fpt_decide(g, k, want_witness=True)
    assert v.is_yes and v.stats.search_side == "forced"
    assert v.stats.subsets_enumerated == 0 and v.stats.probe_leaves >= k
    assert verify_spanning_tree(g, v.witness) and tree_leaf_count(v.witness) >= k


@pytest.mark.parametrize("k", range(24, 29))
def test_yes_above_the_probe_enumerates_the_top_size_only(k, monkeypatch):
    # no suppressed cost and no loop, so only kept sets of the top size are
    # enumerated: one set each, where climbing from the smallest size took
    # 8-11 s per k; the probe has 24 leaves and the optimum is 28
    sizes = set()
    enumerate_sets = solver._connected_sets

    def recorded(adj, caps, size, *rest):
        sizes.add(size)
        return enumerate_sets(adj, caps, size, *rest)

    monkeypatch.setattr(solver, "_connected_sets", recorded)
    g = random_invariant_graph(40, 3, 0)
    v = fpt_decide(g, k, want_witness=True)
    assert v.is_yes and v.stats.search_side == "kept" and v.stats.subsets_enumerated == 1
    assert len(sizes) == 1
    assert verify_spanning_tree(g, v.witness) and tree_leaf_count(v.witness) >= k


def test_shortcut_witness_is_the_expansion_tree():
    g = random_invariant_graph(160, 3, 0)
    v = fpt_decide(g, 53, want_witness=True)
    assert v.is_yes and v.stats.search_side is None and v.stats.probe_leaves >= 53
    assert v.witness == solver.expansion_tree(g)


def test_degree_ceiling_refutes_before_the_search(rng):
    # q3: 8 vertices of degree 3, so every spanning tree has at least 3
    # internal vertices and at most 5 leaves
    v = fpt_decide(q3(), 6)
    assert not v.is_yes and v.stats.search_side is None and v.stats.subsets_enumerated == 0
    for _ in range(200):
        g = random_connected(rng.randint(2, 9), rng.randint(0, 6), rng)
        degrees = [g.degree(v) for v in g.vertices]
        fewest = solver._fewest_internal(g.n, solver._caps(degrees))
        assert brute_max_leaves(g) <= g.n - fewest, sorted(g.edges())
        # never above the max-degree ceiling, n - ceil((n - 2)/(max degree - 1))
        assert fewest >= -(-(g.n - 2) // max(1, max(degrees) - 1))
    # the max-degree ceiling is 8 here and the optimum 7: refuted before the search
    v = fpt_decide(random_invariant_graph(10, 3, 3), 8)
    assert not v.is_yes and v.stats.search_side is None and v.stats.subsets_enumerated == 0
    assert v.stats.leaf_ceiling == 7


def test_connected_sets_cap_drops_no_hit(rng):
    """The sorted-degree caps yield the same sets in the same order as the
    max-degree rule, j * max(1, max degree - 1), for every size, with no
    ``must`` as the oracle grows them and with one as the kept side does."""
    hosts = [random_connected(n, rng.randint(0, 5), rng) for n in range(3, 15) for _ in range(4)]
    hosts += [random_invariant_graph(n, t, seed) for n in (8, 11, 14) for t in (2, 3) for seed in range(2)]
    cases = []
    for g in hosts:
        adj = [0] * g.n
        for u, w in g.simple_edges():
            adj[u - 1] |= 1 << w - 1
            adj[w - 1] |= 1 << u - 1
        cases.append((adj, 0))
    multi = 0
    for _ in range(30):
        g = random_connected(rng.randint(5, 14), rng.randint(1, 3), rng)
        if vertices_ge3(g):
            s = suppress(g)
            multi += bool(s.loops) or len({e[1] for e in s.edges}) < len(s.edges)
            cases.append((list(s.adj), s.full & ~s.mask(vertices_ge3(g)) | s.loops))
    assert multi >= 5  # hosts whose suppressed graph carries loops or parallel edges
    for adj, must in cases:
        n = len(adj)
        old = [j * max(1, max(a.bit_count() for a in adj) - 1) for j in range(n + 1)]
        caps = solver._caps(a.bit_count() for a in adj)
        for size in range(1, n + 1):
            for args in {(size, 0), (size, must)}:
                assert list(solver._connected_sets(adj, caps, *args)) == list(solver._connected_sets(adj, old, *args))


def test_random18_no_threshold_takes_kept_side():
    g = random_invariant_graph(18, 3, 0)
    opt, _ = exact_max_leaves(g)
    v = fpt_decide(g, opt + 1)
    assert not v.is_yes and v.stats.search_side == "kept"
    # the forced side evaluates 76,418 sets here
    assert v.stats.subsets_enumerated < 100


def test_decide_matches_oracle_at_larger_sizes():
    """fpt_decide against exact_max_leaves on n = 13..24: random invariant
    graphs of minimum degree 2 and 3, each also with a planted diamond and
    with a planted blossom (so that F1/F2 fire), at every k from opt - 2 to
    opt + 1, with every YES witness verified. About 3.5 s on a 2-vCPU VM,
    most of it in the oracle and the shortcut witnesses."""
    rng = random.Random(13)
    reductions = 0
    for n in range(13, 25):
        for target in (2, 3):
            g = random_invariant_graph(n, target, n)
            for h in (g, plant_diamond(g.copy(), rng), plant_blossom(g.copy(), rng)):
                opt, _ = exact_max_leaves(h)
                for k in range(opt - 2, opt + 2):
                    v = fpt_decide(h, k, want_witness=True)
                    assert v.is_yes == (opt >= k), (n, target, sorted(h.edges()), k)
                    reductions += v.stats.reductions_applied
                    if v.is_yes:
                        assert verify_spanning_tree(h, v.witness) and tree_leaf_count(v.witness) >= k
    assert reductions > 0


def dfs_tree(g):
    """Depth-first spanning tree, smallest neighbour first: few leaves."""
    root = min(g.vertices)
    seen, stack, edges = {root}, [root], []
    while stack:
        nxt = [w for w in sorted(g.neighbors(stack[-1])) if w not in seen]
        if not nxt:
            stack.pop()
            continue
        edges.append((stack[-1], nxt[0]))
        seen.add(nxt[0])
        stack.append(nxt[0])
    return edges


def test_stats_count_shortcut_fallback(monkeypatch):
    # a path with chords i -- i+6: ten degree-3 vertices, so the ratio
    # shortcut fires at k=3, and an expansion tree returning the path itself
    # leaves the forced-set search to find the witness
    g = Graph(edges=[(i, i + 1) for i in range(1, 12)] + [(i, i + 6) for i in range(1, 7)])
    calls = []

    def counted(s, forced, host_leaf_count):
        calls.append(forced)
        return achievable_leaves(s, forced, host_leaf_count)

    monkeypatch.setattr(solver, "expansion_tree", dfs_tree)
    monkeypatch.setattr(solver, "achievable_leaves", counted)
    v = fpt_decide(g, 3, want_witness=True)
    assert v.is_yes and verify_spanning_tree(g, v.witness) and tree_leaf_count(v.witness) >= 3
    assert v.stats.subsets_enumerated == len(calls) > 0


# -- the decision procedure ----------------------------------------------------------------


def test_k_at_most_two_is_always_yes(rng):
    for _ in range(10):
        g = random_connected(rng.randint(2, 8), rng.randint(0, 3), rng)
        assert fpt_decide(g, 2).is_yes
        assert fpt_decide(g, 1).is_yes


def test_q3_threshold():
    assert fpt_decide(q3(), 4).is_yes
    assert not fpt_decide(q3(), 5).is_yes


def test_flowerbed_threshold():
    r2 = flowerbed(2)
    yes = fpt_decide(r2, 10, want_witness=True)
    assert yes.is_yes
    assert verify_spanning_tree(r2, yes.witness)
    assert tree_leaf_count(yes.witness) >= 10
    assert not fpt_decide(r2, 11).is_yes


def test_bad_arguments():
    with pytest.raises(GraphError):
        fpt_decide(q3(), 0)
    with pytest.raises(GraphError):
        fpt_decide(Graph(edges=[(1, 2), (3, 4)]), 2)


def test_agrees_with_oracle_on_fuzz(rng):
    for _ in range(60):
        g = random_connected(rng.randint(2, 10), rng.randint(0, 4), rng)
        opt, _ = exact_max_leaves(g)
        for k in range(1, g.n):
            assert fpt_decide(g, k).is_yes == (opt >= k), (sorted(g.edges()), k)


def test_witnesses_verify(rng):
    for _ in range(25):
        g = random_connected(rng.randint(3, 9), rng.randint(0, 4), rng)
        opt, _ = exact_max_leaves(g)
        v = fpt_decide(g, opt, want_witness=True)
        assert v.is_yes
        assert verify_spanning_tree(g, v.witness)
        assert tree_leaf_count(v.witness) >= opt


def test_stats_subset_counter_bound(rng):
    from math import comb

    exercised = 0
    for _ in range(40):
        g = random_connected(rng.randint(5, 10), rng.randint(0, 4), rng)
        for k in range(3, g.n):
            v = fpt_decide(g, k)
            k2 = v.stats.k_after_preprocess
            if v.stats.subsets_enumerated:
                exercised += 1
                assert v.stats.subsets_enumerated <= max(1, k2) * comb(3 * max(1, k2), max(1, k2))
    assert exercised >= 10


def test_path_and_cycle_say_no_above_two():
    path = Graph(edges=[(i, i + 1) for i in range(1, 7)])
    assert not fpt_decide(path, 3).is_yes
    cyc = Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 1)])
    assert not fpt_decide(cyc, 3).is_yes


def test_necklace_instances():
    g = necklace(2)
    g.add_edge(1, 7)
    opt, _ = exact_max_leaves(g)
    assert opt == 4
    assert fpt_decide(g, 4).is_yes and not fpt_decide(g, 5).is_yes


def test_multigraph_doubled_path():
    g = Graph(edges=[(i, i + 1) for i in range(1, 11)] * 2)
    assert not fpt_decide(g, 3).is_yes
    v = fpt_decide(g, 2, want_witness=True)
    assert v.is_yes and verify_spanning_tree(g, v.witness) and tree_leaf_count(v.witness) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_multigraphs_agree_with_brute_force(seed):
    rng = random.Random(seed)
    g = random_connected(rng.randint(2, 8), rng.randint(0, 3), rng)
    pairs = sorted(set(g.edges()))
    for _ in range(rng.randint(1, 6)):
        g.add_edge(*rng.choice(pairs))
    opt = brute_max_leaves(g)
    for k in range(1, g.n + 1):
        assert fpt_decide(g, k).is_yes == (opt >= k), (sorted(g.edges()), k)
    v = fpt_decide(g, opt, want_witness=True)
    assert verify_spanning_tree(g, v.witness) and tree_leaf_count(v.witness) >= opt
