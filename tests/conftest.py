"""Shared helpers: independent brute-force oracles and random-graph builders.

The oracles here deliberately avoid the library's own algorithms so the two
sides of every comparison stay independent.
"""

from __future__ import annotations

import itertools
import random

import pytest

from maxleaf.graphs import Graph, GraphError


# -- random instances ---------------------------------------------------------


def random_connected(n: int, extra_edges: int, rng: random.Random) -> Graph:
    g = Graph(vertices=range(1, n + 1))
    for v in range(2, n + 1):
        g.add_edge(v, rng.randint(1, v - 1))
    tries = 0
    while extra_edges > 0 and tries < 80:
        u, v = rng.sample(sorted(g.vertices), 2)
        tries += 1
        if not g.has_edge(u, v):
            g.add_edge(u, v)
            extra_edges -= 1
    return g


def reference_random_connected(n: int, target: int, rng: random.Random) -> Graph:
    """``generators._random_connected`` as it rebuilt its candidate lists
    for each added edge: the vertices below degree 3, then every vertex not
    yet joined to the one drawn. Same draws and graphs; the reference for
    the sampler that keeps one list and indexes past the taken vertices."""
    g = Graph(vertices=range(1, n + 1))
    for v in range(2, n + 1):
        g.add_edge(v, rng.randint(1, v - 1))
    if target >= 3:
        budget = 20 * n
        while budget:
            budget -= 1
            low = [v for v in range(1, n + 1) if g.degree(v) < 3]
            if not low:
                break
            v = rng.choice(low)
            choices = [w for w in range(1, n + 1) if w != v and not g.has_edge(v, w)]
            if not choices:
                break
            g.add_edge(v, rng.choice(choices))
    for _ in range(rng.randint(0, max(1, n // 4))):
        u, v = rng.sample(sorted(g.vertices), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def random_multigraph(n: int, m: int, rng: random.Random) -> Graph:
    g = Graph(vertices=range(1, n + 1))
    for _ in range(m):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        g.add_edge(u, v)  # loops and parallels welcome
    return g


def plant_diamond(g: Graph, rng: random.Random) -> Graph:
    cands = [v for v in g.vertices if g.degree(v) >= 1]
    u, v = rng.sample(cands, 2)
    base = max(g.vertices)
    i1, i2 = base + 1, base + 2
    for e in [(u, i1), (u, i2), (v, i1), (v, i2), (i1, i2)]:
        g.add_edge(*e)
    return g


def plant_blossom(g: Graph, rng: random.Random) -> Graph:
    cands = [v for v in g.vertices if g.degree(v) >= 1]
    c1, c2 = rng.sample(cands, 2)
    base = max(g.vertices)
    b, a1, a2, a3, a4 = base + 1, base + 2, base + 3, base + 4, base + 5
    for e in [
        (b, a1), (b, a2), (b, a3), (b, a4),
        (a1, a2), (a3, a4),
        (c1, a1), (c1, a4), (c2, a2), (c2, a3),
    ]:
        g.add_edge(*e)
    return g


def plant_chain(g: Graph, k: int, rng: random.Random) -> Graph:
    """Append a chain of k diamonds glued at shared connectors on fresh
    vertices; each free end gets 0-2 edges back into g, and sometimes the
    two ends are joined."""
    old = sorted(g.vertices)
    base = max(old)
    chain = list(range(base + 1, base + 3 * k + 2))
    for j in range(k):
        c, i1, i2, d = chain[3 * j: 3 * j + 4]
        for e in [(c, i1), (c, i2), (d, i1), (d, i2), (i1, i2)]:
            g.add_edge(*e)
    for end in (chain[0], chain[-1]):
        for _ in range(rng.randint(0, 2)):
            g.add_edge(end, rng.choice(old))
    if rng.random() < 0.2:
        g.add_edge(chain[0], chain[-1])
    return g


def random_loopless_multigraph(n: int, m: int, rng: random.Random) -> Graph:
    """Connected multigraph on 1..n: a random tree plus ``m`` more edges
    between distinct endpoints, parallels welcome."""
    g = Graph(vertices=range(1, n + 1))
    for v in range(2, n + 1):
        g.add_edge(v, rng.randint(1, v - 1))
    for _ in range(m):
        g.add_edge(*rng.sample(range(1, n + 1), 2))
    return g


# -- test-only views of library structures ---------------------------------------


def flower_roles(j: int = 0) -> dict[str, int]:
    """Vertex ids of the j-th flower inside a flowerbed."""
    off = 13 * j
    names = ["b", "a1", "a2", "a3", "a4", "c1", "c2", "f1", "f2", "h", "s", "g1", "g2"]
    return {name: off + idx for idx, name in enumerate(names, start=1)}


def suppressed_degree(s, v: int) -> int:
    """Degree of v in a suppressed graph: loops count twice."""
    return sum((e.u == v) + (e.v == v) for e in s.sedges)


def expand_back(s) -> Graph:
    """Rebuild the host graph of a suppressed graph from its stored paths."""
    g = Graph(vertices=s.vertices)
    for e in s.sedges:
        for a, b in zip(e.path, e.path[1:]):
            g.add_edge(a, b)
    return g


def verify_match(g: Graph, m) -> bool:
    """Re-check a pattern match edge by edge against its canonical pattern,
    independently of the detectors."""
    from maxleaf.patterns import (
        KIND_2BLOSSOM,
        KIND_2NECKLACE,
        KIND_2T_BLOSSOM,
        KIND_2T_DIAMOND,
        KIND_CUBIC_DIAMOND,
    )

    vs = m.vertices
    if len(set(vs)) != len(vs):
        return False
    if m.kind in (KIND_CUBIC_DIAMOND, KIND_2T_DIAMOND):
        c1, i1, i2, c2 = vs
        need = [(c1, i1), (c1, i2), (c2, i1), (c2, i2), (i1, i2)]
        if not all(g.has_edge(a, b) for a, b in need):
            return False
        if g.degree(i1) != 3 or g.degree(i2) != 3:
            return False
        if m.kind == KIND_CUBIC_DIAMOND:
            return g.degree(c1) == 3 and g.degree(c2) == 3 and not g.has_edge(c1, c2)
        return g.degree(c1) >= 3 and g.degree(c2) >= 3
    if m.kind == KIND_2NECKLACE:
        if len(vs) != 3 * m.k + 1:
            return False
        for j in range(m.k):
            c1, i1, i2, c2 = vs[3 * j], vs[3 * j + 1], vs[3 * j + 2], vs[3 * j + 3]
            need = [(c1, i1), (c1, i2), (c2, i1), (c2, i2), (i1, i2)]
            if not all(g.has_edge(a, b) for a, b in need):
                return False
            if g.degree(i1) != 3 or g.degree(i2) != 3:
                return False
        junctions = [vs[3 * j] for j in range(1, m.k)]
        if any(g.degree(j) != 4 for j in junctions):
            return False
        return g.degree(vs[0]) == 3 and g.degree(vs[-1]) == 3
    if m.kind in (KIND_2BLOSSOM, KIND_2T_BLOSSOM):
        b, a1, a2, a3, a4, c1, c2 = vs
        need = [
            (b, a1), (b, a2), (b, a3), (b, a4),
            (a1, a2), (a3, a4),
            (c1, a1), (c1, a4), (c2, a2), (c2, a3),
        ]
        if not all(g.has_edge(x, y) for x, y in need):
            return False
        if g.degree(b) != 4 or any(g.degree(a) != 3 for a in (a1, a2, a3, a4)):
            return False
        if m.kind == KIND_2BLOSSOM:
            return g.degree(c1) == 3 and g.degree(c2) == 3
        return g.degree(c1) >= 3 and g.degree(c2) >= 3
    return False


# -- degree recount ---------------------------------------------------------------


def recount_degrees(g: Graph) -> tuple[dict[int, int], int]:
    """Every vertex's degree and the edge count, summed from the adjacency
    (neighbours and multiplicities) without the graph's degree cache."""
    deg = {}
    twice_m = 0
    for v in g.vertices:
        deg[v] = sum(g.multiplicity(v, w) * (2 if w == v else 1) for w in g.neighbors(v))
        twice_m += deg[v]
    return deg, twice_m // 2


# -- naive connectivity oracles -------------------------------------------------


def naive_components(g: Graph) -> list[set[int]]:
    seen: set[int] = set()
    out = []
    for s in sorted(g.vertices):
        if s in seen:
            continue
        comp = {s}
        frontier = [s]
        while frontier:
            x = frontier.pop()
            for y in g.neighbors(x):
                if y not in comp:
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        out.append(comp)
    return out


def naive_bridges_and_cuts(g: Graph) -> tuple[set[tuple[int, int]], set[int]]:
    """O(m * (n + m)) recomputation by deletion."""
    base = len(naive_components(g))
    bridges = set()
    for u, v in sorted(set(g.edges())):
        if u == v or g.multiplicity(u, v) > 1:
            continue
        h = g.copy()
        h.remove_edge(u, v)
        if len(naive_components(h)) > base:
            bridges.add((u, v))
    cuts = set()
    for v in sorted(g.vertices):
        h = g.copy()
        h.remove_vertex(v)
        if h.n and len(naive_components(h)) > base:
            cuts.add(v)
    return bridges, cuts


# -- all-pairs bilateral rule enumeration ------------------------------------------


def _far_end(g: Graph, gb: int, near: int):
    rest = [w for w in g.neighbors(gb) if w != near]
    if len(rest) != 1 or g.multiplicity(gb, rest[0]) != 1 or g.multiplicity(gb, near) != 1:
        return None
    return rest[0]


def _sides(g: Graph, near: int, rest: list[int], want: int, core: set[int]):
    p, q = rest
    if want == 2:
        if g.degree(p) != 2 or g.degree(q) != 2 or p in core or q in core:
            return []
        fp, fq = _far_end(g, p, near), _far_end(g, q, near)
        if fp is None or fq is None:
            return []
        return [((p, q), (min(fp, fq), max(fp, fq)))]
    out = []
    for gb, direct in ((p, q), (q, p)):
        if gb not in core and g.degree(gb) == 2 and _far_end(g, gb, near) is not None:
            out.append(((gb,), (_far_end(g, gb, near), direct)))
    return out


def all_pairs_bilateral(g: Graph, rule_id: str) -> list[tuple]:
    """Role keys of every L1/L3/L4/L5 match, sorted, found by trying every
    ordered pair (x, y) of degree-3 loop-free vertices."""
    keys = set()
    cubic = [v for v in sorted(g.vertices) if g.degree(v) == 3 and not g.loops_at(v)]
    for x, y in itertools.permutations(cubic, 2):
        if rule_id in ("L1", "L3", "L5") and y < x:
            continue
        if rule_id == "L3":
            centers = [
                (m,) for m in sorted(g.neighbors(x))
                if g.degree(m) == 2 and g.has_edge(m, y)
                and g.multiplicity(x, m) == 1 and g.multiplicity(m, y) == 1
            ]
        else:
            centers = [()] if g.multiplicity(x, y) == 1 else []
        for center in centers:
            core = {x, y, *center}
            xs = sorted(w for w in g.neighbors(x) if w != y and w not in center)
            ys = sorted(w for w in g.neighbors(y) if w != x and w not in center)
            if len(xs) != 2 or len(ys) != 2:
                continue
            want_left = 2 if rule_id in ("L4", "L5") else 1
            want_right = 2 if rule_id == "L5" else 1
            for left in _sides(g, x, xs, want_left, core):
                for right in _sides(g, y, ys, want_right, core):
                    goobers = left[0] + right[0]
                    if len(set(goobers)) != len(goobers):
                        continue
                    if any(a in core or a in goobers for a in left[1] + right[1]):
                        continue
                    roles = {"x": x, "y": y, "a": left[1][0], "b": left[1][1]}
                    roles.update(c=right[1][0], d=right[1][1])
                    if center:
                        roles["gm"] = center[0]
                    roles.update({f"gx{i + 1}": v for i, v in enumerate(left[0])})
                    roles.update({f"gy{i + 1}": v for i, v in enumerate(right[0])})
                    keys.add(tuple(sorted(roles.items())))
    return sorted(keys)


# -- bitmask reachability and the forced-leaf feasibility reference ------------------


def reach_mask(adj, start: int, within: int) -> int:
    """Bits reachable from the ``start`` bits through vertices of ``within``,
    where ``adj[i]`` is the neighbour mask of the vertex owning bit i. Walks
    one breadth-first layer at a time."""
    seen = frontier = start
    while frontier:
        reach = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            reach |= adj[bit.bit_length() - 1]
        frontier = reach & within & ~seen
        seen |= frontier
    return seen


def reference_forced_feasible(s, forced) -> bool:
    """Whether some spanning tree keeps every vertex of ``forced`` a leaf,
    decided rule by rule on the suppressed graph ``s``: the kept side is
    nonempty and connected, no forced vertex carries a loop, none is joined
    to another forced vertex by an edge with inner vertices, and each has a
    kept neighbour. The masks are built here from ``s.sedges``."""
    from maxleaf.graphs import GraphError

    if s.is_empty():
        raise GraphError("forced-leaf query needs a nonempty suppressed graph")
    pos = {v: i for i, v in enumerate(sorted(s.vertices))}
    adj = [0] * len(pos)  # neighbour mask per position, loops left out
    heavy = [0] * len(pos)  # the same over edges with inner vertices
    loops = 0
    for e in s.sedges:
        if e.is_loop:
            loops |= 1 << pos[e.u]
            continue
        a, b = pos[e.u], pos[e.v]
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        if e.internal_count:
            heavy[a] |= 1 << b
            heavy[b] |= 1 << a
    mask = sum(1 << pos[v] for v in forced)
    keep = (1 << len(pos)) - 1 & ~mask
    if not keep or loops & mask:
        return False
    for v in forced:
        p = pos[v]
        if heavy[p] & mask or not adj[p] & keep:
            return False  # a costly edge between forced vertices, or undominated
    return reach_mask(adj, keep & -keep, keep) == keep  # kept side connected


# -- connected-dominating-set oracle by vertex combinations ------------------------


def combination_cds_oracle(g: Graph, cap: int = 30) -> tuple[int, list[tuple[int, int]]]:
    """The exact oracle as a plain combinations search: every vertex
    combination by size upward from a degree lower bound, in lexicographic
    order, until the first connected dominating set. Same value and tree as
    ``exact_max_leaves``, at the cost of every combination below the hit."""
    from maxleaf.graphs import GraphError, is_connected
    from maxleaf.solver import CapacityError, _tree_from_internal_set

    if not is_connected(g):
        raise GraphError("exact solver requires a connected graph")
    if g.n < 2:
        raise GraphError("need at least two vertices")
    if g.n > cap:
        raise CapacityError(f"instance has {g.n} > {cap} vertices")
    if g.n == 2:
        u, v = sorted(g.vertices)
        return 2, [(u, v)]

    order = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(order)}
    adj = [0] * len(order)  # neighbour mask per position
    for u, w in set(g.edges()):
        if u != w:
            adj[idx[u]] |= 1 << idx[w]
            adj[idx[w]] |= 1 << idx[u]
    closed = {v: adj[idx[v]] | (1 << idx[v]) for v in order}
    full = (1 << len(order)) - 1

    max_deg = max(g.degree(v) for v in order)
    lower = 1 if max_deg >= g.n - 1 else max(1, -(-(g.n - 2) // (max_deg - 1)) if max_deg > 1 else g.n - 2)
    for size in range(lower, g.n - 1):
        for combo in itertools.combinations(order, size):
            mask = 0
            dom = 0
            for v in combo:
                mask |= 1 << idx[v]
                dom |= closed[v]
            if dom != full or reach_mask(adj, mask & -mask, mask) != mask:
                continue
            return g.n - size, _tree_from_internal_set(g, set(combo))
    # fall back: a path (two leaves) always exists; only reached when every
    # smaller internal set fails, i.e. the best tree is a spanning path
    return 2, _tree_from_internal_set(g, g.vertices)


def reference_exact(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    """The exact oracle without its lexicographic prune, for a connected
    graph on three or more vertices: by size as ``exact_max_leaves`` goes,
    every connected dominating set ``_connected_sets`` yields is compared
    with the one kept (the set holding the lowest differing bit comes
    first), and the first size with a set gives the answer."""
    from maxleaf.solver import _caps, _connected_sets, _fewest_internal, _tree_from_internal_set

    order = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(order)}
    adj = [0] * len(order)
    for u, w in g.simple_edges():
        adj[idx[u]] |= 1 << idx[w]
        adj[idx[w]] |= 1 << idx[u]
    caps = _caps(a.bit_count() for a in adj)
    for size in itertools.count(_fewest_internal(g.n, caps)):
        best = 0
        for members in _connected_sets(adj, caps, size):
            diff = members ^ best
            if not best or members & diff & -diff:
                best = members
        if best:
            return g.n - size, _tree_from_internal_set(g, {v for v in order if best >> idx[v] & 1})


# -- spanning tree enumeration ---------------------------------------------------


def spanning_trees(g: Graph):
    """All spanning trees as edge tuples (distinct edges only)."""
    edges = sorted(set(g.edges()))
    vs = sorted(g.vertices)
    n = len(vs)
    for combo in itertools.combinations(edges, n - 1):
        parent = {v: v for v in vs}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for u, v in combo:
            if u == v:
                ok = False
                break
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            yield combo


def tree_leaves(combo) -> set[int]:
    deg: dict[int, int] = {}
    for u, v in combo:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return {x for x, d in deg.items() if d == 1}


def brute_max_leaves(g: Graph) -> int:
    if g.n == 2:
        return 2
    return max(len(tree_leaves(t)) for t in spanning_trees(g))


# -- forced-set search reference ---------------------------------------------------


def exhaustive_forced_search(s, big, k: int, host_leaf_count: int):
    """Every subset of ``big`` of size at most k, by size and then in colex
    order, until the first whose achievable value reaches k. Returns that
    set as a mask over ``s`` (None if there is none) and the number of sets
    evaluated."""
    from maxleaf.solver import achievable_leaves

    count = 0
    for size in range(min(k, len(big)) + 1):
        for combo in sorted(itertools.combinations(sorted(big), size), key=lambda c: c[::-1]):
            count += 1
            value = achievable_leaves(s, s.mask(combo), host_leaf_count)
            if value is not None and value >= k:
                return s.mask(combo), count
    return None, count


# -- brute-force pattern scans ----------------------------------------------------


def brute_cubic_diamonds(g: Graph) -> set[frozenset[int]]:
    out = set()
    for quad in itertools.combinations(sorted(g.vertices), 4):
        if any(g.degree(v) != 3 for v in quad):
            continue
        sub = [(u, v) for u, v in itertools.combinations(quad, 2) if g.has_edge(u, v)]
        if len(sub) != 5:
            continue
        out.add(frozenset(quad))
    return out


def brute_2blossoms(g: Graph) -> set[frozenset[int]]:
    """Role-assignment scan over all 7-subsets."""
    out = set()
    need = [
        ("b", "a1"), ("b", "a2"), ("b", "a3"), ("b", "a4"),
        ("a1", "a2"), ("a3", "a4"),
        ("c1", "a1"), ("c1", "a4"), ("c2", "a2"), ("c2", "a3"),
    ]
    names = ["b", "a1", "a2", "a3", "a4", "c1", "c2"]
    for seven in itertools.combinations(sorted(g.vertices), 7):
        for perm in itertools.permutations(seven):
            roles = dict(zip(names, perm))
            if any(not g.has_edge(roles[x], roles[y]) for x, y in need):
                continue
            if g.degree(roles["b"]) != 4:
                continue
            if any(g.degree(roles[a]) != 3 for a in ("a1", "a2", "a3", "a4")):
                continue
            if g.degree(roles["c1"]) != 3 or g.degree(roles["c2"]) != 3:
                continue
            out.add(frozenset(seven))
            break
    return out


# -- 2-necklaces from assembled chains ---------------------------------------------


def _chain_blocks(g: Graph, blocks) -> list:
    """Assemble blocks into maximal chains glued at shared degree-4 junction
    vertices. Cyclic arrangements have no free ends and are dropped."""
    by_conn: dict[int, list[int]] = {}
    for idx, b in enumerate(blocks):
        for c in b.conns:
            by_conn.setdefault(c, []).append(idx)

    def junction(c: int) -> bool:
        return len(by_conn.get(c, [])) == 2 and g.degree(c) == 4

    chains = []
    used = set()
    for idx, b in enumerate(blocks):
        if idx in used:
            continue
        free = [c for c in b.conns if not junction(c)]
        if not free:
            continue  # interior of a chain, or part of a cycle of blocks
        chain = [idx]
        used.add(idx)
        cur = idx
        start_conn = free[0]
        other = b.conns[0] if b.conns[1] == start_conn else b.conns[1]
        while junction(other):
            nxts = [j for j in by_conn[other] if j != cur]
            if not nxts or nxts[0] in used:
                break
            cur = nxts[0]
            used.add(cur)
            chain.append(cur)
            nb = blocks[cur]
            other = nb.conns[0] if nb.conns[1] == other else nb.conns[1]
        chains.append(chain)
    return [[blocks[i] for i in chain] for chain in chains]


def _chain_role_order(chain) -> tuple[tuple[int, ...], int, int] | None:
    """Canonical vertex tuple for a chain, plus its two end connectors."""
    def shared(a, b) -> int | None:
        common = set(a.conns) & set(b.conns)
        return next(iter(common)) if len(common) == 1 else None

    if len(chain) == 1:
        b = chain[0]
        c1, c2 = b.conns
        return (c1, b.inner[0], b.inner[1], c2), c1, c2
    first, last = chain[0], chain[-1]
    j0 = shared(first, chain[1])
    jn = shared(last, chain[-2])
    if j0 is None or jn is None:
        return None
    c1 = first.conns[0] if first.conns[1] == j0 else first.conns[1]
    c2 = last.conns[0] if last.conns[1] == jn else last.conns[1]
    if c2 < c1:
        chain = list(reversed(chain))
        c1, c2 = c2, c1
    verts: list[int] = [c1]
    prev_end = c1
    for b in chain:
        verts.extend(b.inner)
        nxt = b.conns[0] if b.conns[1] == prev_end else b.conns[1]
        verts.append(nxt)
        prev_end = nxt
    return tuple(verts), c1, c2


def reference_2necklaces(g: Graph) -> list:
    """``patterns.find_2necklaces`` as two passes over the diamond blocks:
    assemble the blocks into chains, then walk each chain again for its
    junctions, ends and direction. The reference for the one-walk finder."""
    from maxleaf.patterns import KIND_2NECKLACE, PatternMatch, _diamond_blocks, _one_per_vertex_set

    matches = []
    for chain in _chain_blocks(g, _diamond_blocks(g)):
        role = _chain_role_order(chain)
        if role is None:
            continue
        verts, c1, c2 = role
        if g.degree(c1) != 3 or g.degree(c2) != 3 or c1 == c2:
            continue
        matches.append(PatternMatch(KIND_2NECKLACE, verts, tuple(sorted((c1, c2))), k=len(chain)))
    return _one_per_vertex_set(matches)


# -- tree lifting by whole-graph candidate tests ----------------------------------


def whole_graph_lift(g_before: Graph, g_after: Graph, step, forest_edges):
    """``reductions._lift`` as it tested each candidate: a union-find over
    every vertex of the pre-graph and a leaf count over every edge. Same
    candidates, order, choice and errors; the reference for the lift that
    tests the replaced region only."""
    from maxleaf.graphs import component_count, connected_components, edge_key, tree_leaf_count
    from maxleaf.reductions import FPT_RULES, ReconstructionError

    forest_edges = {edge_key(u, v) for u, v in forest_edges}
    cc_after = len(connected_components(g_after))
    if not (
        len(forest_edges) == g_after.n - cc_after
        and all(g_after.has_edge(u, v) for u, v in forest_edges)
        and component_count(g_after.vertices, forest_edges) == cc_after
    ):
        raise ReconstructionError("input forest does not span the reduced graph")
    leaves_after = tree_leaf_count(forest_edges)
    # a spanning forest has one tree per component of two or more vertices
    nontrivial = len({v for e in forest_edges for v in e}) - len(forest_edges)
    cc_pre = len(connected_components(g_before))

    # a checked forest edge the step did not add is a pre-graph edge, so the
    # kept part is acyclic in the pre-graph and need is never negative
    kept = forest_edges - {edge_key(u, v) for u, v in step.added_edges}
    # replay drops a vertex only once its edges are gone, so the removed
    # edges hold every pre-graph edge at a removed vertex
    pool_edges = sorted({edge_key(u, v) for u, v in step.removed_edges} - kept)
    need = (g_before.n - cc_pre) - len(kept)

    # every candidate has n - cc_pre distinct edges of the pre-graph, so it
    # spans the pre-graph exactly when it leaves cc_pre components
    best: set[tuple[int, int]] | None = None
    best_leaves = -1
    vertices = g_before.vertices
    for extra in itertools.combinations(pool_edges, need):
        cand = kept | set(extra)
        if component_count(vertices, cand) != cc_pre:
            continue
        leaves = tree_leaf_count(cand)
        if leaves > best_leaves:
            best_leaves = leaves
            best = cand
    if best is None:
        raise ReconstructionError("no completion spans the original graph")

    if step.rule_id in FPT_RULES:
        if best_leaves < leaves_after + 1:
            raise ReconstructionError("lift lost the extra leaf of an FPT step")
    else:
        # when a rewrite leaves a low-degree vertex behind, trees of the
        # reduced graph carry a stronger leaf guarantee, worth 2/3 here;
        # only a touched vertex can change its degree
        slack = 0
        if nontrivial <= cc_pre:
            made_goober = any(
                g_after.has_vertex(v)
                and g_after.degree(v) <= 2
                and (v in step.added_vertices or (g_before.has_vertex(v) and g_before.degree(v) >= 3))
                for v in step.touched()
            )
            slack = 2 if made_goober else 0
        if 3 * (best_leaves - leaves_after) < step.delta_n3 - 6 * (nontrivial - 1) - slack:
            raise ReconstructionError("lift misses the reconstruction bound")
    return best


# -- the reduction loop and the lift as full rescans over replayed graphs ---------


def replayed_graphs(g: Graph, steps) -> list[Graph]:
    """g and its state after each step, each its own copy."""
    graphs = [g]
    for step in steps:
        graphs.append(graphs[-1].copy())
        step.apply(graphs[-1])
    return graphs


def reverted(step, g: Graph) -> Graph:
    """A copy of g, in a step's post-state, taken back to its pre-state."""
    out = g.copy()
    step.revert(out)
    return out


def reference_reduce(g: Graph, rules) -> tuple[Graph, list]:
    """``reductions._reduce`` as a full rescan and a copy per candidate:
    every rule's matches found afresh on the whole graph before each step,
    each candidate replayed on a copy, and its component change counted
    over both whole graphs, and made_goober read off both. Same order,
    admissions and steps; the reference for the loop that works in place on
    cached matches."""
    from dataclasses import replace

    from maxleaf.patterns import check_invariant
    from maxleaf.reductions import FPT_RULES, _shared_end_reason, build_plan, find_matches

    def vet(cur: Graph, match):
        r, rid = match.roles, match.rule_id
        if _shared_end_reason(cur, match):
            return None
        plan = build_plan(cur, match)
        after = cur.copy()
        plan.apply(after)
        split = len(naive_components(after)) - len(naive_components(cur))
        touched = plan.touched()
        n3 = [sum(1 for v in touched if h.has_vertex(v) and h.degree(v) >= 3) for h in (cur, after)]
        made_goober = any(
            after.has_vertex(v)
            and after.degree(v) <= 2
            and (not cur.has_vertex(v) or cur.degree(v) >= 3)
            for v in touched
        )
        step = replace(plan, delta_n3=n3[0] - n3[1], component_delta=split, made_goober=made_goober)
        if rid not in FPT_RULES:
            if rid in ("R3", "R5") and split or rid == "R4" and split <= 0:
                return None
            if rid == "R3" and cur.has_edge(r["u"], r["w"]) or check_invariant(after).violated_clause:
                return None
        return step, after

    cur, steps = g.copy(), []
    while True:
        for match in (m for rule_id in rules for m in find_matches(cur, rule_id)):
            hit = vet(cur, match)
            if hit is not None:
                step, cur = hit
                steps.append(step)
                break
        else:
            return cur, steps


def reference_chain(g_start: Graph, steps, forest_edges):
    """``reductions.reconstruct_chain`` as one replayed graph per step and a
    whole-graph lift over each pair of them."""
    graphs = replayed_graphs(g_start, steps)
    edges = set(forest_edges)
    for i in reversed(range(len(steps))):
        edges = whole_graph_lift(graphs[i], graphs[i + 1], steps[i], edges)
    return edges


# -- the greedy tree's potential, counted from scratch -----------------------------


def reference_potential(g: Graph, vertices, edges) -> tuple[set[int], set[int], int, int]:
    """Leaves, dead leaves (leaves whose host neighbours all lie in the
    vertex set), non-goobers and twice the leaf potential of the subgraph of
    g with the given vertices and edges, all counted afresh."""
    vertices = set(vertices)
    deg = {v: 0 for v in vertices}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    leaves = {v for v, d in deg.items() if d == 1}
    dead = {v for v in leaves if g.neighbors(v) <= vertices}
    nongoob = sum(1 for v in vertices if g.degree(v) >= 3)
    cc = len(naive_components(Graph(vertices, edges)))
    return leaves, dead, nongoob, 5 * len(leaves) + len(dead) - 2 * nongoob - 12 * cc


def tree_edges(t) -> set[tuple[int, int]]:
    """The edges of a ``GreedyTree``, from its parent map."""
    return {(min(p, v), max(p, v)) for v, p in t.vertices.items() if p is not None}


def tree_state(t) -> tuple:
    """Everything a ``GreedyTree`` holds, in its own iteration orders."""
    return (
        list(t.vertices.items()), list(t.deg.items()), list(t.outside.items()),
        set(t.leaves), set(t.dead_leaves), t.nongoob,
    )


def assert_tree_matches_reference(t) -> None:
    """A ``GreedyTree`` is one tree of host edges (or empty), and its
    degrees, outside counts, leaves, dead leaves, non-goobers, potential and
    outside hubs equal a count from scratch. Its heaps may hold stale
    entries but miss none: ``ready`` holds every boundary vertex that is no
    leaf or has two outside neighbours or more, ``edge`` every boundary
    vertex."""
    from maxleaf.potential import leaf_potential

    g, vertices, edges = t.host, set(t.vertices), tree_edges(t)
    assert all(g.has_edge(u, v) for u, v in edges)
    assert len(edges) == max(len(vertices) - 1, 0)
    assert len(naive_components(Graph(vertices, edges))) == min(len(vertices), 1)
    assert t.deg == {v: sum(v in e for e in edges) for v in vertices}
    outside = {v: len(g.neighbors(v) - vertices) for v in vertices}
    assert t.outside == outside
    leaves, dead, nongoob, twice = reference_potential(g, vertices, edges)
    assert (t.leaves, t.dead_leaves, t.nongoob) == (leaves, dead, nongoob)
    assert leaf_potential(t).twice_value == twice
    assert t.hubs_out == sum(1 for v in g.vertices - vertices if g.degree(v) >= 4)
    boundary = {v for v, k in outside.items() if k}
    assert boundary <= set(t.edge)
    assert {v for v in boundary if v not in leaves or outside[v] >= 2} <= set(t.ready)


def reference_greedy(g: Graph) -> tuple:
    """The potential greedy by whole-boundary scans: each augmentation sorts
    the boundary, expands the first vertex that is no leaf or has two
    outside neighbours or more, else reads the potential and tries the pulls
    toward a vertex of degree 4 or more in boundary order; when none is
    made, the lowest boundary vertex is expanded. Every start vertex is
    tried and the first tree with the most leaves wins. Returns its edges
    and ``PotentialReport``."""
    from maxleaf.potential import GreedyTree, expand, leaf_potential

    def augment(t) -> bool:
        boundary = sorted(t.boundary())
        for w in boundary:
            if w not in t.leaves or t.outside[w] >= 2:
                expand(t, w)
                return True
        base, size = leaf_potential(t).twice_value, len(t.vertices)

        def kept(*path: int) -> bool:
            for y in path:
                expand(t, y)
            if leaf_potential(t).twice_value >= base:
                return True
            t.undo(size)
            return False

        for w in boundary:
            for u in sorted(g.neighbors(w) - t.vertices.keys()):
                if g.degree(u) >= 4 and kept(w, u):
                    return True
                for x in sorted(g.neighbors(u) - t.vertices.keys() - {w}):
                    if g.degree(x) >= 4 and kept(w, u, x):
                        return True
        return False

    def grow(start: int):
        t = GreedyTree(g)
        expand(t, start)
        while not t.is_spanning():
            if not augment(t):
                expand(t, min(t.boundary()))
        return t

    best = max((grow(start) for start in sorted(g.vertices)), key=lambda t: len(t.leaves))
    return tree_edges(best), leaf_potential(best)


@pytest.fixture
def checked_growth(monkeypatch):
    """Checks the tree after every ``GreedyTree.add`` and ``undo`` against
    the count from scratch, and tallies the calls."""
    from maxleaf.potential import GreedyTree

    tally = {"add": 0, "undo": 0}

    def checked(name):
        original = getattr(GreedyTree, name)

        def call(t, *args):
            original(t, *args)
            assert_tree_matches_reference(t)
            tally[name] += 1

        monkeypatch.setattr(GreedyTree, name, call)

    checked("add")
    checked("undo")
    return tally


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
