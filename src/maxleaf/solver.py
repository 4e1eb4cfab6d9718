"""Exact maximum-leaf oracle and the parameterized decision procedure.

The oracle works through the complement: for n >= 3 the internal vertices of
a spanning tree form a connected dominating set, so the maximum leaf count is
n minus the smallest one, sought depth-first among connected vertex sets
only. The decision procedure preprocesses with the two-terminal rules, applies
the counting shortcuts, refutes k above the degree ceiling (a spanning tree
with i internal vertices has at most 2 + caps[i] vertices, see ``_caps``),
and then searches the forced-leaf sets over the suppressed graph from one
of two sides, whichever has the smaller enumeration bound
(``SolveStats.search_side``).
The forced side first builds a Kleitman–West leaf-expansion tree in O(m)
(``expansion_tree``); when it has k leaves, its leaves of degree 3 or more
are the forced set and nothing is enumerated. Otherwise the forced side goes
level by level, visiting a set only when all its one-smaller subsets are
feasible. The kept side enumerates the complements: connected dominating
sets small enough for their forced set to reach k, with the oracle's
enumerator, which grows every set of one size from its own root. Each
visited set is decided, valued and built by one Kruskal pass over the
suppressed edges in cost order (``_forced_tree``), which finds a
minimum-cost spanning tree of the kept side or shows that none keeps the set
forced. The counting shortcuts' witness is the expansion tree too, when it
has k leaves, and the search's tree otherwise.
"""

from __future__ import annotations

import itertools
from bisect import bisect, bisect_left
from dataclasses import dataclass
from math import comb

from .graphs import (
    Graph,
    GraphError,
    SuppressedGraph,
    component_count,
    edge_key,
    find,
    graph_leaves,
    is_connected,
    n_ge3,
    suppress,
    tree_leaf_count,
    tree_leaves,
    vertices_ge3,
)
from .reductions import fpt_preprocess, reconstruct_chain


class CapacityError(GraphError):
    """Instance exceeds the oracle's configured size cap."""


@dataclass
class SolveStats:
    subsets_enumerated: int = 0  # forced sets evaluated by achievable_leaves
    subsets_pruned: int = 0  # forced side: left out because a subset of theirs is infeasible
    reductions_applied: int = 0
    k_after_preprocess: int = 0
    search_side: str | None = None  # "forced" or "kept"; None when no search ran
    probe_leaves: int | None = None  # leaves of the expansion tree; None when none was built
    leaf_ceiling: int | None = None  # most leaves the degree ceiling allows; None when not reached


@dataclass
class Verdict:
    answer: str  # "YES" | "NO"
    witness: list[tuple[int, int]] | None
    stats: SolveStats

    @property
    def is_yes(self) -> bool:
        return self.answer == "YES"


# -- exact oracle ----------------------------------------------------------------


def exact_max_leaves(g: Graph, cap: int = 30) -> tuple[int, list[tuple[int, int]]]:
    """True maximum leaf count over all spanning trees, with a witness tree.

    n minus the size of a smallest connected dominating set, the
    lexicographically first one, found by enumerating connected vertex sets
    depth-first, by size upward from a degree lower bound; the first size
    with a set is the answer (see _connected_sets). Intended for desk-scale
    instances (default cap 30 vertices).
    """
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
    caps = _caps(a.bit_count() for a in adj)
    # sizes stop by n - 2, as a spanning tree's internal vertices are a
    # connected dominating set
    for size in itertools.count(_fewest_internal(g.n, caps)):
        if best := next(_connected_sets(adj, caps, size, lex_first=True), 0):
            return g.n - size, _tree_from_internal_set(g, {v for v in order if best >> idx[v] & 1})


def _caps(degrees) -> list[int]:
    """``caps[j]``: most vertices that j vertices joining a connected set
    can newly dominate, the sum of the j largest of max(degree - 1, 0). A
    joining vertex is dominated already and has a neighbour in the set."""
    return list(itertools.accumulate(sorted((max(d - 1, 0) for d in degrees), reverse=True), initial=0))


def _fewest_internal(n: int, caps: list[int]) -> int:
    """Fewest internal vertices of a spanning tree on n >= 2 vertices, or
    members of a connected dominating set: i of them dominate at most
    2 + caps[i] vertices (see _caps). So no spanning tree has more than n
    minus this many leaves."""
    return bisect_left(caps, n - 2)


def _connected_sets(adj, caps: list[int], size: int, must: int = 0, *, lex_first=False):
    """Yield, as masks, the connected sets of ``size`` positions that contain
    every bit of ``must`` and dominate every position; ``adj[i]`` is the
    neighbour mask of position i. Each set is grown from the lowest
    ``must`` bit, or, with no ``must``, from its smallest member.

    Depth first, each set once: the lowest undecided neighbour is added, and
    the set without it is stacked, never to take it back. The roots are
    stacked first, the lowest on top, so the sets come out by root. A set is
    dropped when more positions are undominated than its members still to
    come can dominate, ``caps[left]`` (see _caps), and a ``must`` bit is
    never left out. With ``lex_first`` only the lexicographically first set
    is yielded, the one holding the lowest bit where two differ; once a set
    is in hand, a branch is dropped unless a bit it may still take, outside
    that set, lies below the set's lowest bit the branch can no longer
    take."""
    full = (1 << len(adj)) - 1
    best = 0  # the set in hand, under lex_first
    # (set, dominated, undecided neighbours, members left, bits below the
    # root), at most 2n deep
    stack = []
    for p in [(must & -must).bit_length() - 1] if must else range(len(adj) - size, -1, -1):
        near, below = adj[p], 0 if must else (1 << p) - 1
        stack.append((1 << p, near | 1 << p, near & ~below, size - 1, below))
    while stack:
        members, dom, ext, left, below = stack.pop()
        if best:  # ext takes only undominated bits: the other dominated non-members never join
            out = below | dom & ~(members | ext)
            lost = best & out
            if not full & ~(out | best) & (lost & -lost) - 1:  # -1, all bits, when none is lost
                continue
        while ext and left:
            bit = ext & -ext
            ext ^= bit
            if not bit & must:
                stack.append((members, dom, ext, left, below))
            near = adj[bit.bit_length() - 1]
            members, dom, ext, left = members | bit, dom | near, ext | near & ~(dom | below), left - 1
            if (full & ~dom).bit_count() > caps[left]:
                break
        else:
            if not left and dom == full and not must & ~members:
                if not lex_first:
                    yield members
                elif members & (diff := members ^ best) & -diff:  # always when best is 0
                    best = members
    if best:
        yield best


def _tree_from_internal_set(g: Graph, internal: set[int]) -> list[tuple[int, int]]:
    """Spanning tree whose non-leaves lie in the given connected dominating
    set: the breadth-first tree of the set from its smallest vertex, sorted
    neighbours first, plus one pendant edge per outsider."""
    order = sorted(internal)
    tree: list[tuple[int, int]] = []
    seen = {order[0]}
    frontier = [order[0]]
    while frontier:
        v = frontier.pop(0)
        for w in sorted(g.neighbors(v)):
            if w in internal and w not in seen:
                seen.add(w)
                tree.append(edge_key(v, w))
                frontier.append(w)
    for v in sorted(g.vertices - internal):
        anchor = min(w for w in g.neighbors(v) if w in internal)
        tree.append(edge_key(v, anchor))
    return sorted(tree)


def verify_spanning_tree(g: Graph, edges: list[tuple[int, int]]) -> bool:
    """The edges are n - 1 edges of g joining all its vertices."""
    return (
        len(edges) == g.n - 1
        and all(g.has_edge(u, v) for u, v in edges)
        and component_count(g.vertices, edges) == 1
    )


# -- leaf-expansion tree -----------------------------------------------------------


def expansion_tree(g: Graph) -> list[tuple[int, int]]:
    """Spanning tree with many leaves by Kleitman–West leaf expansion, in
    O(m) after sorting the neighbour lists; on a graph of minimum degree 3
    it has at least n/4 + 2 leaves (Kleitman & West, "Spanning trees with
    many leaves", SIAM J. Discrete Math. 1991).

    The tree starts as a vertex of largest degree, the lowest id on ties,
    expanded. Expanding a leaf adds every neighbour it has outside the tree
    as a new leaf. Each step expands, in this order of preference: a leaf
    with at least 2 outside neighbours; a leaf whose one outside neighbour
    has at least 2 more, and then that neighbour; any leaf with an outside
    neighbour. An expanded vertex keeps no outside neighbour, so an outside
    vertex is only ever attached to a leaf. Degrees count distinct
    neighbours, so parallel edges and loops change nothing.

    The leaves wait in three stacks, a bucket queue by outside degree:
    ``wide`` (2 or more), ``narrow`` (1), and ``rest`` (1, whose neighbour
    has fewer than 2 more). Outside degrees only fall, so an entry is
    rechecked when taken and dropped for good when stale, and each vertex
    enters each stack at most once. Raises GraphError on a disconnected
    graph."""
    nbrs: dict[int, list[int]] = {v: [] for v in sorted(g.vertices)}
    for u, w in g.simple_edges():  # ascending, so every list comes out sorted
        nbrs[u].append(w)
        nbrs[w].append(u)
    if not nbrs:
        return []
    out = {v: len(ws) for v, ws in nbrs.items()}  # neighbours outside the tree
    start = max(nbrs, key=out.__getitem__)  # the first maximum: the lowest id
    in_tree, leaf = {start}, set()
    edges: list[tuple[int, int]] = []
    wide: list[int] = []
    narrow: list[int] = []
    rest: list[int] = []

    def expand(x: int) -> None:
        leaf.discard(x)
        fresh = [w for w in nbrs[x] if w not in in_tree]
        in_tree.update(fresh)
        for w in fresh:
            edges.append(edge_key(x, w))
            for z in nbrs[w]:
                out[z] -= 1
                if out[z] == 1 and z in leaf:
                    narrow.append(z)
        for w in fresh:
            leaf.add(w)
            if out[w]:
                (wide if out[w] >= 2 else narrow).append(w)

    for z in nbrs[start]:
        out[z] -= 1
    expand(start)
    while len(edges) < len(nbrs) - 1:
        if wide:
            x = wide.pop()
            if x in leaf and out[x] >= 2:
                expand(x)
        elif narrow:
            x = narrow.pop()
            if x in leaf and out[x] == 1:
                y = next(w for w in nbrs[x] if w not in in_tree)
                if out[y] >= 2:
                    expand(x)
                    expand(y)
                else:
                    rest.append(x)
        elif rest:
            x = rest.pop()
            if x in leaf and out[x]:
                expand(x)
        else:
            raise GraphError("expansion tree needs a connected graph")
    return sorted(edges)


# -- forced-leaf subroutine --------------------------------------------------------
# a forced set is a bitmask over the suppressed graph s, s.mask(vs) of its vertices


def forced_leaf_feasible(s: SuppressedGraph, forced: int) -> bool:
    """Some spanning tree keeps every forced vertex a leaf: the rest must be
    a connected dominating set of the suppressed graph, no two forced
    vertices may be joined by an edge carrying internal vertices, and no
    suppressed cycle may hang on a forced vertex. See _forced_tree."""
    return _forced_tree(s, forced) is not None


def _forced_tree(s: SuppressedGraph, forced: int) -> tuple[set[int], int] | None:
    """The one evaluation of a forced set: a minimum-cost spanning tree of
    the kept side plus the cheapest attachment of each forced vertex, ties
    going to the lower edge id. Returns the chosen suppressed-edge ids and
    the leaves donated by the other edges: min(i,2) between two kept
    endpoints (loops give 2), min(i,1) when one endpoint is forced. Returns
    None when the set is infeasible: every vertex forced, a loop or a costly
    edge on the forced side, a disconnected kept side, or a forced vertex
    with no kept neighbour."""
    if s.is_empty():
        raise GraphError("forced-leaf query needs a nonempty suppressed graph")
    if forced == s.full or s.loops & forced:
        return None
    parent = list(range(len(s.adj)))
    tree: set[int] = set()
    attached = 0
    joins_left = len(s.adj) - forced.bit_count() - 1
    gain = 2 * s.loop_count
    # one pass in (cost, id) order is Kruskal on the kept side and, for each
    # forced vertex, meets its cheapest attachment first
    for eid, pair, a, b, cost in s.edges:
        hit = pair & forced
        if not hit:
            if joins_left:
                ra, rb = find(parent, a), find(parent, b)
                if ra != rb:
                    parent[ra] = rb
                    tree.add(eid)
                    joins_left -= 1
                    continue
            gain += cost
        elif hit != pair:
            if hit & attached:
                gain += min(cost, 1)
            else:
                attached |= hit
                tree.add(eid)
        elif cost:
            return None  # its inner vertices could hang off neither end
    if joins_left or attached != forced:
        return None
    return tree, gain


def achievable_leaves(s: SuppressedGraph, forced: int, host_leaf_count: int) -> int | None:
    """Maximum of |forced| + (leaves outside the high-degree set) over the
    spanning trees keeping every forced vertex a leaf, given the number of
    degree-1 vertices of the suppressed graph's host; None when infeasible.
    See _forced_tree for the construction."""
    built = _forced_tree(s, forced)
    return None if built is None else forced.bit_count() + host_leaf_count + built[1]


def _chain(start: int, seq) -> list[tuple[int, int]]:
    return [edge_key(a, b) for a, b in zip((start, *seq), seq)]


def forced_leaf_tree(s: SuppressedGraph, forced: int) -> list[tuple[int, int]]:
    """Materialize a spanning tree of the suppressed graph's host realizing
    the achievable_leaves construction."""
    built = _forced_tree(s, forced)
    if built is None:
        raise GraphError("forced set is infeasible")
    tree, _ = built
    edges: list[tuple[int, int]] = []
    for eid, e in enumerate(s.sedges):
        inner = e.path[1:-1]
        u_forced, v_forced = forced >> s.pos[e.u] & 1, forced >> s.pos[e.v] & 1
        if eid in tree:
            edges += _chain(e.path[0], e.path[1:])
        elif e.is_loop or not (u_forced or v_forced):
            # split the run into two chains, one off each endpoint
            edges += _chain(e.u, inner[:1]) + _chain(e.v, inner[:0:-1])
        elif not v_forced:  # u forced: the run hangs off v
            edges += _chain(e.v, inner[::-1])
        elif not u_forced:
            edges += _chain(e.u, inner)
        # both forced: no inner vertices exist
    return sorted(set(edges))


# -- the decision procedure ----------------------------------------------------------


def fpt_decide(g: Graph, k: int, want_witness: bool = False) -> Verdict:
    """YES iff the graph has a spanning tree with at least k leaves.

    Parallel edges are collapsed to one copy, and loops dropped, first; no
    spanning tree uses either, so the answer is unchanged."""
    if k < 1:
        raise GraphError("k must be at least 1")
    if not is_connected(g):
        raise GraphError("decision procedure requires a connected graph")
    if g.n < 2:
        raise GraphError("need at least two vertices")
    if not g.is_simple():
        g = Graph(g.vertices, g.simple_edges())

    reduced, k2, steps = fpt_preprocess(g, k)
    stats = SolveStats(reductions_applied=len(steps), k_after_preprocess=k2)

    def lift_witness(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
        lifted = sorted(edges) if not steps else sorted(reconstruct_chain(g, steps, set(edges), reduced))
        if not verify_spanning_tree(g, lifted) or tree_leaf_count(lifted) < k:
            raise GraphError("constructed witness fails verification")
        return lifted

    n3 = n_ge3(reduced)
    shortcut = n3 >= 3 * k2 or len(graph_leaves(reduced)) >= k2 or k2 <= 2
    if shortcut:
        if not want_witness:
            return Verdict("YES", None, stats)
        # degree-1 vertices are leaves of every spanning tree, and every
        # spanning tree of two or more vertices has 2 leaves, so only the
        # ratio shortcut (3k or more vertices of degree 3) can get past the
        # expansion tree; it has met k on every such instance tried, and the
        # search below backs it up
        probe = expansion_tree(reduced)
        stats.probe_leaves = tree_leaf_count(probe)
        if stats.probe_leaves >= k2:
            return Verdict("YES", lift_witness(probe), stats)
    elif n3 == 0:
        return Verdict("NO", None, stats)  # path or cycle, k2 > 2
    else:
        caps = _caps(reduced.degree(v) for v in reduced.vertices)
        stats.leaf_ceiling = reduced.n - _fewest_internal(reduced.n, caps)
        if k2 > stats.leaf_ceiling:
            return Verdict("NO", None, stats)  # the degree ceiling; parallel edges only raise it

    s = suppress(reduced)
    hit = _search(reduced, s, k2, stats)
    if hit is None:
        if shortcut:
            raise GraphError("shortcut promised a tree the instance cannot deliver")
        return Verdict("NO", None, stats)
    return Verdict("YES", lift_witness(forced_leaf_tree(s, hit)) if want_witness else None, stats)


def _search(g, s, k, stats, side=None) -> int | None:
    """A forced set within ``big``, the vertices of degree 3 or more in g, as
    a mask over ``s = suppress(g)``, whose value reaches k, or None, sought from
    ``side``, by default the side with the smaller enumeration bound;
    records the side in ``stats.search_side``.

    A forced set F is worth |F| + host leaves + gain, and the gain is at
    most 2 per loop plus the cost of every suppressed edge, so F reaches k
    only if it leaves at most ``top_kept`` vertices kept. The vertices
    outside ``big`` and those carrying a loop are never forced, so they lie
    in every kept set. The forced side visits at most the subsets of
    ``big`` of size up to k; the kept side adds at most ``top_kept`` minus
    that many of the other vertices. Ties go to the forced side.

    The forced side first builds the expansion tree of g. With k leaves or
    more, its leaves of degree 3 or more are a forced set that reaches k,
    since the tree keeps them leaves: no set is enumerated. The kept side
    never builds it. On a NO the tree cannot help: the 13 decide-no
    benchmark instances (seed 0) that reach the search all take the kept
    side, where building it would cost about 12% of a pass over the
    workload; on a YES that side stops at its first small enough connected
    dominating set anyway."""
    big = vertices_ge3(g)
    host_leaf_count = len(graph_leaves(g))
    must = s.full & ~s.mask(big) | s.loops
    gain_cap = 2 * s.loop_count + sum(cost for *_, cost in s.edges)
    top_kept = len(s.adj) - (k - host_leaf_count - gain_cap)
    if side is None:
        fixed = must.bit_count()
        kept_bound = sum(comb(len(s.adj) - fixed, j) for j in range(top_kept - fixed + 1))
        forced_bound = sum(comb(len(big), j) for j in range(min(k, len(big)) + 1))
        side = "kept" if kept_bound < forced_bound else "forced"
    stats.search_side = side
    if side == "kept":
        return _search_kept_sets(s, k, host_leaf_count, stats, top_kept, must, gain_cap)
    probe = expansion_tree(g)
    leaves = tree_leaves(probe)
    stats.probe_leaves = len(leaves)
    if len(leaves) >= k:
        return s.mask(leaves & big)
    return _search_forced_sets(s, s.mask(big), k, host_leaf_count, stats)


def _search_kept_sets(s, k, host_leaf_count, stats, top_kept, must, gain_cap) -> int | None:
    """First forced set whose achievable value reaches k, found through its
    kept side: the connected dominating sets of the suppressed graph with
    at most ``top_kept`` vertices that hold every ``must`` bit, by size and
    then as _connected_sets yields them. Each evaluated set counts in
    ``subsets_enumerated``.

    With no gain possible (``gain_cap`` 0) a set is worth |F| + host leaves,
    and a kept set grown by a neighbour stays connected, dominating and
    holding ``must``: one of at most ``top_kept`` vertices exists iff one of
    exactly that many does, so only the top size is enumerated."""
    n = len(s.adj)
    caps = _caps(a.bit_count() for a in s.adj)
    smallest = max(1, must.bit_count(), _fewest_internal(n, caps))
    sizes = range(smallest, min(top_kept, n) + 1)
    for size in sizes if gain_cap else sizes[-1:]:
        for kept in _connected_sets(s.adj, caps, size, must):
            forced = s.full & ~kept
            value = achievable_leaves(s, forced, host_leaf_count)
            stats.subsets_enumerated += 1
            if value is not None and value >= k:
                return forced
    return None


def _search_forced_sets(s, big, k, host_leaf_count, stats) -> int | None:
    """First forced set over the mask ``big`` of size at most k, by size and
    then in colex order, whose achievable value reaches k.

    Feasibility is closed under subsets: dropping a vertex from a feasible F
    adds to the kept side a vertex the kept side already dominates. So each
    level is built from the feasible sets of the level below, keeping only
    the candidates whose every one-smaller subset is feasible. The sets left
    out are infeasible, so the first hit is the one exhaustive enumeration
    would find. Each evaluated set counts in ``subsets_enumerated``, each
    left out in ``subsets_pruned``."""
    bits = [1 << p for p in range(big.bit_length()) if big >> p & 1]
    level = [0]
    top = min(k, len(bits))
    for size in range(top + 1):
        feasible = set()
        for forced in sorted(level):  # ascending masks are colex order
            value = achievable_leaves(s, forced, host_leaf_count)
            stats.subsets_enumerated += 1
            if value is None:
                continue
            if value >= k:
                return forced
            feasible.add(forced)
        if size == top:
            return None
        # each feasible set grows only by the bits above its top one, so each
        # candidate is built once, and stays if clearing any one bit leaves a feasible set
        level = []
        for forced in feasible:
            above = bisect(bits, forced)
            members = [b for b in bits[:above] if b & forced]
            level += (forced | bit for bit in bits[above:] if all(forced ^ b | bit in feasible for b in members))
        stats.subsets_pruned += comb(len(bits), size + 1) - len(level)
