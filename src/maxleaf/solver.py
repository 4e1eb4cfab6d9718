"""Exact maximum-leaf oracle and the parameterized decision procedure.

The oracle works through the complement: for n >= 3 the internal vertices of
a spanning tree form a connected dominating set, so the maximum leaf count is
n minus the smallest one, sought depth-first among connected vertex sets
only. The decision procedure preprocesses with the two-terminal rules, applies
the counting shortcuts, and then searches the forced-leaf sets over the
suppressed graph level by level, visiting a set only when all its one-smaller
subsets are feasible. Each visited set is decided in polynomial time via a
minimum-cost spanning tree, evaluated on the suppressed graph's bitmask index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from .graphs import (
    Graph,
    GraphError,
    SuppressedGraph,
    SuppressedIndex,
    component_count,
    edge_key,
    graph_leaves,
    is_connected,
    n_ge3,
    reach_mask,
    suppress,
    tree_leaf_count,
    vertices_ge3,
)
from .reductions import fpt_preprocess, reconstruct_chain


class CapacityError(GraphError):
    """Instance exceeds the oracle's configured size cap."""


@dataclass(frozen=True)
class ForcedLeafQuery:
    """Ask whether some spanning tree keeps every vertex of L a leaf, and how
    many leaves it can then collect outside the high-degree set."""

    s: SuppressedGraph
    forced: frozenset[int]
    host_leaf_count: int  # degree-1 vertices of the suppressed graph's host
    mask: int = field(init=False, repr=False, compare=False)  # forced, as index bits

    def __post_init__(self):
        if not self.forced <= self.s.vertices:
            raise GraphError("forced set must live inside the suppressed graph")
        object.__setattr__(self, "mask", self.s.index.mask(self.forced))


@dataclass
class SolveStats:
    subsets_enumerated: int = 0  # forced sets evaluated by achievable_leaves
    subsets_pruned: int = 0  # left out because a subset of theirs is infeasible
    reductions_applied: int = 0
    k_after_preprocess: int = 0


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
    depth-first, by size upward from a degree lower bound and by smallest
    member; intended for desk-scale instances (default cap 30 vertices).
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
    full = (1 << len(order)) - 1
    # a vertex joining a connected set is dominated and has a neighbour in
    # it, so it newly dominates at most `spread` vertices; sizes stop by n - 2,
    # as a spanning tree's internal vertices are a connected dominating set
    spread = max(a.bit_count() for a in adj) - 1
    for size in itertools.count(max(1, -(-(g.n - 2) // spread))):
        for root in range(g.n):  # smallest member: its hits precede larger roots'
            below, best = (1 << root) - 1, 0
            # (set, dominated, undecided neighbours above root, members left), <= n deep
            stack = [(1 << root, adj[root] | 1 << root, adj[root] & ~below, size - 1)]
            while stack:
                members, dom, ext, left = stack.pop()
                while ext and left:  # add the lowest undecided neighbour; stack the set without it
                    bit = ext & -ext
                    ext ^= bit
                    stack.append((members, dom, ext, left))
                    near = adj[bit.bit_length() - 1]
                    members, dom, ext, left = members | bit, dom | near, ext | near & ~(dom | below), left - 1
                    if (full & ~dom).bit_count() > left * spread:
                        break
                else:
                    diff = members ^ best
                    if not left and dom == full and (not best or members & diff & -diff):
                        best = members  # lexicographically first so far
            if best:
                return g.n - size, _tree_from_internal_set(g, {v for v in order if best >> idx[v] & 1})


def _tree_from_internal_set(g: Graph, internal: set[int]) -> list[tuple[int, int]]:
    """Spanning tree whose non-leaves lie in the given connected dominating
    set: the breadth-first tree of the set from its smallest vertex, sorted
    neighbours first, plus one pendant edge per outsider. With every vertex
    internal it is the graph's breadth-first spanning tree."""
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


# -- forced-leaf subroutine --------------------------------------------------------


def forced_leaf_feasible(q: ForcedLeafQuery) -> bool:
    """Some spanning tree keeps every forced vertex a leaf: the rest must be
    a connected dominating set of the suppressed graph, no two forced
    vertices may be joined by an edge carrying internal vertices, and no
    suppressed cycle may hang on a forced vertex."""
    if q.s.is_empty():
        raise GraphError("forced-leaf query needs a nonempty suppressed graph")
    ix, forced = q.s.index, q.mask
    keep = ix.full & ~forced
    if not keep or ix.loops & forced:
        return False
    for v in q.forced:
        p = ix.pos[v]
        if ix.heavy[p] & forced or not ix.adj[p] & keep:
            return False  # a costly edge between forced vertices, or undominated
    return reach_mask(ix.adj, keep & -keep, keep) == keep  # kept side connected


def _forced_tree(ix: SuppressedIndex, forced: int) -> tuple[set[int], int]:
    """The construction behind achievable_leaves for a feasible forced mask:
    a minimum-cost spanning tree of the kept side plus the cheapest
    attachment of each forced vertex, ties going to the lower edge id.
    Returns the chosen suppressed-edge ids and the leaves donated by the
    other edges: min(i,2) between two kept endpoints (loops give 2),
    min(i,1) when one endpoint is forced."""
    parent = list(range(len(ix.adj)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree: set[int] = set()
    attached = 0
    joins_left = len(ix.adj) - forced.bit_count() - 1
    gain = 2 * ix.loop_count
    # one pass in (cost, id) order is Kruskal on the kept side and, for each
    # forced vertex, meets its cheapest attachment first
    for eid, pair, a, b, cost in ix.edges:
        hit = pair & forced
        if not hit:
            if joins_left:
                ra, rb = find(a), find(b)
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
    return tree, gain


def achievable_leaves(q: ForcedLeafQuery) -> int | None:
    """Maximum of |forced| + (leaves outside the high-degree set) over the
    spanning trees keeping every forced vertex a leaf; None when infeasible.
    See _forced_tree for the construction."""
    if not forced_leaf_feasible(q):
        return None
    _, gain = _forced_tree(q.s.index, q.mask)
    return len(q.forced) + q.host_leaf_count + gain


def _chain(start: int, seq) -> list[tuple[int, int]]:
    return [edge_key(a, b) for a, b in zip((start, *seq), seq)]


def forced_leaf_tree(g: Graph, s: SuppressedGraph, forced: frozenset[int]) -> list[tuple[int, int]]:
    """Materialize a spanning tree of the suppressed graph's host realizing
    the achievable_leaves construction."""
    q = ForcedLeafQuery(s, forced, len(graph_leaves(g)))
    if not forced_leaf_feasible(q):
        raise GraphError("forced set is infeasible")
    tree, _ = _forced_tree(s.index, q.mask)
    edges: list[tuple[int, int]] = []
    for eid, e in enumerate(s.sedges):
        path = e.path
        inner = path[1:-1]
        if eid in tree:
            edges += _chain(path[0], path[1:])
        elif e.is_loop or (e.u not in forced and e.v not in forced):
            # split the run into two chains, one off each endpoint
            edges += _chain(e.u, inner[:1]) + _chain(e.v, inner[:0:-1])
        elif e.v not in forced:  # u forced: the run hangs off v
            edges += _chain(e.v, inner[::-1])
        elif e.u not in forced:
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
        lifted = sorted(edges) if not steps else sorted(reconstruct_chain(g, steps, set(edges)))
        if not verify_spanning_tree(g, lifted) or tree_leaf_count(lifted) < k:
            raise GraphError("constructed witness fails verification")
        return lifted

    n3 = n_ge3(reduced)
    host_leaves = graph_leaves(reduced)
    if n3 >= 3 * k2 or len(host_leaves) >= k2 or k2 <= 2:
        witness = None
        if want_witness:
            witness = lift_witness(_shortcut_witness(reduced, k2, stats))
        return Verdict("YES", witness, stats)

    if n3 == 0:
        return Verdict("NO", None, stats)  # path or cycle, k2 > 2

    s = suppress(reduced)
    hit = _search_forced_sets(s, sorted(vertices_ge3(reduced)), k2, len(host_leaves), stats)
    if hit is None:
        return Verdict("NO", None, stats)
    witness = None
    if want_witness:
        witness = lift_witness(forced_leaf_tree(reduced, s, hit))
    return Verdict("YES", witness, stats)


def _search_forced_sets(s, big, k, host_leaf_count, stats) -> frozenset[int] | None:
    """First forced set over ``big`` of size at most k, by size and then in
    colex order, whose achievable value reaches k.

    Feasibility is closed under subsets: dropping a vertex from a feasible F
    adds to the kept side a vertex the kept side already dominates. So each
    level is built from the feasible sets of the level below, keeping only
    the candidates whose every one-smaller subset is feasible. The sets left
    out are infeasible, so the first hit is the one exhaustive enumeration
    would find. Each evaluated set counts in ``subsets_enumerated``, each
    left out in ``subsets_pruned``."""
    bit_of = {v: 1 << s.index.pos[v] for v in big}
    level = {0: frozenset()}  # mask -> forced set
    top = min(k, len(big))
    for size in range(top + 1):
        feasible = {}
        for mask in sorted(level):  # ascending masks are colex order
            forced = level[mask]
            value = achievable_leaves(ForcedLeafQuery(s, forced, host_leaf_count))
            stats.subsets_enumerated += 1
            if value is None:
                continue
            if value >= k:
                return forced
            feasible[mask] = forced
        if size == top:
            return None
        # extending each feasible set only by vertices above its top one
        # builds every candidate once
        level = {
            mask | bit: forced | {v}
            for mask, forced in feasible.items()
            for v, bit in bit_of.items()
            if bit > mask and all((mask | bit) ^ bit_of[u] in feasible for u in forced)
        }
        stats.subsets_pruned += comb(len(big), size + 1) - len(level)


def _shortcut_witness(g: Graph, k: int, stats: SolveStats) -> list[tuple[int, int]]:
    """Witness tree for the counting shortcuts. Degree-1 vertices are leaves
    of every spanning tree, so a search tree usually suffices; the greedy
    builder covers the ratio shortcut, and the forced-set search, counted in
    ``stats``, is the guaranteed fallback."""
    from .potential import greedy_spanning_tree

    try:
        edges, _ = greedy_spanning_tree(g)
        edges = sorted(edges)
    except GraphError:
        edges = _tree_from_internal_set(g, g.vertices)
    if tree_leaf_count(edges) >= k:
        return edges
    if not any(g.degree(v) >= 3 for v in g.vertices):
        return edges  # path or cycle: the shortcut fired on k <= 2
    s = suppress(g)
    hit = _search_forced_sets(s, sorted(vertices_ge3(g)), k, len(graph_leaves(g)), stats)
    if hit is None:
        raise GraphError("shortcut promised a tree the instance cannot deliver")
    return forced_leaf_tree(g, s, hit)
