"""Leaf potential: the tree the greedy builder grows, its exact potential,
vertex expansion, conservative augmentation moves, and the potential-greedy
spanning-tree heuristic, which grows one tree on the input graph itself
until it spans.

All potential arithmetic is exact: values are half-integers stored as their
doubled integer. The heuristic makes no bound promise; callers compare the
achieved leaf count against the target ratio themselves.

Every move changes the tree in place. A candidate pull is scored by making
it, reading the potential and undoing it, which costs the vertices it
touches: the tree carries the counts the potential reads. Its heaps and hub
count spare a move the boundary scan unless a pull may apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .graphs import Graph, GraphError, edge_key, is_connected, n_ge3


class GreedyTree:
    """One tree inside a host graph that must not change meanwhile. It grows
    by ``add``, which hangs a vertex off a tree vertex, and shrinks by
    ``undo`` in the reverse order. ``vertices`` maps each tree vertex, in the
    order added, to the vertex it hangs off (None for the first). The tree
    keeps what the potential reads: tree degrees, for each tree vertex the
    number of its distinct host neighbours outside the tree, the leaves, the
    dead leaves (leaves with no host neighbour outside) and the number of
    host non-goobers. For the moves it keeps ``hubs_out``, the number of host
    vertices of degree 4 or more outside, and two min-heaps, read past stale
    entries: ``ready`` holds every vertex that try_augment may expand
    unscored, ``edge`` every boundary vertex. A vertex comes to belong only
    when it is added or a take-back frees one of its host neighbours."""

    __slots__ = ("host", "vertices", "deg", "outside", "leaves", "dead_leaves", "nongoob", "hubs_out", "ready", "edge")

    def __init__(self, host: Graph):
        self.host = host
        self.vertices: dict[int, int | None] = {}
        self.deg: dict[int, int] = {}
        self.outside: dict[int, int] = {}
        self.leaves: set[int] = set()
        self.dead_leaves: set[int] = set()
        self.nongoob = 0
        self.hubs_out = sum(1 for d in host._deg.values() if d >= 4)
        self.ready, self.edge = [], []

    def is_spanning(self) -> bool:
        return len(self.vertices) == self.host.n

    def boundary(self) -> list[int]:
        """Tree vertices with at least one host neighbour outside."""
        return [v for v, k in self.outside.items() if k]

    def add(self, v: int, parent: int | None = None) -> None:
        """Add v, a host vertex outside the tree, hanging off the tree
        vertex ``parent`` by a host edge; only the first vertex has none."""
        self.vertices[v] = parent
        self.deg[v] = 0 if parent is None else 1
        if parent is not None:
            self.leaves.add(v)
            self.deg[parent] += 1
            # degree 1 reached (by the first vertex) or left; a parent had v
            # outside, so it was no dead leaf
            if self.deg[parent] <= 2:
                self.leaves ^= {parent}
        self.nongoob += (d := self.host._deg.get(v, 0)) >= 3
        self.hubs_out -= d >= 4
        outside = 0
        for w in self.host._adj[v]:
            if w not in self.vertices:
                outside += 1
            elif w != v:
                self.outside[w] -= 1
                if not self.outside[w] and self.deg[w] == 1:
                    self.dead_leaves.add(w)
        self.outside[v] = outside
        if not outside and parent is not None:
            self.dead_leaves.add(v)
        if outside:
            heappush(self.edge, v)
            if outside >= 2 or parent is None:
                heappush(self.ready, v)

    def undo(self, size: int) -> None:
        """Take back the latest additions until ``size`` vertices remain."""
        while len(self.vertices) > size:
            v, parent = self.vertices.popitem()
            del self.deg[v], self.outside[v]
            self.leaves.discard(v)
            self.dead_leaves.discard(v)
            if parent is not None:
                self.deg[parent] -= 1
                if self.deg[parent] <= 1:  # degree 1 reached, or left for 0 by the first vertex
                    self.leaves ^= {parent}
            self.nongoob -= (d := self.host._deg.get(v, 0)) >= 3
            self.hubs_out += d >= 4
            for w in self.host._adj[v]:
                if w in self.vertices:
                    self.outside[w] += 1
                    if self.outside[w] == 1:
                        self.dead_leaves.discard(w)
                    heappush(self.ready, w)
                    heappush(self.edge, w)


@dataclass(frozen=True)
class PotentialReport:
    """Exact snapshot of a tree's potential ingredients."""

    leaves: int
    dead_leaves: int
    nongoob: int
    cc: int
    twice_value: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice_value, 2)


def leaf_potential(t: GreedyTree) -> PotentialReport:
    """2.5*leaves + 0.5*dead - nongoober - 6*components, exactly; a tree
    that is not empty is one component."""
    leaves, dead, cc = len(t.leaves), len(t.dead_leaves), min(len(t.vertices), 1)
    twice = 5 * leaves + dead - 2 * t.nongoob - 12 * cc
    return PotentialReport(leaves, dead, t.nongoob, cc, twice)


def expand(t: GreedyTree, v: int) -> None:
    """Grow the tree by the closed neighbourhood of v: every host neighbour
    outside the tree hangs off v as a new leaf. An empty tree starts at v;
    v must be a tree vertex otherwise."""
    fresh = t.host.neighbors(v).difference(t.vertices, (v,))
    if not t.vertices:
        t.add(v)
    elif v not in t.vertices:
        raise GraphError(f"vertex {v} is not in the tree")
    for w in fresh:
        t.add(w, v)


def try_augment(t: GreedyTree) -> GreedyTree | None:
    """One conservative extension: expand the lowest vertex ``ready`` offers,
    or, while ``hubs_out`` counts one, a short run out to a nearby vertex of
    degree 4 or more. Every move adds an outside vertex and does not lower
    the potential (a pull that does is undone); the tree is returned."""
    if not t.vertices or t.is_spanning():
        return None
    # expanding a boundary vertex that is no leaf, or a leaf with two or more
    # outside neighbours, never lowers the potential: each new leaf adds 2.5
    # and costs at most 1 as a non-goober, and a leaf expanded costs 2.5
    while t.ready:
        w = t.ready[0]
        if t.outside.get(w) and (w not in t.leaves or t.outside[w] >= 2):
            expand(t, w)
            return t
        heappop(t.ready)
    if not t.hubs_out:
        return None
    g = t.host
    base = None
    size = len(t.vertices)

    def kept(*path: int) -> bool:
        """Expand each vertex of ``path``; undo it all if the potential drops."""
        nonlocal base
        if base is None:
            base = leaf_potential(t).twice_value
        for y in path:
            expand(t, y)
        if leaf_potential(t).twice_value >= base:
            return True
        t.undo(size)
        return False

    # pull in a high-degree vertex at distance one or two
    for w in sorted(t.boundary()):
        for u in sorted(g.neighbors(w).difference(t.vertices)):
            if g.degree(u) >= 4 and kept(w, u):
                return t
            for x in sorted(g.neighbors(u).difference(t.vertices, (w,))):
                if g.degree(x) >= 4 and kept(w, u, x):
                    return t
    return None


def _greedy_from(g: Graph, start: int) -> GreedyTree:
    """One tree grown from the closed neighbourhood of ``start`` until it
    spans the connected host: a conservative augmentation while one
    applies, otherwise an expansion of the lowest boundary vertex, the top
    of ``edge`` (the host is connected, so a tree that does not span has a
    boundary). try_augment expands every other boundary vertex, so this
    runs only when every boundary vertex is a leaf with one outside
    neighbour, where each expansion trades one leaf for one."""
    t = GreedyTree(g)
    expand(t, start)
    while not t.is_spanning():
        if try_augment(t) is None:
            while not t.outside.get(t.edge[0]):
                heappop(t.edge)
            expand(t, t.edge[0])
    return t


def greedy_spanning_tree(g: Graph) -> tuple[set[tuple[int, int]], PotentialReport]:
    """Best-effort many-leaf spanning tree of a connected graph: the
    potential-greedy loop runs on g itself from every start vertex and the
    first tree in start order with the most leaves wins. Returns its edges
    and its potential."""
    if g.n < 2:
        raise GraphError("need at least two vertices")
    if not is_connected(g):
        raise GraphError("greedy builder requires a connected graph")
    best = max((_greedy_from(g, start) for start in sorted(g.vertices)), key=lambda t: len(t.leaves))
    return {edge_key(p, v) for v, p in best.vertices.items() if p is not None}, leaf_potential(best)


def heuristic_bound(g: Graph) -> Fraction:
    """The ratio the toolkit reports greedy trees against."""
    return Fraction(n_ge3(g), 3) + Fraction(4, 3)


def theorem_bound(g: Graph) -> Fraction:
    """The paper's theorem: an invariant-satisfying graph has a spanning
    tree with at least n≥3/3 + 4/3 leaves at minimum degree 3 and n≥3/3 + 2
    when lower degrees occur, n≥3 counting the vertices of degree 3 or more."""
    return Fraction(n_ge3(g), 3) + (Fraction(4, 3) if g.min_degree() >= 3 else 2)
