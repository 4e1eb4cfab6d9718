"""Leaf-potential machinery: exact potential evaluation of a subgraph, vertex
expansion, conservative augmentation moves, and a greedy spanning-tree
heuristic.

The heuristic grows one tree on the input graph until it spans. The paper
reduces a graph to an irreducible one to prove its bound; the builder does
not reduce, and has no second component to open or join.

All potential arithmetic is exact: values are half-integers stored as their
doubled integer. The heuristic makes no bound promise; callers compare the
achieved leaf count against the target ratio themselves.

Every function here takes the subgraph alone and reads its host from
``f.host``. Every candidate move grows the current subgraph with
``SubgraphF.with_additions``, which costs the vertices the move touches, and
the subgraph carries the counts the potential needs, so scoring a candidate
does not walk the subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, GraphError, SubgraphF, is_connected, is_goober, n_ge3


@dataclass(frozen=True)
class PotentialReport:
    """Exact snapshot of a subgraph's potential ingredients."""

    leaves: int
    dead_leaves: int
    nongoob: int
    cc: int
    twice_value: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice_value, 2)


def leaf_potential(f: SubgraphF) -> PotentialReport:
    """2.5*leaves + 0.5*dead - nongoober - 6*components, exactly."""
    leaves, dead = len(f.leaves), len(f.dead_leaves)
    twice = 5 * leaves + dead - 2 * f.nongoob - 12 * f.cc
    return PotentialReport(leaves, dead, f.nongoob, f.cc, twice)


def expand(f: SubgraphF, v: int) -> SubgraphF:
    """Grow the subgraph by the closed neighborhood of v: every neighbor not
    already present is added as a leaf hanging off v. Expanding a vertex
    outside the subgraph starts a new component."""
    g = f.host
    if not g.has_vertex(v):
        raise GraphError(f"no vertex {v}")
    fresh = [w for w in g.neighbors(v) if w not in f.vertices and w != v]
    adds = set(fresh)
    if v not in f.vertices:
        adds.add(v)
    if not adds:
        return f
    return f.with_additions(adds, [(v, w) for w in fresh])


def expand_many(f: SubgraphF, vs: list[int]) -> SubgraphF:
    for v in vs:
        f = expand(f, v)
    return f


def try_augment(f: SubgraphF) -> SubgraphF | None:
    """One conservative extension: attach an adjacent goober, expand a
    boundary vertex, or expand a short run out to a nearby high-degree
    vertex. Every move adds a vertex from outside the subgraph; one is
    returned only when it adds no component and does not decrease the
    potential."""
    if not f.vertices or f.is_spanning():
        return None
    g = f.host
    base = leaf_potential(f)

    def accept(candidate: SubgraphF) -> bool:
        return candidate.cc <= f.cc and leaf_potential(candidate).twice_value >= base.twice_value

    boundary = sorted(f.boundary())
    # adjacent goober attachment
    for w in boundary:
        for u in sorted(g.neighbors(w)):
            if u in f.vertices or not is_goober(g, u):
                continue
            cand = f.with_additions({u}, [(w, u)])
            if accept(cand):
                return cand
    # expanding a boundary vertex is tried when it cannot lose a leaf (it is
    # no leaf itself) or when it gains at least two new ones
    for w in boundary:
        outside = [u for u in g.neighbors(w) if u not in f.vertices]
        if w in f.leaves and len(outside) < 2:
            continue
        cand = expand(f, w)
        if accept(cand):
            return cand
    # pull in a high-degree vertex at distance one or two
    for w in boundary:
        for u in sorted(g.neighbors(w) - f.vertices):
            if g.degree(u) >= 4:
                cand = expand_many(f, [w, u])
                if accept(cand):
                    return cand
            for x in sorted(g.neighbors(u) - f.vertices - {w}):
                if g.degree(x) >= 4:
                    cand = expand_many(f, [w, u, x])
                    if accept(cand):
                        return cand
    return None


def _greedy_from(g: Graph, start: int) -> SubgraphF:
    """One tree grown from the closed neighbourhood of ``start`` until it
    spans the connected host: a conservative augmentation while one
    applies, otherwise the boundary expansion that gives the highest
    potential, lowest vertex on ties (the host is connected, so a tree that
    does not span has a boundary). Every move adds vertices hanging off the
    tree, so the subgraph stays one tree throughout."""
    f = expand(SubgraphF.empty(g), start)
    while not f.is_spanning():
        nxt = try_augment(f)
        if nxt is None:
            grown = ((w, expand(f, w)) for w in f.boundary())
            nxt = min(grown, key=lambda wc: (-leaf_potential(wc[1]).twice_value, wc[0]))[1]
        f = nxt
    return f


def _best_from_every_start(g: Graph) -> SubgraphF:
    """The potential-greedy tree with the most leaves over all start
    vertices of a connected graph, the first such in vertex order."""
    return max((_greedy_from(g, start) for start in sorted(g.vertices)), key=lambda f: len(f.leaves))


def greedy_spanning_tree(g: Graph) -> tuple[set[tuple[int, int]], PotentialReport]:
    """Best-effort many-leaf spanning tree of a connected graph: the
    potential-greedy loop runs on g itself from every start vertex and the
    tree with the most leaves wins. Returns its edges and its potential."""
    if g.n < 2:
        raise GraphError("need at least two vertices")
    if not is_connected(g):
        raise GraphError("greedy builder requires a connected graph")
    best = _best_from_every_start(g)
    return set(best.edges), leaf_potential(best)


def heuristic_bound(g: Graph) -> Fraction:
    """The ratio the toolkit reports greedy trees against."""
    return Fraction(n_ge3(g), 3) + Fraction(4, 3)


def theorem_bound(g: Graph) -> Fraction:
    """The paper's theorem: an invariant-satisfying graph has a spanning
    tree with at least n≥3/3 + 4/3 leaves at minimum degree 3 and n≥3/3 + 2
    when lower degrees occur, n≥3 counting the vertices of degree 3 or more."""
    return Fraction(n_ge3(g), 3) + (Fraction(4, 3) if g.min_degree() >= 3 else 2)
