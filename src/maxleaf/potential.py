"""Leaf-potential machinery: exact potential evaluation of a subgraph, vertex
expansion, conservative augmentation moves, and a greedy extend-until-spanning
spanning-tree heuristic.

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

from .graphs import Graph, GraphError, SubgraphF, connected_components, find, is_connected, is_goober, n_ge3
from .patterns import check_invariant


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


def _join_components(f: SubgraphF) -> SubgraphF:
    """Connect the subgraph's components with host edges, growing the one
    that holds its least vertex and preferring joins that sacrifice the
    fewest leaves."""
    if f.cc < 2:
        return f
    g = f.host
    parent = {v: v for v in f.vertices}
    for u, w in f.edges:
        parent[find(parent, u)] = find(parent, w)
    parts: dict[int, set[int]] = {}  # root -> its component
    for v in f.vertices:
        parts.setdefault(find(parent, v), set()).add(v)
    comp = set(parts[find(parent, min(f.vertices))])
    for _ in range(len(parts) - 1):  # one join per further component
        joins = (
            ((u in f.leaves) + (w in f.leaves), u, w)
            for u in comp
            for w in g.neighbors(u)
            if w in f.vertices and w not in comp
        )
        best = min(joins, default=None)
        if best is None:
            raise GraphError("subgraph components cannot be joined")
        _, u, w = best
        f = f.with_additions((), [(u, w)])
        comp |= parts[find(parent, w)]
    return f


def _greedy_from(g: Graph, start: int) -> SubgraphF:
    f = expand(SubgraphF.empty(g), start)
    while not f.is_spanning():
        nxt = try_augment(f)
        if nxt is not None:
            f = nxt
            continue
        # best-scoring expansion anywhere; expansions outside the subgraph
        # open a new component and pay for it in the score. The host is
        # connected, so the boundary is not empty, and every candidate's
        # expansion adds a vertex.
        boundary = f.boundary()
        candidates = set(boundary)
        for w in boundary:  # everything within two steps of the boundary
            for u in g.neighbors(w) - f.vertices:
                candidates.add(u)
                candidates |= g.neighbors(u) - f.vertices
        outside = g.vertices - f.vertices
        candidates |= {v for v in outside if g.degree(v) >= 4}
        grown = ((w, expand(f, w)) for w in candidates)
        f = min(grown, key=lambda wc: (-leaf_potential(wc[1]).twice_value, wc[0]))[1]
    return f


def _best_from_every_start(g: Graph) -> SubgraphF:
    """The potential-greedy tree with the most leaves over all start
    vertices of a connected graph."""
    trees = (_join_components(_greedy_from(g, start)) for start in sorted(g.vertices))
    best = max(trees, key=lambda f: len(f.leaves))  # the first with the most leaves
    if len(best.edges) != g.n - 1 or best.cc != 1:
        raise GraphError("greedy construction failed to produce a spanning tree")
    return best


def greedy_spanning_tree(g: Graph) -> tuple[set[tuple[int, int]], PotentialReport]:
    """Best-effort many-leaf spanning tree of a connected graph.

    When the input satisfies the invariant and a reduction applies, the graph
    is reduced first, solved per component, and the trees are lifted back
    through the trace. Otherwise the potential-greedy loop runs from every
    start vertex and the best tree wins.
    """
    from .reductions import reconstruct_chain, reduce_to_irreducible

    if g.n < 2:
        raise GraphError("need at least two vertices")
    if not is_connected(g):
        raise GraphError("greedy builder requires a connected graph")

    if check_invariant(g).ok:
        reduced, steps = reduce_to_irreducible(g)
        if steps:
            forest: set[tuple[int, int]] = set()
            for comp in connected_components(reduced):
                if len(comp) < 2:
                    continue
                # rules match and vet within one component: this one is irreducible too
                sub = Graph(comp, (e for e in reduced.edges() if e[0] in comp))
                forest |= _best_from_every_start(sub).edges
            edges = reconstruct_chain(g, steps, forest)
            f = SubgraphF(g, g.vertices, edges)
            return set(f.edges), leaf_potential(f)

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
