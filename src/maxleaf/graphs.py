"""Mutable multigraph over integer vertex ids, the degree-2 suppression
everything else builds on, and the shared primitives: the union-find, the
component walk and leaf counting.

Vertex ids are stable: deleting a vertex leaves a hole instead of renumbering,
so recorded matches and reduction traces stay valid across mutations.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import IO, Iterable, Iterator


class GraphError(Exception):
    """Violation of a structural contract (missing vertex, bad argument, ...)."""


class ParseError(GraphError):
    """Malformed graph text. Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class RangeError(ParseError):
    """Edge endpoint outside the declared vertex range."""


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered form of an edge."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """Undirected multigraph. Loops and parallel edges are representable;
    a loop contributes 2 to the degree of its vertex. Degrees are kept up to
    date on every mutation; a vertex without edges has no degree entry."""

    __slots__ = ("_adj", "_deg")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        self._adj: dict[int, dict[int, int]] = {}
        self._deg: dict[int, int] = {}
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction / mutation -------------------------------------------

    def add_vertex(self, v: int) -> None:
        self._adj.setdefault(v, {})

    def _shift_degree(self, v: int, by: int) -> None:
        d = self._deg.get(v, 0) + by
        if d:
            self._deg[v] = d
        else:
            del self._deg[v]

    def add_edge(self, u: int, v: int) -> None:
        au = self._adj.setdefault(u, {})
        av = self._adj.setdefault(v, {})
        deg = self._deg
        if u == v:
            au[u] = au.get(u, 0) + 1
            deg[u] = deg.get(u, 0) + 2
        else:
            au[v] = au.get(v, 0) + 1
            av[u] = av.get(u, 0) + 1
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1

    def remove_edge(self, u: int, v: int) -> None:
        """Remove one copy of the edge uv."""
        if self.multiplicity(u, v) == 0:
            raise GraphError(f"no edge {u}-{v} to remove")
        self._adj[u][v] -= 1
        if self._adj[u][v] == 0:
            del self._adj[u][v]
        if u != v:
            self._adj[v][u] -= 1
            if self._adj[v][u] == 0:
                del self._adj[v][u]
            self._shift_degree(u, -1)
            self._shift_degree(v, -1)
        else:
            self._shift_degree(u, -2)

    def remove_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise GraphError(f"no vertex {v}")
        for w, k in self._adj[v].items():
            if w != v:
                del self._adj[w][v]
                self._shift_degree(w, -k)
        del self._adj[v]
        self._deg.pop(v, None)

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: c.copy() for v, c in self._adj.items()}
        g._deg = dict(self._deg)
        return g

    # -- queries ------------------------------------------------------------

    @property
    def vertices(self) -> set[int]:
        return set(self._adj)

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(self._deg.values()) // 2

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def multiplicity(self, u: int, v: int) -> int:
        if u not in self._adj:
            return 0
        return self._adj[u].get(v, 0)

    def has_edge(self, u: int, v: int) -> bool:
        return self.multiplicity(u, v) > 0

    def degree(self, v: int) -> int:
        if v not in self._adj:
            raise GraphError(f"no vertex {v}")
        return self._deg.get(v, 0)

    def loops_at(self, v: int) -> int:
        return self._adj[v].get(v, 0)

    def neighbors(self, v: int) -> set[int]:
        """Distinct neighbors; includes v itself only when a loop exists."""
        if v not in self._adj:
            raise GraphError(f"no vertex {v}")
        return set(self._adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once per copy, canonically ordered endpoints."""
        for v in sorted(self._adj):
            for w in sorted(self._adj[v]):
                if w < v:
                    continue
                for _ in range(self._adj[v][w]):
                    yield (v, w)

    def edge_multiset(self) -> Counter[tuple[int, int]]:
        return Counter(self.edges())

    def simple_edges(self) -> list[tuple[int, int]]:
        """Distinct non-loop adjacent pairs."""
        return [(v, w) for v in sorted(self._adj) for w in sorted(self._adj[v]) if v < w]

    def is_simple(self) -> bool:
        return all(k == 1 and w != v for v, c in self._adj.items() for w, k in c.items())

    def min_degree(self) -> int:
        # a vertex without a degree entry has no edges
        if len(self._deg) < len(self._adj):
            return 0
        return min(self._deg.values(), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edge_multiset() == other.edge_multiset()

    def __hash__(self):  # mutable; identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- vertex classes ----------------------------------------------------------

def is_goober(g: Graph, v: int) -> bool:
    return g.degree(v) <= 2


def n_ge3(g: Graph) -> int:
    """Number of vertices of degree at least 3."""
    return sum(1 for d in g._deg.values() if d >= 3)


def vertices_ge3(g: Graph) -> set[int]:
    return {v for v, d in g._deg.items() if d >= 3}


def graph_leaves(g: Graph) -> set[int]:
    """Degree-1 vertices."""
    return {v for v, d in g._deg.items() if d == 1}


def tree_leaves(edges: Iterable[tuple[int, int]]) -> set[int]:
    """Vertices meeting exactly one of the edges: the leaves of a tree or
    forest given by its edge list."""
    deg: dict[int, int] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return {v for v, d in deg.items() if d == 1}


def tree_leaf_count(edges: Iterable[tuple[int, int]]) -> int:
    return len(tree_leaves(edges))


# -- connectivity -------------------------------------------------------------

def find(parent, a: int) -> int:
    """Root of ``a`` in the union-find forest ``parent``, a list or a dict in
    which each root maps to itself; halves the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def component_walks(g: Graph, vs: Iterable[int]) -> Iterator[set[int]]:
    """One breadth-first walk per component of g holding a vertex of ``vs``
    (vertices of g), started at its first vertex in ``vs``; yields the
    vertices each walk reached. A walk stops once it has met every vertex
    of ``vs`` not yet reached, so vertices joined near each other cost a
    local walk. Over every vertex of g, each walk covers its component: it
    stops early only when no vertex is left unreached."""
    vs = list(vs)
    left = set(vs)
    for start in vs:
        if start not in left:
            continue
        left.discard(start)
        seen = {start}
        queue = deque([start])
        while queue and left:
            for w in g._adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    left.discard(w)
                    queue.append(w)
        yield seen


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Partition of the vertices into maximal connected sets, by least vertex."""
    return [frozenset(part) for part in component_walks(g, sorted(g._adj))]


def components_meeting(g: Graph, vs: Iterable[int]) -> int:
    """Number of components of g that hold a vertex of ``vs`` (all of them
    vertices of g); over every vertex of g, all the components."""
    return sum(1 for _ in component_walks(g, vs))


def is_connected(g: Graph) -> bool:
    """One walk from any vertex: connected when it reaches all of them. A
    graph with fewer than n - 1 edges is not, and is not walked."""
    return g.m >= g.n - 1 and len(next(component_walks(g, g._adj), ())) == g.n


def component_count(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> int:
    """Components of the graph on ``vertices`` with the given edges, whose
    endpoints must all be among the vertices (union-find)."""
    parent = {v: v for v in vertices}
    count = len(parent)
    for u, v in edges:
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


# -- text format ---------------------------------------------------------------

def parse_graph(data: str | bytes | IO) -> Graph:
    """Parse the text graph format: comment lines ``c ...``, one header
    ``p <n> <m>``, then m lines ``e <u> <v>`` with 1-based endpoints.

    Parallel edges are accepted; loops are rejected.
    """
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 3:
                raise ParseError("header must be 'p <n> <m>'", lineno)
            try:
                n, m_declared = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("header counts must be integers", lineno) from None
            if n < 1 or m_declared < 0:
                raise ParseError("header counts out of range", lineno)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge before header", lineno)
            if len(fields) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("edge endpoints must be integers", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise RangeError(f"endpoint out of range 1..{n}", lineno)
            if u == v:
                raise ParseError("loops are not accepted in input", lineno)
            edges.append((u, v))
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", lineno)
    if n is None:
        raise ParseError("missing header")
    if len(edges) != m_declared:
        raise ParseError(f"header declares {m_declared} edges, found {len(edges)}")
    # vertices 1..n, then each vertex's neighbours in line order, as add_edge
    # would have inserted them
    g = Graph()
    adj = g._adj = {v: {} for v in range(1, n + 1)}
    deg = g._deg
    for u, v in edges:
        au, av = adj[u], adj[v]
        au[v] = au.get(v, 0) + 1
        av[u] = av.get(u, 0) + 1
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return g


def write_graph(g: Graph, comment: str | None = None) -> str:
    """Serialize in the same text format. Vertex ids are compacted to 1..n in
    sorted order (mutation may have left holes)."""
    order = sorted(g.vertices)
    remap = {v: i for i, v in enumerate(order, start=1)}
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    edges = [(remap[u], remap[v]) for u, v in g.edges()]
    lines.append(f"p {len(order)} {len(edges)}")
    for u, v in sorted(edge_key(u, v) for u, v in edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def to_dot(g: Graph, name: str = "G") -> str:
    """DOT export: one node per vertex, one edge per multi-edge copy."""
    lines = [f"graph {name} {{"]
    for v in sorted(g.vertices):
        lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- degree-2 suppression -------------------------------------------------------

@dataclass(frozen=True)
class SEdge:
    """One edge of a suppressed graph. ``path`` is the full vertex sequence of
    the host path (or cycle, when u == v) this edge stands for, endpoints
    included; ``internal_count`` is the number of suppressed inner vertices."""

    u: int
    v: int
    internal_count: int
    cost: int | None  # min(internal_count, 2); None on loops
    path: tuple[int, ...]

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


@dataclass(frozen=True)
class SuppressedGraph:
    """Result of suppressing every degree-2 vertex of a connected host, with
    the bitmask view the forced-leaf search reads, built on construction and
    left out of equality. The vertex at position i of the sorted vertex list
    owns bit ``1 << i``, so ascending masks of equal popcount are in colex
    order."""

    vertices: frozenset[int]
    sedges: tuple[SEdge, ...]

    def __post_init__(self):
        sedges = tuple(self.sedges)
        pos = {v: i for i, v in enumerate(sorted(self.vertices))}
        adj = [0] * len(pos)
        edges = []
        for eid, e in enumerate(sedges):
            if not e.is_loop:
                a, b = pos[e.u], pos[e.v]
                adj[a] |= 1 << b
                adj[b] |= 1 << a
                edges.append((eid, (1 << a) | (1 << b), a, b, e.cost))
        edges.sort(key=lambda edge: edge[4])  # stable: ties stay in id order
        loops = [e.u for e in sedges if e.is_loop]
        self.__dict__.update(  # frozen: bypass __setattr__
            sedges=sedges,
            pos=pos,  # vertex -> bit position
            full=(1 << len(pos)) - 1,  # mask of every vertex
            adj=tuple(adj),  # neighbour mask per position, loops left out
            loops=sum({1 << pos[v] for v in loops}),  # the vertices carrying a suppressed cycle
            loop_count=len(loops),
            edges=tuple(edges),  # non-loop edges by (cost, id): (id, pair mask, pos u, pos v, cost)
        )

    def mask(self, vs: Iterable[int]) -> int:
        """The bits of a set of vertices; GraphError for one outside the graph."""
        try:
            return sum(1 << self.pos[v] for v in vs)
        except KeyError:
            raise GraphError("forced set must live inside the suppressed graph") from None

    def is_empty(self) -> bool:
        return not self.vertices

    def to_json_dict(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "edges": [
                {
                    "u": e.u,
                    "v": e.v,
                    "internal_count": e.internal_count,
                    "cost": e.cost,
                    "loop": e.is_loop,
                }
                for e in self.sedges
            ],
        }


def suppress(g: Graph) -> SuppressedGraph:
    """Collapse every maximal run of degree-2 vertices of a connected graph
    into a single edge carrying the count of suppressed vertices. A graph with
    no degree-3 vertex (path or cycle) suppresses to the empty graph."""
    if not is_connected(g):
        raise GraphError("suppression requires a connected graph")
    adj, deg = g._adj, g._deg
    if any(v in nbrs for v, nbrs in adj.items()):
        raise GraphError("suppression input must be loop-free")
    if all(d < 3 for d in deg.values()):
        return SuppressedGraph(frozenset(), ())

    # with no loop, a degree-2 vertex met from one neighbour along a single
    # edge has exactly one other neighbour, so only the first step of a run
    # can meet a parallel edge
    anchors = {v for v in adj if deg.get(v, 0) != 2}
    sedges: list[SEdge] = []
    visited_mid: set[int] = set()

    for a in sorted(anchors):
        nbrs = sorted(adj[a].items())
        # direct anchor-anchor edges, each copy once
        for w, k in nbrs:
            if w in anchors and a < w:
                for _ in range(k):
                    sedges.append(SEdge(a, w, 0, 0, (a, w)))
        # walks through degree-2 runs
        for w, k in nbrs:
            if w in anchors or w in visited_mid:
                continue
            if k > 1:
                raise GraphError("parallel edge at a degree-2 vertex")
            path = [a, w]
            prev, cur = a, w
            while cur not in anchors:
                visited_mid.add(cur)
                x, y = adj[cur]
                prev, cur = cur, y if x == prev else x
                path.append(cur)
            internal = len(path) - 2
            if a == cur:
                sedges.append(SEdge(a, a, internal, None, tuple(path)))
            else:
                if cur < a:
                    path.reverse()
                sedges.append(SEdge(path[0], path[-1], internal, min(internal, 2), tuple(path)))
    return SuppressedGraph(frozenset(anchors), sedges)

