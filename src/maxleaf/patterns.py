"""Detection of the small forbidden structures: diamonds, diamond necklaces,
blossoms, their two-terminal variants, and the reduction-safety invariant.

All detectors are deterministic: candidates are grown from start vertices
in sorted order and reported in a canonical role order. The matchers the
reduction rules share take an optional set of start vertices: without one
they scan the whole graph, with one only the structures grown from those
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, connected_components, is_goober

KIND_CUBIC_DIAMOND = "cubic-diamond"
KIND_2NECKLACE = "2-necklace"
KIND_2BLOSSOM = "2-blossom"
KIND_2T_DIAMOND = "2-terminal-diamond"
KIND_2T_BLOSSOM = "2-terminal-blossom"


@dataclass(frozen=True)
class PatternMatch:
    """A located occurrence of a named structure.

    ``vertices`` lists the vertices in canonical role order:
      * diamond kinds: (c1, i1, i2, c2) with i1, i2 the inner vertices;
      * necklace kinds: (c1, i, i, j, i, i, j, ..., c2) alternating inner
        pairs and shared junction vertices;
      * blossom kinds: (b, a1, a2, a3, a4, c1, c2) where {b,a1,a2} and
        {b,a3,a4} are the two triangles and c1 ~ a1,a4, c2 ~ a2,a3.
    ``terminals`` are the vertices with host degree exceeding their degree
    inside the structure.
    """

    kind: str
    vertices: tuple[int, ...]
    terminals: tuple[int, ...]
    k: int | None = None

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind, "vertices": list(self.vertices), "terminals": list(self.terminals)}
        if self.k is not None:
            d["k"] = self.k
        return d


@dataclass(frozen=True)
class InvariantReport:
    """Verdict of the reduction-safety invariant with a witness on failure."""

    ok: bool
    violated_clause: str | None = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


def _one_per_vertex_set(matches: list[PatternMatch]) -> list[PatternMatch]:
    """The first match in role order for each vertex set, in role order."""
    dedup: dict[frozenset[int], PatternMatch] = {}
    for m in sorted(matches, key=lambda m: m.vertices):
        dedup.setdefault(m.vertex_set(), m)
    return sorted(dedup.values(), key=lambda m: m.vertices)


def start_order(g: Graph, starts: Iterable[int] | None) -> list[int]:
    """The vertices a matcher scans from, ascending: all of g's, or
    ``starts`` (vertices of g) when given."""
    return sorted(g.vertices if starts is None else starts)


# -- diamond blocks ------------------------------------------------------------

@dataclass(frozen=True)
class _Block:
    """One diamond: inner pair (degree 3 in the structure and in the host)
    plus its two connector vertices."""

    inner: tuple[int, int]
    conns: tuple[int, int]


def _diamond_blocks(g: Graph, starts=None) -> list[_Block]:
    """All diamonds whose inner vertices have host degree exactly 3, found
    from their smaller inner vertex."""
    blocks = []
    for i1 in start_order(g, starts):
        if g.degree(i1) != 3:
            continue
        for i2 in sorted(g.neighbors(i1)):
            if i2 <= i1 or g.degree(i2) != 3 or g.multiplicity(i1, i2) != 1:
                continue
            others1 = g.neighbors(i1) - {i2}
            others2 = g.neighbors(i2) - {i1}
            if others1 != others2 or len(others1) != 2:
                continue
            u, v = sorted(others1)
            if g.multiplicity(i1, u) != 1 or g.multiplicity(i1, v) != 1:
                continue
            if g.multiplicity(i2, u) != 1 or g.multiplicity(i2, v) != 1:
                continue
            blocks.append(_Block((i1, i2), (u, v)))
    return blocks


def find_cubic_diamonds(g: Graph) -> list[PatternMatch]:
    """Induced diamonds whose four vertices all have host degree 3."""
    out = []
    for b in _diamond_blocks(g):
        u, v = b.conns
        if g.degree(u) == 3 and g.degree(v) == 3 and not g.has_edge(u, v):
            out.append(
                PatternMatch(KIND_CUBIC_DIAMOND, (u, b.inner[0], b.inner[1], v), (u, v), k=1)
            )
    out.sort(key=lambda m: m.vertices)
    return out


def find_2necklaces(g: Graph) -> list[PatternMatch]:
    """Maximal diamond chains whose only terminals are the two free end
    connectors, both of host degree 3. The edge c1-c2 may exist (the closed
    form); every other extra adjacency is excluded by the exact-degree
    conditions on the non-terminal vertices.

    A junction is a connector of host degree 4 in exactly two blocks; any
    other connector is a free end. One walk from each free end of each block
    appends the block's inner pair and far connector and crosses each
    junction into its other block, so it cannot branch or come back, and
    blocks closed into a cycle have no free end. A chain is kept from its
    smaller end, which gives its vertices in role order."""
    by_conn: dict[int, list[_Block]] = {}
    for b in _diamond_blocks(g):
        for c in b.conns:
            by_conn.setdefault(c, []).append(b)

    def junction(c: int) -> bool:
        return len(by_conn[c]) == 2 and g.degree(c) == 4

    matches = []
    for start, start_blocks in by_conn.items():
        if junction(start):
            continue
        for block in start_blocks:
            verts, near = [start], start
            while True:
                far = block.conns[1] if block.conns[0] == near else block.conns[0]
                verts += [*block.inner, far]
                if not junction(far):
                    break
                block = next(b for b in by_conn[far] if b is not block)
                near = far
            if start < far and g.degree(start) == 3 and g.degree(far) == 3:
                matches.append(PatternMatch(KIND_2NECKLACE, tuple(verts), (start, far), k=len(verts) // 3))
    return _one_per_vertex_set(matches)


# -- blossoms --------------------------------------------------------------------

def _bowties(g: Graph, starts=None):
    """Each split of a loop-free degree-4 vertex's four simple degree-3
    neighbours into two pairs, each pair a triangle with it, whose four
    vertices all have exactly one neighbour outside their triangle: yields
    (center, pair1, pair2, those four neighbours in pair order), found from
    the center."""
    for b in start_order(g, starts):
        if g.degree(b) != 4 or g.loops_at(b):
            continue
        nbrs = sorted(g.neighbors(b))
        if len(nbrs) != 4 or any(g.degree(a) != 3 or g.multiplicity(b, a) != 1 for a in nbrs):
            continue
        p, q, r, s = nbrs
        for pair1, pair2 in (((p, q), (r, s)), ((p, r), (q, s)), ((p, s), (q, r))):
            if not (g.has_edge(*pair1) and g.has_edge(*pair2)):
                continue
            (a1, a2), (a3, a4) = pair1, pair2
            ends = [g.neighbors(a) - {b, m} for a, m in ((a1, a2), (a2, a1), (a3, a4), (a4, a3))]
            if all(len(rest) == 1 for rest in ends):
                yield b, pair1, pair2, tuple(next(iter(rest)) for rest in ends)


def _blossom_matches(g: Graph, exact_terminal_degree: bool, starts=None) -> list[PatternMatch]:
    """Blossom subgraphs whose only terminals are the two connector vertices.
    ``exact_terminal_degree`` asks for host degree exactly 3 at the
    connectors; otherwise any degree above 2 qualifies."""
    out = []
    for b, (a1, a2), (x, y), (t1, t2, tx, ty) in _bowties(g, starts):
        # c1 joins a1 with one vertex of the second triangle
        if t1 == tx and t2 == ty:
            a3, a4 = y, x
        elif t1 == ty and t2 == tx:
            a3, a4 = x, y
        else:
            continue
        c1, c2 = t1, t2
        body = {b, a1, a2, a3, a4}
        if c1 == c2 or c1 in body or c2 in body:
            continue
        degrees = (g.degree(c1), g.degree(c2))
        if min(degrees) < 3 or (exact_terminal_degree and max(degrees) != 3):
            continue
        kind = KIND_2BLOSSOM if exact_terminal_degree else KIND_2T_BLOSSOM
        out.append(PatternMatch(kind, (b, a1, a2, a3, a4, c1, c2), tuple(sorted((c1, c2)))))
    return _one_per_vertex_set(out)


def find_2blossoms(g: Graph) -> list[PatternMatch]:
    """Blossoms whose only terminals are their two connectors, both of host
    degree 3."""
    return _blossom_matches(g, exact_terminal_degree=True)


def find_2terminal(g: Graph, kind: str, starts: Iterable[int] | None = None) -> list[PatternMatch]:
    """Diamond or blossom subgraphs whose only terminals are the two vertices
    of structure degree 2, of arbitrary host degree (at least 3, so they
    really are terminals); with ``starts``, those found from a smaller inner
    vertex or a blossom center among them."""
    if kind == KIND_2T_DIAMOND:
        out = []
        for b in _diamond_blocks(g, starts):
            u, v = b.conns
            if g.degree(u) >= 3 and g.degree(v) >= 3:
                out.append(PatternMatch(KIND_2T_DIAMOND, (u, b.inner[0], b.inner[1], v), (u, v), k=1))
        return _one_per_vertex_set(out)
    if kind == KIND_2T_BLOSSOM:
        return _blossom_matches(g, exact_terminal_degree=False, starts=starts)
    raise ValueError(f"unknown 2-terminal kind {kind!r}")


# -- the invariant ---------------------------------------------------------------

def _component_simple_or_k2e(g: Graph, comp: frozenset[int]) -> bool:
    """No edge of the component is a loop or parallel, or it is two vertices
    of degree 2: a connected pair of degree 2 is a doubled edge, since a
    loop would raise a degree above 2."""
    if all(w != v and g.multiplicity(v, w) == 1 for v in comp for w in g.neighbors(v)):
        return True
    return len(comp) == 2 and all(g.degree(v) == 2 for v in comp)


def check_invariant(g: Graph) -> InvariantReport:
    """The property maintained by the reduction system: each component is
    connected-or-goober-holding, simple or a doubled edge on two vertices, and
    free of 2-necklaces and 2-blossoms."""
    comps = connected_components(g)
    if len(comps) > 1:
        for comp in comps:
            if not any(is_goober(g, v) for v in comp):
                return InvariantReport(False, "component-without-goober", comp)
    for comp in comps:
        if not _component_simple_or_k2e(g, comp):
            return InvariantReport(False, "multi-edge", comp)
    necklaces = find_2necklaces(g)
    if necklaces:
        return InvariantReport(False, "2-necklace", necklaces[0])
    blossoms = find_2blossoms(g)
    if blossoms:
        return InvariantReport(False, "2-blossom", blossoms[0])
    return InvariantReport(True)


def introduces_forbidden(before: Graph, after: Graph, touched: set[int]) -> PatternMatch | None:
    """First 2-necklace or 2-blossom of ``after`` that intersects the touched
    vertex set and was not already present in ``before``."""
    old = {m.vertex_set() for m in find_2necklaces(before)}
    old |= {m.vertex_set() for m in find_2blossoms(before)}
    for m in find_2necklaces(after) + find_2blossoms(after):
        if m.vertex_set() & touched and m.vertex_set() not in old:
            return m
    return None
