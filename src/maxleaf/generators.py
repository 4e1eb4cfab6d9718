"""Constructors for every named graph family used by the test and acceptance
suites, plus a seeded generator of random invariant-satisfying graphs."""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from .graphs import Graph, is_connected
from .patterns import check_invariant


class GeneratorError(Exception):
    """Bad family parameters or exhausted sampling budget."""


# the largest random graph; the invariant repair after sampling rescans the
# whole graph, and the family maxima below derive from this value
RANDOM_MAX_N = 16_000
# the largest family parameters, whose graphs have at most RANDOM_MAX_N
# vertices: 3k + 1 for necklace(k), 4k for necklace_ring(k), 13i for
# flowerbed(i)
NECKLACE_MAX_K = (RANDOM_MAX_N - 1) // 3
RING_MAX_K = RANDOM_MAX_N // 4
FLOWERBED_MAX_I = RANDOM_MAX_N // 13


@dataclass(frozen=True)
class FamilySpec:
    """A named family with its parameter, if any."""

    family: str
    k: int | None = None
    n: int | None = None
    min_degree_target: int = 3
    seed: int = 0


def necklace(k: int) -> Graph:
    """Chain of k diamonds glued at degree-2 vertices; 3k+1 vertices with the
    two chain ends of degree 2."""
    if not 1 <= k <= NECKLACE_MAX_K:
        raise GeneratorError(f"necklace needs 1 <= k <= {NECKLACE_MAX_K}")
    g = Graph()
    c_prev = 1
    nxt = 2
    for _ in range(k):
        i1, i2, c = nxt, nxt + 1, nxt + 2
        nxt += 3
        g.add_edge(c_prev, i1)
        g.add_edge(c_prev, i2)
        g.add_edge(c, i1)
        g.add_edge(c, i2)
        g.add_edge(i1, i2)
        c_prev = c
    return g


def necklace_ring(k: int) -> Graph:
    """k diamonds joined in a cycle by k extra edges; cubic on 4k vertices."""
    if not 2 <= k <= RING_MAX_K:
        raise GeneratorError(f"necklace-ring needs 2 <= k <= {RING_MAX_K} (k = 1 collapses to K4)")
    g = Graph()
    ends = []
    nxt = 1
    for _ in range(k):
        c1, i1, i2, c2 = nxt, nxt + 1, nxt + 2, nxt + 3
        nxt += 4
        g.add_edge(c1, i1)
        g.add_edge(c1, i2)
        g.add_edge(c2, i1)
        g.add_edge(c2, i2)
        g.add_edge(i1, i2)
        ends.append((c1, c2))
    for j in range(k):
        g.add_edge(ends[j][1], ends[(j + 1) % k][0])
    return g


# canonical blossom roles, 1-based: b=1, a1..a4=2..5, c1=6, c2=7
_BLOSSOM_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 3), (4, 5),
    (6, 2), (6, 5), (7, 3), (7, 4),
]


def blossom() -> Graph:
    """The seven-vertex blossom: a degree-4 center on two edge-disjoint
    triangles, with two degree-2 connectors joining one vertex of each."""
    g = Graph(vertices=range(1, 8))
    for u, v in _BLOSSOM_EDGES:
        g.add_edge(u, v)
    return g


def g7() -> Graph:
    """The seven-vertex extremal graph: a blossom plus the connector-connector
    edge and one edge between opposite triangle vertices."""
    g = blossom()
    g.add_edge(6, 7)  # c1-c2
    g.add_edge(2, 5)  # a1-a4
    return g


def q3() -> Graph:
    """The 3-dimensional cube: vertices 1..8 as bit patterns 0..7."""
    g = Graph(vertices=range(1, 9))
    for x in range(8):
        for bit in (1, 2, 4):
            y = x ^ bit
            if x < y:
                g.add_edge(x + 1, y + 1)
    return g


# flower roles, offsets within a 13-vertex block:
#   1..7 blossom (as above), 8=f1, 9=f2, 10=h, 11=s, 12=g1, 13=g2
_FLOWER_EXTRA_EDGES = [
    (6, 8), (7, 9),      # c1-f1, c2-f2
    (8, 9),              # f1-f2
    (8, 10), (9, 10),    # f1-h, f2-h
    (10, 11),            # h-s
    (11, 12), (11, 13),  # s-g1, s-g2
    (12, 13),            # g1-g2
]


def flower() -> Graph:
    """Thirteen-vertex gadget: a blossom whose connectors attach through a
    cut pair {f1, f2} to a stem h-s ending in the two ring ports g1, g2."""
    g = blossom()
    for v in range(8, 14):
        g.add_vertex(v)
    for u, v in _FLOWER_EXTRA_EDGES:
        g.add_edge(u, v)
    return g


def flowerbed(i: int) -> Graph:
    """i flowers joined in a cycle through their g-ports; connected with
    minimum degree 3 on 13*i vertices."""
    if not 2 <= i <= FLOWERBED_MAX_I:
        raise GeneratorError(
            f"flowerbed needs 2 <= i <= {FLOWERBED_MAX_I} (i = 1 would need a parallel edge)"
        )
    g = Graph()
    for j in range(i):
        off = 13 * j
        block = flower()
        for v in block.vertices:
            g.add_vertex(v + off)
        for u, v in block.edges():
            g.add_edge(u + off, v + off)
    for j in range(i):
        g2_this = 13 * j + 13
        g1_next = 13 * ((j + 1) % i) + 12
        g.add_edge(g2_this, g1_next)
    return g


def random_invariant_graph(n: int, min_degree_target: int = 3, seed: int = 0) -> Graph:
    """Seeded random connected simple graph passing the invariant check.

    With ``min_degree_target`` 3 the result has minimum degree 3; with 2 it
    keeps some degree-1/2 vertices. Forbidden structures found during
    sampling are removed by degree-preserving edge swaps; a handful of fresh
    attempts back the repairs up.
    """
    if not 4 <= n <= RANDOM_MAX_N:
        raise GeneratorError(f"random graphs need 4 <= n <= {RANDOM_MAX_N}")
    if min_degree_target not in (2, 3):
        raise GeneratorError("min_degree_target must be 2 or 3")
    rng = random.Random((n, min_degree_target, seed).__repr__())
    last_diag = ""
    for attempt in range(60):
        g = _random_connected(n, min_degree_target, rng)
        ok, diag = _repair_forbidden(g, rng)
        if ok:
            return g
        last_diag = diag
    raise GeneratorError(f"sampling budget exhausted (n={n}, target={min_degree_target}): {last_diag}")


def _random_connected(n: int, target: int, rng: random.Random) -> Graph:
    """A random tree on 1..n, then random edges at its vertices below degree
    3 when ``target`` is 3, then a few anywhere. Each draw indexes an
    ascending list of its candidates that is kept, not rebuilt per edge."""
    g = Graph(vertices=range(1, n + 1))
    for v in range(2, n + 1):
        g.add_edge(v, rng.randint(1, v - 1))
    if target >= 3:
        low = [v for v in range(1, n + 1) if g.degree(v) < 3]
        budget = 20 * n
        while budget and low:
            budget -= 1
            v = rng.choice(low)
            taken = sorted(g.neighbors(v) | {v})  # at most three vertices
            if len(taken) == n:
                break
            # the w-th vertex of 1..n not taken, counting from 1
            w = rng.choice(range(n - len(taken))) + 1
            for t in taken:
                w += t <= w
            g.add_edge(v, w)
            for u in (v, w):
                if g.degree(u) == 3:
                    del low[bisect_left(low, u)]
    # density jitter so the corpus is not all near-minimal
    for _ in range(rng.randint(0, max(1, n // 4))):
        u, v = rng.sample(range(1, n + 1), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def _repair_forbidden(g: Graph, rng: random.Random) -> tuple[bool, str]:
    for _ in range(80):
        report = check_invariant(g)
        if report.ok:
            return True, ""
        if report.violated_clause not in ("2-necklace", "2-blossom"):
            return False, f"unrepairable clause {report.violated_clause}"
        match = report.witness
        if not _swap_away(g, match.vertices, rng):
            return False, f"no admissible swap for {report.violated_clause}"
    return False, "repair loop budget exhausted"


def _swap_away(g: Graph, structure: tuple[int, ...], rng: random.Random) -> bool:
    """2-swap an edge of the structure against a random disjoint edge,
    preserving degrees, simplicity and connectivity."""
    inside = [
        (u, v)
        for u in structure
        for v in g.neighbors(u)
        if u < v and v in structure
    ]
    outside = [e for e in g.simple_edges()]
    rng.shuffle(inside)
    rng.shuffle(outside)
    for x, y in inside:
        for u, w in outside:
            if len({x, y, u, w}) != 4:
                continue
            for a, b in (((x, u), (y, w)), ((x, w), (y, u))):
                if g.has_edge(*a) or g.has_edge(*b):
                    continue
                g.remove_edge(x, y)
                g.remove_edge(u, w)
                g.add_edge(*a)
                g.add_edge(*b)
                if is_connected(g):
                    return True
                # undo and keep looking
                g.remove_edge(*a)
                g.remove_edge(*b)
                g.add_edge(x, y)
                g.add_edge(u, w)
    return False


_FAMILIES = {
    "necklace": lambda spec: necklace(spec.k if spec.k is not None else 1),
    "necklace-ring": lambda spec: necklace_ring(spec.k if spec.k is not None else 3),
    "blossom": lambda spec: blossom(),
    "g7": lambda spec: g7(),
    "q3": lambda spec: q3(),
    "flower": lambda spec: flower(),
    "flowerbed": lambda spec: flowerbed(spec.k if spec.k is not None else 2),
    "random": lambda spec: random_invariant_graph(
        spec.n if spec.n is not None else 10, spec.min_degree_target, spec.seed
    ),
}


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by a family spec."""
    try:
        builder = _FAMILIES[spec.family]
    except KeyError:
        raise GeneratorError(f"unknown family {spec.family!r}") from None
    return builder(spec)


def family_names() -> list[str]:
    return sorted(_FAMILIES)
