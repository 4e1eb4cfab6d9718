import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf.graphs import (
    Graph,
    GraphError,
    ParseError,
    RangeError,
    component_count,
    components_meeting,
    connected_components,
    edge_key,
    graph_leaves,
    is_connected,
    n_ge3,
    parse_graph,
    suppress,
    to_dot,
    vertices_ge3,
    write_graph,
)
from maxleaf.generators import flowerbed, flower, g7, q3

from conftest import (
    expand_back,
    naive_components,
    random_multigraph,
    recount_degrees,
    suppressed_degree,
)


# -- parsing ---------------------------------------------------------------------


def test_parse_k2():
    g = parse_graph("p 2 1\ne 1 2\n")
    assert g.n == 2 and g.m == 1 and g.has_edge(1, 2)


def test_parse_diamond():
    text = "c the smallest diamond\np 4 5\ne 1 2\ne 1 3\ne 2 3\ne 2 4\ne 3 4\n"
    g = parse_graph(text)
    assert g.n == 4 and g.m == 5
    assert sorted(g.degree(v) for v in g.vertices) == [2, 2, 3, 3]


def test_parse_parallel_edge_accepted():
    g = parse_graph("p 2 2\ne 1 2\ne 1 2\n")
    assert g.multiplicity(1, 2) == 2
    assert g.degree(1) == 2


def test_parse_rejects_loops():
    with pytest.raises(ParseError):
        parse_graph("p 2 1\ne 1 1\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_graph("p 2 1\nq 1 2\n")
    assert exc.value.line == 2
    with pytest.raises(RangeError) as exc:
        parse_graph("p 2 1\ne 1 7\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_graph("e 1 2\n")
    with pytest.raises(ParseError):
        parse_graph("p 3 2\ne 1 2\n")


@pytest.mark.parametrize(
    "text, error, message, line",
    [
        ("p 2 1\np 2 1\ne 1 2\n", ParseError, "duplicate header", 2),
        ("p 2\n", ParseError, "header must be 'p <n> <m>'", 1),
        ("c header below\np two 1\n", ParseError, "header counts must be integers", 2),
        ("p 0 0\n", ParseError, "header counts out of range", 1),
        ("p 2 -1\n", ParseError, "header counts out of range", 1),
        ("\ne 1 2\np 2 1\n", ParseError, "edge before header", 2),
        ("p 2 1\ne 1 2 3\n", ParseError, "edge line must be 'e <u> <v>'", 2),
        ("p 2 1\ne 1 x\n", ParseError, "edge endpoints must be integers", 2),
        ("p 2 1\ne 0 2\n", RangeError, "endpoint out of range 1..2", 2),
        ("p 3 2\ne 1 2\ne 3 3\n", ParseError, "loops are not accepted in input", 3),
        ("p 2 1\n  q 1 2\n", ParseError, "unknown directive 'q'", 2),
        ("c no header\n\n", ParseError, "missing header", None),
        ("p 3 2\ne 1 2\n", ParseError, "header declares 2 edges, found 1", None),
        ("p 2 0\ne 1 2\n", ParseError, "header declares 0 edges, found 1", None),
    ],
)
def test_parse_error_messages(text, error, message, line):
    with pytest.raises(error) as exc:
        parse_graph(text)
    assert type(exc.value) is error and exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


def test_parse_matches_add_edge_in_line_order(rng):
    for _ in range(100):
        n = rng.randint(1, 9)
        edges = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 20) if n > 1 else 0)]
        lines = [f"p {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
        for _ in range(rng.randint(0, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", "c note", "   ", "\tc  tabbed"]))
        g = parse_graph("\n".join(lines))
        built = Graph(range(1, n + 1))
        for u, v in edges:
            built.add_edge(u, v)
        assert g == built
        assert list(g._adj) == list(built._adj)
        assert all(list(g._adj[v].items()) == list(built._adj[v].items()) for v in g._adj)
        assert g._deg == built._deg


def test_parse_from_stream_and_bytes():
    assert parse_graph(io.StringIO("p 2 1\ne 1 2\n")).m == 1
    assert parse_graph(b"p 2 1\ne 1 2\n").m == 1


def test_write_graph_round_trip():
    g = q3()
    again = parse_graph(write_graph(g, comment="cube"))
    assert again == g


def test_write_graph_compacts_ids():
    g = g7()
    g.remove_vertex(3)
    text = write_graph(g)
    h = parse_graph(text)
    assert h.n == g.n and h.m == g.m


def test_dot_export_counts():
    g = parse_graph("p 3 3\ne 1 2\ne 1 2\ne 2 3\n")
    dot = to_dot(g)
    assert dot.count(" -- ") == 3
    assert dot.count(";") == 3 + 3


# -- mutation invariants ------------------------------------------------------------


def test_delete_and_reinsert_restores_multiset(rng):
    g = random_multigraph(8, 14, rng)
    before = g.edge_multiset()
    edges = list(g.edges())
    rng.shuffle(edges)
    removed = edges[:5]
    for u, v in removed:
        g.remove_edge(u, v)
    for u, v in removed:
        g.add_edge(u, v)
    assert g.edge_multiset() == before


def test_degree_counts_loops_twice():
    g = Graph()
    g.add_edge(1, 1)
    g.add_edge(1, 2)
    assert g.degree(1) == 3
    assert g.m == 2


# parse_graph("p 200000 0") peaked at 36,692,643 traced bytes before degrees
# were cached (CPython 3.11.7; 3.10.13 peaked lower, at 34,597,458). A header
# with no edges must still cost no more than that plus 5%: the degree cache
# holds no entry for a vertex without edges.
EDGELESS_HEADER_PEAK_LIMIT = 38_527_275


def test_edgeless_header_allocates_no_degree_entries():
    tracemalloc.start()
    try:
        g = parse_graph("p 200000 0")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 200000 and g.m == 0
    assert peak <= EDGELESS_HEADER_PEAK_LIMIT


def check_degrees(g: Graph) -> None:
    """The degree cache and every helper that reads it agree with a recount
    from the adjacency, isolated vertices (degree 0) included."""
    deg, m = recount_degrees(g)
    assert {v: g.degree(v) for v in g.vertices} == deg
    assert g.m == m
    assert g.min_degree() == min(deg.values(), default=0)
    assert vertices_ge3(g) == {v for v, d in deg.items() if d >= 3}
    assert n_ge3(g) == len(vertices_ge3(g))
    assert graph_leaves(g) == {v for v, d in deg.items() if d == 1}


GRAPH_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add_vertex", "add_edge", "remove_edge", "remove_vertex", "copy"]),
        st.integers(1, 6),
        st.integers(1, 6),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(GRAPH_OPS)
def test_degree_cache_matches_recount(ops):
    g = Graph()
    copies = []  # (copy, its recount when taken): later steps must not touch it
    for op, u, v in ops:
        if op == "add_vertex":
            g.add_vertex(u)
        elif op == "add_edge":
            g.add_edge(u, v)  # loops and parallel copies included
        elif op == "remove_edge":
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                with pytest.raises(GraphError):
                    g.remove_edge(u, v)
        elif op == "remove_vertex":
            if g.has_vertex(u):
                g.remove_vertex(u)
            else:
                with pytest.raises(GraphError):
                    g.remove_vertex(u)
        else:
            copies.append((g, recount_degrees(g)))
            g = g.copy()
        check_degrees(g)
    for old, counts in copies:
        check_degrees(old)
        assert recount_degrees(old) == counts


def test_remove_vertex_leaves_hole():
    g = Graph(edges=[(1, 2), (2, 3), (3, 4)])
    g.remove_vertex(2)
    assert g.vertices == {1, 3, 4}
    g.add_vertex(9)
    assert 9 in g.vertices


# -- connectivity --------------------------------------------------------------------


def test_components_k2():
    assert len(connected_components(parse_graph("p 2 1\ne 1 2\n"))) == 1


def test_components_two_triangles():
    g = Graph(edges=[(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert len(connected_components(g)) == 2


def test_components_g7():
    assert len(connected_components(g7())) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_component_count_hypothesis(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng.randint(1, 12), rng.randint(0, 18), rng)
    assert component_count(g.vertices, g.edges()) == len(naive_components(g))
    assert [set(part) for part in connected_components(g)] == naive_components(g)
    subset = [v for v in sorted(g.vertices) if rng.random() < 0.4]
    met = [part for part in naive_components(g) if not part.isdisjoint(subset)]
    assert components_meeting(g, subset) == len(met)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_is_connected_against_components(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng.randint(1, 12), rng.randint(0, 18), rng)
    assert is_connected(g) == (len(naive_components(g)) == 1)
    assert is_connected(Graph())


# -- suppression ----------------------------------------------------------------------


def test_suppress_cycle_is_empty():
    c5 = Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert suppress(c5).is_empty()


def test_suppress_theta_costs():
    g = Graph(edges=[(1, 2), (1, 3), (3, 2)])
    for a, b in [(1, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 2)]:
        g.add_edge(a, b)
    s = suppress(g)
    assert sorted((e.u, e.v, e.internal_count, e.cost) for e in s.sedges) == [
        (1, 2, 0, 0),
        (1, 2, 1, 1),
        (1, 2, 5, 2),
    ]


def test_suppress_hanging_triangle_gives_loop():
    g = Graph(edges=[(1, 2), (2, 3), (3, 1), (1, 4), (4, 5)])
    s = suppress(g)
    loops = [e for e in s.sedges if e.is_loop]
    assert len(loops) == 1 and loops[0].internal_count == 2 and loops[0].cost is None
    rest = [e for e in s.sedges if not e.is_loop]
    assert [(e.u, e.v, e.internal_count, e.cost) for e in rest] == [(1, 5, 1, 1)]


def test_suppress_degree_preserved_and_round_trip(rng):
    for trial in range(60):
        n = rng.randint(4, 12)
        g = Graph(vertices=range(1, n + 1))
        for v in range(2, n + 1):
            g.add_edge(v, rng.randint(1, v - 1))
        for _ in range(rng.randint(0, 4)):
            u, v = rng.sample(sorted(g.vertices), 2)
            if not g.has_edge(u, v):
                g.add_edge(u, v)
        s = suppress(g)
        if s.is_empty():
            assert all(g.degree(v) <= 2 for v in g.vertices)
            continue
        for v in s.vertices:
            assert suppressed_degree(s, v) == g.degree(v)
        # every degree-2 vertex appears inside exactly one stored path
        mids: list[int] = []
        for e in s.sedges:
            mids.extend(e.path[1:-1])
        assert sorted(mids) == sorted(v for v in g.vertices if g.degree(v) == 2)
        # paths tile the edge set exactly
        assert expand_back(s) == g


def test_suppress_requires_connected():
    g = Graph(edges=[(1, 2), (3, 4)])
    with pytest.raises(GraphError):
        suppress(g)


def test_suppress_rejects_a_loop():
    g = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 2)])
    with pytest.raises(GraphError, match="loop-free"):
        suppress(g)


def test_suppress_rejects_a_parallel_edge_at_a_degree_2_vertex():
    g = Graph(edges=[(1, 2), (1, 3), (1, 4), (4, 5), (4, 5)])
    with pytest.raises(GraphError, match="parallel edge at a degree-2 vertex"):
        suppress(g)

