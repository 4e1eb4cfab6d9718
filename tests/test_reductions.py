import itertools
import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from maxleaf.graphs import Graph, GraphError, connected_components, edge_key, find, n_ge3
from maxleaf.generators import (
    GeneratorError,
    flowerbed,
    g7,
    necklace,
    necklace_ring,
    q3,
    random_invariant_graph,
)
from maxleaf import reductions
from maxleaf.patterns import check_invariant
from maxleaf.reductions import (
    FPT_RULES,
    HIGH_RULES,
    LOW_RULES,
    InadmissibleError,
    ReconstructionError,
    ReductionStep,
    admissible,
    apply_rule,
    find_matches,
    fpt_preprocess,
    reconstruct_chain,
    reconstruct_tree,
    reduce_to_irreducible,
)
from maxleaf.solver import exact_max_leaves

from conftest import (
    all_pairs_bilateral,
    naive_bridges_and_cuts,
    random_connected,
    random_multigraph,
    replayed_graphs,
    reverted,
)


def first_admissible(g, rule_id):
    for m in find_matches(g, rule_id):
        ok, _ = admissible(g, m)
        if ok:
            return m
    return None


# -- admissibility ------------------------------------------------------------------


def test_r5_refuses_bridges():
    # two K5 blocks joined by a bridge between degree-4 vertices
    g = Graph()
    for base in (0, 10):
        for u in range(1, 6):
            for v in range(u + 1, 6):
                g.add_edge(base + u, base + v)
    g.add_edge(1, 11)
    match = next(m for m in find_matches(g, "R5") if set(m.roles.values()) == {1, 11})
    ok, reason = admissible(g, match)
    assert not ok and reason == "bridge"
    # a doubled join is no bridge: deleting one copy keeps the blocks together
    g.add_edge(1, 11)
    match = next(m for m in find_matches(g, "R5") if set(m.roles.values()) == {1, 11})
    assert admissible(g, match) == (True, "ok")


def test_r5_refuses_g7_blossom_creation():
    g = g7()
    for m in find_matches(g, "R5"):
        ok, reason = admissible(g, m)
        assert not ok
        assert "2-blossom" in reason


def test_r4_requires_disconnection():
    # bow-tie whose anchors are reconnected elsewhere: deleting it keeps one piece
    g = Graph(edges=[(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
    for a, anchor in ((2, 6), (3, 7), (4, 8), (5, 9)):
        g.add_edge(a, anchor)
    for u, v in [(6, 7), (7, 8), (8, 9), (9, 6)]:
        g.add_edge(u, v)
    matches = find_matches(g, "R4")
    assert matches
    for m in matches:
        ok, reason = admissible(g, m)
        assert not ok and reason == "connectivity"


def r4_cut_graph():
    g = Graph(edges=[(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
    # degree-2 anchors on both sides so each component keeps a goober
    for a, anchor in ((2, 6), (3, 7), (4, 8), (5, 9)):
        g.add_edge(a, anchor)
    g.add_edge(6, 10)
    g.add_edge(7, 10)
    g.add_edge(8, 11)
    g.add_edge(9, 11)
    return g


def test_r4_fires_at_cut_vertex_with_delta_5():
    g = r4_cut_graph()
    m = first_admissible(g, "R4")
    assert m is not None
    g2, step = apply_rule(g, m)
    assert step.delta_n3 == 5
    assert step.component_delta == 1
    assert len(connected_components(g2)) == 2


def test_template_mismatch_is_an_error():
    g = q3()
    from maxleaf.reductions import RuleMatch

    with pytest.raises(InadmissibleError):
        admissible(g, RuleMatch("R5", {"u": 1, "v": 2}))


# -- bilateral matcher ---------------------------------------------------------------


def subdivided_random(n: int, extra: int, rng) -> Graph:
    """A random connected simple graph with about 40% of its edges
    subdivided by a degree-2 vertex."""
    base = random_connected(n, extra, rng)
    g = Graph(vertices=base.vertices)
    nxt = max(base.vertices) + 1
    for u, v in sorted(set(base.edges())):
        if rng.random() < 0.4:
            g.add_edge(u, nxt)
            g.add_edge(nxt, v)
            nxt += 1
        else:
            g.add_edge(u, v)
    return g


def test_bilateral_matches_equal_the_all_pairs_reference():
    rng = random.Random(5)
    found = {(rule, kind): 0 for rule in ("L1", "L3", "L4", "L5") for kind in ("simple", "multi")}
    for trial in range(600):
        n = rng.randint(2, 12)
        if trial % 2:
            kind, g = "multi", random_multigraph(n, rng.randint(0, 2 * n), rng)
            for v in sorted(g.vertices):
                while g.loops_at(v):
                    g.remove_edge(v, v)
        else:
            kind, g = "simple", subdivided_random(n, rng.randint(0, n), rng)
        for rule in ("L1", "L3", "L4", "L5"):
            keys = [m.key() for m in find_matches(g, rule)]
            assert keys == all_pairs_bilateral(g, rule), (rule, trial)
            found[rule, kind] += len(keys)
    assert all(found[rule, "simple"] >= 10 for rule in ("L1", "L3", "L4", "L5")), found
    assert found["L1", "multi"] and found["L3", "multi"] and found["L4", "multi"], found


def lift_meets_pipeline_bound(g, step, g2) -> bool:
    from fractions import Fraction

    lifted = reconstruct_tree(g, step, exact_forest(g2))
    k_nt = sum(1 for c in connected_components(g2) if len(c) >= 2)
    alpha = Fraction(2) if step.component_delta > 0 else Fraction(4, 3)
    bound = Fraction(n_ge3(g), 3) + alpha * k_nt - 2 * (k_nt - 1)
    return Fraction(forest_leaf_count(lifted)) >= bound


def l3_graph():
    # x=1 and y=2 joined through gm=3; each keeps one side edge through a
    # degree-2 connector (4, 5) and one direct edge, into a 4-cycle of anchors
    return Graph(edges=[
        (1, 3), (3, 2), (1, 4), (4, 10), (1, 11), (2, 5), (5, 12), (2, 13),
        (10, 11), (11, 12), (12, 13), (13, 10),
    ])


def test_l3_hand_built():
    g = l3_graph()
    (m,) = find_matches(g, "L3")
    assert m.roles == {"x": 1, "y": 2, "gm": 3, "gx1": 4, "gy1": 5, "a": 10, "b": 11, "c": 12, "d": 13}
    g2, step = apply_rule(g, m)
    assert step.removed_vertices == (1, 2, 3, 4, 5)
    assert step.added_vertices == (14, 15)
    assert step.added_edges == ((10, 14), (11, 14), (12, 15), (13, 15))
    assert reverted(step, g2) == g
    assert lift_meets_pipeline_bound(g, step, g2)
    _, steps = reduce_to_irreducible(g)
    assert steps[0].rule_id == "L3"


def test_l5_hand_built():
    # x=1 ~ y=2, all four side edges through degree-2 connectors
    g = Graph(edges=[
        (1, 2), (1, 3), (3, 10), (1, 4), (4, 11), (2, 5), (5, 12), (2, 6), (6, 13),
        (10, 11), (11, 12), (12, 13), (13, 10), (10, 12),
    ])
    (m,) = find_matches(g, "L5")
    assert m.roles == {
        "x": 1, "y": 2, "gx1": 3, "gx2": 4, "gy1": 5, "gy2": 6, "a": 10, "b": 11, "c": 12, "d": 13,
    }
    g2, step = apply_rule(g, m)
    assert step.removed_vertices == (1, 2, 3, 4, 5, 6)
    assert step.added_edges == ((10, 14), (11, 14), (12, 15), (13, 15))
    assert reverted(step, g2) == g
    assert lift_meets_pipeline_bound(g, step, g2)


# -- applications --------------------------------------------------------------------


# K2, and K2 with its edge doubled
L2_GRAPHS = ([(1, 2)], [(1, 2), (1, 2)])


def test_l2_on_k2_gives_two_trivial_components():
    g = Graph(edges=L2_GRAPHS[0])
    m = first_admissible(g, "L2")
    g2, step = apply_rule(g, m)
    assert g2.vertices == {1, 2} and g2.m == 0
    assert len(connected_components(g2)) == 2
    assert step.component_delta == 1


def test_l2_on_k2_plus_e():
    g = Graph(edges=L2_GRAPHS[1])
    m = first_admissible(g, "L2")
    g2, _ = apply_rule(g, m)
    assert g2.m == 0


def test_r5_deltas_on_k5():
    g = Graph(edges=[(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    m = first_admissible(g, "R5")
    g2, step = apply_rule(g, m)
    assert step.delta_n3 == 0
    assert g2.m == g.m - 1


def r1_graph():
    return Graph(edges=[(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 5), (1, 6), (4, 7)])


def test_r1_fires_on_three_degree3_diamond():
    g = r1_graph()
    matches = find_matches(g, "R1")
    assert [m.roles["hi"] for m in matches] == [1]
    g2, step = apply_rule(g, matches[0])
    assert step.delta_n3 == 3


def test_r_rule_delta_bounds(rng):
    # stated facts: R1-R3 decrease the high-degree count by at most 3, R4 by
    # at least 5 nominal vertices; measured deltas must respect them
    seen = {r: 0 for r in HIGH_RULES}
    for i in range(40):
        try:
            g = random_invariant_graph(rng.randint(6, 12), 3 if i % 2 else 2, seed=i)
        except GeneratorError:
            continue
        for rule in HIGH_RULES:
            m = first_admissible(g, rule)
            if m is None:
                continue
            _, step = apply_rule(g, m)
            seen[rule] += 1
            if rule in ("R1", "R2", "R3"):
                assert 0 <= step.delta_n3 <= 3
            if rule == "R5":
                assert step.delta_n3 == 0
    assert seen["R5"] > 0 and seen["R3"] > 0


# -- replay / undo ---------------------------------------------------------------------


def test_steps_replay_and_undo(rng):
    done = 0
    for i in range(30):
        try:
            g = random_invariant_graph(rng.randint(6, 11), 3 if i % 2 else 2, seed=100 + i)
        except GeneratorError:
            continue
        for rule in LOW_RULES + HIGH_RULES:
            m = first_admissible(g, rule)
            if m is None:
                continue
            g2, step = apply_rule(g, m)
            cur = g.copy()
            step.apply(cur)
            assert cur == g2
            step.revert(cur)
            assert cur == g
            round_trip = ReductionStep.from_json_dict(json.loads(json.dumps(step.to_json_dict())))
            assert round_trip == step
            done += 1
    assert done >= 8


# -- reduce to irreducible -----------------------------------------------------------------


def test_q3_and_g7_are_irreducible():
    for g in (q3(), g7()):
        reduced, steps = reduce_to_irreducible(g)
        assert steps == []
        assert reduced == g


def test_reduce_requires_invariant():
    g = necklace(2)
    g.add_edge(1, 7)  # closed necklace: invariant fails
    with pytest.raises(GraphError):
        reduce_to_irreducible(g)


def test_reduce_terminates_and_yields_irreducible(rng):
    for i in range(20):
        try:
            g = random_invariant_graph(rng.randint(6, 12), 3 if i % 2 else 2, seed=200 + i)
        except GeneratorError:
            continue
        reduced, steps = reduce_to_irreducible(g)
        assert len(steps) <= 4 * (g.n + g.m) + 16
        assert check_invariant(reduced).ok
        for rule in LOW_RULES + HIGH_RULES:
            assert first_admissible(reduced, rule) is None, rule
        # trace replays forward to the reduced graph
        cur = g.copy()
        for step in steps:
            step.apply(cur)
        assert cur == reduced


def test_loop_applies_the_first_match_admissible_accepts():
    # the loop vets its own matches without the template rematch and the
    # invariant scan of the public path; both must pick the same step
    states = 0
    for n, degree, seed in itertools.product(range(6, 19), (2, 3), range(4)):
        try:
            g = random_invariant_graph(n, degree, seed=seed)
        except GeneratorError:
            continue
        _, steps = reduce_to_irreducible(g)
        cur = g
        for step in steps + [None]:
            first = next(
                (
                    m
                    for rule in LOW_RULES + HIGH_RULES
                    for m in find_matches(cur, rule)
                    if admissible(cur, m)[0]
                ),
                None,
            )
            states += 1
            if step is None:
                assert first is None, (n, degree, seed)
                break
            cur, public_step = apply_rule(cur, first)
            assert public_step == step, (n, degree, seed)
    assert states >= 250


def test_each_rule_application_is_checked_once(monkeypatch):
    def refuse(name):
        def fail(*args):
            raise AssertionError(f"{name} called during reduction")
        return fail

    calls = Counter()

    def counting(name):
        method = getattr(ReductionStep, name)

        def counted(step, g):
            calls[name] += 1
            return method(step, g)

        return counted

    for n, degree, seed in ((16, 3, 1), (20, 2, 7)):
        g = random_invariant_graph(n, degree, seed=seed)
        with monkeypatch.context() as patch:
            # the loop's own matches fit their templates, and on invariant
            # input the result's invariant check covers the forbidden scan
            patch.setattr(reductions, "_template_fits", refuse("_template_fits"))
            patch.setattr(reductions, "introduces_forbidden", refuse("introduces_forbidden"))
            reduced, steps = reduce_to_irreducible(g)
        assert steps
        forest = exact_forest(reduced)
        with monkeypatch.context() as patch:
            # the lift takes one copy forward and reads each step's record on
            # the way back: each step applied once, none reverted
            for name in ("apply", "revert"):
                patch.setattr(ReductionStep, name, counting(name))
            calls.clear()
            reconstruct_chain(g, steps, forest)
        assert calls == {"apply": len(steps)}


def test_vetted_match_makes_one_component_walk(monkeypatch):
    walks = Counter()
    meeting, vet = reductions.components_meeting, reductions._vet

    def counted_meeting(*args):
        walks["now"] += 1
        return meeting(*args)

    def counted_vet(g, match, *args):
        # a match refused on its shared end vertices is never rewritten
        want = 0 if reductions._shared_end_reason(g, match) else 1
        walks["now"] = 0
        out = vet(g, match, *args)
        assert walks["now"] == want, match
        walks["vetted"] += want
        return out

    monkeypatch.setattr(reductions, "components_meeting", counted_meeting)
    monkeypatch.setattr(reductions, "_vet", counted_vet)
    for n, degree, seed in ((16, 3, 1), (20, 2, 7), (20, 2, 1)):
        reduce_to_irreducible(random_invariant_graph(n, degree, seed=seed))
    fpt_preprocess(flowerbed(3), 13)
    k5 = Graph(edges=itertools.combinations(range(1, 6), 2))
    admissible(k5, find_matches(k5, "R5")[0])
    assert walks["vetted"] >= 20


def test_touched_vertices_of_a_match_lie_in_one_component():
    """The one walk after a rewrite counts its component change because the
    matched structure joins every touched vertex of the pre-state: checked
    for every match of every rule on each graph of each reduction trace."""
    matches = Counter()
    for n in range(6, 21):
        for degree in (2, 3):
            for seed in range(3):
                try:
                    g = random_invariant_graph(n, degree, seed=seed)
                except GeneratorError:
                    continue
                _, steps = reduce_to_irreducible(g)
                for h in replayed_graphs(g, steps):
                    for rule_id in LOW_RULES + HIGH_RULES + FPT_RULES:
                        for m in find_matches(h, rule_id):
                            touched = reductions.build_plan(h, m).touched()
                            pre = [v for v in touched if h.has_vertex(v)]
                            assert reductions.components_meeting(h, pre) == 1, m
                            matches[rule_id] += 1
    assert len(matches) >= 8 and sum(matches.values()) >= 1000, matches


def test_invariant_preserved_along_reductions(rng):
    checked = 0
    for i in range(25):
        try:
            g = random_invariant_graph(rng.randint(6, 12), 3 if i % 2 else 2, seed=300 + i)
        except GeneratorError:
            continue
        cur = g.copy()
        _, steps = reduce_to_irreducible(g)
        for step in steps:
            step.apply(cur)
            assert check_invariant(cur).ok
            checked += 1
    assert checked >= 5


# -- edge deletion property -------------------------------------------------------------


def widget_with_cube():
    """A diamond-to-be widget on a hub, ballasted by a cube over a bridge:
    irreducible with one degree-4/degree-4 non-bridge edge whose deletion
    turns the widget into a cubic diamond."""
    g = Graph()
    u, w, c1, c2, v = 1, 2, 3, 4, 5
    for a, b in [(u, w), (u, c1), (u, c2), (w, c1), (w, c2), (v, c1), (v, c2), (u, v)]:
        g.add_edge(a, b)
    for x in range(8):
        for bit in (1, 2, 4):
            y = x ^ bit
            if x < y:
                g.add_edge(10 + x, 10 + y)
    g.add_edge(v, 10)
    return g


def test_edge_deletion_property_on_irreducibles(rng):
    from maxleaf.patterns import find_cubic_diamonds

    def check_graph(reduced) -> int:
        tested = 0
        bridges, _ = naive_bridges_and_cuts(reduced)
        for u in sorted(reduced.vertices):
            if reduced.degree(u) != 4:
                continue
            for v in sorted(reduced.neighbors(u)):
                if v <= u or reduced.degree(v) != 4:
                    continue
                if (u, v) in bridges:
                    continue
                h = reduced.copy()
                h.remove_edge(u, v)
                diamonds = find_cubic_diamonds(h)
                assert any(
                    u in m.vertices[1:3] or v in m.vertices[1:3] for m in diamonds
                ), (u, v)
                tested += 1
        return tested

    g = widget_with_cube()
    reduced, steps = reduce_to_irreducible(g)
    assert steps == []  # already irreducible by construction
    tested_edges = check_graph(reduced)
    assert tested_edges >= 1

    for i in range(30):
        try:
            h = random_invariant_graph(rng.randint(8, 13), 3, seed=400 + i)
        except GeneratorError:
            continue
        reduced, _ = reduce_to_irreducible(h)
        if reduced == g7() or reduced.n < 2:
            continue
        tested_edges += check_graph(reduced)
    assert tested_edges >= 1


# -- reconstruction ----------------------------------------------------------------------


def exact_forest(g2):
    forest = set()
    for comp in connected_components(g2):
        if len(comp) < 2:
            continue
        sub = Graph(vertices=comp)
        for u, v in g2.edges():
            if u in comp and v in comp:
                sub.add_edge(u, v)
        _, tree = exact_max_leaves(sub)
        forest |= set(tree)
    return forest


def forest_leaf_count(edges):
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return sum(1 for d in deg.values() if d == 1)


def test_reconstruction_meets_the_pipeline_bound(rng):
    from fractions import Fraction

    pipelines = 0
    for i in range(40):
        try:
            g = random_invariant_graph(rng.randint(6, 12), 3 if i % 2 else 2, seed=500 + i)
        except GeneratorError:
            continue
        for rule in LOW_RULES + HIGH_RULES:
            m = first_admissible(g, rule)
            if m is None:
                continue
            g2, step = apply_rule(g, m)
            forest = exact_forest(g2)
            lifted = reconstruct_tree(g, step, forest)
            k_nt = sum(1 for c in connected_components(g2) if len(c) >= 2)
            alpha = Fraction(2) if step.component_delta > 0 else Fraction(4, 3)
            bound = Fraction(n_ge3(g), 3) + alpha * k_nt - 2 * (k_nt - 1)
            assert Fraction(forest_leaf_count(lifted)) >= bound, (rule, i)
            pipelines += 1
    assert pipelines >= 15


def test_lift_leaves_the_final_graph_as_it_is():
    """The lift reads the caller's final graph for its forest check only: an
    L/R trace (L7, L6, R5) and an F trace both leave it unchanged."""
    g = random_invariant_graph(20, 2, 1)
    reduced, steps = reduce_to_irreducible(g)
    assert [s.rule_id for s in steps] == ["L7", "L6", "R5"]
    bed = flowerbed(2)
    bed_reduced, _, bed_steps = fpt_preprocess(bed, bed.n)
    assert {s.rule_id for s in bed_steps} == {"F2"}
    for start, trace, final in ((g, steps, reduced), (bed, bed_steps, bed_reduced)):
        kept = final.copy()
        forest = exact_forest(final)
        lifted = reconstruct_chain(start, trace, forest, final)
        assert final == kept
        assert lifted == reconstruct_chain(start, trace, forest)


def test_made_goober_in_the_json_trace():
    g = random_invariant_graph(20, 2, 1)
    _, steps = reduce_to_irreducible(g)
    assert [s.made_goober for s in steps] == [True, True, False]
    for step in steps:
        record = step.to_json_dict()
        assert ReductionStep.from_json_dict(json.loads(json.dumps(record))) == step
        # a trace written before the key existed reads the strict bound
        del record["made_goober"]
        assert ReductionStep.from_json_dict(record).made_goober is False
        for value in (1, 0, "true", None):
            with pytest.raises(TypeError):
                ReductionStep.from_json_dict({**record, "made_goober": value})


def test_reconstruct_rejects_non_spanning_forest():
    g = Graph(edges=[(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    m = first_admissible(g, "R5")
    g2, step = apply_rule(g, m)

    ((u, v),) = step.removed_edges
    others = sorted(g.vertices - {u, v})
    for forest in (
        set(),
        # a triangle with a pendant: n - 1 edges, one vertex left out
        {(others[0], others[1]), (others[1], others[2]), (others[0], others[2]), (others[0], u)},
        # a star whose edge uv is the one the step removed
        {(u, v)} | {(u, w) for w in others},
    ):
        with pytest.raises(ReconstructionError):
            reconstruct_tree(g, step, forest)
    # L3 replaces the region by 14 ~ {10, 11} and 15 ~ {12, 13}; this forest
    # has the right size but closes 10-11-14 and leaves 13 out, and the lift
    # would drop both edges at 14 and complete the rest
    g = l3_graph()
    (m,) = find_matches(g, "L3")
    _, step = apply_rule(g, m)
    with pytest.raises(ReconstructionError):
        reconstruct_tree(g, step, {(10, 11), (10, 14), (11, 14), (11, 12), (12, 15)})


def random_spanning_forest(g, rng):
    """A spanning forest of g from its distinct edges in random order."""
    parent = {v: v for v in g.vertices}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    forest = set()
    pairs = sorted(set(g.edges()))
    rng.shuffle(pairs)
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            forest.add((u, v))
    return forest


def _lift_or_error(lift, *args):
    try:
        return lift(*args)
    except ReconstructionError as exc:
        return str(exc)


def _lift_traces(rng):
    """Traces of reduce_to_irreducible on random invariant graphs and of
    fpt_preprocess on graphs with planted diamonds and blossoms and on
    flowerbed(2), each with its start graph."""
    from conftest import plant_blossom, plant_diamond

    for i in range(30):
        try:
            g = random_invariant_graph(rng.randint(6, 14), 3 if i % 2 else 2, seed=700 + i)
        except GeneratorError:
            continue
        yield g, reduce_to_irreducible(g)[1]
    for i in range(30):
        g = random_connected(rng.randint(4, 9), rng.randint(0, 3), rng)
        g = plant_diamond(g, rng) if i % 2 else plant_blossom(g, rng)
        yield g, fpt_preprocess(g, g.n)[2]
    yield flowerbed(2), fpt_preprocess(flowerbed(2), 10)[2]
    # the rules the traces above miss at the fixture seed, one rule a trace:
    # L3, L4 and L5 on the seed-1 fuzz graphs where they apply, L2, R1 and
    # R4 on the hand-built graphs above
    for rule_id, rounds in RARE_RULE_ROUNDS:
        for i in rounds:
            g = _fuzz_graph(1, i)
            yield g, reductions._reduce(g, (rule_id,))[1]
    hand_built = [(Graph(edges=e), "L2") for e in L2_GRAPHS] + [(r1_graph(), "R1"), (r4_cut_graph(), "R4")]
    for g, rule_id in hand_built:
        yield g, [apply_rule(g, first_admissible(g, rule_id))[1]]


def test_lift_matches_whole_graph_reference(rng):
    """The lift that carries the forest and reads an F step's region only
    returns the whole-graph lift's tree, or raises its error, on every step
    of the traces, for the forest lifted from the end of the trace and for
    random spanning forests of each step's graph; the traces lift all 14
    rules."""
    from conftest import whole_graph_lift

    compared = 0
    rules = set()
    for g, steps in _lift_traces(rng):
        graphs = replayed_graphs(g, steps)
        chain = random_spanning_forest(graphs[-1], rng)
        for i in reversed(range(len(steps))):
            rules.add(steps[i].rule_id)
            for forest in [chain] + [random_spanning_forest(graphs[i + 1], rng) for _ in range(3)]:
                got = _lift_or_error(reconstruct_tree, graphs[i], steps[i], forest)
                want = _lift_or_error(whole_graph_lift, graphs[i], graphs[i + 1], steps[i], forest)
                assert got == want, (steps[i].rule_id, sorted(forest))
                compared += 1
            chain = reconstruct_tree(graphs[i], steps[i], chain)
    assert compared >= 300 and rules == set(LOW_RULES + HIGH_RULES + FPT_RULES), (compared, rules)


def test_region_union_find_joins_what_the_kept_forest_joins(rng):
    """An F step's union-find over its region, read from the region alone,
    puts two of its vertices together exactly when the forest without the
    step's added edges joins them, anywhere in the graph."""
    checked = 0
    for g, steps in _lift_traces(rng):
        graphs = replayed_graphs(g, steps)
        for i, step in enumerate(steps):
            if step.rule_id not in FPT_RULES:
                continue
            for _ in range(4):
                forest = {edge_key(u, v) for u, v in random_spanning_forest(graphs[i + 1], rng)}
                adj = {v: set() for v in graphs[i + 1].vertices}
                for u, v in forest:
                    adj[u].add(v)
                    adj[v].add(u)
                added = {edge_key(u, v) for u, v in step.added_edges}
                parent = reductions._region_roots(step, adj, added)
                kept = Graph(graphs[i].vertices, forest - added)
                tree = {v: j for j, c in enumerate(connected_components(kept)) for v in c}
                for u, v in itertools.combinations(parent, 2):
                    joined = find(parent, u) == find(parent, v)
                    assert joined == (tree[u] == tree[v]), (step, sorted(forest))
                checked += 1
    assert checked >= 120, checked


def test_lift_refuses_an_f2_step_whose_region_is_not_two_terminal(rng):
    """An F2 step whose recorded roles put a terminal or an inner vertex on
    a vertex outside the blossom still replays, since replay reads only its
    edges, but the region lift refuses it. Moving c1 leaves the forest edge
    a1-c1 (a1 is a leaf after the step) outside the region; moving a1 leaves
    the removed edges at a1 outside it."""
    g = flowerbed(2)
    _, _, steps = fpt_preprocess(g, 10)
    graphs = replayed_graphs(g, steps)
    for i, step in enumerate(steps):
        roles = dict(step.roles)
        blossom = {roles[name] for name in ("b", "a1", "a2", "a3", "a4", "c1", "c2")}
        for name in ("c1", "a1"):
            (outside,) = {w for w in graphs[i].neighbors(roles["c1"]) if w not in blossom}
            forged = replace(step, roles=tuple(sorted({**roles, name: outside}.items())))
            forest = random_spanning_forest(graphs[i + 1], rng)
            assert forest_leaf_count(reconstruct_tree(graphs[i], step, forest)) > forest_leaf_count(forest)
            with pytest.raises(ReconstructionError, match="two-terminal"):
                reconstruct_tree(graphs[i], forged, forest)


# -- the loop and the lift on one graph against full rescans ---------------------------


@pytest.fixture
def checked_cache(monkeypatch):
    """Check after every refresh of the reduction loop that each rule's
    cached matches are the ones a full scan of the graph finds, in order.
    Yields the number of cached matches checked per rule."""
    refresh = reductions._refresh
    checked = Counter()

    def refresh_and_check(g, cache, touched):
        refresh(g, cache, touched)
        for rule_id, matches in cache.items():
            assert matches == find_matches(g, rule_id), (rule_id, sorted(touched))
            checked[rule_id] += len(matches)

    monkeypatch.setattr(reductions, "_refresh", refresh_and_check)
    return checked


def test_refresh_keeps_each_rule_cache_equal_to_a_full_scan(rng):
    """Random local edits (an edge added or removed, a vertex removed or
    added) on graphs with many degree-2 and degree-3 vertices; after each,
    refreshing around the edited vertices leaves every rule's cache equal to
    a full scan. A reach one short of a rule's farthest role drops matches
    whose only edited role sits there."""
    from conftest import plant_blossom, plant_diamond

    rules = LOW_RULES + HIGH_RULES + FPT_RULES
    found = Counter()
    for trial in range(60):
        g = random_connected(rng.randint(8, 16), rng.randint(2, 10), rng)
        for u, v in rng.sample(sorted(set(g.edges())), g.m // 2):  # subdivide
            w = max(g.vertices) + 1
            g.remove_edge(u, v)
            g.add_edge(u, w)
            g.add_edge(w, v)
        for _ in range(trial % 4):
            g = plant_diamond(g, rng) if rng.random() < 0.5 else plant_blossom(g, rng)
        cache = {rule_id: find_matches(g, rule_id) for rule_id in rules}
        for _ in range(12):
            action = rng.random()
            if action < 0.2 and g.n > 4:
                v = rng.choice(sorted(g.vertices))
                touched = {v} | g.neighbors(v)
                g.remove_vertex(v)
            elif action < 0.3:
                v, ends = max(g.vertices) + 1, rng.sample(sorted(g.vertices), 2)
                touched = {v, *ends}
                for w in ends:
                    g.add_edge(v, w)
            else:
                u, v = rng.sample(sorted(g.vertices), 2)
                touched = {u, v}
                if g.has_edge(u, v):
                    g.remove_edge(u, v)
                else:
                    g.add_edge(u, v)
            reductions._refresh(g, cache, touched)
            for rule_id in rules:
                assert cache[rule_id] == find_matches(g, rule_id), (trial, rule_id)
                found[rule_id] += len(cache[rule_id])
    assert all(found[rule_id] for rule_id in rules), found


def _check_against_references(g, reduce, rules, rng) -> list[ReductionStep]:
    """The loop's steps and reduced graph against the full-rescan loop's,
    and the chain's lift of a random spanning forest of the reduced graph
    against the lift over replayed graphs (the same tree, or the same
    error)."""
    from conftest import reference_chain, reference_reduce

    reduced, steps = reduce(g)
    want_graph, want_steps = reference_reduce(g, rules)
    assert steps == want_steps and reduced == want_graph, sorted(g.edges())
    forest = random_spanning_forest(reduced, rng)
    got = _lift_or_error(reconstruct_chain, g, steps, forest)
    assert got == _lift_or_error(reference_chain, g, steps, forest), sorted(g.edges())
    return steps


def _fuzz_graph(seed: int, i: int):
    """Graph ``i`` of scripts/reduction_fuzz.py at ``seed``, or None."""
    try:
        return random_invariant_graph(6 + i % 9, 3 if i % 2 == 0 else 2, seed=seed * 100000 + i)
    except GeneratorError:
        return None


def test_fpt_loop_matches_full_rescan(rng, checked_cache):
    from conftest import plant_blossom, plant_diamond

    graphs = [flowerbed(i) for i in range(2, 9)] + [necklace_ring(r) for r in range(2, 9)]
    for n in range(10, 31):
        try:
            graphs.append(random_invariant_graph(n, 2 + n % 2, seed=n))
        except GeneratorError:
            pass
    for i in range(60):
        g = random_connected(rng.randint(4, 10), rng.randint(0, 3), rng)
        for _ in range(1 + i % 3):
            g = plant_diamond(g, rng) if rng.random() < 0.5 else plant_blossom(g, rng)
        graphs.append(g)
    rules = Counter()
    for g in graphs:
        steps = _check_against_references(g, lambda h: reductions._reduce(h, FPT_RULES), FPT_RULES, rng)
        rules.update(step.rule_id for step in steps)
    assert rules["F1"] >= 30 and rules["F2"] >= 30, rules
    assert checked_cache["F1"] and checked_cache["F2"], checked_cache


def test_rule_loop_matches_full_rescan(rng, checked_cache):
    rules = Counter()
    for seed, i in itertools.product((0, 1), range(200)):
        g = _fuzz_graph(seed, i)
        if g is not None:
            steps = _check_against_references(g, reduce_to_irreducible, LOW_RULES + HIGH_RULES, rng)
            rules.update(step.rule_id for step in steps)
    assert len(rules) >= 9, rules
    assert len(checked_cache) == len(LOW_RULES + HIGH_RULES), checked_cache


# the seed-1 fuzz graphs on which L3, L4 and L5 apply as single-rule
# reductions; the full reductions of the fuzz corpus rarely reach them
RARE_RULE_ROUNDS = [("L3", (89, 147)), ("L4", (7, 43, 141, 161)), ("L5", (7,))]


@pytest.mark.parametrize("rule_id, rounds", RARE_RULE_ROUNDS)
def test_rare_rule_loop_matches_full_rescan(rule_id, rounds, rng, checked_cache):
    applied = 0
    for i in rounds:
        g = _fuzz_graph(1, i)
        steps = _check_against_references(g, lambda h: reductions._reduce(h, (rule_id,)), (rule_id,), rng)
        applied += len(steps)
    assert applied >= len(rounds)


def test_reconstruct_r5_keeps_the_tree():
    g = Graph(edges=[(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    m = first_admissible(g, "R5")
    g2, step = apply_rule(g, m)
    _, tree = exact_max_leaves(g2)
    lifted = reconstruct_tree(g, step, set(tree))
    assert lifted == set(tree)


# -- FPT preprocessing -----------------------------------------------------------------


def test_preprocess_closed_necklace():
    g = necklace(2)
    g.add_edge(1, 7)
    g2, k2, steps = fpt_preprocess(g, 6)
    assert [s.rule_id for s in steps] == ["F1", "F1"]
    assert k2 == 4
    assert g2.n == 5


def test_preprocess_q3_untouched():
    g2, k2, steps = fpt_preprocess(q3(), 4)
    assert steps == [] and k2 == 4 and g2 == q3()


def test_preprocess_g7_minus_edge_single_f2():
    g = g7()
    g.remove_edge(2, 5)
    g2, k2, steps = fpt_preprocess(g, 5)
    assert [s.rule_id for s in steps] == ["F2"]
    assert k2 == 4
    from maxleaf.patterns import find_2terminal

    assert find_2terminal(g2, "2-terminal-diamond") == []
    assert find_2terminal(g2, "2-terminal-blossom") == []


def test_f1_reverse_gains_exactly_one_leaf_at_the_optimum(rng):
    from conftest import plant_diamond

    done = 0
    for _ in range(20):
        g = random_connected(rng.randint(4, 7), rng.randint(0, 2), rng)
        g = plant_diamond(g, rng)
        matches = find_matches(g, "F1")
        if not matches:
            continue
        g2, step = apply_rule(g, matches[0])
        opt2, tree2 = exact_max_leaves(g2)
        lifted = reconstruct_tree(g, step, set(tree2))
        assert forest_leaf_count(lifted) >= opt2 + 1
        opt, _ = exact_max_leaves(g)
        assert forest_leaf_count(lifted) <= opt
        done += 1
    assert done >= 10


def test_preprocess_flowerbed_strips_blossoms():
    g2, k2, steps = fpt_preprocess(flowerbed(2), 10)
    assert sorted(s.rule_id for s in steps) == ["F2", "F2"]
    assert k2 == 8


def test_f_rule_equivalence_small(rng):
    from conftest import plant_blossom, plant_diamond

    total = 0
    for trial in range(40):
        g = random_connected(rng.randint(4, 7), rng.randint(0, 2), rng)
        g = plant_diamond(g, rng) if trial % 2 == 0 else plant_blossom(g, rng)
        if g.n > 13:
            continue
        opt, _ = exact_max_leaves(g)
        g2, _, steps = fpt_preprocess(g, g.n)
        if not steps:
            continue
        opt2, _ = exact_max_leaves(g2)
        assert opt == opt2 + len(steps), sorted(set(g.edges()))
        total += 1
    assert total >= 20
