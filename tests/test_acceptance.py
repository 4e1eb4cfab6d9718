"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible under ``pytest -s``).

Run: pytest tests/test_acceptance.py -s -v
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

from maxleaf.graphs import Graph, connected_components, graph_leaves, n_ge3, suppress, vertices_ge3
from maxleaf.generators import (
    GeneratorError,
    flowerbed,
    g7,
    necklace_ring,
    q3,
    random_invariant_graph,
)
from maxleaf.patterns import check_invariant, find_2blossoms, find_2terminal
from maxleaf.reductions import (
    HIGH_RULES,
    LOW_RULES,
    admissible,
    apply_rule,
    find_matches,
    fpt_preprocess,
)
from maxleaf.solver import (
    achievable_leaves,
    exact_max_leaves,
    fpt_decide,
    tree_leaf_count,
    verify_spanning_tree,
)

from conftest import (
    plant_blossom,
    plant_diamond,
    random_connected,
    spanning_trees,
    tree_leaves,
)


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_g7_optimum():
    t0 = time.time()
    best, tree = exact_max_leaves(g7())
    dt = time.time() - t0
    ok = best == 4 and verify_spanning_tree(g7(), tree) and dt < 1.0
    report("criterion-01 g7-optimum", ok, f"optimum={best} ({dt:.2f}s)")


def test_02_cube_optimum():
    t0 = time.time()
    best, _ = exact_max_leaves(q3())
    dt = time.time() - t0
    report("criterion-02 cube-optimum", best == 4 and dt < 1.0, f"optimum={best} ({dt:.2f}s)")


def test_03_g7_deletion_property():
    t0 = time.time()
    g = g7()
    deg4 = sorted(v for v in g.vertices if g.degree(v) == 4)
    pairs = [(u, v) for u, v in itertools.combinations(deg4, 2) if g.has_edge(u, v)]
    ok = len(pairs) == 3
    for u, v in pairs:
        h = g.copy()
        h.remove_edge(u, v)
        ok = ok and len(find_2blossoms(h)) >= 1
    dt = time.time() - t0
    report("criterion-03 g7-deletion", ok and dt < 1.0, f"{len(pairs)} edges checked ({dt:.2f}s)")


def test_04_flowerbed_bound():
    t0 = time.time()
    r2 = flowerbed(2)
    yes = fpt_decide(r2, 10, want_witness=True)
    no = fpt_decide(r2, 11)
    dt = time.time() - t0
    ok = (
        yes.is_yes
        and not no.is_yes
        and verify_spanning_tree(r2, yes.witness)
        and tree_leaf_count(yes.witness) >= 10
        and dt < 600
    )
    report("criterion-04 flowerbed", ok, f"k=10:{yes.answer} k=11:{no.answer} ({dt:.1f}s)")


def test_05_necklace_ring_bound():
    t0 = time.time()
    g = necklace_ring(3)
    best, _ = exact_max_leaves(g)
    dt = time.time() - t0
    ok = g.n == 12 and best == 5 and dt < 60
    report("criterion-05 necklace-ring", ok, f"n={g.n} optimum={best} ({dt:.1f}s)")


def test_06_theorem1_bound_suite():
    t0 = time.time()
    violations = 0
    produced = 0
    seed = 0
    while produced < 200:
        seed += 1
        target = 3 if produced % 2 == 0 else 2
        n = 6 + (seed % 9)
        try:
            g = random_invariant_graph(n, target, seed=seed)
        except GeneratorError:
            continue
        produced += 1
        best, _ = exact_max_leaves(g)
        extra = Fraction(4, 3) if g.min_degree() >= 3 else Fraction(2)
        if Fraction(best) < Fraction(n_ge3(g), 3) + extra:
            violations += 1
    dt = time.time() - t0
    ok = violations == 0 and dt < 600
    report("criterion-06 theorem1-suite", ok, f"200 graphs, {violations} violations ({dt:.1f}s)")


def test_07_oracle_fpt_equivalence():
    t0 = time.time()
    rng = random.Random(2024)
    disagreements = 0
    for _ in range(300):
        g = random_connected(rng.randint(2, 12), rng.randint(0, 5), rng)
        best, _ = exact_max_leaves(g)
        for k in range(1, g.n):
            if fpt_decide(g, k).is_yes != (best >= k):
                disagreements += 1
    dt = time.time() - t0
    ok = disagreements == 0 and dt < 900
    report("criterion-07 oracle-fpt", ok, f"300 graphs all k, {disagreements} disagreements ({dt:.1f}s)")


def test_08_f_rule_equivalence():
    t0 = time.time()
    rng = random.Random(4096)
    violations = 0
    done = 0
    while done < 100:
        n = rng.randint(4, 7)
        g = random_connected(n, rng.randint(0, 2), rng)
        if done % 2 == 0:
            g = plant_diamond(g, rng)
            if rng.random() < 0.4:
                g = plant_diamond(g, rng)
        else:
            g = plant_blossom(g, rng)
        if g.n > 14:
            continue
        if not (find_2terminal(g, "2-terminal-diamond") or find_2terminal(g, "2-terminal-blossom")):
            continue
        done += 1
        opt, _ = exact_max_leaves(g)
        reduced, _, steps = fpt_preprocess(g, g.n)
        opt2, _ = exact_max_leaves(reduced)
        if opt != opt2 + len(steps):
            violations += 1
    dt = time.time() - t0
    report("criterion-08 f-rule-equivalence", violations == 0, f"100 instances, {violations} violations ({dt:.1f}s)")


def test_09_invariant_preservation_fuzz():
    t0 = time.time()
    applications = 0
    violations = 0
    seed = 0
    while applications < 500:
        seed += 1
        target = 3 if seed % 2 == 0 else 2
        try:
            g = random_invariant_graph(6 + (seed % 8), target, seed=9000 + seed)
        except GeneratorError:
            continue
        for rule in LOW_RULES + HIGH_RULES:
            for match in find_matches(g, rule):
                ok, _ = admissible(g, match)
                if not ok:
                    continue
                out, _ = apply_rule(g, match)
                applications += 1
                if not check_invariant(out).ok:
                    violations += 1
                break  # one application per rule per graph keeps variety
            if applications >= 500:
                break
    dt = time.time() - t0
    report(
        "criterion-09 invariant-fuzz",
        violations == 0,
        f"{applications} admissible applications, {violations} violations ({dt:.1f}s)",
    )


def test_10_forced_leaf_formula_validation():
    t0 = time.time()
    rng = random.Random(77)
    graphs = 0
    checked = 0
    violations = 0
    while graphs < 2000:
        n = rng.randint(4, 11)
        g = random_connected(n, rng.randint(0, 3), rng)
        if not any(g.degree(v) >= 3 for v in g.vertices):
            continue
        graphs += 1
        s = suppress(g)
        big = set(vertices_ge3(g))
        hl = len(graph_leaves(g))
        best: dict[frozenset, int] = {}
        for combo in spanning_trees(g):
            ls = tree_leaves(combo)
            small = len(ls - big)
            big_leaves = sorted(ls & big)
            for r in range(0, min(4, len(big_leaves)) + 1):
                for forced in itertools.combinations(big_leaves, r):
                    key = frozenset(forced)
                    val = len(forced) + small
                    if best.get(key, -1) < val:
                        best[key] = val
        for r in range(0, min(4, len(big)) + 1):
            for forced in itertools.combinations(sorted(big), r):
                value = achievable_leaves(s, s.mask(forced), hl)
                checked += 1
                if value != best.get(frozenset(forced)):
                    violations += 1
    # the enumeration-count bound stands in for the asymptotic runtime claim
    counter_ok = True
    for trial in range(40):
        g = random_connected(rng.randint(5, 11), rng.randint(0, 4), rng)
        for k in range(3, g.n):
            v = fpt_decide(g, k)
            k2 = max(1, v.stats.k_after_preprocess)
            if v.stats.subsets_enumerated > k2 * comb(3 * k2, k2):
                counter_ok = False
    dt = time.time() - t0
    ok = violations == 0 and counter_ok
    report(
        "criterion-10 forced-leaf-formula",
        ok,
        f"{graphs} graphs, {checked} forced sets, {violations} violations, counter_ok={counter_ok} ({dt:.1f}s)",
    )
