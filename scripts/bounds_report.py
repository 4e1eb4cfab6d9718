#!/usr/bin/env python3
"""Desk-scale verification of the extremal families.

Builds each named family and prints the achieved optimum next to the
family's predicted ceiling. The 7-vertex graph, the cube and the necklace
rings are solved by the exact oracle, which enumerates connected vertex sets
only; necklace_ring(7) (28 vertices) takes well under a second. Flowerbeds
exceed the oracle's 30-vertex cap and are decided at their threshold by the
decision procedure instead. Last, the paper's theorem is checked on seeded
random invariant graphs (n = 16..30): the exact optimum must reach
n>=3/3 + 4/3 at minimum degree 3 and n>=3/3 + 2 otherwise, where n>=3 counts
the vertices of degree at least 3. On every graph the script builds, the
leaf-expansion tree (solver.expansion_tree) is printed with its gap to the
optimum and must reach the Kleitman-West bound n/4 + 2 at minimum degree 3.
The exactly solved graphs also show the leaves of the potential-greedy tree
(greedy=), for comparison only. Exits 1 on a mismatch or a violation.

Usage:
    python scripts/bounds_report.py [--max-ring K] [--max-bed I]
"""

import argparse
import time
from fractions import Fraction

from maxleaf.generators import flowerbed, g7, necklace_ring, q3, random_invariant_graph
from maxleaf.graphs import tree_leaf_count
from maxleaf.potential import greedy_spanning_tree, theorem_bound
from maxleaf.solver import exact_max_leaves, expansion_tree, fpt_decide


def fmt(frac: Fraction) -> str:
    return str(frac) if frac.denominator != 1 else str(frac.numerator)


def check_expansion(g, optimum):
    """The expansion tree's leaves and gap to the optimum, as a report
    fragment, and whether it reaches n/4 + 2 where the minimum degree is 3."""
    leaves = tree_leaf_count(expansion_tree(g))
    ok = g.min_degree() < 3 or 4 * leaves >= g.n + 8
    return f"expansion={leaves:<3} gap={optimum - leaves}{'' if ok else ' BELOW n/4+2'}", ok


def solve_exact(name, g, expected):
    t0 = time.time()
    best, _ = exact_max_leaves(g)
    greedy, _ = greedy_spanning_tree(g)
    probe, probe_ok = check_expansion(g, best)
    print(
        f"{name:<18} n={g.n:<4} optimum={best:<3} expected={expected:<3} "
        f"greedy={tree_leaf_count(greedy):<3} {probe} ({time.time()-t0:.2f}s)"
    )
    return best == expected and probe_ok


def solve_threshold(name, g, expected):
    t0 = time.time()
    yes = fpt_decide(g, expected).is_yes
    no = not fpt_decide(g, expected + 1).is_yes
    probe, probe_ok = check_expansion(g, expected)
    print(
        f"{name:<18} n={g.n:<4} optimum={expected if yes and no else '?':<3} "
        f"k={expected}:{'YES' if yes else 'NO'} k={expected+1}:{'NO' if no else 'YES'} "
        f"{probe} ({time.time()-t0:.1f}s)"
    )
    return yes and no and probe_ok


def check_theorem(n, target, seed):
    g = random_invariant_graph(n, target, seed)
    bound = theorem_bound(g)
    best, _ = exact_max_leaves(g)
    greedy, _ = greedy_spanning_tree(g)
    ok = best >= bound
    probe, probe_ok = check_expansion(g, best)
    name = f"random({n},{target},{seed})"
    print(
        f"{name:<18} n={g.n:<4} min-degree={g.min_degree()} optimum={best:<3} "
        f"bound={fmt(bound)}{'' if ok else ' VIOLATED'} greedy={tree_leaf_count(greedy):<3} {probe}"
    )
    return ok and probe_ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-ring", type=int, default=4)
    ap.add_argument("--max-bed", type=int, default=2)
    args = ap.parse_args()

    ok = True
    print("== tight families ==")
    ok &= solve_exact("g7", g7(), 4)
    ok &= solve_exact("q3", q3(), 4)
    for k in range(2, args.max_ring + 1):
        ok &= solve_exact(f"necklace-ring({k})", necklace_ring(k), k + 2)
    print("\n== flowerbeds (ceiling 4n/13 + 2) ==")
    for i in range(2, args.max_bed + 1):
        ok &= solve_threshold(f"flowerbed({i})", flowerbed(i), 4 * i + 2)
    print("\n== the theorem on random invariant graphs ==")
    for n in range(16, 31, 2):
        for target in (2, 3):
            for seed in (0, 1):
                ok &= check_theorem(n, target, seed)
    print("\nall bounds confirmed" if ok else "\nBOUND MISMATCH — investigate")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
