#!/usr/bin/env python3
"""Long-running randomized exercise of the rule system.

For every generated invariant-satisfying graph and every admissible rule:
apply the rule once, solve the reduced graph exactly per component, lift the
forest back, and check the leaf-ratio inequality for that pipeline (ratio 2
when the rule disconnected into goober-holding components, 4/3 otherwise).

Full reduction chains are also run to exercise trace replay; chains make no
ratio promise (the reduced-graph guarantee is banked once per pipeline), so
they are checked for validity and reported.

Usage:
    python scripts/reduction_fuzz.py [--rounds N] [--seed S]
"""

import argparse
from collections import Counter
from fractions import Fraction

from maxleaf.generators import GeneratorError, random_invariant_graph
from maxleaf.graphs import Graph, connected_components, n_ge3, tree_leaf_count
from maxleaf.patterns import check_invariant
from maxleaf.potential import heuristic_bound
from maxleaf.reductions import (
    HIGH_RULES,
    LOW_RULES,
    InadmissibleError,
    apply_rule,
    find_matches,
    reconstruct_chain,
    reconstruct_tree,
    reduce_to_irreducible,
)
from maxleaf.solver import exact_max_leaves


def exact_forest(g: Graph) -> set:
    forest = set()
    for comp in connected_components(g):
        if len(comp) < 2:
            continue
        sub = Graph(vertices=comp)
        for u, v in g.edges():
            if u in comp and v in comp:
                sub.add_edge(u, v)
        _, tree = exact_max_leaves(sub)
        forest |= set(tree)
    return forest


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=150)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rule_tally: Counter[str] = Counter()
    violations = 0
    pipelines = 0
    chains = 0
    chain_ratio_hits = 0
    for i in range(args.rounds):
        target = 3 if i % 2 == 0 else 2
        n = 6 + (i % 9)
        try:
            g = random_invariant_graph(n, target, seed=args.seed * 100000 + i)
        except GeneratorError:
            continue

        # single-rule pipelines: the stated ratio inequality must hold
        for rule in LOW_RULES + HIGH_RULES:
            for match in find_matches(g, rule):
                try:
                    reduced, step = apply_rule(g, match)
                except InadmissibleError:
                    continue
                if not check_invariant(reduced).ok:
                    violations += 1
                    print(f"round {i}: {rule} lost the invariant")
                    break
                lifted = reconstruct_tree(g, step, exact_forest(reduced))
                k_nt = sum(1 for c in connected_components(reduced) if len(c) >= 2)
                alpha = Fraction(2) if step.component_delta > 0 else Fraction(4, 3)
                bound = Fraction(n_ge3(g), 3) + alpha * k_nt - 2 * (k_nt - 1)
                pipelines += 1
                rule_tally[rule] += 1
                if Fraction(tree_leaf_count(lifted)) < bound:
                    violations += 1
                    print(f"round {i}: {rule} pipeline misses {tree_leaf_count(lifted)} < {bound}")
                break

        # full chains: validity only
        irr, steps = reduce_to_irreducible(g)
        if not steps:
            continue
        chains += 1
        lifted = reconstruct_chain(g, steps, exact_forest(irr))
        if len(lifted) != g.n - 1:
            violations += 1
            print(f"round {i}: chain lift is not a spanning tree")
        if tree_leaf_count(lifted) >= heuristic_bound(g):
            chain_ratio_hits += 1

    print(f"\n{pipelines} single-rule pipelines, applications: {dict(rule_tally)}")
    print(f"{chains} full chains lifted, {chain_ratio_hits} also met the single-pipeline ratio")
    print(f"{violations} violations")
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
