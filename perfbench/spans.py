"""Span tracing for the benchmark's traced run.

The program is not edited: each traced public function is rebound, in every
``maxleaf`` module namespace that refers to it, to a wrapper that records a
span (name, start, end, parent span, operation id) and the counts named in
TRACED. Spans stay in memory until the run ends; per-layer metrics are
computed from them, and they can be written out as a gzipped TSV file.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _suppress(result, counts):
    counts["graphs.suppress.out_vertices"] += len(result.vertices)
    counts["graphs.suppress.out_edges"] += len(result.sedges)


def _preprocess(result, counts):
    counts["reductions.fpt_preprocess.steps"] += len(result[2])


def _reduce(result, counts):
    counts["reductions.reduce_to_irreducible.steps"] += len(result[1])


def _matches(result, counts):
    counts["reductions.find_matches.matches"] += len(result)


def _admissible(result, counts):
    counts["reductions.admissible.admitted"] += bool(result[0])


def _apply(result, counts):
    counts[f"reductions.steps.{result[1].rule_id}"] += 1


def _augment(result, counts):
    counts["potential.try_augment.accepted"] += result is not None


def _decide(result, counts):
    counts["solver.fpt_decide.subsets_enumerated"] += result.stats.subsets_enumerated


def _achievable(result, counts):
    counts["solver.achievable_leaves.feasible"] += result is not None


RULES = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "R1", "R2", "R3", "R4", "R5", "F1", "F2")
OP = "op"  # root span of one operation: parse, call and the benchmark's check

# metric kind -> (unit, better)
KINDS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "steps": ("count", "higher"),
    "matches": ("count", "lower"),
    "out_vertices": ("count", "lower"),
    "out_edges": ("count", "lower"),
    "subsets_enumerated": ("count", "lower"),
    "admit_ratio": ("ratio", "higher"),
    "accept_ratio": ("ratio", "higher"),
    "feasible_ratio": ("ratio", "higher"),
    "incl_share": ("ratio", "lower"),
}

# traced public function -> (counter run on its return value, its metric kinds)
TRACED = {
    "graphs.parse_graph": (None, ("self_s",)),
    "graphs.suppress": (_suppress, ("calls", "self_s", "out_vertices", "out_edges")),
    "patterns.check_invariant": (None, ("calls", "self_s")),
    "patterns.introduces_forbidden": (None, ("calls", "self_s")),
    "patterns.find_2terminal": (None, ("calls", "self_s")),
    "reductions.fpt_preprocess": (_preprocess, ("self_s", "steps")),
    "reductions.reduce_to_irreducible": (_reduce, ("calls", "self_s", "steps")),
    "reductions.find_matches": (_matches, ("calls", "self_s", "matches")),
    "reductions.admissible": (_admissible, ("calls", "self_s", "admit_ratio")),
    "reductions.apply_rule": (_apply, ("calls", "self_s")),
    "reductions.reconstruct_chain": (None, ("self_s",)),
    "reductions.reconstruct_tree": (None, ("calls", "self_s")),
    "potential.greedy_spanning_tree": (None, ("calls", "self_s")),
    "potential.try_augment": (_augment, ("calls", "self_s", "accept_ratio")),
    "potential.expand": (None, ("calls", "self_s")),
    "potential.leaf_potential": (None, ("calls", "self_s")),
    "solver.fpt_decide": (_decide, ("calls", "self_s", "subsets_enumerated")),
    "solver.achievable_leaves": (_achievable, ("calls", "self_s", "feasible_ratio", "incl_share")),
    "solver.forced_leaf_feasible": (None, ("calls", "self_s")),
    "solver.forced_leaf_tree": (None, ("calls", "self_s")),
    "solver.verify_spanning_tree": (None, ("calls", "self_s")),
    "solver.exact_max_leaves": (None, ("calls", "self_s", "incl_share")),
}
MODULES = tuple(dict.fromkeys(name.partition(".")[0] for name in TRACED))


def _per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for fn, (_, kinds) in TRACED.items():
        spec += [(f"{fn}.{kind}", *KINDS[kind]) for kind in kinds]
        if fn == "reductions.reconstruct_tree":
            spec += [(f"reductions.steps.{rule}", "count", "higher") for rule in RULES]
    return spec + [
        ("op.total_s", "s", "lower"),
        ("op.self_s", "s", "lower"),
        *((f"share.{mod}", "ratio", "lower") for mod in MODULES),
        ("trace.spans", "count", "lower"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.traced_ops_per_s", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]


PER_LAYER = _per_layer_spec()

# ratio metric -> (counter of useful outcomes, function whose calls are its base)
RATIOS = {
    "reductions.admissible.admit_ratio": ("reductions.admissible.admitted", "reductions.admissible"),
    "potential.try_augment.accept_ratio": ("potential.try_augment.accepted", "potential.try_augment"),
    "solver.achievable_leaves.feasible_ratio": ("solver.achievable_leaves.feasible", "solver.achievable_leaves"),
}


class Tracer:
    """Spans and counts of one traced run. Spans are kept column by column
    in arrays, 34 bytes each, since a traced run records about a
    million of them."""

    def __init__(self):
        self.names = [OP]  # span name by name id
        self.name_id = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter[str] = Counter()

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, count):
        self.names.append(name)
        name_id, counts = len(self.names) - 1, self.counts

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function wherever a maxleaf module refers to it."""
        wrappers = {}
        for name, (count, _) in TRACED.items():
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"maxleaf.{mod_name}"], fn_name)
            wrappers[id(original)] = (original, self._wrap(name, original, count))
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "maxleaf" and not mod_name.startswith("maxleaf."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    undo.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in undo:
                setattr(mod, attr, value)

    @contextmanager
    def operation(self):
        """Root span of one operation; spans inside it share its id."""
        self.op_id += 1
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def records(self):
        """Every span as (name, start, end, parent span, operation id)."""
        names = self.names
        return zip(map(names.__getitem__, self.name_id), self.start, self.end, self.parent, self.op)

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children.
        Calls are single-threaded and properly nested, so the children never
        overlap and their sum is the part of the span they cover."""
        child = array("d", bytes(8 * len(self.start)))
        for t0, t1, parent in zip(self.start, self.end, self.parent):
            if parent >= 0:
                child[parent] += t1 - t0
        return array("d", (t1 - t0 - c for t0, t1, c in zip(self.start, self.end, child)))

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass of the instance list. ``trace.*``
        throughput metrics are left to the caller."""
        calls: Counter[str] = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        total: defaultdict[str, float] = defaultdict(float)
        for (name, t0, t1, _, _), own in zip(self.records(), self.self_times()):
            calls[name] += 1
            self_s[name] += own
            total[name] += t1 - t0
        op_total = total[OP]
        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            fn, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls[fn] / passes
            elif kind == "self_s":
                out[name] = self_s[fn] / passes
            elif kind == "total_s":
                out[name] = total[fn] / passes
            elif kind == "incl_share":
                # inclusive time; exact for functions that never nest in themselves
                out[name] = total[fn] / op_total
            elif name in RATIOS:
                useful, base = RATIOS[name]
                out[name] = self.counts[useful] / calls[base] if calls[base] else 0.0
            elif fn == "share":
                out[name] = sum(t for f, t in self_s.items() if f.startswith(kind + ".")) / op_total
            elif name == "trace.spans":
                out[name] = len(self.start) / passes
            elif not name.startswith("trace."):
                out[name] = self.counts[name] / passes
        return out

    def write(self, path: Path) -> None:
        """Write every span as one TSV line, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.records()):
                f.write(f"{i}\t{op}\t{parent}\t{name}\t{t0 - base:.9f}\t{t1 - base:.9f}\n")
