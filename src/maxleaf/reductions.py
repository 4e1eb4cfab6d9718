"""The structural rule system: seven low-degree rules over degree-3/goober
configurations, five high-degree rules around degree-4 structures, and the two
decision-equivalent rules used by the FPT preprocessing.

Rewrite actions follow the stated applicability restrictions; every applied
step records exactly what changed, applies forward and reverts backward in
place, so traces are reproducible. No rule may introduce a new 2-necklace or
2-blossom, and on invariant-satisfying inputs every rule preserves the
invariant. Rule checks run once: ``admissible`` and ``apply_rule`` rematch a
caller's match and test the graph's invariant, and the reduction loop trusts
its own matches on invariant graphs.

The loop works on one copy of its graph. It applies each vetted match in
place, reverting it when rejected, reads the touched degrees around the
rewrite, counts its component change by one walk after it, and keeps each
rule's matches cached, refreshed around the touched vertices. A step records
all its lift needs, so the lift reads no graph past the final one of a trace,
where it checks the forest once; it then carries it back step by step, with
its leaf count and the component count, testing each candidate completion on
the replaced region only. An F1/F2 region meets the rest of the graph at its
two terminals alone, so an F step's lift reads nothing outside it; an L/R step
unions the whole forest.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field, replace
from operator import index
from typing import Iterable

from .graphs import Graph, GraphError, component_count, components_meeting, edge_key, find, is_goober
from .patterns import (
    KIND_2BLOSSOM,
    KIND_2NECKLACE,
    KIND_2T_BLOSSOM,
    KIND_2T_DIAMOND,
    _bowties,
    _diamond_blocks,
    check_invariant,
    find_2terminal,
    introduces_forbidden,
    start_order,
)

LOW_RULES = ("L1", "L2", "L3", "L4", "L5", "L6", "L7")
HIGH_RULES = ("R1", "R2", "R3", "R4", "R5")
FPT_RULES = ("F1", "F2")


class InadmissibleError(GraphError):
    """A rewrite was requested for a match that fails its conditions."""

    def __init__(self, rule_id: str, reason: str):
        self.rule_id = rule_id
        self.reason = reason
        super().__init__(f"{rule_id} not admissible: {reason}")


class ReconstructionError(GraphError):
    """Tree lifting could not meet its leaf-count contract."""


@dataclass(frozen=True)
class RuleMatch:
    """An assignment of graph vertices to the roles of one rule template."""

    rule_id: str
    roles: dict[str, int] = field(hash=False)

    def key(self) -> tuple:
        return tuple(sorted(self.roles.items()))


@dataclass(frozen=True)
class ReductionStep:
    """One applied rule, replayable in both directions."""

    rule_id: str
    roles: tuple[tuple[str, int], ...]
    removed_vertices: tuple[int, ...]
    removed_edges: tuple[tuple[int, int], ...]  # one entry per copy
    added_vertices: tuple[int, ...]
    added_edges: tuple[tuple[int, int], ...]
    delta_n3: int = 0
    component_delta: int = 0
    delta_k: int = 0
    made_goober: bool = False  # a touched vertex ends at degree <= 2, fresh or from 3+

    def touched(self) -> set[int]:
        out = set(self.removed_vertices) | set(self.added_vertices)
        for u, v in self.removed_edges + self.added_edges:
            out.add(u)
            out.add(v)
        return out

    def apply(self, g: Graph) -> None:
        """Apply the recorded rewrite in place to a graph in the pre-state."""
        for u, v in self.removed_edges:
            g.remove_edge(u, v)
        for v in self.removed_vertices:
            if g.degree(v) != 0:
                raise GraphError(f"replay: vertex {v} still has edges")
            g.remove_vertex(v)
        for v in self.added_vertices:
            if g.has_vertex(v):
                raise GraphError(f"replay: vertex {v} already present")
            g.add_vertex(v)
        for u, v in self.added_edges:
            g.add_edge(u, v)

    def revert(self, g: Graph) -> None:
        """Restore the pre-state in place from a graph in the post-state."""
        for u, v in self.added_edges:
            g.remove_edge(u, v)
        for v in self.added_vertices:
            g.remove_vertex(v)
        for v in self.removed_vertices:
            g.add_vertex(v)
        for u, v in self.removed_edges:
            g.add_edge(u, v)

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "roles": {k: v for k, v in self.roles},
            "removed_vertices": list(self.removed_vertices),
            "removed_edges": [list(e) for e in self.removed_edges],
            "added_vertices": list(self.added_vertices),
            "added_edges": [list(e) for e in self.added_edges],
            "delta_n3": self.delta_n3,
            "component_delta": self.component_delta,
            "delta_k": self.delta_k,
            "made_goober": self.made_goober,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReductionStep":
        """The step of a JSON record; a vertex, role or delta that is not an
        integer (a float is not truncated), a made_goober that is not a bool
        or an edge that is not a pair raises TypeError or ValueError. A
        missing made_goober reads False, which gives the lift's strict bound."""
        made_goober = d.get("made_goober", False)
        if not isinstance(made_goober, bool):
            raise TypeError(f"made_goober {made_goober!r} is not a bool")
        return cls(
            rule_id=d["rule"],
            roles=tuple(sorted((k, index(v)) for k, v in d["roles"].items())),
            removed_vertices=tuple(map(index, d["removed_vertices"])),
            removed_edges=tuple((index(u), index(v)) for u, v in d["removed_edges"]),
            added_vertices=tuple(map(index, d["added_vertices"])),
            added_edges=tuple((index(u), index(v)) for u, v in d["added_edges"]),
            delta_n3=index(d["delta_n3"]),
            component_delta=index(d["component_delta"]),
            delta_k=index(d.get("delta_k", 0)),
            made_goober=made_goober,
        )


# -- template matching -----------------------------------------------------------


def _canonical(matches: list[RuleMatch]) -> list[RuleMatch]:
    """One match per role assignment, sorted by role key."""
    uniq = {}
    for m in matches:
        uniq.setdefault(m.key(), m)
    return [uniq[k] for k in sorted(uniq)]


def _goober_far_end(g: Graph, gb: int, near: int) -> int | None:
    """Other endpoint of a degree-2 vertex used as a side connector."""
    rest = [w for w in g.neighbors(gb) if w != near]
    if len(rest) != 1 or g.multiplicity(gb, rest[0]) != 1 or g.multiplicity(gb, near) != 1:
        return None
    return rest[0]


def _match_bilateral(g: Graph, rule_id: str, starts):
    """Shared enumerator for the four bilateral low-degree shapes. Sides are
    described by how many of the two side edges run through a degree-2
    connector: L1 = (1, 1) across an edge, L3 = (1, 1) across a central
    degree-2 vertex, L4 = (2, 1), L5 = (2, 2). Each y is read off x, the
    start: a neighbour, or for L3 the far end of a degree-2 neighbour."""
    matches = []
    for x in start_order(g, starts):
        if g.degree(x) != 3 or g.loops_at(x):
            continue
        if rule_id == "L3":
            partners = [
                (y, (m,))
                for m in g.neighbors(x)
                if g.degree(m) == 2 and g.multiplicity(x, m) == 1
                for y in g.neighbors(m)
                if y != x and g.multiplicity(m, y) == 1
            ]
        else:
            partners = [(y, ()) for y in g.neighbors(x) if g.multiplicity(x, y) == 1]
        for y, center in partners:
            if g.degree(y) != 3 or g.loops_at(y):
                continue
            if rule_id in ("L1", "L3", "L5") and y < x:
                continue  # symmetric shapes; enumerate one orientation
            core_base = {x, y, *center}
            xs_rest = sorted(w for w in g.neighbors(x) if w != y and w not in center)
            ys_rest = sorted(w for w in g.neighbors(y) if w != x and w not in center)
            if len(xs_rest) != 2 or len(ys_rest) != 2:
                continue
            want_left = 2 if rule_id in ("L4", "L5") else 1
            want_right = 2 if rule_id == "L5" else 1
            for left in _side_options(g, x, xs_rest, want_left, core_base):
                for right in _side_options(g, y, ys_rest, want_right, core_base):
                    side_goobers = left[0] + right[0]
                    if len(set(side_goobers)) != len(side_goobers):
                        continue
                    core = core_base | set(side_goobers)
                    anchors = left[1] + right[1]
                    if any(a in core for a in anchors):
                        continue
                    roles = {"x": x, "y": y}
                    if center:
                        roles["gm"] = center[0]
                    for i, gb in enumerate(left[0]):
                        roles[f"gx{i + 1}"] = gb
                    for i, gb in enumerate(right[0]):
                        roles[f"gy{i + 1}"] = gb
                    roles["a"], roles["b"] = left[1]
                    roles["c"], roles["d"] = right[1]
                    matches.append(RuleMatch(rule_id, roles))
    return _canonical(matches)


def _side_options(g: Graph, near: int, rest: list[int], want_goobers: int, core: set[int]):
    """Ways to read one side's two edges off ``near``: each option is
    (side degree-2 connectors, pair of outgoing end vertices)."""
    p, q = rest
    if want_goobers == 2:
        if g.degree(p) != 2 or g.degree(q) != 2 or p in core or q in core:
            return []
        fp = _goober_far_end(g, p, near)
        fq = _goober_far_end(g, q, near)
        if fp is None or fq is None:
            return []
        return [((p, q), (min(fp, fq), max(fp, fq)))]
    # exactly one side connector: choose which of the two edges runs through
    # a degree-2 vertex; the other end is taken directly
    out = []
    for gb, direct in ((p, q), (q, p)):
        if gb in core or g.degree(gb) != 2:
            continue
        far = _goober_far_end(g, gb, near)
        if far is None:
            continue
        out.append(((gb,), (far, direct)))
    return out


def _match_l2(g: Graph, starts):
    """Components of two vertices joined by an edge, found from the smaller."""
    matches = []
    for u in start_order(g, starts):
        nbrs = g.neighbors(u) - {u}
        if len(nbrs) == 1:
            (v,) = nbrs
            if v > u and g.neighbors(v) - {v} == {u}:
                matches.append(RuleMatch("L2", {"u": u, "v": v}))
    return matches


def _match_l6(g: Graph, starts):
    matches = []
    for g1 in start_order(g, starts):
        if g.degree(g1) != 2 or g.loops_at(g1):
            continue
        for g2 in sorted(g.neighbors(g1)):
            if g2 <= g1 or g.degree(g2) != 2 or g.loops_at(g2):
                continue
            if g.multiplicity(g1, g2) != 1:
                continue
            u = _goober_far_end(g, g1, g2)
            v = _goober_far_end(g, g2, g1)
            if u is None or v is None or u == g2 or v == g1:
                continue
            matches.append(RuleMatch("L6", {"g1": g1, "g2": g2, "u": u, "v": v}))
    return matches


def _match_l7(g: Graph, starts):
    matches = []
    for gz in start_order(g, starts):
        if g.degree(gz) != 2 or g.loops_at(gz):
            continue
        nbrs = sorted(g.neighbors(gz))
        if len(nbrs) != 2:
            continue
        x, y = nbrs
        if not g.has_edge(x, y):
            continue
        if g.degree(x) != 3 or g.degree(y) != 3:
            continue
        a = next(iter(g.neighbors(x) - {gz, y}), None)
        b = next(iter(g.neighbors(y) - {gz, x}), None)
        if a is None or b is None or a == gz or b == gz:
            continue
        matches.append(RuleMatch("L7", {"x": x, "y": y, "gz": gz, "a": a, "b": b}))
    return matches


def _match_diamond_rule(g: Graph, rule_id: str, starts):
    """R1: one connector of degree >= 4, the rest exactly 3.
    R2: both connectors of degree >= 4."""
    matches = []
    for blk in _diamond_blocks(g, starts):
        u, v = blk.conns
        du, dv = g.degree(u), g.degree(v)
        if rule_id == "R1":
            for hi, lo, dhi, dlo in ((u, v, du, dv), (v, u, dv, du)):
                if dhi >= 4 and dlo == 3:
                    matches.append(
                        RuleMatch("R1", {"hi": hi, "lo": lo, "i1": blk.inner[0], "i2": blk.inner[1]})
                    )
        else:
            if du >= 4 and dv >= 4:
                matches.append(
                    RuleMatch("R2", {"u": u, "v": v, "i1": blk.inner[0], "i2": blk.inner[1]})
                )
    return _canonical(matches)


def _match_r3(g: Graph, starts):
    matches = []
    for t in start_order(g, starts):
        if g.degree(t) != 3 or g.loops_at(t):
            continue
        nbrs = sorted(g.neighbors(t))
        if len(nbrs) != 3:
            continue
        for v, w in itertools.permutations(nbrs, 2):
            if not g.has_edge(v, w):
                continue
            u = next(iter(set(nbrs) - {v, w}))
            if g.degree(v) != 3 or g.degree(w) < 3:
                continue
            matches.append(RuleMatch("R3", {"t": t, "u": u, "v": v, "w": w}))
    return _canonical(matches)


def _match_r4(g: Graph, starts):
    matches = []
    for x, pair1, pair2, anchors in _bowties(g, starts):
        if any(a in (x, *pair1, *pair2) for a in anchors):
            continue
        roles = {
            "x": x,
            "p1": pair1[0], "p2": pair1[1],
            "q1": pair2[0], "q2": pair2[1],
            "ap1": anchors[0], "ap2": anchors[1],
            "aq1": anchors[2], "aq2": anchors[3],
        }
        matches.append(RuleMatch("R4", roles))
    return _canonical(matches)


def _match_r5(g: Graph, starts):
    matches = []
    for u in start_order(g, starts):
        if g.degree(u) < 4:
            continue
        for v in sorted(g.neighbors(u)):
            if v <= u or g.degree(v) < 4:
                continue
            matches.append(RuleMatch("R5", {"u": u, "v": v}))
    return matches


def _match_f1(g: Graph, starts):
    out = []
    for m in find_2terminal(g, KIND_2T_DIAMOND, starts):
        c1, i1, i2, c2 = m.vertices
        out.append(RuleMatch("F1", {"u": c1, "v": c2, "i1": i1, "i2": i2}))
    return out


def _match_f2(g: Graph, starts):
    out = []
    for m in find_2terminal(g, KIND_2T_BLOSSOM, starts):
        b, a1, a2, a3, a4, c1, c2 = m.vertices
        out.append(
            RuleMatch("F2", {"b": b, "a1": a1, "a2": a2, "a3": a3, "a4": a4, "c1": c1, "c2": c2})
        )
    return out


_MATCHERS = {
    "L1": lambda g, starts: _match_bilateral(g, "L1", starts),
    "L2": _match_l2,
    "L3": lambda g, starts: _match_bilateral(g, "L3", starts),
    "L4": lambda g, starts: _match_bilateral(g, "L4", starts),
    "L5": lambda g, starts: _match_bilateral(g, "L5", starts),
    "L6": _match_l6,
    "L7": _match_l7,
    "R1": lambda g, starts: _match_diamond_rule(g, "R1", starts),
    "R2": lambda g, starts: _match_diamond_rule(g, "R2", starts),
    "R3": _match_r3,
    "R4": _match_r4,
    "R5": _match_r5,
    "F1": _match_f1,
    "F2": _match_f2,
}

# Each matcher grows a match from one role vertex, its start. The reach is
# the farthest any other role lies from the start, so a match with a role in
# a vertex set starts within its rule's reach of that set.
_REACH = {
    "L1": 3, "L2": 1, "L3": 4, "L4": 3, "L5": 3, "L6": 2, "L7": 2,
    "R1": 1, "R2": 1, "R3": 1, "R4": 2, "R5": 1, "F1": 1, "F2": 2,
}
# Matchers that do not sort by RuleMatch.key list their matches by these
# roles' vertices.
_ORDER = {
    "L2": ("u",), "L6": ("g1", "g2"), "L7": ("gz",), "R5": ("u", "v"),
    "F1": ("u", "i1", "i2", "v"), "F2": ("b", "a1", "a2", "a3", "a4", "c1", "c2"),
}


def _match_order(m: RuleMatch) -> tuple:
    """The sort key of a match's place in find_matches order."""
    names = _ORDER.get(m.rule_id)
    return m.key() if names is None else tuple(m.roles[name] for name in names)


def find_matches(g: Graph, rule_id: str, starts: Iterable[int] | None = None) -> list[RuleMatch]:
    """Every match of one rule, in a fixed order; with ``starts`` (vertices
    of g), only those grown from a start vertex among them."""
    if rule_id not in _MATCHERS:
        raise GraphError(f"unknown rule {rule_id!r}")
    return _MATCHERS[rule_id](g, starts)


def _refresh(g: Graph, cache: dict[str, list[RuleMatch]], touched: set[int]) -> None:
    """Bring each rule's cached matches up to date with g after a step that
    touched ``touched``. A match with no touched role kept its roles'
    degrees and neighbours, so it still fits, and every new match has a
    touched role: the cache drops the matches with one and adds those of a
    rescan from the start vertices within the rule's reach of the touched
    vertices left in g. Both lists are in find_matches order, so the fresh
    matches are inserted by bisection, not sorted in with the kept ones."""
    dist = {v: 0 for v in touched if g.has_vertex(v)}
    frontier = list(dist)
    for d in range(1, max(_REACH[rule_id] for rule_id in cache) + 1):  # breadth first
        layer = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = d
                    layer.append(w)
        frontier = layer
    for rule_id, matches in cache.items():
        starts = [v for v, d in dist.items() if d <= _REACH[rule_id]]
        kept = [m for m in matches if touched.isdisjoint(m.roles.values())]
        for m in find_matches(g, rule_id, starts):
            if not touched.isdisjoint(m.roles.values()):
                insort(kept, m, key=_match_order)
        cache[rule_id] = kept


# -- rewrites --------------------------------------------------------------------


def _fresh_ids(g: Graph, count: int) -> tuple[int, ...]:
    base = max(g.vertices, default=0)
    return tuple(base + i for i in range(1, count + 1))


def build_plan(g: Graph, match: RuleMatch) -> ReductionStep:
    """The rewrite of one match, as a step whose deltas are still zero."""
    r = match.roles
    rid = match.rule_id
    removed: list[int] = []
    cut: list[tuple[int, int]] = []  # removed edges not at a removed vertex
    fresh: tuple[int, ...] = ()
    added: list[tuple[int, int]] = []
    if rid in ("L1", "L3", "L4", "L5"):
        removed = [r["x"], r["y"]]
        removed += [v for k, v in r.items() if k.startswith(("gm", "gx", "gy"))]
        fresh = gl, gr = _fresh_ids(g, 2)
        added = [(gl, r["a"]), (gl, r["b"]), (gr, r["c"]), (gr, r["d"])]
    elif rid == "L2":
        cut = [edge_key(r["u"], r["v"])] * g.multiplicity(r["u"], r["v"])
    elif rid == "L6":
        removed = [r["g1"], r["g2"]]
        fresh = _fresh_ids(g, 1)
        added = [(fresh[0], r["u"]), (fresh[0], r["v"])]
    elif rid == "L7":
        removed = [r["gz"]]
    elif rid in ("R1", "R2", "F1"):
        removed = [max(r["i1"], r["i2"])]
    elif rid == "R3":
        removed = [r["t"]]
        added = [(r["u"], r["w"])]
    elif rid == "R4":
        removed = [r["x"], r["p1"], r["p2"], r["q1"], r["q2"]]
    elif rid == "R5":
        cut = [edge_key(r["u"], r["v"])]
    elif rid == "F2":
        # blossom -> the double-star gadget c1~{a4,a1}, c2~{a4,a3}: drop the
        # center and one triangle mate, cut a3-a4, reroute c2 to a4. Terminal
        # degrees are preserved. This replacement was screened exhaustively
        # against the exact oracle over host batteries; gadgets keeping any
        # triangle or a second inner edge change the optimum by 0 or 2 in
        # some hosts.
        removed = [r["b"], r["a2"]]
        cut = [edge_key(r["a3"], r["a4"])]
        added = [(r["c2"], r["a4"])]
    else:
        raise GraphError(f"unknown rule {rid!r}")
    gone = set(removed)
    for u in gone:
        for w in g.neighbors(u):
            if w not in gone or u <= w:  # an edge between two removed vertices once
                cut += [edge_key(u, w)] * g.multiplicity(u, w)
    return ReductionStep(
        rule_id=rid,
        roles=tuple(sorted(r.items())),
        removed_vertices=tuple(sorted(gone)),
        removed_edges=tuple(sorted(cut)),
        added_vertices=fresh,
        added_edges=tuple(sorted(edge_key(u, v) for u, v in added)),
        delta_k=1 if rid in FPT_RULES else 0,
    )


# -- admissibility ----------------------------------------------------------------


def _template_fits(g: Graph, match: RuleMatch) -> bool:
    fresh = find_matches(g, match.rule_id)
    return any(m.key() == match.key() for m in fresh)


def _shared_end_reason(g: Graph, match: RuleMatch) -> str | None:
    r = match.roles
    rid = match.rule_id
    if rid in ("L1", "L3", "L4", "L5"):
        for side in (("a", "b"), ("c", "d")):
            e1, e2 = r[side[0]], r[side[1]]
            if e1 == e2 and not is_goober(g, e1):
                return "outgoing edges share a non-goober end vertex"
    if rid == "L6":
        if r["u"] == r["v"] and not is_goober(g, r["u"]):
            return "outgoing edges share a non-goober end vertex"
    if rid == "L7":
        if r["a"] == r["b"]:
            return "outgoing edges share an end vertex"
    return None


def _vet(
    g: Graph, match: RuleMatch, before: Graph | None = None
) -> tuple[str | None, ReductionStep | None]:
    """The admissibility check of a match that fits its template on g, made
    on g itself: the rewrite is applied in place and reverted when the rule
    does not apply. Returns the violated condition (None when the rule
    applies) and then the step, read off the touched degrees before and
    after the rewrite and one component walk after it. ``before``, a copy of
    g, is given when g may violate the invariant; without it g satisfies it."""
    rid = match.rule_id
    r = match.roles
    reason = _shared_end_reason(g, match)
    if reason:
        return reason, None

    plan = build_plan(g, match)
    touched = plan.touched()  # every other vertex keeps its neighbours
    uw_present = rid == "R3" and g.has_edge(r["u"], r["w"])
    before_deg = {v: g.degree(v) for v in touched if g.has_vertex(v)}
    plan.apply(g)
    after_deg = {v: g.degree(v) for v in touched if g.has_vertex(v)}
    # the matched structure joins every touched vertex of the pre-state, so
    # they met one component; a fresh vertex reads as degree 3 before
    split = components_meeting(g, after_deg) - 1
    n3 = sum(d >= 3 for d in before_deg.values()) - sum(d >= 3 for d in after_deg.values())
    goober = any(d <= 2 and before_deg.get(v, 3) >= 3 for v, d in after_deg.items())
    step = replace(plan, delta_n3=n3, component_delta=split, made_goober=goober)
    if rid in FPT_RULES:
        return None, step
    if rid == "R5" and split:
        reason = "bridge"
    elif rid == "R3" and split:
        reason = "connectivity"
    elif rid == "R4" and split <= 0:
        reason = "connectivity"
    elif uw_present:
        reason = "edge uw already present"
    elif before is None:
        # g had no 2-necklace or 2-blossom, so any in the result is new
        clause = check_invariant(g).violated_clause
        if clause in (KIND_2NECKLACE, KIND_2BLOSSOM):
            reason = f"creates a new {clause}"
        elif clause:
            reason = f"would violate the invariant ({clause})"
    else:
        # scanning only structures that meet the touched set is complete: a
        # forbidden structure avoiding every touched vertex existed before
        created = introduces_forbidden(before, g, touched)
        if created is not None:
            reason = f"creates a new {created.kind}"
    if reason is not None:
        plan.revert(g)
        return reason, None
    return None, step


def _vet_outside(g: Graph, match: RuleMatch) -> tuple[str | None, ReductionStep | None, Graph]:
    """_vet on a copy of g for a caller's match, which the rule's matcher
    must find on g; also returns the copy, rewritten when the rule applies."""
    if not _template_fits(g, match):
        raise InadmissibleError(match.rule_id, "match does not fit the rule template")
    after = g.copy()
    reason, step = _vet(after, match, None if check_invariant(g).ok else g)
    return reason, step, after


def admissible(g: Graph, match: RuleMatch) -> tuple[bool, str]:
    """Full admissibility verdict with the violated condition on failure."""
    reason, _, _ = _vet_outside(g, match)
    return reason is None, reason or "ok"


def apply_rule(g: Graph, match: RuleMatch) -> tuple[Graph, ReductionStep]:
    """Apply one rule; raises InadmissibleError with the reason otherwise."""
    reason, step, after = _vet_outside(g, match)
    if reason is not None:
        raise InadmissibleError(match.rule_id, reason)
    return after, step


def _reduce(g: Graph, rules: tuple[str, ...]) -> tuple[Graph, list[ReductionStep]]:
    """Apply the first admissible match (rules in the given order, matches
    in find_matches order) until none is left, on one copy of g. The matches
    fit by construction: each rule's stay cached and are refreshed around
    each step's touched vertices. L/R rules run on invariant graphs (checked
    at entry, kept by every admitted step), and F rules never consult the
    invariant."""
    cur = g.copy()
    steps: list[ReductionStep] = []
    cache = {rule_id: find_matches(cur, rule_id) for rule_id in rules}
    budget = 4 * (g.n + g.m) + 16
    while len(steps) <= budget:
        for match in (m for rule_id in rules for m in cache[rule_id]):
            reason, step = _vet(cur, match)
            if reason is None:
                steps.append(step)
                _refresh(cur, cache, step.touched())
                break
        else:
            return cur, steps
    raise GraphError("reduction did not terminate within its budget")


def reduce_to_irreducible(g: Graph) -> tuple[Graph, list[ReductionStep]]:
    """Apply low- and high-degree rules (lowest id first, smallest match
    first) until none is admissible. The input must satisfy the invariant;
    every intermediate graph then satisfies it as well."""
    if not check_invariant(g).ok:
        raise GraphError("reduce_to_irreducible requires an invariant-satisfying graph")
    return _reduce(g, LOW_RULES + HIGH_RULES)


def fpt_preprocess(g: Graph, k: int) -> tuple[Graph, int, list[ReductionStep]]:
    """Remove every 2-terminal diamond and blossom, decrementing the target
    once per application."""
    if k < 1:
        raise GraphError("k must be at least 1")
    reduced, steps = _reduce(g, FPT_RULES)
    return reduced, k - len(steps), steps


# -- tree reconstruction ------------------------------------------------------------


def reconstruct_tree(
    g_before: Graph, step: ReductionStep, forest_edges: set[tuple[int, int]]
) -> set[tuple[int, int]]:
    """Lift a spanning forest of the reduced graph back over one step.

    Keeps every forest edge that survives in the pre-graph and searches all
    ways to complete it with the edges the step removed, maximizing the leaf
    count (the first best in sorted order). Raises ReconstructionError when
    the forest does not span the reduced graph, the step's region is not as
    its rule records it, or the leaf contract cannot be met.
    """
    return reconstruct_chain(g_before, [step], forest_edges)


def _region_roots(step: ReductionStep, adj: dict[int, set[int]], added: set) -> dict[int, int]:
    """A union-find over an F step's region in its pre-state, read before
    the lift: two of its vertices share a root when the forest ``adj``
    without the step's added edges joins them. The region meets the rest of
    the graph only at its two terminals, so the forest joins them inside the
    region, when it has one edge more at the region's inner vertices R than
    R has vertices, or else outside it, where the step changed nothing. A
    forest edge at R or a removed edge that leaves the region shows that the
    step's region is not two-terminal."""
    roles = dict(step.roles)
    ends = (roles["u"], roles["v"]) if step.rule_id == "F1" else (roles["c1"], roles["c2"])
    inner = set(roles.values()).difference(ends, step.removed_vertices)
    at_inner = {edge_key(v, w) for v in inner for w in adj.get(v, ())}
    parent = {v: v for v in itertools.chain(inner, ends, step.removed_vertices)}
    if any(u not in parent or v not in parent for u, v in itertools.chain(at_inner, step.removed_edges)):
        raise ReconstructionError("step region is not two-terminal")
    for u, v in at_inner - added:
        parent[find(parent, u)] = find(parent, v)
    if len(at_inner) <= len(inner):
        parent[find(parent, ends[0])] = find(parent, ends[1])
    return parent


def _lift(step: ReductionStep, adj: dict[int, set[int]], leaves: int, cc_after: int, cc_before: int) -> int:
    """Lift a spanning forest in place over one step and return its leaf
    count. ``adj`` maps every vertex of the step's post-state, which has
    ``cc_after`` components, to its forest neighbours; the forest has
    ``leaves`` leaves, and the pre-state has ``cc_before`` components. An F
    step reads its region only, an L/R step joins the kept forest in one
    union-find; neither reads a graph."""
    added = {edge_key(u, v) for u, v in step.added_edges}
    # revert drops the added edges and restores the removed ones, so the
    # removed edges hold every pre-graph edge at a removed vertex; a forest
    # edge the step did not add is a pre-graph edge, kept by the lift
    removed = {edge_key(u, v) for u, v in step.removed_edges}
    pool = sorted(e for e in removed if e[1] not in adj.get(e[0], ()) or e in added)
    back = [e for e in added if e[1] in adj.get(e[0], ())]  # the forest edges the step added
    size = len(adj) - cc_after  # the forest's edges
    fpt = step.rule_id in FPT_RULES
    if fpt:
        parent = _region_roots(step, adj, added)
    else:
        # a spanning forest has one tree per component of two or more vertices
        nontrivial = sum(1 for ws in adj.values() if ws) - size
    leaves_after = leaves
    for u, v in back:
        adj[u].discard(v)
        adj[v].discard(u)
        for w in (u, v):
            leaves += (len(adj[w]) == 1) - (not adj[w])
    for v in step.added_vertices:
        del adj[v]  # a fresh vertex's edges are all added
    for v in step.removed_vertices:
        adj[v] = set()
    if not fpt:
        parent = {v: v for v in adj}
        for u, ws in adj.items():
            for w in ws:
                if u < w:
                    parent[find(parent, u)] = find(parent, w)
    need = (len(adj) - cc_before) - (size - len(back))

    # every candidate, the kept forest plus ``need`` pool edges, has
    # n - cc_before distinct edges of the pre-graph, so it spans the
    # pre-graph exactly when it is acyclic: when its extra edges join
    # distinct trees of the kept forest and close no cycle among them. Each
    # tree a pool edge meets gets a small id, and only the extra edges'
    # endpoints change degree, so each candidate costs O(need)
    ids: dict[int, int] = {}
    ends = [
        (ids.setdefault(find(parent, u), len(ids)), ids.setdefault(find(parent, v), len(ids)), u, v)
        for u, v in pool
    ]
    trees = list(range(len(ids)))
    degree = {v: len(adj[v]) for e in pool for v in e}
    best: tuple[tuple[int, int, int, int], ...] | None = None
    best_leaves = -1
    for extra in itertools.combinations(ends, need):
        joined = trees[:]
        grown = degree.copy()
        count = leaves
        for a, b, u, v in extra:
            while joined[a] != a:
                a = joined[a]
            while joined[b] != b:
                b = joined[b]
            if a == b:
                break
            joined[a] = b
            d = grown[u] = grown[u] + 1
            count += (d == 1) - (d == 2)
            d = grown[v] = grown[v] + 1
            count += (d == 1) - (d == 2)
        else:
            if count > best_leaves:
                best_leaves = count
                best = extra
    if best is None:
        raise ReconstructionError("no completion spans the original graph")

    if fpt:
        if best_leaves < leaves_after + 1:
            raise ReconstructionError("lift lost the extra leaf of an FPT step")
    else:
        # when a rewrite leaves a low-degree vertex behind, trees of the
        # reduced graph carry a stronger leaf guarantee, worth 2/3 here
        slack = 2 if nontrivial <= cc_before and step.made_goober else 0
        if 3 * (best_leaves - leaves_after) < step.delta_n3 - 6 * (nontrivial - 1) - slack:
            raise ReconstructionError("lift misses the reconstruction bound")
    for _, _, u, v in best:
        adj[u].add(v)
        adj[v].add(u)
    return best_leaves


def reconstruct_chain(
    g_start: Graph,
    steps: list[ReductionStep],
    forest_edges: set[tuple[int, int]],
    reduced: Graph | None = None,
) -> set[tuple[int, int]]:
    """Undo a whole trace: lift a spanning forest of the final graph to
    g_start. The final graph is ``reduced`` when the caller holds it (g_start
    taken through the steps, as fpt_preprocess returns it), else one copy of
    g_start taken forward through the steps, which checks that they replay.
    The forest is checked once there, then carried back step by step with
    its leaf count, and the component count with each component_delta; no
    graph is read or changed after the check."""
    g = reduced
    if g is None:
        g = g_start.copy()
        for step in steps:
            step.apply(g)
    forest = {edge_key(u, v) for u, v in forest_edges}
    # edges of g with n - |forest| trees have no cycle; such a forest has no
    # fewer trees than g has components and spans g when the two are equal,
    # always when it is one tree, so only several trees need g's count
    cc = g.n - len(forest)
    if not (
        all(g.has_edge(u, v) for u, v in forest)
        and component_count(g._adj, forest) == cc
        and (cc <= 1 or components_meeting(g, g._adj) == cc)
    ):
        raise ReconstructionError("input forest does not span the reduced graph")
    adj: dict[int, set[int]] = {v: set() for v in g._adj}
    for u, v in forest:
        adj[u].add(v)
        adj[v].add(u)
    leaves = sum(1 for ws in adj.values() if len(ws) == 1)
    for step in reversed(steps):
        leaves = _lift(step, adj, leaves, cc, cc - step.component_delta)
        cc -= step.component_delta
    return {(u, w) for u, ws in adj.items() for w in ws if u < w}
