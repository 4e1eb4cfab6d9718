"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

import run
import spans
import workloads

ML = workloads.import_maxleaf(run.ROOT)


@pytest.fixture(scope="module")
def instances():
    return {w: workloads.build(ML, w, 0) for w in workloads.WORKLOADS}


def one_pass(insts, tracer=None):
    runner = run.Runner(ML, insts)
    if tracer is None:
        runner.passes(0)
    else:
        with tracer.installed():
            runner.passes(0, wrap=tracer.operation)
    return runner


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_give_identical_answers(instances, workload):
    insts = instances[workload]
    plain = one_pass(insts)
    tracer = spans.Tracer()
    traced = one_pass(insts, tracer)
    assert plain.failed == traced.failed == 0
    assert plain.reference == traced.reference
    assert sum(plain.reference) == sum(traced.reference)
    metrics = tracer.layer_metrics(1)
    assert metrics["solver.achievable_leaves.calls"] == traced.subsets
    assert {name for name, _, _ in spans.PER_LAYER} - metrics.keys() == {
        "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead"
    }


def test_tracing_is_removed_afterwards(instances):
    originals = {name: getattr(ML, name) for name in ("fpt_decide", "parse_graph", "exact_max_leaves")}
    tracer = spans.Tracer()
    with tracer.installed():
        assert ML.solver.fpt_decide is not originals["fpt_decide"]
        assert ML.fpt_decide is ML.solver.fpt_decide
    for name, fn in originals.items():
        assert getattr(ML, name) is fn
    assert ML.solver.achievable_leaves.__name__ == "achievable_leaves"


def test_self_times_sum_to_each_operation(instances):
    tracer = spans.Tracer()
    one_pass(instances["lift"][:2] + instances["decide-yes"][-2:], tracer)
    own = tracer.self_times()
    per_op: dict[int, float] = {}
    roots = {}
    for (name, t0, t1, parent, op), s in zip(tracer.records(), own):
        assert s >= -1e-9
        per_op[op] = per_op.get(op, 0.0) + s
        if parent == -1:
            assert name == spans.OP
            roots[op] = t1 - t0
    assert len(roots) == 4
    for op, duration in roots.items():
        assert math.isclose(per_op[op], duration, rel_tol=1e-9, abs_tol=1e-9)


def test_layer_metrics_stress_their_workload(instances):
    tracer = spans.Tracer()
    one_pass(instances["exact-oracle"][:4], tracer)
    metrics = tracer.layer_metrics(1)
    assert metrics["solver.exact_max_leaves.calls"] == 4
    assert metrics["solver.achievable_leaves.calls"] == 0
    assert metrics["graphs.parse_graph.self_s"] > 0


def test_wrong_expected_value_is_a_failure(instances):
    g7 = instances["exact-oracle"][0]
    assert g7.family == "g7"
    no = next(i for i in instances["decide-no"] if i.family == "random")
    wrong = [dataclasses.replace(g7, expected=5), dataclasses.replace(no, k=no.k - 1)]
    runner = one_pass(wrong + [g7])
    assert (runner.attempted, runner.failed) == (3, 2)


def test_wrong_tree_is_a_failure(instances):
    g7 = instances["exact-oracle"][0]
    _, tree = ML.exact_max_leaves(ML.parse_graph(g7.text))
    assert workloads.tree_leaves(g7, tree) == 4
    # too few edges, a repeated edge (a cycle), an edge not in the graph
    for bad in (tree[:-1], tree[:-1] + [tree[0]], tree[:-1] + [(1, 1)]):
        with pytest.raises(workloads.CheckFailed):
            workloads.tree_leaves(g7, bad)


def test_failure_makes_the_command_fail(monkeypatch, capsys, instances):
    g7 = instances["exact-oracle"][0]
    monkeypatch.setattr(workloads, "build", lambda ml, w, seed: [dataclasses.replace(g7, expected=3), g7])
    code = run.main(["--workload", "exact-oracle", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_random_instances_only(instances, workload):
    a = instances[workload]
    b = workloads.build(ML, workload, 1)
    assert a == workloads.build(ML, workload, 0)
    family = [(x, y) for x, y in zip(a, b) if x.family != "random"]
    random_pairs = [(x, y) for x, y in zip(a, b) if x.family == "random"]
    assert family and random_pairs
    assert all(x == y for x, y in family)
    assert all(x.text != y.text for x, y in random_pairs)


def test_setup_is_repeated_over_the_run(capsys):
    code = run.main(["--workload", "lift", "--seconds", "2", "--trace", "0"])
    out = capsys.readouterr().out
    repeats = int(out.split(" set-up ")[1].split()[0])
    assert code == 0 and 2 <= repeats <= run.SETUP_REPEATS


def test_percentile_is_nearest_rank():
    assert run.percentile([0.4, 0.1, 0.3, 0.2], 0.5) == 0.2
    assert run.percentile([0.4, 0.1, 0.3, 0.2], 0.9) == 0.4
    assert run.percentile(list(range(1, 21)), 0.9) == 18


def test_all_workloads_give_one_combined_result(capsys):
    code = run.main(["--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {f"{w}.{name}" for w in workloads.WORKLOADS for name in run.END_TO_END_UNITS}


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(workloads.WHY.items())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER


def test_baseline_describes_these_workloads(instances):
    baseline = json.loads((run.ROOT / "perfbench" / "baseline.json").read_text())
    for w in workloads.WORKLOADS:
        assert baseline["workloads"][w]["why"] == workloads.WHY[w]
        assert baseline["workloads"][w]["manifest_seed_0"] == [inst.manifest() for inst in instances[w]]
