"""maxleaf benchmark: four workloads against the public maxleaf API, every
answer checked.

    python3 perfbench/run.py                        # all workloads, one process each
    python3 perfbench/run.py --workload decide-no --seed 3 --seconds 30 --trace 0

Run from the root of a source tree; maxleaf is imported from its ``src``.
One operation is parse_graph(text) plus one call plus the answer check,
closed loop, one caller, one thread. Set-up (instance generation, expected
values, serialization) runs once; then whole passes over the instance list
run until ``--seconds`` (default: 30, the ``run_seconds`` of BENCHMARK.json)
would be exceeded by one more pass. Every pass must repeat the first pass's
answers. Set-up is repeated between passes, about once a second, and must
rebuild the same instances.

Passes move the process from one of its CPUs to the next. On a shared
machine one CPU can run the same code a third slower than another for
minutes at a time, under other tenants' load; a process left where the
scheduler put it measures whichever it got. Each operation's latency is its
instance's best time over all passes, and setup_s is the median of the
set-up times on the CPU where that median is lowest, so neither depends on
where the run started.

Taking the best time is the convention of Python's timeit: on a shared
machine a slower repeat measures the machine, not the program. ops_per_s is
the instance count over the sum of these best times, and latency_p50_s and
latency_p90_s are nearest-rank percentiles of them over the instance list,
so each is one instance's best time. answer_leaves is the leaf count the answers establish:
returned trees' leaves, or the threshold k that a NO refutes. On decide-no it
is therefore fixed by the instances and guards only against failures.

With ``--trace 0`` the end-to-end metrics are printed. With ``--trace 1``
half the time runs untraced and half traced, and the per-layer metrics are
printed, with the spans written to ``.perfbench_out/``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics;
without ``--workload`` it combines every workload's, with metric names
prefixed by the workload. Exit codes: 0 when every answer was right, 1 when
one was not, 2 when maxleaf cannot be imported, 3 when the answers were
right but the traced achievable_leaves calls differ from the forced sets
fpt_decide reports (the trace has missed or double-counted a call).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 30
SETUP_REPEATS = 30  # spread evenly over the run
# CPUs the benchmark moves between, one per pass; [None] where it cannot choose
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None]

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "answer_leaves": "leaves",
}


class Runner:
    """Runs and checks operations, and keeps the tally of one workload."""

    def __init__(self, ml, instances):
        self.ml = ml
        self.instances = instances
        self.attempted = 0
        self.failed = 0
        self.subsets = 0
        self.reference: list[int | None] = []  # leaves per instance, from the first pass

    def op(self, i: int) -> None:
        inst = self.instances[i]
        self.attempted += 1
        try:
            leaves, subsets = workloads.run_op(self.ml, inst)
            if len(self.reference) > i and leaves != self.reference[i]:
                raise workloads.CheckFailed(f"{leaves} leaves, {self.reference[i]} in the first pass")
        except Exception as exc:  # every failure is counted, whatever raised it
            self.failed += 1
            leaves = None
            if self.failed <= 5:
                print(f"FAIL {inst.family} {dict(inst.params)} k={inst.k}: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            self.subsets += subsets
        if len(self.reference) == i:
            self.reference.append(leaves)

    def passes(self, seconds: float, wrap=None, between=None) -> tuple[list[float], int]:
        """Whole passes while one more fits in ``seconds`` (at least one),
        each on the next CPU, calling ``between(elapsed, cpu)`` after each.
        Returns each instance's best latency and the number of passes."""
        best = [math.inf] * len(self.instances)
        clock = time.perf_counter
        start = clock()
        count = 0
        try:
            while True:
                pass_start = clock()
                cpu = pin(count)
                for i in range(len(self.instances)):
                    t0 = clock()
                    if wrap is None:
                        self.op(i)
                    else:
                        with wrap():
                            self.op(i)
                    best[i] = min(best[i], clock() - t0)
                count += 1
                if between is not None:
                    between(clock() - start, cpu)
                now = clock()
                if 2 * now - pass_start - start > seconds:
                    return best, count
        finally:
            unpin()


def pin(i: int):
    """Move this process to the i-th of its CPUs, cyclically; return that CPU."""
    cpu = CPUS[i % len(CPUS)]
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    return cpu


def unpin() -> None:
    if CPUS[0] is not None:
        os.sched_setaffinity(0, CPUS)


def ops_per_s(best: list[float]) -> float:
    return len(best) / sum(best)


def percentile(best: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the values at or below it."""
    return sorted(best)[math.ceil(q * len(best)) - 1]


def timed_build(ml, workload: str, seed: int):
    gc.collect()  # every set-up starts from the same heap state
    t0 = time.perf_counter()
    instances = workloads.build(ml, workload, seed)
    return time.perf_counter() - t0, instances


def run_workload(args, ml) -> int:
    cpu = pin(0)
    setup_time, instances = timed_build(ml, args.workload, args.seed)
    setup_times = {cpu: [setup_time]}  # by the CPU they ran on

    def setup_again(elapsed: float, cpu) -> None:
        done = sum(map(len, setup_times.values()))
        if done < SETUP_REPEATS and elapsed >= done * args.seconds / SETUP_REPEATS:
            setup_time, again = timed_build(ml, args.workload, args.seed)
            setup_times.setdefault(cpu, []).append(setup_time)
            if again != instances:
                raise RuntimeError(f"set-up of {args.workload} at seed {args.seed} built different instances")

    runner = Runner(ml, instances)
    status = 0
    print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances per pass ({workloads.WHY[args.workload]})")
    if not args.trace:
        best, passes = runner.passes(args.seconds, between=setup_again)
        metrics = {
            "ops_per_s": ops_per_s(best),
            "latency_p50_s": percentile(best, 0.5),
            "latency_p90_s": percentile(best, 0.9),
            "setup_s": min(map(statistics.median, setup_times.values())),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "answer_leaves": sum(leaves or 0 for leaves in runner.reference),
        }
        units = END_TO_END_UNITS
        print(f"{passes} passes, {passes * len(instances)} operations; latencies are per-instance best times;"
              f" set-up {sum(map(len, setup_times.values()))} times on {len(setup_times)} CPUs")
    else:
        best, _ = runner.passes(args.seconds / 2)
        untraced = ops_per_s(best)
        tracer = spans.Tracer()
        runner.subsets = 0
        with tracer.installed():
            best, passes = runner.passes(args.seconds / 2, wrap=tracer.operation)
        metrics = tracer.layer_metrics(passes)
        metrics["trace.untraced_ops_per_s"] = untraced
        metrics["trace.traced_ops_per_s"] = ops_per_s(best)
        metrics["trace.overhead"] = untraced / metrics["trace.traced_ops_per_s"]
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        calls = round(metrics["solver.achievable_leaves.calls"] * passes)
        if calls == runner.subsets:
            print(f"check achievable_leaves calls = subsets_enumerated: {calls}")
        else:
            status = 3
            print(f"CHECK FAILED achievable_leaves ran {calls} times, fpt_decide reports {runner.subsets} subsets", file=sys.stderr)
        tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}.tsv.gz")

    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    print(f"error_rate {runner.failed}/{runner.attempted}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if runner.failed else status


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own. The
    children's result lines are combined into one."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=args.seconds * 4 + 300)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        status = status or proc.returncode
        try:
            result = json.loads(lines.pop())
        except (IndexError, ValueError):
            result = None
        sys.stdout.write("".join(line + "\n" for line in lines) + "\n")
        if result is None:
            print(f"{workload}: no result (exit code {proc.returncode})", file=sys.stderr)
            combined["correct"] = False
            status = status or 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ml = workloads.import_maxleaf(ROOT)
    except ImportError as exc:
        print(f"cannot import maxleaf from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args, ml)


if __name__ == "__main__":
    sys.exit(main())
